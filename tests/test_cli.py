import json
import os
import re
import subprocess
import sys
import time
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from huffwyth import cli, huffman, oracle, theorems, wythoff
from huffwyth.numbers import _from_decimal, fib
from huffwyth.huffman import run_huffman, trace_from_json
from fixture_tables import fixture_rows


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------ simple commands

def test_fib(capsys):
    rc, out, _ = run(capsys, "fib", "--n", "10")
    assert rc == 0 and out == "55\n"


def test_lucas(capsys):
    rc, out, _ = run(capsys, "lucas", "--n", "8")
    assert rc == 0 and out == "47\n"


def test_fib_beyond_int_string_limit(capsys):
    # F(30000) has 6270 digits, past the 4300-digit default of Python 3.11+
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    saved = limit()
    rc, out, _ = run(capsys, "fib", "--n", "30000")
    digits = out.strip()
    assert rc == 0
    a, b = 0, 1
    for _ in range(30000):
        a, b = b, (a + b) % 10 ** 18
    assert digits[-18:] == f"{a:018d}"
    assert len(digits) == 6270
    assert 10 ** 6269 <= fib(30000) < 10 ** 6270
    assert limit() == saved     # main() leaves the caller's limit alone


def test_fib_negative_is_input_error(capsys):
    rc, _, err = run(capsys, "fib", "--n", "-2")
    assert rc == 1 and "error" in err


def test_int_flags_take_only_ascii_digits(capsys):
    for text in ("1_0", "\u0661\u0660"):
        rc, out, err = run(capsys, "fib", "--n", text)
        assert (rc, out) == (1, ""), text
        assert f"invalid int value: {text!r}" in err
    rc, out, err = run(capsys, "huffman", "--weights", "1_0,2_0")
    assert (rc, out) == (1, "") and "malformed weight list" in err


def test_wythoff_classical(capsys):
    rc, out, _ = run(capsys, "wythoff", "--row", "8", "--cols", "4")
    assert rc == 0 and out == "22 36 58 94\n"


def test_wythoff_generalized(capsys):
    rc, out, _ = run(capsys, "wythoff", "--row", "1", "--cols", "4", "--generalized")
    assert rc == 0 and out == "1 3 4 7\n"


def test_wythoff_bad_cols(capsys):
    rc, _, err = run(capsys, "wythoff", "--row", "1", "--cols", "0")
    assert rc == 1 and "cols" in err


def test_minseq_k(capsys):
    rc, out, _ = run(capsys, "minseq", "--n", "10", "--k", "1")
    assert rc == 0
    assert out == "1,1,1,2,4,6,10,16,26,42\ncost 276\n"


def test_minseq_abs(capsys):
    rc, out, _ = run(capsys, "minseq", "--n", "10", "--abs")
    assert rc == 0
    assert out == "1,1,2,3,5,8,13,21,34,55\ncost 363\n"


def test_minseq_requires_class_choice(capsys):
    # exactly one of --k and --abs, for each command that takes a class
    for command in ("minseq", "cost", "verify"):
        rc, _, err = run(capsys, command, "--n", "5")
        assert rc == 1 and "--k --abs is required" in err
        rc, _, err = run(capsys, command, "--n", "5", "--k", "0", "--abs")
        assert rc == 1 and "not allowed" in err


def test_minseq_k_out_of_range(capsys):
    rc, _, err = run(capsys, "minseq", "--n", "5", "--k", "7")
    assert rc == 1 and "k" in err


def test_cost_command(capsys):
    rc, out, _ = run(capsys, "cost", "--n", "10", "--k", "7")
    assert rc == 0 and out == "230\n"
    rc, out, _ = run(capsys, "cost", "--n", "3", "--abs")
    assert rc == 0 and out == "6\n"


# ------------------------------------------------------------ size limits

@pytest.mark.parametrize("argv, limit", [
    ("fib --n 1000000000000", "200000 digits per number"),
    ("lucas --n 1000000000000", "200000 digits per number"),
    ("cost --n 1000000000000 --abs", "200000 digits per number"),
    ("minseq --n 1000000 --abs", "200000 digits per number"),
    ("minseq --n 14000 --k 3", "20000000 characters in all"),
    ("wythoff --row 1 --cols 1000000000", "200000 digits per number"),
    ("wythoff --row 1 --cols 14000", "20000000 characters in all"),
    ("verify --n 1000000 --abs", "200000 digits per number"),
    ("verify --n 14000 --k 3", "20000000 characters in all"),
])
def test_past_the_size_limit_fails_before_the_work(capsys, monkeypatch, argv, limit):
    def refuse(*args):
        raise AssertionError("the work started")

    for module, name in ((cli, "fib"), (cli, "lucas"), (theorems, "min_k_sequence"),
                         (theorems, "min_k_cost"), (wythoff, "wythoff_row"),
                         (oracle, "brute_force_min")):
        monkeypatch.setattr(module, name, refuse)
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (1, "") and limit in err


def test_size_estimates_bound_the_output(capsys):
    for argv in ("fib --n 0", "fib --n 1", "fib --n 30000", "lucas --n 1", "lucas --n 5000",
                 "cost --n 3 --k 0", "cost --n 5000 --abs", "minseq --n 3 --abs",
                 "minseq --n 300 --k 7", "wythoff --row 0 --cols 1",
                 "wythoff --row 12345678901234567890 --cols 300 --generalized",
                 "wythoff --row 1 --cols 2000"):
        largest, total, count = cli._output_bits(cli._build_parser().parse_args(argv.split()))
        rc, out, _ = run(capsys, *argv.split())
        numbers = [_from_decimal(x) for x in re.findall(r"\d+", out)]
        assert rc == 0 and len(numbers) <= count, argv
        assert max(numbers).bit_length() <= largest, argv
        assert sum(x.bit_length() for x in numbers) <= total, argv


def _trace_text(trace, fmt):
    if fmt == "json":
        return huffman.trace_to_json(trace, 2) + "\n"
    return "".join(cli._csv_chunks(trace) if fmt == "csv" else cli._table_chunks(trace))


@given(st.sampled_from([3, 10**6, 10**40]).flatmap(
           lambda top: st.lists(st.integers(1, top), min_size=1, max_size=40)),
       st.sampled_from(list(huffman.TiePolicy)))
@settings(max_examples=200)
def test_trace_size_bound_holds(weights, policy):
    trace = run_huffman(sorted(weights), policy)
    for fmt in ("json", "csv", "table"):
        assert len(_trace_text(trace, fmt)) <= cli._trace_chars(trace, fmt)


def test_trace_size_bound_admits_large_traces():
    # 3000 ones print 9.1 MB of CSV; n = 400 minimizers about 5.5 MB in any format
    assert cli._trace_chars(run_huffman([1] * 3000), "csv") <= cli._MAX_OUTPUT
    for k in (None, 5, 397):
        trace = run_huffman(theorems.min_k_sequence(400, k))
        for fmt in ("json", "csv", "table"):
            assert cli._trace_chars(trace, fmt) <= cli._MAX_OUTPUT


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_huffman_trace_past_the_size_limit(capsys, fmt):
    # 6000 ones would print 36 MB of CSV
    ones = ",".join(["1"] * 6000)
    rc, out, err = run(capsys, "huffman", "--weights", ones, "--trace", "--format", fmt)
    assert (rc, out) == (1, "")
    assert "huffman --trace would print up to" in err and "20000000 characters in all" in err


# ------------------------------------------------------------ huffman command

def test_huffman_total_only(capsys):
    rc, out, _ = run(capsys, "huffman", "--weights", "1,1,2,3,5")
    assert rc == 0 and out == "12\n"


def test_huffman_sort_flag(capsys):
    rc, out, _ = run(capsys, "huffman", "--weights", "5,1,3,1,2", "--sort")
    assert rc == 0 and out == "12\n"


def test_huffman_unsorted_rejected(capsys):
    rc, _, err = run(capsys, "huffman", "--weights", "5,1")
    assert rc == 1 and "non-decreasing" in err


def test_huffman_malformed_weights(capsys):
    rc, _, err = run(capsys, "huffman", "--weights", "1,,2")
    assert rc == 1 and "malformed" in err
    rc, _, err = run(capsys, "huffman", "--weights", "1,x")
    assert rc == 1 and "malformed" in err


def test_huffman_trace_table_matches_fixture(capsys):
    weights = fixture_rows("example1")[0]
    rc, out, _ = run(capsys, "huffman", "--weights", ",".join(map(str, weights)), "--trace")
    assert rc == 0
    assert out == cli._fixture_text("example1")


def test_huffman_trace_json_round_trip(capsys):
    rc, out, _ = run(capsys, "huffman", "--weights", "1,1,2,3",
                     "--trace", "--format", "json")
    assert rc == 0
    trace = trace_from_json(out)
    assert trace == run_huffman((1, 1, 2, 3))
    assert trace.merged[-1] == trace.total == 7


def test_huffman_trace_csv(capsys):
    rc, out, _ = run(capsys, "huffman", "--weights", "1,1,2", "--trace",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "step,merged,pos,weights"
    assert lines[1] == "0,,,1 1 2"
    assert lines[2] == "1,2,1,2 2"
    assert lines[3] == "2,4,1,4"


def test_huffman_tie_flag_changes_marker_only(capsys):
    rc_b, out_b, _ = run(capsys, "huffman", "--weights", "1,1,2,2", "--trace")
    rc_a, out_a, _ = run(capsys, "huffman", "--weights", "1,1,2,2", "--trace",
                         "--tie", "after")
    assert rc_b == rc_a == 0
    assert out_b != out_a
    strip = lambda text: text.replace("*", "")
    assert strip(out_b) == strip(out_a)


def test_huffman_unknown_tie_is_usage_error(capsys):
    rc, out, err = run(capsys, "huffman", "--weights", "1,2", "--tie", "sideways")
    assert rc == 1 and out == ""
    assert "argument --tie: invalid choice: 'sideways' (choose from 'before', 'after')" in err


def test_huffman_tree_and_codebook(capsys):
    rc, out, _ = run(capsys, "huffman", "--weights", "1,1,2,3",
                     "--tree", "--codebook")
    assert rc == 0
    assert out.splitlines()[0] == "+ 7"
    assert "0 1 000" in out
    assert "3 3 1" in out


def test_huffman_codebook_single_leaf(capsys):
    rc, out, _ = run(capsys, "huffman", "--weights", "9", "--codebook")
    assert rc == 0 and out == "0 9 -\n"


def test_huffman_runs_the_merge_loop_once_per_output(capsys, monkeypatch):
    # the bare total is the weights' sum; the trace and the tree each run the loop once
    calls, loop = [], huffman._run
    monkeypatch.setattr(huffman, "_run", lambda *args: calls.append(args) or loop(*args))
    for flags, loops, want in (((), 0, "7\n"), (("--trace", "--format", "csv"), 1, "3,7,1,7\n"),
                               (("--tree", "--codebook"), 1, "3 3 1\n")):
        calls.clear()
        rc, out, _ = run(capsys, "huffman", "--weights", "1,1,2,3", *flags)
        assert (rc, len(calls)) == (0, loops) and out.endswith(want), flags


def test_closed_pipe_exits_one_without_traceback():
    # 3000 equal weights make a 9 MB trace, far more than a pipe holds
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["huffman", "--weights", ",".join(["1"] * 3000), "--trace", "--format", "csv"]
    proc = subprocess.Popen(
        [sys.executable, "-c", "from huffwyth.cli import entrypoint; entrypoint()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b"step,merged,pos,weights\n0,,,1 1 1")
    assert err == b""    # no traceback


# ------------------------------------------------------------ classify

def test_classify_outputs(capsys):
    rc, out, _ = run(capsys, "classify", "--weights", "1,1,2,3,5,8,13,21,34,55")
    assert rc == 0 and out == "absolutely-ordered\n"
    rc, out, _ = run(capsys, "classify", "--weights", "1,1,1,2,3,5,8,13,21,34")
    assert rc == 0 and out == "7-ordered\n"
    rc, out, _ = run(capsys, "classify", "--weights", "1,1,2,2")
    assert rc == 0 and out == "unordered\n"
    rc, out, _ = run(capsys, "classify", "--weights", "3,1,2", "--sort")
    assert rc == 0 and out == "absolutely-ordered\n"
    rc, out, err = run(capsys, "classify", "--weights", "3,1,2")
    assert (rc, out) == (1, "") and "non-decreasing" in err


def test_classify_too_short(capsys):
    rc, _, err = run(capsys, "classify", "--weights", "1,2")
    assert rc == 1 and "3" in err


# ------------------------------------------------------------ verify / selftest

def test_verify_matching_report(capsys):
    rc, out, _ = run(capsys, "verify", "--n", "5", "--k", "0", "--max-weight", "8")
    assert rc == 0
    doc = json.loads(out)
    assert doc["matches_closed_form"] is True
    assert doc["best_cost"] == "21"


def test_verify_abs(capsys):
    rc, out, _ = run(capsys, "verify", "--n", "4", "--abs")
    assert rc == 0
    assert json.loads(out)["matches_closed_form"] is True


def test_verify_small_bound_is_input_error(capsys):
    rc, _, err = run(capsys, "verify", "--n", "4", "--k", "0", "--max-weight", "2")
    assert rc == 1 and "no members" in err
    rc, _, err = run(capsys, "verify", "--n", "4", "--k", "0", "--max-weight", "-5")
    assert rc == 1 and "need max_weight >= 1, got -5" in err


def test_verify_limit_violation(capsys):
    rc, _, err = run(capsys, "verify", "--n", "6", "--k", "0", "--limit", "10")
    assert rc == 1 and "exceed" in err


def test_verify_fails_fast_past_the_default_limit(capsys):
    # 82,598,880 candidates, under the library's default limit of 10**8; the
    # default box at n = 2000 has C(F(2000) + 2001, 2000), a count of over
    # 800,000 digits, and is refused before it is counted
    for argv in ("verify --n 6 --abs --max-weight 60", "verify --n 2000 --abs"):
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert f"exceed the limit of {cli._MAX_CANDIDATES}" in err and len(err) < 200
    assert cli._MAX_CANDIDATES < oracle.DEFAULT_CANDIDATE_LIMIT


def test_verify_mismatch_exits_two(capsys, monkeypatch):
    # force a mismatching report through the plumbing
    import dataclasses

    real = oracle.brute_force_min

    def fake(n, k, max_weight=None, limit=oracle.DEFAULT_CANDIDATE_LIMIT):
        return dataclasses.replace(
            real(n, k, max_weight, limit), matches_closed_form=False
        )

    monkeypatch.setattr(cli.oracle, "brute_force_min", fake)
    rc, out, _ = run(capsys, "verify", "--n", "4", "--k", "0")
    assert rc == 2
    assert json.loads(out)["matches_closed_form"] is False


def test_selftest(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    assert out.splitlines() == [
        "example1 (absolutely ordered, n=10): ok, total 143",
        "example2 (0-ordered, n=10): ok, total 122",
        "example3 (1-ordered, n=10): ok, total 109",
        "example4 (4-ordered, n=10): ok, total 93",
        "example5 (7-ordered, n=10): ok, total 89",
        "selftest: ok",
    ]


def test_selftest_reports_an_edited_fixture(capsys, monkeypatch):
    shipped = cli._fixture_text

    def edited(stem):
        text = shipped(stem)
        return text.replace("   0 | 1 1 1 2 4", "   0 | 1 1 1 3 4") if stem == "example3" else text

    assert edited("example3") != shipped("example3")
    monkeypatch.setattr(cli, "_fixture_text", edited)
    rc, out, _ = run(capsys, "selftest")
    lines = out.splitlines()
    assert rc == 2
    assert "example3 (1-ordered, n=10): FAIL" in lines
    assert lines.index("--- example3.txt") + 1 == lines.index("+++ computed")
    assert "-   0 | 1 1 1 3 4 6 10 16 26 42" in lines
    assert "+   0 | 1 1 1 2 4 6 10 16 26 42" in lines
    assert sum(": ok, total " in line for line in lines) == 4
    assert lines[-1] == "selftest: 1 example(s) FAILED"


def test_selftest_checks_every_shipped_fixture():
    fixtures = (resources.files("huffwyth") / "fixtures").iterdir()
    shipped = {f.name.removesuffix(".txt") for f in fixtures if f.name.endswith(".txt")}
    assert shipped == {stem for stem, _, _ in cli._EXAMPLES}


def _loaded_by_import(*names):
    """Which of the named modules a fresh `import huffwyth.cli` loads."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = f"import sys, huffwyth.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_difflib_nor_golden():
    assert _loaded_by_import("difflib", "huffwyth.golden") == "[]\n"


def test_import_does_not_load_json():
    # only trace_from_json and report_to_json import it
    assert _loaded_by_import("json") == "[]\n"


# ------------------------------------------------------------ parser behaviour

def test_unknown_command(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1 and err


def test_missing_required_option(capsys):
    rc, _, err = run(capsys, "fib")
    assert rc == 1 and err


def test_no_arguments(capsys):
    rc, _, err = run(capsys)
    assert rc == 1 and err
