import json
import os
import subprocess
import sys

from huffwyth import cli, oracle
from huffwyth.numbers import fib
from huffwyth.golden import GOLDEN_EXAMPLES
from huffwyth.huffman import run_huffman, trace_from_json


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
    assert limit() == saved     # main() restores the caller's limit


def test_fib_negative_is_input_error(capsys):
    rc, _, err = run(capsys, "fib", "--n", "-2")
    assert rc == 1 and "error" in err


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
    ex = GOLDEN_EXAMPLES[0]
    rc, out, _ = run(capsys, "huffman", "--weights",
                     ",".join(str(w) for w in ex.weights), "--trace")
    assert rc == 0
    assert out == cli._fixture_text(ex.name)


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


def test_huffman_custom_marker(capsys):
    rc, out, _ = run(capsys, "huffman", "--weights", "1,1,2", "--trace",
                     "--marker", "_")
    assert rc == 0
    assert "2_ 2" in out
    assert "*" not in out


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


def test_verify_limit_violation(capsys):
    rc, _, err = run(capsys, "verify", "--n", "6", "--k", "0", "--limit", "10")
    assert rc == 1 and "exceed" in err


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
    lines = out.splitlines()
    assert len(lines) == 6
    for ex, line in zip(GOLDEN_EXAMPLES, lines):
        assert line.startswith(f"{ex.name} ({ex.title}): ok, total {ex.total}")
    assert lines[-1] == "selftest: ok"


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
