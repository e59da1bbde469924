"""Exact decimal text I/O for ints beyond the interpreter's int/str digit limit.

Python 3.11 (and 3.10.7 on) refuses str() and int() on more than
sys.get_int_max_str_digits() digits, 4300 by default.  These tests use no
pytest features, so they also run as plain functions on interpreters
without pytest.
"""

import io
import json
import random
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import fields, make_dataclass

from huffwyth import cli
from huffwyth.cli import _csv_chunks, format_trace_table
from huffwyth.huffman import (NotSortedError, OrderClass, build_tree, run_huffman,
                              trace_from_json, trace_to_json, validate_weights)
from huffwyth.numbers import _from_decimal, _to_decimal, fib
from huffwyth.oracle import OracleReport, SearchSpaceTooLargeError, brute_force_min, report_to_json
from huffwyth.wythoff import wythoff_row
from huffwyth.theorems import KOutOfRangeError, SizeTooSmallError, min_k_cost

DEFAULT_LIMIT = 4300
BIG = fib(30000)    # 6270 digits


@contextmanager
def digit_limit(limit):
    """Run under the given int/str digit limit; check that nothing changed it."""
    if not hasattr(sys, "get_int_max_str_digits"):    # interpreter without the limit
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(saved)


def unlimited_str(x):
    with digit_limit(0):
        return str(x)


def sample_ints():
    rng = random.Random(4300)
    values = [0, 1, 9, 10, BIG, BIG + 1, -BIG, 2 ** 1700 - 1, 2 ** 1700, 2 ** 1701]
    for e in (511, 512, 513, 4299, 4300, 4301, 9000):
        values += [10 ** e - 1, 10 ** e, 10 ** e + 1, -(10 ** e)]
    values += [rng.getrandbits(rng.randrange(1, 40000)) for _ in range(40)]
    return values


def test_decimal_helpers_round_trip_under_any_limit():
    values = sample_ints()
    texts = [unlimited_str(x) for x in values]
    for limit in (640, DEFAULT_LIMIT):
        with digit_limit(limit):
            for x, text in zip(values, texts):
                assert _to_decimal(x) == text
                assert _from_decimal(text) == x
                assert _from_decimal(f" {text}\n") == x
                assert x < 0 or _from_decimal("+" + text) == x


def test_from_decimal_takes_only_ascii_digits_at_every_length():
    # int() alone would take "1_0", "١٢" and " 1_0 "; 12 is not text
    long_digits = "7" * 5000
    for bad in ("", "-", "12a", long_digits + "a", "--" + long_digits, "+-" + long_digits,
                " " * 600, long_digits[:2500] + " " + long_digits[:2500], "١" * 600,
                "1_0", "١٢", " 1_0 ", 12):
        with digit_limit(DEFAULT_LIMIT):
            try:
                _from_decimal(bad)
            except ValueError:
                continue
        raise AssertionError(f"accepted {str(bad)[:30]!r}")


def test_trace_json_and_renderers_beyond_limit():
    trace = run_huffman((1, BIG))
    total = unlimited_str(BIG + 1)
    with digit_limit(DEFAULT_LIMIT):
        text = trace_to_json(trace, indent=2)
        assert json.loads(text)["total"] == total
        assert trace_from_json(text) == trace
        assert format_trace_table(trace).endswith(f"   1 | {total}\n")
        assert "".join(_csv_chunks(trace)).endswith(f"1,{total},1,{total}\n")


def test_report_to_json_beyond_limit():
    report = OracleReport(
        n=2, k=None, weight_bound=BIG, candidates_examined=1, members_examined=1,
        best_cost=BIG + 1, best_sequences=((1, BIG),), closed_form_cost=BIG + 1,
        closed_form_sequence=(1, BIG), matches_closed_form=True,
    )
    with digit_limit(DEFAULT_LIMIT):
        doc = json.loads(report_to_json(report, indent=2))
    assert doc["best_cost"] == doc["closed_form_cost"] == unlimited_str(BIG + 1)
    assert doc["best_sequences"] == [doc["closed_form_sequence"]] == [["1", unlimited_str(BIG)]]
    assert doc["weight_bound"] == unlimited_str(BIG)


def dataclass_repr(obj):
    """The repr the dataclass decorator generates for obj's fields."""
    names = [f.name for f in fields(obj)]
    plain = make_dataclass(type(obj).__qualname__, names)
    return repr(plain(*(getattr(obj, name) for name in names)))


def test_repr_matches_dataclass_repr():
    assert repr(run_huffman((1, 1, 2))) == (
        "HuffmanTrace(initial=(1, 1, 2), merged=(2, 4), positions=(1, 1), ties=(False,))")
    inputs = ((5,), (2, 2), (1, 1, 2, 3), (1, 2, 2, 2, 4))
    objects = [build(w) for build in (run_huffman, build_tree) for w in inputs]
    objects += [brute_force_min(4, 0), brute_force_min(5, None)]
    for obj in objects:
        assert repr(obj) == dataclass_repr(obj)


def test_repr_beyond_limit():
    big = unlimited_str(BIG)
    report = OracleReport(
        n=2, k=None, weight_bound=BIG, candidates_examined=1, members_examined=1,
        best_cost=BIG + 1, best_sequences=((1, BIG),), closed_form_cost=BIG + 1,
        closed_form_sequence=(1, BIG), matches_closed_form=True,
    )
    with digit_limit(DEFAULT_LIMIT):
        assert repr(build_tree((1, BIG))).startswith(f"HuffmanTree(weights=(1, {big}, ")
        assert repr(run_huffman((1, BIG))).startswith(f"HuffmanTrace(initial=(1, {big}), ")
        assert f"best_sequences=((1, {big}),)" in repr(report)


def error(call):
    """The type and message of the exception that call() raises; None if it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)


def test_error_messages_beyond_limit():
    # past the digit limit a call raises the type and message it raises without one
    huge = 10 ** 5000
    for call, kind in (
        (lambda: validate_weights((huge, 1)), NotSortedError),
        (lambda: min_k_cost(-huge, None), SizeTooSmallError),
        (lambda: min_k_cost(10, huge), KOutOfRangeError),
        (lambda: brute_force_min(4, 0, max_weight=10 ** 2000), SearchSpaceTooLargeError),
        (lambda: fib(-huge), ValueError),
        (lambda: wythoff_row(-huge, 1), ValueError),
        (lambda: OrderClass(-huge), ValueError),
    ):
        with digit_limit(0):
            expected = error(call)
        with digit_limit(DEFAULT_LIMIT):
            assert error(call) == expected and expected[0] is kind
    # small ints and values of other types format as before
    for call, message in (
        (lambda: validate_weights((3, 1)), "weights must be non-decreasing, got 3 before 1"),
        (lambda: validate_weights((1, "2")), "weights must be positive integers, got '2'"),
        (lambda: min_k_cost(10, 8), "need 0 <= k <= n-3 = 7, got 8"),
        (lambda: min_k_cost(10, -0.5), "k must be an int, got -0.5"),
        (lambda: fib(-1.5), "Fibonacci index must be an int, got -1.5"),
    ):
        assert error(call)[1] == message


@contextmanager
def limit_frozen():
    """Make any call of sys.set_int_max_str_digits fail."""
    if not hasattr(sys, "set_int_max_str_digits"):    # interpreter without the limit
        yield
        return

    def refuse(limit):
        raise AssertionError("the int/str digit limit was changed")

    saved = sys.set_int_max_str_digits
    sys.set_int_max_str_digits = refuse
    try:
        yield
    finally:
        sys.set_int_max_str_digits = saved


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_cli_beyond_limit_leaves_the_limit_alone():
    big = unlimited_str(BIG)
    row = " ".join(map(unlimited_str, wythoff_row(BIG, 5)[2:]))
    report = report_to_json(brute_force_min(5, 0, 8), indent=2)
    expected = {
        ("fib", "--n", "30000"): big + "\n",
        ("huffman", "--weights", "1," + big): unlimited_str(BIG + 1) + "\n",
        ("huffman", "--weights", "1," + big, "--tree"):
            f"+ {unlimited_str(BIG + 1)}\n  - 1\n  - {big}\n",
        ("huffman", "--weights", "1," + big, "--codebook"): f"0 1 0\n1 {big} 1\n",
        ("wythoff", "--row", big, "--cols", "3"): row + "\n",
        ("verify", "--n", "5", "--k", "0", "--max-weight", "8", "--limit", big): report + "\n",
    }
    for limit in (640, DEFAULT_LIMIT):
        with digit_limit(limit), limit_frozen():
            for argv, out in expected.items():
                assert run_cli(*argv) == (0, out, ""), argv[:2]
            rc, out, err = run_cli("fib", "--n", "abc")
            assert (rc, out) == (1, "") and "invalid int value: 'abc'" in err
