import importlib

import pytest

import huffwyth
from huffwyth.huffman import OrderClass
from huffwyth.numbers import fib, lower_wythoff, lucas
from huffwyth.oracle import brute_force_min, brute_force_min_abs
from huffwyth.theorems import (KOutOfRangeError, SizeTooSmallError, corollary_sequences,
                               min_abs_cost, min_k_cost, min_k_sequence, min_k_sequence_fib_form)
from huffwyth.wythoff import wythoff_entry, wythoff_row


def test_exports_resolve_and_the_package_exports_the_layers():
    # bench/tracer.py reads getattr(module, name) for each name in __all__
    exported = ["__version__"]
    for layer in ("numbers", "wythoff", "huffman", "theorems", "oracle", "cli"):
        mod = importlib.import_module(f"huffwyth.{layer}")
        assert all(hasattr(mod, name) for name in mod.__all__), layer
        exported += mod.__all__ if layer != "cli" else []
    assert sorted(huffwyth.__all__) == sorted(exported)
    assert all(hasattr(huffwyth, name) for name in huffwyth.__all__)


def _int_argument(label, call, name, least=None, below=ValueError, takes_none=False):
    return pytest.param(call, name, least, below, takes_none, id=label)


# Every public int argument: a call that sets it to v, the name its errors use, its
# least value (None: no lower bound), the error one below that, and whether None is a
# valid value.  n and k keep the theorems subclasses of ValueError.
INT_ARGUMENTS = [
    _int_argument("fib", fib, "Fibonacci index", 0),
    _int_argument("lucas", lucas, "Lucas index", 1),
    _int_argument("lower_wythoff", lower_wythoff, "index", 0),
    _int_argument("wythoff_entry-i", lambda v: wythoff_entry(v, 2), "row index", 0),
    _int_argument("wythoff_entry-j", lambda v: wythoff_entry(2, v), "column index", 0),
    _int_argument("wythoff_row-i", lambda v: wythoff_row(v, 3), "row index", 0),
    _int_argument("wythoff_row-length", lambda v: wythoff_row(2, v), "row length", 1),
    _int_argument("OrderClass-lead", OrderClass, "lead", 0, takes_none=True),
    _int_argument("min_k_sequence-n", lambda v: min_k_sequence(v, None), "n", 3, SizeTooSmallError),
    _int_argument("min_k_sequence-k", lambda v: min_k_sequence(5, v), "k", 0, KOutOfRangeError,
                  takes_none=True),
    _int_argument("min_k_cost-n", lambda v: min_k_cost(v, 0), "n", 3, SizeTooSmallError),
    _int_argument("min_k_cost-k", lambda v: min_k_cost(5, v), "k", 0, KOutOfRangeError,
                  takes_none=True),
    _int_argument("min_abs_cost-n", min_abs_cost, "n", 3, SizeTooSmallError),
    _int_argument("min_k_sequence_fib_form-n", lambda v: min_k_sequence_fib_form(v, 0), "n", 3,
                  SizeTooSmallError),
    _int_argument("min_k_sequence_fib_form-k", lambda v: min_k_sequence_fib_form(5, v), "k", 0,
                  KOutOfRangeError),
    _int_argument("corollary_sequences-n", corollary_sequences, "n", 3, SizeTooSmallError),
    _int_argument("brute_force_min-n", lambda v: brute_force_min(v, 0), "n", 3, SizeTooSmallError),
    _int_argument("brute_force_min-k", lambda v: brute_force_min(5, v), "k", 0, KOutOfRangeError,
                  takes_none=True),
    _int_argument("brute_force_min-max_weight", lambda v: brute_force_min(4, 0, max_weight=v),
                  "max_weight", 1, takes_none=True),
    _int_argument("brute_force_min-limit", lambda v: brute_force_min(4, 0, limit=v), "limit"),
    _int_argument("brute_force_min_abs-n", brute_force_min_abs, "n", 3, SizeTooSmallError),
]


@pytest.mark.parametrize("call, name, least, below, takes_none", INT_ARGUMENTS)
def test_int_argument_rule(call, name, least, below, takes_none):
    # a bool is an int to Python, so an isinstance check alone would take fib(True) as F(1)
    for value in (True, False, 2.0, -0.5, 1e9, "2") + (() if takes_none else (None,)):
        with pytest.raises(ValueError) as excinfo:
            call(value)
        assert excinfo.type is ValueError
        assert str(excinfo.value) == f"{name} must be an int, got {value!r}"
    if least is not None:
        # one below the least value and further down: n = 2, 1, 0, -5, row -1, -2, ...
        for value in (least - 1, least - 2, least - 3, -5):
            with pytest.raises(below) as excinfo:
                call(value)
            assert excinfo.type is below
            expected = f"need {name} >= {least}, got {value}"
            if below is KOutOfRangeError:
                expected = f"need 0 <= k <= n-3 = 2, got {value}"  # k's range is 0..n-3, here n = 5
            assert str(excinfo.value) == expected
