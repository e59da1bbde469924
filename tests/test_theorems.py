import re

import pytest
from hypothesis import given, strategies as st

from huffwyth.huffman import (
    OrderClass,
    build_tree,
    classify_order,
    is_elongated,
    run_huffman,
    wepl,
)
from huffwyth.numbers import fib, lucas
from huffwyth.theorems import (
    KOutOfRangeError,
    SizeTooSmallError,
    corollary_sequences,
    min_abs_cost,
    min_k_cost,
    min_k_sequence,
    min_k_sequence_fib_form,
)
from reference_huffman import check_elongated_inequality, direct_elongated_cost, is_left_sided


# ------------------------------------------------------------ constructions

def test_min_abs_sequence_is_fibonacci_prefix():
    assert min_k_sequence(10, None) == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)
    assert min_k_sequence(3, None) == (1, 1, 2)
    assert min_k_sequence(12, None) == tuple(fib(i) for i in range(1, 13))


def test_min_k_sequence_reference_rows():
    assert min_k_sequence(10, 0) == (1, 1, 1, 3, 4, 7, 11, 18, 29, 47)
    assert min_k_sequence(10, 1) == (1, 1, 1, 2, 4, 6, 10, 16, 26, 42)
    assert min_k_sequence(10, 4) == (1, 1, 1, 2, 3, 5, 8, 14, 22, 36)
    assert min_k_sequence(10, 7) == (1, 1, 1, 2, 3, 5, 8, 13, 21, 34)


def test_min_k_sequence_small():
    assert min_k_sequence(3, 0) == (1, 1, 1)
    assert min_k_sequence(4, 0) == (1, 1, 1, 3)
    assert min_k_sequence(4, 1) == (1, 1, 1, 2)
    assert min_k_sequence(6, 2) == (1, 1, 1, 2, 3, 6)


def test_fib_form_agrees_with_wythoff_form():
    for n in range(3, 41):
        for k in range(0, n - 2):
            assert min_k_sequence_fib_form(n, k) == min_k_sequence(n, k), (n, k)


def test_sequences_are_valid_inputs():
    for n in range(3, 26):
        assert list(min_k_sequence(n, None)) == sorted(min_k_sequence(n, None))
        for k in range(0, n - 2):
            seq = min_k_sequence(n, k)
            assert len(seq) == n
            assert list(seq) == sorted(seq)
            assert seq[0] == 1


# ------------------------------------------------------------ costs

def test_min_abs_cost_values():
    # F(14) - 14 = 377 - 14
    assert min_abs_cost(10) == 363
    # F(7) - 7 = 13 - 7; the weights 1 1 2 at depths 2 2 1 also sum to 6
    assert min_abs_cost(3) == 6
    assert direct_elongated_cost((1, 1, 2)) == 6
    # F(24) - 24 = 46368 - 24
    assert min_abs_cost(20) == 46344


def test_min_k_cost_values():
    assert min_k_cost(10, 0) == 309
    assert min_k_cost(10, 1) == 276
    assert min_k_cost(10, 4) == 237
    assert min_k_cost(10, 7) == 230
    assert min_k_cost(3, 0) == 5
    assert min_k_cost(4, 1) == 10


def test_costs_match_direct_depth_sums():
    for n in range(3, 31):
        # k = None is the absolutely ordered class
        assert min_k_sequence(n, None) == tuple(fib(i) for i in range(1, n + 1))
        assert min_k_cost(n, None) == min_abs_cost(n)
        assert min_abs_cost(n) == direct_elongated_cost(min_k_sequence(n, None))
        for k in range(0, n - 2):
            assert min_k_cost(n, k) == direct_elongated_cost(min_k_sequence(n, k)), (n, k)


def test_costs_match_built_trees():
    for n in range(3, 41):
        assert wepl(build_tree(min_k_sequence(n, None))) == min_abs_cost(n)
        for k in range(0, n - 2):
            assert wepl(build_tree(min_k_sequence(n, k))) == min_k_cost(n, k), (n, k)


def test_cost_formulas_at_large_n():
    n = 200
    fibs = [fib(i) for i in range(n + 5)]
    assert min_abs_cost(n) == fibs[n + 4] - (n + 4)
    for k in (0, 50, n - 3):
        assert min_k_cost(n, k) == fibs[n + 3] + fibs[n - k + 1] - (n - k + 3)


def test_k_interpolates_between_classes():
    # larger k allows smaller cost; abs ordered sits above k = 0
    for n in range(4, 20):
        costs = [min_k_cost(n, k) for k in range(0, n - 2)]
        assert costs == sorted(costs, reverse=True)
        assert min_abs_cost(n) > costs[0]


# ------------------------------------------------------------ membership

def test_constructed_sequences_classify_into_their_class():
    for n in range(3, 31):
        assert classify_order(min_k_sequence(n, None)) == OrderClass(0)
    for n in range(3, 26):
        for k in range(0, n - 2):
            assert classify_order(min_k_sequence(n, k)) == OrderClass(k + 1), (n, k)


def test_constructed_sequences_build_elongated_left_sided_trees():
    for n in range(3, 26):
        seqs = [min_k_sequence(n, None)] + [min_k_sequence(n, k) for k in range(0, n - 2)]
        for seq in seqs:
            tree = build_tree(seq)
            assert is_elongated(tree), seq
            assert is_left_sided(tree), seq
            assert check_elongated_inequality(run_huffman(seq)), seq


def test_membership_example():
    tree = build_tree(min_k_sequence(10, 4))
    assert is_elongated(tree)
    assert is_left_sided(tree)


# ------------------------------------------------------------ corollaries

def test_corollary_sequences_shape():
    lucas_form, fib_form = corollary_sequences(10)
    assert lucas_form == (1, 1) + tuple(lucas(i) for i in range(1, 9))
    assert lucas_form == (1, 1, 1, 3, 4, 7, 11, 18, 29, 47)
    assert fib_form == (1,) + tuple(fib(i) for i in range(1, 10))
    assert fib_form == (1, 1, 1, 2, 3, 5, 8, 13, 21, 34)


def test_corollaries_coincide_at_smallest_size():
    # n = 3 forces k = 0 = n-3, so both boundary forms collapse to 1 1 1
    assert corollary_sequences(3) == ((1, 1, 1), (1, 1, 1))


def test_corollaries_are_boundary_cases():
    for n in range(3, 31):
        lucas_form, fib_form = corollary_sequences(n)
        assert lucas_form == min_k_sequence(n, 0)
        assert fib_form == min_k_sequence(n, n - 3)


def test_corollary_cost_formulas():
    for n in range(3, 31):
        assert min_k_cost(n, 0) == fib(n + 3) + fib(n + 1) - (n + 3)
        assert min_k_cost(n, n - 3) == fib(n + 3) - 3


# ------------------------------------------------------------ validation

def test_size_validation():
    for bad in (2, 1, 0, -5):
        with pytest.raises(SizeTooSmallError):
            min_k_sequence(bad, None)
        with pytest.raises(SizeTooSmallError):
            min_abs_cost(bad)
        with pytest.raises(SizeTooSmallError):
            min_k_cost(bad, None)
        with pytest.raises(SizeTooSmallError):
            corollary_sequences(bad)


def test_k_validation():
    with pytest.raises(KOutOfRangeError):
        min_k_sequence(10, 8)
    with pytest.raises(KOutOfRangeError):
        min_k_sequence(10, -1)
    with pytest.raises(KOutOfRangeError):
        min_k_cost(5, 3)
    with pytest.raises(SizeTooSmallError):
        min_k_sequence(2, 0)


@pytest.mark.parametrize("n, k, name", [(True, None, "n"), (5.0, None, "n"), ("5", 0, "n"),
                                        (5, True, "k"), (5, False, "k"), (5, 1.0, "k")])
def test_n_and_k_must_be_ints(n, k, name):
    # a bool is an int to Python: k = True used to give the k = 1 sequence
    message = re.escape(f"{name} must be an int, got {n if name == 'n' else k!r}")
    calls = [lambda: min_k_sequence(n, k), lambda: min_k_cost(n, k)]
    if k is None:
        calls += [lambda: min_abs_cost(n), lambda: corollary_sequences(n)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}$") as excinfo:
            call()
        assert excinfo.type is ValueError


@given(st.integers(min_value=3, max_value=60))
def test_random_sizes_consistent(n):
    seq = min_k_sequence(n, None)
    assert len(seq) == n
    assert min_abs_cost(n) == direct_elongated_cost(seq)
