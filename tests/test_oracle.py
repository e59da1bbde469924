import json
import math
import time
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from huffwyth import oracle
from huffwyth.huffman import _advance, build_tree, run_huffman, wepl
from huffwyth.oracle import (
    EmptyClassError,
    SearchSpaceTooLargeError,
    brute_force_min,
    brute_force_min_abs,
    report_to_json,
)
from huffwyth.theorems import min_abs_cost, min_k_cost, min_k_sequence
from reference_huffman import (TooLargeError, direct_elongated_cost, enumerate_sequences,
                               optimal_tree_cost, reference_scan)

small_seqs = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=8
).map(lambda ws: tuple(sorted(ws)))


# ------------------------------------------------------------ enumeration

def test_enumerate_pairs():
    assert list(enumerate_sequences(2, 2)) == [(1, 1), (1, 2), (2, 2)]


def test_enumerate_single():
    assert list(enumerate_sequences(1, 5)) == [(1,), (2,), (3,), (4,), (5,)]


def test_enumerate_count_and_order():
    seqs = list(enumerate_sequences(3, 3))
    assert len(seqs) == 10
    assert len(seqs) == math.comb(5, 3)
    assert seqs == sorted(seqs)
    assert all(list(s) == sorted(s) for s in seqs)


def test_enumerate_validation():
    for n, max_weight, message in ((0, 3, "need n >= 1, got 0"),
                                   (3, 0, "need max_weight >= 1, got 0")):
        with pytest.raises(ValueError, match=message):
            list(enumerate_sequences(n, max_weight))
    # the scan counts its candidates first, so it reports the same max_weight error
    with pytest.raises(ValueError, match="need max_weight >= 1, got -5"):
        brute_force_min(4, 0, max_weight=-5)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_enumerate_matches_binomial(n, w):
    assert sum(1 for _ in enumerate_sequences(n, w)) == math.comb(n + w - 1, n)


# ------------------------------------------------------------ cost helpers

def test_elongated_cost_formula():
    # n=4: depths 3 3 2 1
    assert direct_elongated_cost((1, 1, 2, 3)) == 3 + 3 + 4 + 3
    assert direct_elongated_cost((5,)) == 0
    assert direct_elongated_cost((1, 1)) == 2


def test_huffman_cost_is_merge_sum():
    weights = (1, 1, 2, 3, 5)
    assert sum(run_huffman(weights).merged) == 25 == wepl(build_tree(weights))


@given(st.lists(st.integers(min_value=1, max_value=10 ** 12), min_size=1, max_size=40)
       .map(lambda ws: tuple(sorted(ws))))
def test_elongated_cost_is_the_sum_of_prefix_sums(weights):
    # the walk's formula: with s_j = p1 + ... + pj the elongated cost is s_2 + ... + s_n
    assert sum(list(accumulate(weights))[1:]) == direct_elongated_cost(weights)


@given(small_seqs)
def test_elongated_cost_bounds_huffman_cost(weights):
    # the forced elongated shape can never beat the optimal tree
    assert direct_elongated_cost(weights) >= sum(run_huffman(weights).merged)


@st.composite
def near_chain_seqs(draw):
    # each p_j near s(j-2), the chain lemma's bound, so that members are common
    seq = sorted(draw(st.lists(st.integers(1, 5), min_size=2, max_size=2)))
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        seq.append(max(seq[-1], sum(seq[:-1]) + draw(st.integers(min_value=-2, max_value=2))))
    return tuple(seq)


@given(st.one_of(near_chain_seqs(), st.lists(st.integers(1, 60), min_size=3, max_size=12)
                 .map(lambda ws: tuple(sorted(ws)))))
@settings(max_examples=300)
def test_members_meet_the_chain_lemma(weights):
    # the walk starts p_n at s(n-2), as a member has s(j-2) <= p_j for j = 3..n
    sums = list(accumulate(weights))
    if sum(run_huffman(weights).merged) == sum(sums[1:]):
        assert all(sums[j - 3] <= weights[j - 1] for j in range(3, len(weights) + 1))


# ------------------------------------------------------------ optimal_tree_cost

def test_optimal_tree_cost_small():
    assert optimal_tree_cost((5,)) == 0
    assert optimal_tree_cost((1, 1)) == 2
    assert optimal_tree_cost((1, 1, 1, 1)) == 8


def test_optimal_tree_cost_prefers_balance():
    # equal weights want the balanced shape (cost 16), not the chain
    # with depths 3 3 2 1 (cost 18)
    assert optimal_tree_cost((2, 2, 2, 2)) == 16
    assert direct_elongated_cost((2, 2, 2, 2)) == 18


def test_optimal_tree_cost_rejects_large():
    with pytest.raises(TooLargeError):
        optimal_tree_cost(tuple(range(1, 12)))


@given(small_seqs)
@settings(max_examples=300)
def test_huffman_is_optimal(weights):
    assert optimal_tree_cost(weights) == wepl(build_tree(weights))


# ------------------------------------------------------------ brute force scans

def test_brute_force_k0_n5():
    report = brute_force_min(5, 0, max_weight=8)
    assert report.best_cost == 21
    assert report.best_sequences == ((1, 1, 1, 3, 4),)
    assert report.closed_form_cost == min_k_cost(5, 0)
    assert report.closed_form_sequence == min_k_sequence(5, 0)
    assert report.matches_closed_form
    assert report.candidates_examined == math.comb(12, 5)
    assert 0 < report.members_examined < report.candidates_examined


def test_brute_force_k2_n5():
    report = brute_force_min(5, 2, max_weight=8)
    assert report.best_cost == 18
    assert (1, 1, 1, 2, 3) in report.best_sequences
    assert report.matches_closed_form


def test_brute_force_abs_n5():
    report = brute_force_min_abs(5)
    assert report.best_cost == 25 == min_abs_cost(5)
    assert report.best_sequences == ((1, 1, 2, 3, 5),)
    assert report.matches_closed_form
    assert report.k is None
    assert brute_force_min(5, None) == report


def test_brute_force_default_bound():
    report = brute_force_min(4, 0)
    # default bound: max of the closed-form sequence plus 2
    assert report.weight_bound == max(min_k_sequence(4, 0)) + 2 == 5
    assert report.matches_closed_form


def test_brute_force_empty_class():
    # with weights capped at 2 no 0-ordered input keeps an elongated optimum
    with pytest.raises(EmptyClassError):
        brute_force_min(4, 0, max_weight=2)


def test_brute_force_empty_class_at_large_n():
    # the walk keeps an explicit stack, one entry per known weight
    for k, max_weight in ((0, 2), (None, 1)):
        with pytest.raises(EmptyClassError, match=f"^no members of the class found "
                                                  f"with weights up to {max_weight}$"):
            brute_force_min(3000, k, max_weight=max_weight)


def test_empty_explicit_box_builds_no_closed_form():
    # the closed form of n = 20,000 takes about 19 MB; an explicit box
    # builds it only for the report, after the walk finds a member
    tracemalloc.start()
    try:
        with pytest.raises(EmptyClassError, match="with weights up to 2$"):
            brute_force_min(20_000, None, max_weight=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_brute_force_space_limit():
    with pytest.raises(SearchSpaceTooLargeError):
        brute_force_min(6, 0, max_weight=9, limit=10)
    # neither the closed form's 2000 weights nor the box's exact count is built
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLargeError, match="exceed the limit of 100000000;"):
        brute_force_min(2000, None)
    assert time.perf_counter() - start < 1.0


def test_brute_force_refuses_exactly_the_boxes_past_the_limit():
    # the bound that refuses a box before it is counted never refuses one within the limit
    for n in range(3, 7):
        for max_weight in (None, 1, 2, 3, 4, 5, 6):
            w = max_weight or max(min_k_sequence(n, None)) + 2
            total = math.comb(n + w - 1, n)
            with pytest.raises(SearchSpaceTooLargeError,
                               match=f"candidates exceed the limit of {total - 1};"):
                brute_force_min(n, None, max_weight, limit=total - 1)
            try:
                report = brute_force_min(n, None, max_weight, limit=total)
                assert report.candidates_examined == total
            except EmptyClassError:
                pass


def _scan_outcome(scan, *args):
    try:
        return scan(*args)
    except EmptyClassError as exc:
        return EmptyClassError, str(exc)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_brute_force_matches_reference_scan(n):
    # the prefix walk against full traces and classification, boxes from
    # empty classes up to three past the default bound; n = 7 takes the
    # default box of three classes
    for k in [None, 0, 4] if n == 7 else [None, *range(n - 2)]:
        default = max(min_k_sequence(n, k)) + 2
        for max_weight in (None,) if n == 7 else (1, 2, 3, None, default + 3):
            expected = _scan_outcome(reference_scan, n, k, max_weight or default)
            assert _scan_outcome(brute_force_min, n, k, max_weight) == expected, (n, k, max_weight)


@given(st.integers(min_value=3, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from([None, *range(n - 2)]),
                        st.integers(min_value=1, max_value=8))))
def test_brute_force_matches_reference_scan_on_random_boxes(case):
    # every class at n = 3..6 over boxes 1..8, empty classes included
    n, k, max_weight = case
    expected = _scan_outcome(reference_scan, n, k, max_weight)
    assert _scan_outcome(brute_force_min, n, k, max_weight) == expected


def test_walk_skips_last_weights_below_the_chain_bound(monkeypatch):
    # the last weight starts at s(n-2): 3117 and 57,739 resumptions without that start
    calls = []
    monkeypatch.setattr(oracle, "_advance", lambda *args: calls.append(1) or _advance(*args))
    for n, expected in ((6, 1770), (7, 26539)):
        calls.clear()
        brute_force_min(n, None)
        assert len(calls) == expected, n


@pytest.mark.parametrize("args, kwargs, name", [
    ((True, None), {}, "n"),
    ((5.0, 0), {}, "n"),
    ((5, True), {}, "k"),
    ((5, 1.0), {}, "k"),
    ((4, 0), {"max_weight": True}, "max_weight"),
    ((4, 0), {"max_weight": 2.0}, "max_weight"),
    ((4, 0), {"limit": False}, "limit"),
    ((4, 0), {"limit": 1e9}, "limit"),
    ((4, 0), {"limit": None}, "limit"),
])
def test_arguments_must_be_ints(args, kwargs, name):
    # a bool is an int to Python: k = True used to scan the k = 1 class
    with pytest.raises(ValueError, match=f"^{name} must be an int, got ") as excinfo:
        brute_force_min(*args, **kwargs)
    assert excinfo.type is ValueError


def test_brute_force_deterministic():
    a = brute_force_min(5, 1, max_weight=7)
    b = brute_force_min(5, 1, max_weight=7)
    assert a == b


def test_report_json_shape():
    report = brute_force_min(4, 1, max_weight=4)
    doc = json.loads(report_to_json(report))
    assert doc["n"] == 4 and doc["k"] == 1
    assert doc["best_cost"] == str(report.best_cost)
    assert doc["closed_form_sequence"] == [str(w) for w in report.closed_form_sequence]
    assert doc["matches_closed_form"] is True
    assert all(isinstance(w, str) for seq in doc["best_sequences"] for w in seq)
