import copy
import json
import pickle
import random
import time
from dataclasses import FrozenInstanceError, fields
from itertools import takewhile
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from huffwyth import huffman
from huffwyth.huffman import (
    DEFAULT_TIE_POLICY,
    EmptySequenceError,
    HuffmanTrace,
    HuffmanTree,
    NotSortedError,
    OrderClass,
    TiePolicy,
    TooShortError,
    build_tree,
    classify_order,
    classify_trace,
    codebook,
    is_elongated,
    leaf_depths,
    leaf_weights,
    run_huffman,
    trace_from_json,
    trace_to_json,
    validate_weights,
    wepl,
    _advance,
    _run,
)
from huffwyth.theorems import min_k_sequence
from fixture_tables import STEMS, fixture_rows
from reference_huffman import (
    check_elongated_inequality,
    is_left_sided,
    nested,
    reference_trace,
    reference_tree,
    reference_validate_weights,
)

FIB10 = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)

weight_seqs = st.lists(
    st.integers(min_value=1, max_value=50), min_size=1, max_size=12
).map(lambda ws: tuple(sorted(ws)))

tie_seqs = st.lists(
    st.integers(min_value=1, max_value=6), min_size=3, max_size=10
).map(lambda ws: tuple(sorted(ws)))

tie_heavy_seqs = st.lists(
    st.integers(min_value=1, max_value=3), min_size=1, max_size=20
).map(lambda ws: tuple(sorted(ws)))


def weight_depth_pairs(tree):
    return sorted(zip(leaf_weights(tree), leaf_depths(tree)))


# ---------------------------------------------------------------- run_huffman

def test_trace_single_weight():
    trace = run_huffman((5,))
    assert trace.total == 5
    assert trace.merged == trace.positions == ()
    assert trace.sequences() == [(5,)]


def test_trace_pair():
    trace = run_huffman((1, 2))
    assert trace.total == 3
    assert trace.sequences() == [(1, 2), (3,)]
    assert trace.merged == (3,)
    assert trace.positions == (1,)


def test_trace_fibonacci_example():
    trace = run_huffman(FIB10)
    assert trace.total == 143
    assert tuple(trace.sequences()) == fixture_rows("example1")
    assert trace.merged_values() == [2, 4, 7, 12, 20, 33, 54, 88, 143]
    # the O(n^2) rows are the caller's to keep: the trace holds only its fields
    assert trace.sequences() is not trace.sequences()
    assert sorted(vars(trace)) == ["initial", "merged", "positions", "ties"]


def test_trace_intermediate_row():
    # after two merges of the Lucas-weight input the sequence is 3 3 4 7 ...
    trace = run_huffman((1, 1, 1, 3, 4, 7, 11, 18, 29, 47))
    assert trace.sequences()[2] == (3, 3, 4, 7, 11, 18, 29, 47)
    assert trace.total == 122


def test_step_indices_and_first_input():
    trace = run_huffman((2, 3, 3, 4))
    assert len(trace.merged) == len(trace.positions) == 3
    assert trace.sequences()[0] == trace.initial


def test_each_step_consumes_two_smallest():
    trace = run_huffman((1, 2, 2, 5, 9))
    rows = trace.sequences()
    for row, nxt, value, pos in zip(rows, rows[1:], trace.merged, trace.positions):
        assert value == row[0] + row[1]
        assert nxt[pos - 1] == value


def test_tie_policy_changes_position_not_values():
    weights = (1, 1, 2, 2)
    before = run_huffman(weights, TiePolicy.MERGED_BEFORE_EQUALS)
    after = run_huffman(weights, TiePolicy.MERGED_AFTER_EQUALS)
    assert before.sequences() == after.sequences()
    assert before.positions[0] == 1
    assert after.positions[0] == 3


def test_default_policy_is_before_equals():
    assert DEFAULT_TIE_POLICY is TiePolicy.MERGED_BEFORE_EQUALS
    weights = (1, 1, 2, 2)
    assert run_huffman(weights) == run_huffman(weights, TiePolicy.MERGED_BEFORE_EQUALS)


@pytest.mark.parametrize("build", [run_huffman, build_tree])
def test_tie_policy_must_be_a_tie_policy(build):
    # the policy's value once passed: run_huffman kept it as the positions,
    # so trace_to_json failed, and build_tree built the MERGED_AFTER_EQUALS tree
    for policy in ("before", None, 0):
        with pytest.raises(ValueError, match="^tie_policy must be a TiePolicy, got ") as excinfo:
            build((1, 1, 2, 2, 4), policy)
        assert excinfo.type is ValueError


def test_validation_errors():
    with pytest.raises(EmptySequenceError):
        run_huffman(())
    with pytest.raises(NotSortedError):
        run_huffman((2, 1))
    with pytest.raises(ValueError):
        run_huffman((0, 1))
    with pytest.raises(ValueError):
        validate_weights((1, -4))


class Weight(int):
    """An int subclass: a valid weight that the fast path leaves to the loops."""


mixed_weights = st.lists(st.one_of(
    st.integers(-2, 6), st.integers(1, 10 ** 30), st.integers(1, 6).map(Weight),
    st.booleans(), st.floats(-1, 7), st.just(float("nan"))), max_size=8)


@given(st.one_of(mixed_weights, mixed_weights.map(sorted), weight_seqs))
def test_validation_matches_the_loops(weights):
    # ints, an int subclass, bools, floats, 0 and negatives, unsorted, sorted
    # and empty: the same tuple or the same error with the same message
    def outcome(validate):
        try:
            seq = validate(weights)
        except ValueError as exc:
            return type(exc), str(exc)
        return seq, list(map(type, seq))

    assert outcome(validate_weights) == outcome(reference_validate_weights)


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_positions_are_derived_only_when_read(monkeypatch, policy):
    weights = (1, 1, 2, 2, 2, 3, 5, 8)

    def no_positions(*args):
        raise AssertionError("insert positions were derived")

    with monkeypatch.context() as patch:
        patch.setattr(huffman, "_positions", no_positions)
        trace = run_huffman(weights, policy)
        assert classify_trace(trace) == classify_order(weights)
        assert trace.merged_values() == list(trace.merged) and trace.total == sum(weights)
        assert wepl(build_tree(weights, policy)) == sum(trace.merged)
        # the stored form pickles and copies without the positions
        pickle.loads(pickle.dumps(trace))
        copy.deepcopy(trace)
    read = run_huffman(weights, policy)
    assert read.positions == tuple(reference_trace(weights, policy)[2])
    # each behaviour gives the same on a trace not yet read as on one read
    for check in [lambda t: t == run_huffman(weights, policy), hash, repr,
                  lambda t: [f.name for f in fields(t)],
                  lambda t: repr(pickle.loads(pickle.dumps(t))),
                  lambda t: repr(copy.deepcopy(t))]:
        assert check(run_huffman(weights, policy)) == check(read)
    for t in (run_huffman(weights, policy), read):
        with pytest.raises(FrozenInstanceError):
            t.positions = read.positions


@given(weight_seqs)
def test_total_is_sum(weights):
    assert run_huffman(weights).total == sum(weights)


@given(weight_seqs)
def test_intermediate_sequences_sorted_and_conserving(weights):
    trace = run_huffman(weights)
    seqs = trace.sequences()
    assert len(seqs) == len(weights)
    for seq in seqs:
        assert list(seq) == sorted(seq)
        assert sum(seq) == trace.total


# ---------------------------------------------------------------- engine vs reference

def assert_matches_reference(weights, policy):
    rows, merged, positions = reference_trace(weights, policy)
    trace = run_huffman(weights, policy)
    assert list(trace.merged) == merged
    assert list(trace.positions) == positions
    assert trace.ties == tuple(row[1] == row[2] for row in rows if len(row) >= 3)
    assert trace.sequences() == rows
    assert nested(build_tree(weights, policy)) == reference_tree(weights, policy)


@given(st.one_of(weight_seqs, tie_heavy_seqs), st.sampled_from(list(TiePolicy)))
def test_engine_matches_slicing_reference(weights, policy):
    assert_matches_reference(weights, policy)


def test_engine_matches_slicing_reference_bulk():
    # long runs of equal merged values exercise the LIFO/FIFO block order
    rng = random.Random(11)
    for _ in range(1500):
        n = rng.randint(1, 40)
        hi = rng.choice((1, 2, 3, 10, 1000))
        weights = tuple(sorted(rng.randint(1, hi) for _ in range(n)))
        for policy in TiePolicy:
            assert_matches_reference(weights, policy)


@pytest.mark.parametrize("top", [4, 25])
def test_engine_matches_slicing_reference_at_bench_scale(top):
    # n = 2000 weights from 1..top, as in the benchmark's tie inputs: runs of
    # hundreds of equal merged values, for the picks' stable sort and the
    # position formulas
    rng = random.Random(top)
    weights = tuple(sorted(rng.randint(1, top) for _ in range(2000)))
    for policy in TiePolicy:
        assert_matches_reference(weights, policy)


def test_scale_without_rows(monkeypatch):
    # cost, class and tree at n = 10^5 (10^4 for the height n-1 Fibonacci
    # input, whose weights grow to 2090 digits) never build the O(n^2) rows;
    # the height n-1 tree compares, hashes and prints without recursion
    def no_rows(trace):
        raise AssertionError("intermediate rows were built")

    monkeypatch.setattr(HuffmanTrace, "sequences", no_rows)
    rng = random.Random(5)
    n = 10 ** 5
    cases = [
        (tuple(sorted(rng.randint(1, 3) for _ in range(n))), TiePolicy.MERGED_AFTER_EQUALS),
        (tuple(sorted(rng.sample(range(1, 10 ** 18), n))), TiePolicy.MERGED_BEFORE_EQUALS),
        (min_k_sequence(10 ** 4, None), TiePolicy.MERGED_BEFORE_EQUALS),
    ]
    start = time.perf_counter()
    for weights, policy in cases:
        trace = run_huffman(weights, policy)
        cls = classify_trace(trace)
        tree = build_tree(weights, policy)
        assert wepl(tree) == sum(trace.merged)
    assert cls == OrderClass(0)
    n = len(weights)
    again = build_tree(weights, policy)
    assert tree == again and hash(tree) == hash(again)
    assert repr(tree).startswith("HuffmanTree(weights=(1, 1, 2, ")
    assert leaf_depths(tree) == [n - 1] + list(range(n - 1, 0, -1))
    assert is_elongated(tree)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"n = 10^5 cost, class and tree took {elapsed:.2f}s"


# ---------------------------------------------------------------- trees

def test_tree_pair_shape():
    # one internal node, the root, joins leaf 0 and leaf 1
    tree = build_tree((1, 2))
    assert tree == HuffmanTree(weights=(1, 2, 3), left=(0,), right=(1,))
    assert tree.size == 2 and tree.weights[-1] == 3


def test_tree_leaf_right_orientation():
    # merging a composite with a leaf must put the leaf on the right
    tree = build_tree((1, 1, 2))
    assert tree.left[-1] >= tree.size
    assert tree.right[-1] < tree.size and tree.weights[tree.right[-1]] == 2


def test_tree_fibonacci_depths():
    # left-sided chain: depths 9 9 8 ... 1 paired with ascending weights
    tree = build_tree(FIB10)
    expected = sorted(zip(FIB10, [9, 9, 8, 7, 6, 5, 4, 3, 2, 1]))
    assert weight_depth_pairs(tree) == expected
    assert is_elongated(tree) and is_left_sided(tree)


def test_tree_balanced_input():
    # all equal weights: both tie policies give the perfectly balanced tree
    for policy in TiePolicy:
        tree = build_tree((1, 1, 1, 1), policy)
        assert leaf_depths(tree) == [2, 2, 2, 2]
        assert wepl(tree) == 8
        assert not is_elongated(tree)
        assert not is_left_sided(tree)


def test_wepl_examples():
    assert wepl(build_tree((7,))) == 0
    assert wepl(build_tree((1, 1))) == 2
    # Lucas weights, depths 9 9 8 7 6 5 4 3 2 1 summed by hand
    lucas_weights = (1, 1, 1, 3, 4, 7, 11, 18, 29, 47)
    by_hand = 9 * 1 + 9 * 1 + 8 * 1 + 7 * 3 + 6 * 4 + 5 * 7 + 4 * 11 + 3 * 18 + 2 * 29 + 1 * 47
    assert by_hand == 309
    assert wepl(build_tree(lucas_weights)) == 309


def _depth_weight_sum(tree):
    """The wepl by its definition, leaf depths times leaf weights, not read off the internal nodes."""
    return sum(map(mul, leaf_depths(tree), leaf_weights(tree)))


@given(weight_seqs, st.sampled_from(list(TiePolicy)))
def test_merge_sum_identity(weights, policy):
    # the sum of all merged values of the trace is the leaves' depth-weight sum
    trace = run_huffman(weights, policy)
    tree = build_tree(weights, policy)
    assert sum(trace.merged_values()) == _depth_weight_sum(tree) == wepl(tree)


def test_merge_sum_identity_bulk():
    import random

    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(1, 12)
        weights = tuple(sorted(rng.randint(1, 50) for _ in range(n)))
        for policy in TiePolicy:
            trace = run_huffman(weights, policy)
            tree = build_tree(weights, policy)
            assert sum(trace.merged_values()) == _depth_weight_sum(tree) == wepl(tree)


@given(tie_seqs)
def test_tie_policy_invariance_of_cost(weights):
    # both trees hold the same merged values, so compare the leaves' depths instead
    before = _depth_weight_sum(build_tree(weights, TiePolicy.MERGED_BEFORE_EQUALS))
    after = _depth_weight_sum(build_tree(weights, TiePolicy.MERGED_AFTER_EQUALS))
    assert before == after


@given(weight_seqs)
def test_tree_preserves_weights(weights):
    tree = build_tree(weights)
    assert sorted(leaf_weights(tree)) == list(weights)
    assert tree.weights[-1] == sum(weights)


# ---------------------------------------------------------------- codebook

def test_codebook_single_leaf():
    assert codebook(build_tree((5,))) == [(0, "")]


def test_codebook_pair():
    assert codebook(build_tree((1, 1))) == [(0, "0"), (1, "1")]


def test_codebook_left_sided_lengths():
    # size-4 left-sided tree: codeword lengths 3 3 2 1
    tree = build_tree((1, 1, 2, 3))
    codes = codebook(tree)
    assert [len(code) for _, code in codes] == [3, 3, 2, 1]
    assert [code for _, code in codes] == ["000", "001", "01", "1"]


@given(weight_seqs)
def test_codebook_prefix_free_and_matches_depths(weights):
    tree = build_tree(weights)
    codes = [code for _, code in codebook(tree)]
    assert [len(c) for c in codes] == leaf_depths(tree)
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            if i != j and len(weights) > 1:
                assert not b.startswith(a)


# ---------------------------------------------------------------- shape tests

def test_single_leaf_is_elongated_and_left_sided():
    tree = build_tree((3,))
    assert is_elongated(tree)
    assert is_left_sided(tree)


def test_left_sided_implies_elongated():
    @given(weight_seqs)
    def inner(weights):
        tree = build_tree(weights)
        if is_left_sided(tree):
            assert is_elongated(tree)

    inner()


def test_elongated_but_not_left_sided():
    # swap a sibling pair by hand: still elongated, no longer left-sided
    # (the root's children are leaf 3 on the left and node 5 on the right)
    tree = HuffmanTree(weights=(1, 1, 2, 3, 2, 4, 7), left=(0, 4, 3), right=(1, 2, 5))
    assert is_elongated(tree)
    assert not is_left_sided(tree)


# ---------------------------------------------------------------- classification

def test_classify_absolutely_ordered():
    assert classify_order(FIB10) == OrderClass(0)


def test_classify_k_ordered_examples():
    # the k-ordered class is OrderClass(k + 1)
    assert classify_order((1, 1, 1, 2, 4, 6, 10, 16, 26, 42)) == OrderClass(2)
    assert classify_order((1, 1, 1, 2, 3, 5, 8, 13, 21, 34)) == OrderClass(8)
    assert classify_order((1, 1, 1, 3, 4, 7, 11, 18, 29, 47)) == OrderClass(1)


def test_classify_unordered():
    # strict at step 0, tie at step 1: not a k-ordered pattern
    assert classify_order((1, 1, 2, 2)) == OrderClass(None)


def test_classify_too_short():
    with pytest.raises(TooShortError):
        classify_order((1, 2))


def test_classify_policy_independent():
    @given(tie_seqs)
    def inner(weights):
        a = run_huffman(weights, TiePolicy.MERGED_BEFORE_EQUALS)
        b = run_huffman(weights, TiePolicy.MERGED_AFTER_EQUALS)
        from huffwyth.huffman import classify_trace
        assert classify_trace(a) == classify_trace(b)

    inner()


def _class_flags(n, lead):
    """The tie flags of every size-n trace in the class named by lead."""
    return (True,) * lead + (False,) * (n - 2 - lead)


@given(st.one_of(weight_seqs, tie_heavy_seqs, st.sampled_from([fixture_rows(s)[0] for s in STEMS]))
       .filter(lambda ws: len(ws) >= 3))
def test_tie_flags_are_the_class_pattern(weights):
    # lead opening ties, then strict rows; an unordered trace fits no lead
    n = len(weights)
    trace = run_huffman(weights)
    lead = classify_trace(trace).lead
    if lead is None:
        assert all(trace.ties != _class_flags(n, other) for other in range(n - 1))
    else:
        assert trace.ties == _class_flags(n, lead)


@given(st.one_of(weight_seqs, tie_heavy_seqs), st.sampled_from(list(TiePolicy)))
def test_tie_flags_follow_from_the_sorted_values(weights, policy):
    # steps consume the values in sorted order, and a value not yet made at
    # row q is at least p1 + p2 > p2, so row q ties exactly when sorted
    # values 2q+1 and 2q+2 are equal: no merge loop needed
    trace = run_huffman(weights, policy)
    sv = sorted(trace.initial + trace.merged)
    flags = [sv[2 * q + 1] == sv[2 * q + 2] for q in range(len(weights) - 2)]
    assert list(trace.ties) == flags
    if len(weights) >= 3:
        lead = len(list(takewhile(bool, flags)))
        assert classify_trace(trace) == OrderClass(None if any(flags[lead:]) else lead)


@st.composite
def seqs_and_leads(draw):
    """A sorted input and the lead of a class with members of its size: 0..n-2."""
    top = draw(st.sampled_from([4, 10**12]))
    seq = tuple(sorted(draw(st.lists(st.integers(1, top), min_size=1, max_size=12))))
    return seq, draw(st.integers(0, max(len(seq) - 2, 0)))


@given(seqs_and_leads())
@settings(max_examples=500)
def test_merge_with_pattern_stops_only_off_pattern(case):
    seq, lead = case
    n = len(seq)
    _, full, ties = _run(seq, DEFAULT_TIE_POLICY)
    merged = [0] * (n - 1)
    state = _advance(seq, n, merged, 0, 0, 0, lead)
    off = next((q for q, tie in enumerate(ties) if tie != (q < lead)), None)
    if off is None:
        assert state is not None and merged == full
    else:
        assert state is None
        # it stops at the first row off the class, having run the rows before it
        assert merged == full[:off] + [0] * (n - 1 - off)


@given(seqs_and_leads(), st.lists(st.integers(1, 10), min_size=12, max_size=12))
@settings(max_examples=500)
def test_advance_one_leaf_at_a_time_matches_the_full_run(case, stale):
    # the oracle's walk resumes the loop as each leaf becomes known, over a
    # list whose entries past the known prefix are left from other tuples
    seq, lead = case
    n = len(seq)
    for want in (None, lead):
        work, merged, ties = stale[:n], [0] * (n - 1), []
        state = (0, 0, 0)
        for known in range(1, n + 1):
            work[known - 1] = seq[known - 1]
            state = _advance(work, known, merged, *state, want, ties)
            if state is None:
                break
        full, full_ties = [0] * (n - 1), []
        assert state == _advance(seq, n, full, 0, 0, 0, want, full_ties)
        assert merged == full and ties == full_ties
        if want is None:
            assert (seq, merged, ties) == _run(seq, DEFAULT_TIE_POLICY)


def test_order_class_str():
    assert str(OrderClass(0)) == "absolutely-ordered"
    assert str(OrderClass(5)) == "4-ordered"
    assert str(OrderClass(None)) == "unordered"


def test_order_class_validation():
    # a class is one number: how many rows open its traces with a tie; the
    # range check on lead is a row of tests/test_api.py::test_int_argument_rule
    assert [f.name for f in fields(OrderClass)] == ["lead"]
    assert OrderClass(4) == OrderClass(4) != OrderClass(3)
    assert OrderClass(None) == OrderClass(None) != OrderClass(0)
    assert len({OrderClass(0), OrderClass(1), OrderClass(1), OrderClass(None)}) == 3


# ---------------------------------------------------------------- inequality

def test_elongated_inequality_holds_for_fibonacci():
    assert check_elongated_inequality(run_huffman(FIB10))


def test_elongated_inequality_fails_for_equal_weights():
    assert not check_elongated_inequality(run_huffman((1, 1, 1, 1)))


def test_elongated_inequality_trivial_sizes():
    assert check_elongated_inequality(run_huffman((4,)))
    assert check_elongated_inequality(run_huffman((1, 2, 3)))


@given(weight_seqs)
def test_elongated_tree_satisfies_inequality(weights):
    # whenever the built tree is elongated the inequality must hold
    trace = run_huffman(weights)
    if is_elongated(build_tree(weights)):
        assert check_elongated_inequality(trace)


# ---------------------------------------------------------------- JSON

def test_trace_json_shape():
    doc = json.loads(trace_to_json(run_huffman((1, 1, 2))))
    assert doc["initial"] == ["1", "1", "2"]
    assert doc["total"] == "4"
    assert doc["steps"][0] == {"i": 1, "input": ["1", "1", "2"], "merged": "2", "pos": 1}


@given(weight_seqs)
def test_trace_json_round_trip(weights):
    trace = run_huffman(weights)
    again = trace_from_json(trace_to_json(trace))
    assert again == trace
    # rerunning the merges on the parsed document reproduces it exactly
    assert run_huffman(again.initial) == again
    if again.merged:
        assert again.merged[-1] == again.total


def test_trace_json_malformed():
    with pytest.raises(ValueError):
        trace_from_json("{}")
    with pytest.raises(ValueError):
        trace_from_json("not json")


def _edit_row(doc):
    doc["steps"][3]["input"][1] = "6"


def _edit_merged(doc):
    doc["steps"][2]["merged"] = "8"


def _edit_pos(doc):
    doc["steps"][0]["pos"] = 5


def _edit_total(doc):
    doc["total"] = "144"


def _drop_step(doc):
    del doc["steps"][4]


# only what trace_to_json writes parses, even where the weights replay
def _int_for_string(doc):
    doc["steps"][2]["merged"] = int(doc["steps"][2]["merged"])


def _extra_key(doc):
    doc["steps"][1]["note"] = "x"


# i and pos must be JSON integers, even where another value equals them
def _bool_for_int(doc):
    doc["steps"][0]["pos"] = True


def _float_for_int(doc):
    doc["steps"][1]["i"] = 2.0


def _nan_for_int(doc):
    doc["steps"][1]["i"] = float("nan")


@pytest.mark.parametrize("edit", [_edit_row, _edit_merged, _edit_pos, _edit_total, _drop_step,
                                  _int_for_string, _extra_key, _bool_for_int, _float_for_int,
                                  _nan_for_int])
def test_trace_json_rejects_rows_that_do_not_replay(edit):
    doc = json.loads(trace_to_json(run_huffman(FIB10)))
    edit(doc)
    with pytest.raises(ValueError):
        trace_from_json(json.dumps(doc))


def _reordered(value):
    if isinstance(value, dict):
        return {key: _reordered(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reordered(item) for item in value]
    return value


def test_trace_json_accepts_either_tie_policy():
    weights = (1, 1, 2, 2, 3)
    for policy in TiePolicy:
        trace = run_huffman(weights, policy)
        assert trace_from_json(trace_to_json(trace)) == trace
        # the reader compares documents, not text: key order and indent are free
        text = json.dumps(_reordered(json.loads(trace_to_json(trace))), indent=4)
        assert text.startswith(f'{{\n    "total": "{trace.total}",\n    "steps": [\n        {{\n')
        assert trace_from_json(text) == trace
