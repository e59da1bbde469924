import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from huffwyth import cli, huffman
from huffwyth.cli import _csv_chunks, _table_chunks
from huffwyth.huffman import HuffmanTrace, TiePolicy, build_tree, run_huffman, trace_to_json
from huffwyth.theorems import min_k_sequence
from reference_huffman import (reference_csv, reference_json, reference_outline, reference_table,
                               reference_tree)

render_weights = st.one_of(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=30),
    st.lists(st.integers(min_value=1, max_value=10 ** 30), min_size=1, max_size=30),
).map(lambda ws: tuple(sorted(ws)))


def assert_renders_like_reference(trace, indent):
    assert "".join(_table_chunks(trace)) == reference_table(trace)
    assert "".join(_csv_chunks(trace)) == reference_csv(trace)
    assert trace_to_json(trace, indent) == reference_json(trace, indent)


@given(render_weights, st.sampled_from(list(TiePolicy)), st.sampled_from([None, 0, 1, 2, 4, "\t"]))
@example((4,), TiePolicy.MERGED_BEFORE_EQUALS, None)
@example((4,), TiePolicy.MERGED_AFTER_EQUALS, 2)
@example((2, 2), TiePolicy.MERGED_BEFORE_EQUALS, 2)
@example((2, 2), TiePolicy.MERGED_AFTER_EQUALS, None)
@example((1, 1, 1, 2, 2, 3, 3, 3), TiePolicy.MERGED_AFTER_EQUALS, None)
def test_renderers_match_reference(weights, policy, indent):
    assert_renders_like_reference(run_huffman(weights, policy), indent)


def test_renderers_match_reference_on_k_minimizer():
    # the shape the command line renders most: a 400-weight k-minimizer,
    # weights up to 84 digits
    k = random.Random(400).randrange(398)
    weights = min_k_sequence(400, k)
    for policy in TiePolicy:
        for indent in (2, None):
            assert_renders_like_reference(run_huffman(weights, policy), indent)


def test_rendering_builds_no_int_rows(monkeypatch):
    def no_rows(trace):
        raise AssertionError("int rows were built")

    monkeypatch.setattr(HuffmanTrace, "sequences", no_rows)
    trace = run_huffman(min_k_sequence(400, 7))
    assert "".join(_table_chunks(trace)).count("\n") == 401
    assert "".join(_csv_chunks(trace)).count("\n") == 401
    assert trace_to_json(trace, indent=2).startswith("{")


def _refuse(*args, **kwargs):
    raise AssertionError("the command rendered through trace_to_json")


@pytest.mark.parametrize("weights", [
    (7,), (2, 3), tuple(sorted(random.Random(3).choices((1, 2, 3), k=40))),
    min_k_sequence(400, 3),
], ids=["n=1", "n=2", "ties-1..3", "k-minimizer-400"])
@pytest.mark.parametrize("tie", ["before", "after"])
def test_cli_streams_the_library_text(weights, tie, capsys, monkeypatch):
    trace = run_huffman(weights, TiePolicy(tie))
    want = {"json": trace_to_json(trace, 2) + "\n", "csv": "".join(_csv_chunks(trace)),
            "table": "".join(_table_chunks(trace))}
    monkeypatch.setattr(huffman, "trace_to_json", _refuse)
    argv = ["huffman", "--weights", ",".join(map(str, weights)), "--tie", tie, "--trace"]
    for fmt, text in want.items():
        assert cli.main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out == text


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_tree_outline_matches_reference(policy):
    # every line of the outline, on sorted inputs with many equal weights
    rng = random.Random(28)
    for _ in range(120):
        weights = tuple(sorted(rng.randint(1, 5) for _ in range(rng.randint(1, 60))))
        want = reference_outline(reference_tree(weights, policy))
        assert cli.format_tree(build_tree(weights, policy)) == want, weights


@pytest.mark.parametrize("policy", list(TiePolicy))
def test_deep_tree_outline_needs_no_recursion(policy):
    # the height n-1 tree of the absolutely ordered minimizer at n = 2000
    weights = min_k_sequence(2000, None)
    tree, want = build_tree(weights, policy), reference_outline(reference_tree(weights, policy))
    assert want.count("\n") == 3999 and want.splitlines()[1999] == "  " * 1999 + "- 1"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = cli.format_tree(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
