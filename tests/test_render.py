import random

import pytest
from hypothesis import example, given, strategies as st

from huffwyth import cli, huffman
from huffwyth.cli import _csv_chunks, format_trace_table
from huffwyth.huffman import HuffmanTrace, TiePolicy, run_huffman, trace_to_json
from huffwyth.theorems import min_k_sequence
from reference_huffman import reference_csv, reference_json, reference_table

render_weights = st.one_of(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=30),
    st.lists(st.integers(min_value=1, max_value=10 ** 30), min_size=1, max_size=30),
).map(lambda ws: tuple(sorted(ws)))


def assert_renders_like_reference(trace, marker, indent):
    assert format_trace_table(trace, marker) == reference_table(trace, marker)
    assert "".join(_csv_chunks(trace)) == reference_csv(trace)
    assert trace_to_json(trace, indent) == reference_json(trace, indent)


@given(render_weights, st.sampled_from(list(TiePolicy)), st.text(max_size=3),
       st.sampled_from([None, 0, 1, 2, 4, "\t"]))
@example((4,), TiePolicy.MERGED_BEFORE_EQUALS, "*", None)
@example((4,), TiePolicy.MERGED_AFTER_EQUALS, "*", 2)
@example((2, 2), TiePolicy.MERGED_BEFORE_EQUALS, "<-", 2)
@example((2, 2), TiePolicy.MERGED_AFTER_EQUALS, "", None)
@example((1, 1, 1, 2, 2, 3, 3, 3), TiePolicy.MERGED_AFTER_EQUALS, "<-", None)
def test_renderers_match_reference(weights, policy, marker, indent):
    assert_renders_like_reference(run_huffman(weights, policy), marker, indent)


def test_renderers_match_reference_on_k_minimizer():
    # the shape the command line renders most: a 400-weight k-minimizer,
    # weights up to 84 digits
    k = random.Random(400).randrange(398)
    weights = min_k_sequence(400, k)
    for policy in TiePolicy:
        for marker, indent in (("*", 2), ("<-", None)):
            assert_renders_like_reference(run_huffman(weights, policy), marker, indent)


def test_rendering_builds_no_int_rows(monkeypatch):
    def no_rows(trace):
        raise AssertionError("int rows were built")

    monkeypatch.setattr(HuffmanTrace, "sequences", no_rows)
    trace = run_huffman(min_k_sequence(400, 7))
    assert format_trace_table(trace).count("\n") == 401
    assert "".join(_csv_chunks(trace)).count("\n") == 401
    assert trace_to_json(trace, indent=2).startswith("{")


def _refuse(*args, **kwargs):
    raise AssertionError("the command built the whole text")


@pytest.mark.parametrize("weights", [
    (7,), (2, 3), tuple(sorted(random.Random(3).choices((1, 2, 3), k=40))),
    min_k_sequence(400, 3),
], ids=["n=1", "n=2", "ties-1..3", "k-minimizer-400"])
@pytest.mark.parametrize("tie", ["before", "after"])
def test_cli_streams_the_library_text(weights, tie, capsys, monkeypatch):
    trace = run_huffman(weights, TiePolicy(tie))
    want = {"json": trace_to_json(trace, 2) + "\n", "csv": "".join(_csv_chunks(trace)),
            "table": format_trace_table(trace)}
    monkeypatch.setattr(huffman, "trace_to_json", _refuse)
    monkeypatch.setattr(cli, "format_trace_table", _refuse)
    argv = ["huffman", "--weights", ",".join(map(str, weights)), "--tie", tie, "--trace"]
    for fmt, text in want.items():
        assert cli.main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out == text
