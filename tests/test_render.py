import random

from hypothesis import example, given, strategies as st

from huffwyth.cli import format_trace_csv, format_trace_table
from huffwyth.huffman import HuffmanTrace, TiePolicy, run_huffman, trace_to_json
from huffwyth.theorems import min_k_sequence
from reference_huffman import reference_csv, reference_json, reference_table

render_weights = st.one_of(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=30),
    st.lists(st.integers(min_value=1, max_value=10 ** 30), min_size=1, max_size=30),
).map(lambda ws: tuple(sorted(ws)))


def assert_renders_like_reference(trace, marker, indent):
    assert format_trace_table(trace, marker) == reference_table(trace, marker)
    assert format_trace_csv(trace) == reference_csv(trace)
    assert trace_to_json(trace, indent) == reference_json(trace, indent)


@given(render_weights, st.sampled_from(list(TiePolicy)), st.text(max_size=3),
       st.sampled_from([None, 2]))
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

    monkeypatch.setattr(HuffmanTrace, "_rows", property(no_rows))
    trace = run_huffman(min_k_sequence(400, 7))
    assert format_trace_table(trace).count("\n") == 401
    assert format_trace_csv(trace).count("\n") == 401
    assert trace_to_json(trace, indent=2).startswith("{")
