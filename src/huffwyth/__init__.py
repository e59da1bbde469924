"""Exact-arithmetic toolkit around maximum-height Huffman trees.

The package ties together three strands:

  * a stepwise Huffman algorithm that records every intermediate weight
    sequence, classifies inputs by their tie pattern, and builds the
    corresponding prefix-code trees (huffman);
  * the generalized Wythoff array and the Fibonacci / Lucas / lower
    Wythoff sequences feeding it (numbers, wythoff);
  * closed forms for the cheapest weight sequences whose optimal tree has
    maximum height, by order class, plus their costs (theorems), and a
    brute-force oracle that verifies those closed forms by exhaustive
    enumeration (oracle).

All arithmetic is exact; no floats appear anywhere.
"""

from .numbers import fib, lower_wythoff, lucas
from .wythoff import wythoff_entry, wythoff_row
from .huffman import (
    DEFAULT_TIE_POLICY,
    EmptySequenceError,
    HuffmanTrace,
    HuffmanTree,
    NotSortedError,
    OrderClass,
    OrderKind,
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
)
from .theorems import (
    KOutOfRangeError,
    SizeTooSmallError,
    corollary_sequences,
    min_abs_cost,
    min_k_cost,
    min_k_sequence,
    min_k_sequence_fib_form,
)
from .oracle import (
    EmptyClassError,
    OracleReport,
    SearchSpaceTooLargeError,
    brute_force_min,
    brute_force_min_abs,
    count_sequences,
    elongated_cost,
    enumerate_sequences,
    report_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "fib", "lucas", "lower_wythoff",
    "wythoff_entry", "wythoff_row",
    "TiePolicy", "DEFAULT_TIE_POLICY", "HuffmanTrace", "HuffmanTree",
    "OrderKind", "OrderClass",
    "EmptySequenceError", "NotSortedError", "TooShortError",
    "validate_weights", "run_huffman", "build_tree",
    "leaf_weights", "leaf_depths", "wepl", "codebook",
    "is_elongated", "classify_order", "classify_trace",
    "trace_to_json", "trace_from_json",
    "SizeTooSmallError", "KOutOfRangeError",
    "min_abs_cost", "min_k_sequence", "min_k_sequence_fib_form",
    "min_k_cost", "corollary_sequences",
    "SearchSpaceTooLargeError", "EmptyClassError", "OracleReport",
    "enumerate_sequences", "count_sequences", "elongated_cost",
    "brute_force_min", "brute_force_min_abs", "report_to_json",
    "__version__",
]
