"""Stepwise Huffman algorithm over integer weight sequences, with full traces.

Input is a non-decreasing sequence of n positive integer weights.  Each step
removes the two smallest entries and inserts their sum back into the sorted
remainder; after n-1 steps a single value remains, the sum of all weights.
The i-th step consumes the sequence P(i-1) and produces P(i), with P(0) the
input.

Engine.  One two-queue merge (van Leeuwen, "On the construction of Huffman
trees", ICALP 1976) serves the trace, the tree, classification and the
oracle.  Merged sums come out non-decreasing, so P(i) is always the union of
two sorted queues: the leaves not yet consumed, behind a pointer into the
input, and the merged values not yet consumed.  Each step takes the two
smaller queue heads, reads p3 off the heads that remain, and finds the
merged value's insert position by bisect on both queues: O(n log n)
comparisons in all.  The rows P(i) themselves take O(n^2) space, so a trace
stores only merged values, positions and tie flags, and rebuilds the rows
when a caller first asks for them.

Rendering.  The table, CSV and JSON renderers never build the int rows.
They convert each initial and merged value to decimal text once, 2n-1
conversions in all, and replay the rows over those strings with the same
replay that rebuilds the int rows.  JSON is written directly, not by the
json module: every field is a digit string or an int, so nothing needs
escaping, and the text is byte-identical to json.dumps of the same
document at every indent.  Each renderer yields its text a row at a time,
and the command line writes every format to stdout row by row.  The
conversions go through numbers._to_decimal, so values of any length render
on every supported interpreter without lifting its int/str digit limit.

Ties.  When the merged sum equals an existing entry the insertion point is
ambiguous and a TiePolicy resolves it:

    MERGED_BEFORE_EQUALS    merged node goes in front of equal entries
    MERGED_AFTER_EQUALS     merged node goes behind equal entries

In queue terms, MERGED_BEFORE_EQUALS takes a merged node ahead of an equal
leaf and consumes each block of equal merged values newest first (LIFO);
MERGED_AFTER_EQUALS takes the leaf first and the block oldest first (FIFO).
Both policies produce the same intermediate value sequences and the same
weighted external path length; only which node later merges consume differs,
hence the tree shape.  Placing the merged node before its equals consumes
composite nodes as early as possible and grows the tallest tree the input
admits, so inputs whose optimal tree can be elongated (every sibling pair
contains a leaf) actually come out elongated.  That makes
MERGED_BEFORE_EQUALS the default.

Trees.  A HuffmanTree is three flat tuples over 2n-1 node indices, read
straight off the engine's picks: leaf i < n is input weight i, and internal
node n+q, made by step q+1, has the child indices left[q] and right[q].  A
child's index is always below its parent's, so one reverse pass gives every
depth, and the left-to-right walks keep an explicit stack.  The tree takes
O(n) space, and no tree operation recurses, at any height.  When a merge
pairs a leaf with a subtree, the leaf becomes the right child; a chain of
such merges therefore grows a left-sided tree, one where the right node of
every sibling pair is a leaf.

Order classes.  With p2(i), p3(i) the second and third entries of P(i):

    absolutely ordered    p2(i) <  p3(i) for all i = 0..n-3
    k-ordered             p2(i) == p3(i) for i = 0..k and
                          p2(i) <  p3(i) for i = k+1..n-3

The classification only involves the value sequences, so it is independent
of the tie policy.
"""

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from operator import mul
from typing import Iterable

from .numbers import _from_decimal, _to_decimal

__all__ = [
    "EmptySequenceError",
    "NotSortedError",
    "TooShortError",
    "TiePolicy",
    "DEFAULT_TIE_POLICY",
    "HuffmanTrace",
    "HuffmanTree",
    "OrderKind",
    "OrderClass",
    "validate_weights",
    "run_huffman",
    "build_tree",
    "leaf_weights",
    "leaf_depths",
    "wepl",
    "codebook",
    "is_elongated",
    "classify_order",
    "classify_trace",
    "trace_to_json",
    "trace_from_json",
]


class EmptySequenceError(ValueError):
    """Raised when a weight sequence is empty."""


class NotSortedError(ValueError):
    """Raised when a weight sequence is not non-decreasing."""


class TooShortError(ValueError):
    """Raised when a sequence is too short to classify (n < 3)."""


class TiePolicy(Enum):
    MERGED_BEFORE_EQUALS = "before"
    MERGED_AFTER_EQUALS = "after"


DEFAULT_TIE_POLICY = TiePolicy.MERGED_BEFORE_EQUALS


def validate_weights(weights: Iterable[int]) -> tuple[int, ...]:
    """Validate and normalize a weight sequence to a tuple.

    The sequence must be nonempty, every weight a positive integer, and the
    order non-decreasing.
    """
    seq = tuple(weights)
    if not seq:
        raise EmptySequenceError("weight sequence is empty")
    for w in seq:
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValueError(f"weights must be positive integers, got {w!r}")
    for a, b in zip(seq, seq[1:]):
        if a > b:
            raise NotSortedError(f"weights must be non-decreasing, got {a} before {b}")
    return seq


def _merge(seq, before):
    """Run the two-queue merge on a validated sorted tuple.

    Returns (merged, positions, ties, picks): the merged value of each step,
    its 1-based insert position in the step output, the flags
    p2(i) == p3(i) for the rows i = 0..n-3, and the two nodes each step
    consumes, in queue order.  A pick below n is a leaf index; n + q is the
    node made by step q+1.  `before` selects MERGED_BEFORE_EQUALS.
    """
    n = len(seq)
    merged, positions, ties, picks = [], [], [], []
    i = j = 0           # heads of the leaf queue seq[i:] and the merged queue merged[j:]
    end = mirror = 0    # `before`: the equal-value block of merged[] being consumed ends at end
    for _ in range(n - 1):
        total = 0
        for _ in (0, 1):
            if j < len(merged) and (i == n or merged[j] < seq[i] or before and merged[j] == seq[i]):
                if before and j == end:
                    # A block is complete when first reached: a later merge
                    # sums two entries of at least its value.
                    end = bisect_right(merged, merged[j], j)
                    mirror = j + end - 1
                last = merged[j]
                picks.append(n + (mirror - j if before else j))
                j += 1
            else:
                last = seq[i]
                picks.append(i)
                i += 1
            total += last
        if i < n:
            ties.append(last == (seq[i] if j == len(merged) or seq[i] < merged[j] else merged[j]))
        elif j < len(merged):
            ties.append(last == merged[j])
        if before:
            pos = bisect_left(seq, total, i) - i + bisect_left(merged, total, j) - j
        else:
            pos = bisect_right(seq, total, i) - i + len(merged) - j
        merged.append(total)
        positions.append(pos + 1)
    return merged, positions, ties, picks


def _value_repr(value) -> str:
    """repr(value) for ints, tuples and other values, ints at any length."""
    if type(value) is int:
        return _to_decimal(value)
    if type(value) is tuple:
        return "(" + ", ".join(map(_value_repr, value)) + ("," if len(value) == 1 else "") + ")"
    return repr(value)


def _exact_repr(self) -> str:
    """The dataclass repr, with ints converted through _to_decimal.

    repr() of an int beyond the int/str digit limit raises ValueError;
    _to_decimal does not.
    """
    return f"{type(self).__qualname__}(" + ", ".join(
        f"{f.name}={_value_repr(getattr(self, f.name))}" for f in fields(self)) + ")"


@dataclass(frozen=True, repr=False)
class HuffmanTrace:
    """Record of a Huffman run: the input and, per step, what the engine emits.

    merged[i-1] and positions[i-1] are the merged value of step i and its
    1-based position in P(i); ties[i] is p2(i) == p3(i) for i = 0..n-3.
    The rows P(i) are rebuilt from these on first request and cached.
    """

    initial: tuple[int, ...]
    merged: tuple[int, ...]
    positions: tuple[int, ...]
    ties: tuple[bool, ...]

    __repr__ = _exact_repr

    @property
    def size(self) -> int:
        return len(self.initial)

    @property
    def total(self) -> int:
        return self.merged[-1] if self.merged else self.initial[0]

    def _replay(self, initial, merged):
        """Yield the rows P(0), ..., P(n-1) built from initial and merged.

        These stand for self.initial and self.merged: the ints themselves or
        their decimal text.
        """
        row = initial
        yield row
        for value, pos in zip(merged, self.positions):
            row = row[2:pos + 1] + (value,) + row[pos + 1:]
            yield row

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._replay(self.initial, self.merged))

    def text_rows(self):
        """Yield the rows P(0), ..., P(n-1) as tuples of decimal strings.

        Each value is converted once, and the rows are neither cached nor
        built as ints.  The merged value of step i is text row i at index
        positions[i-1] - 1.
        """
        return self._replay(tuple(map(_to_decimal, self.initial)),
                            tuple(map(_to_decimal, self.merged)))

    def sequences(self) -> list[tuple[int, ...]]:
        """Return [P(0), P(1), ..., P(n-1)]; the last entry is (total,)."""
        return list(self._rows)

    def merged_values(self) -> list[int]:
        return list(self.merged)


def run_huffman(weights: Iterable[int], tie_policy: TiePolicy = DEFAULT_TIE_POLICY) -> HuffmanTrace:
    """Run the Huffman merge process and return its trace.

    Raises EmptySequenceError, NotSortedError, or ValueError for invalid
    input.  The weights must already be sorted; callers wanting a
    sort-first behaviour sort before calling.
    """
    seq = validate_weights(weights)
    merged, positions, ties, _ = _merge(seq, tie_policy is TiePolicy.MERGED_BEFORE_EQUALS)
    return HuffmanTrace(seq, tuple(merged), tuple(positions), tuple(ties))


@dataclass(frozen=True, repr=False)
class HuffmanTree:
    """A binary tree on n leaves held in three flat tuples.

    Node i < n is leaf i; node n+q is internal, with children left[q] and
    right[q].  weights[v] is the weight of node v.  Every child must have a
    lower index than its parent, as in each tree build_tree returns, so the
    root is the last node.  Equality, hashing, repr and the walks below work
    on the tuples without recursion, at any height.
    """

    weights: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]

    __repr__ = _exact_repr

    @property
    def size(self) -> int:
        """The number of leaves."""
        return len(self.left) + 1

    def preorder(self):
        """Yield (node, depth) for every node: a parent, its left subtree, its right subtree."""
        n, left, right = self.size, self.left, self.right
        stack = [(len(self.weights) - 1, 0)]
        while stack:
            v, depth = stack.pop()
            yield v, depth
            if v >= n:
                stack.append((right[v - n], depth + 1))
                stack.append((left[v - n], depth + 1))


def build_tree(weights: Iterable[int], tie_policy: TiePolicy = DEFAULT_TIE_POLICY) -> HuffmanTree:
    """Build the Huffman tree from the merge engine's picks.

    Internal node n+q joins the two nodes step q+1 consumes, in queue
    order, except that a lone leaf always becomes the right child; its
    weight is the trace's merged value.
    """
    seq = validate_weights(weights)
    n = len(seq)
    merged, _, _, picks = _merge(seq, tie_policy is TiePolicy.MERGED_BEFORE_EQUALS)
    left, right = picks[0::2], picks[1::2]
    for q, (a, b) in enumerate(zip(left, right)):
        if a < n <= b:
            left[q], right[q] = b, a
    return HuffmanTree(seq + tuple(merged), tuple(left), tuple(right))


def _leaves(tree: HuffmanTree) -> list[int]:
    """Leaf indices in left-to-right order."""
    n, left, right = tree.size, tree.left, tree.right
    out, stack = [], [len(tree.weights) - 1]
    while stack:
        v = stack.pop()
        while v >= n:
            stack.append(right[v - n])
            v = left[v - n]
        out.append(v)
    return out


def _depths(tree: HuffmanTree) -> list[int]:
    """Node depths by index (root depth 0), in one pass from the root down."""
    depth = [0] * len(tree.weights)
    parents = range(len(tree.weights) - 1, tree.size - 1, -1)
    for v, a, b in zip(parents, reversed(tree.left), reversed(tree.right)):
        depth[a] = depth[b] = depth[v] + 1
    return depth


def leaf_weights(tree: HuffmanTree) -> list[int]:
    """Leaf weights in left-to-right order."""
    return [tree.weights[v] for v in _leaves(tree)]


def leaf_depths(tree: HuffmanTree) -> list[int]:
    """Leaf depths in left-to-right order (root depth 0)."""
    depth = _depths(tree)
    return [depth[v] for v in _leaves(tree)]


def wepl(tree: HuffmanTree) -> int:
    """Weighted external path length: sum over leaves of depth * weight."""
    return sum(map(mul, _depths(tree)[:tree.size], tree.weights))


def codebook(tree: HuffmanTree) -> list[tuple[int, str]]:
    """Return (leaf index, codeword) pairs, leaves numbered left to right.

    Left edges emit '0', right edges '1'.  A single-leaf tree gets the
    empty codeword.
    """
    n, left, right = tree.size, tree.left, tree.right
    out, stack = [], [(len(tree.weights) - 1, "")]
    while stack:
        v, code = stack.pop()
        if v < n:
            out.append((len(out), code))
        else:
            stack.append((right[v - n], code + "1"))
            stack.append((left[v - n], code + "0"))
    return out


def is_elongated(tree: HuffmanTree) -> bool:
    """True when every sibling pair contains at least one leaf.

    Equivalently the tree has the maximum height possible for its leaf
    count: a single leaf chain of internal nodes.
    """
    n = tree.size
    return all(a < n or b < n for a, b in zip(tree.left, tree.right))


class OrderKind(Enum):
    ABSOLUTELY_ORDERED = "absolutely-ordered"
    K_ORDERED = "k-ordered"
    UNORDERED = "unordered"


@dataclass(frozen=True)
class OrderClass:
    """Classification of a weight sequence by its trace order pattern."""

    kind: OrderKind
    k: int | None = None

    def __post_init__(self):
        if self.kind is OrderKind.K_ORDERED:
            if self.k is None or self.k < 0:
                raise ValueError("k-ordered classification needs k >= 0")
        elif self.k is not None:
            raise ValueError(f"{self.kind.value} classification carries no k")

    @classmethod
    def absolutely_ordered(cls) -> "OrderClass":
        return cls(OrderKind.ABSOLUTELY_ORDERED)

    @classmethod
    def k_ordered(cls, k: int) -> "OrderClass":
        return cls(OrderKind.K_ORDERED, k)

    @classmethod
    def unordered(cls) -> "OrderClass":
        return cls(OrderKind.UNORDERED)

    def tie_flags(self, n: int) -> list[bool]:
        """The flags p2(i) == p3(i), i = 0..n-3, of every size-n member of this class."""
        if self.kind is OrderKind.UNORDERED:
            raise ValueError("unordered sequences share no single tie pattern")
        lead = 0 if self.kind is OrderKind.ABSOLUTELY_ORDERED else self.k + 1
        return [True] * lead + [False] * (n - 2 - lead)

    def __str__(self) -> str:
        if self.kind is OrderKind.K_ORDERED:
            return f"{self.k}-ordered"
        return self.kind.value


def classify_trace(trace: HuffmanTrace) -> OrderClass:
    """Classify the order pattern of an existing trace; needs size >= 3."""
    n = trace.size
    if n < 3:
        raise TooShortError(f"classification needs at least 3 weights, got {n}")
    ties = trace.ties
    lead = ties.index(False) if False in ties else len(ties)
    if True in ties[lead:]:
        return OrderClass.unordered()
    if lead == 0:
        return OrderClass.absolutely_ordered()
    return OrderClass.k_ordered(lead - 1)


def classify_order(weights: Iterable[int]) -> OrderClass:
    """Classify a weight sequence as absolutely ordered, k-ordered, or unordered.

    The sequence is absolutely ordered when p2 < p3 strictly in every
    intermediate sequence P(0)..P(n-3), and k-ordered when p2 == p3 holds
    for exactly the first k+1 of them and p2 < p3 after.  Any other tie
    pattern is unordered.
    """
    return classify_trace(run_huffman(weights))


def _document(rows, positions) -> dict:
    """The JSON document of a trace, from its text rows P(0), ..., P(n-1).

    trace_from_json compares a parsed document with this one; trace_to_json
    writes the same document's text directly.
    """
    return {
        "initial": rows[0],
        "steps": [
            {"i": i, "input": prev, "merged": row[pos - 1], "pos": pos}
            for i, (prev, row, pos) in enumerate(zip(rows, rows[1:], positions), 1)
        ],
        "total": rows[-1][0],
    }


def _json_chunks(trace: HuffmanTrace, indent: int | None):
    """Yield the text of json.dumps(document, indent=indent) for a trace.

    The head comes first, then one chunk per step, then the tail.  Every
    field is a digit string or an int, so nothing needs escaping: each of
    the 2n-1 values is quoted once and the rows are replayed over the quoted
    strings.
    """
    if indent is None:
        pad = [""] * 5
        sep = [", "] * 5
    else:
        pad = ["\n" + " " * (indent * depth) for depth in range(5)]
        sep = ["," + p for p in pad]
    rows = trace._replay(tuple('"%s"' % _to_decimal(v) for v in trace.initial),
                         tuple('"%s"' % _to_decimal(v) for v in trace.merged))
    prev = next(rows)
    yield f'{{{pad[1]}"initial": [{pad[2]}{sep[2].join(prev)}{pad[1]}]{sep[1]}"steps": ['
    step = (f'{{{pad[3]}"i": %d{sep[3]}"input": [{pad[4]}%s{pad[3]}]{sep[3]}'
            f'"merged": %s{sep[3]}"pos": %d{pad[2]}}}')
    lead = pad[2]
    for i, (row, pos) in enumerate(zip(rows, trace.positions), 1):
        yield lead + step % (i, sep[4].join(prev), row[pos - 1], pos)
        lead, prev = sep[2], row
    yield f'{pad[1] if trace.merged else ""}]{sep[1]}"total": {prev[0]}{pad[0]}}}'


def trace_to_json(trace: HuffmanTrace, indent: int | None = None) -> str:
    """Serialize a trace to JSON with weights as decimal strings.

    The text is byte-identical to json.dumps of the document with the same
    indent.
    """
    return "".join(_json_chunks(trace, indent))


def _not_an_int(token):
    raise ValueError(f"malformed trace document: {token} where an integer belongs")


def trace_from_json(text: str) -> HuffmanTrace:
    """Parse a trace produced by trace_to_json back into a HuffmanTrace.

    Only the initial weights are parsed.  They are replayed under each tie
    policy, and the document must equal the one trace_to_json builds for
    one of those runs.  A number where a decimal string belongs, a missing
    or extra key, or a row that does not replay raises ValueError, and so
    does a float, NaN, Infinity, true or false in place of a step's i or
    pos.
    """
    try:
        doc = json.loads(text, parse_float=_not_an_int, parse_constant=_not_an_int)
        initial = tuple(map(_from_decimal, doc["initial"]))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed trace document: {exc}") from exc
    for policy in TiePolicy:
        trace = run_huffman(initial, policy)
        # json.loads gives lists where text_rows() gives tuples
        if _document(list(map(list, trace.text_rows())), trace.positions) == doc:
            # True == 1, so only the type tells a bool from the int it equals
            if any(type(step["i"]) is bool or type(step["pos"]) is bool for step in doc["steps"]):
                raise ValueError("malformed trace document: true or false where an integer belongs")
            return trace
    raise ValueError("trace document does not replay from its initial weights")
