"""Stepwise Huffman algorithm over integer weight sequences, with full traces.

Input is a non-decreasing sequence of n positive integer weights.  Each step
removes the two smallest entries and inserts their sum back into the sorted
remainder; after n-1 steps a single value remains, the sum of all weights.
The i-th step consumes the sequence P(i-1) and produces P(i), with P(0) the
input.

Engine.  One two-queue loop (van Leeuwen, "On the construction of Huffman
trees", ICALP 1976) computes the merged values and tie flags, and nothing
else.  Merged sums come out non-decreasing, so P(i) is always the union of
two sorted queues: the leaves not yet consumed and the merged values not
yet consumed.  Each step takes the two smaller queue heads and reads
p2 == p3 off the heads that remain: O(n) in all.  The loop is resumable:
its state is the step count and the two queue heads, and given only the
first known leaves it runs each step that reads no leaf past them, then
returns its state.  A full run is the call with all n leaves known; the
oracle feeds the leaves one at a time and drops a prefix at its first row
off a class's tie pattern.  A trace's insert positions and a tree's picks
are derived from the values afterwards, by C-level sorting and bisecting
(see Ties and Trees), each only where needed: a trace holds its tie policy
in place of its positions and derives them on first read, so cost and
classification, which never read them, pay one loop and no sort.
The rows P(i) take O(n^2) space, so a trace stores only merged values,
tie flags and the positions or the policy they come from, and builds the
rows anew on each request, for the caller to keep or drop.

Rendering.  The table, CSV and JSON renderers never build the int rows.
They convert each of the 2n-1 values to decimal text once, through
numbers._to_decimal, so values of any length render without lifting the
int/str digit limit, and replay the rows over those strings.  JSON is
written directly, not by the json module: every field is a digit string or
an int, so nothing needs escaping, and the text is byte-identical to
json.dumps of the same document at every indent.  Each renderer yields its
text a row at a time; the command line counts those rows against its
output limit and holds them, at most 20,000,000 characters, until the
trace is complete.

Ties.  When the merged sum equals an existing entry the insertion point is
ambiguous and a TiePolicy resolves it:

    MERGED_BEFORE_EQUALS    merged node goes in front of equal entries
    MERGED_AFTER_EQUALS     merged node goes behind equal entries

In queue terms, MERGED_BEFORE_EQUALS takes a merged node ahead of an equal
leaf and consumes each block of equal merged values newest first (LIFO);
MERGED_AFTER_EQUALS takes the leaf first and the block oldest first (FIFO).
Both policies produce the same values, tie flags and weighted external path
length; only which node later merges consume differs, hence the tree shape.
Placing the merged node before its equals consumes composite nodes as early
as possible and grows the tallest tree the input admits, so inputs whose
optimal tree can be elongated (every sibling pair contains a leaf) actually
come out elongated.  That makes MERGED_BEFORE_EQUALS the default.

Every merged value M = merged[q] exceeds both of its parts, as weights are
at least 1, so the 2q+2 entries consumed by steps 1..q+1 are all below M,
and every later merged value is at least M.  M's 1-based position in P(q+1) is
bisect_left(sorted(values), M) - 2q - 1 under MERGED_BEFORE_EQUALS and
bisect_right(initial, M) - q - 1 under MERGED_AFTER_EQUALS, where values
holds the input and every merged value.

Trees.  A HuffmanTree is three flat tuples over 2n-1 node indices: leaf
i < n is input weight i, and internal node n+q, made by step q+1, has the
child indices left[q] and right[q].  Sorting the node indices stably by
value lists the nodes in the order the steps consume them, two a step, when
the list holds the merged nodes newest first and then the leaves
(MERGED_BEFORE_EQUALS), or the leaves and then the merged nodes oldest
first (MERGED_AFTER_EQUALS).  No node is due before it exists, and a block
of equal merged values is complete when first reached, as a later merge
sums two entries of at least its value.  The list is two sorted runs, so
the sort is one merge pass.  One walk with an explicit stack gives the
nodes in preorder, leaves left to right, and every depth; a child's index
is always below its parent's, so codebook's one reverse pass gives every
codeword.  No tree operation recurses, at any height.  When a merge pairs a
leaf with a subtree, the leaf becomes the right child; a chain of such
merges therefore grows a left-sided tree, one where the right node of every
sibling pair is a leaf.

Order classes.  With p2(i), p3(i) the second and third entries of P(i):

    absolutely ordered    p2(i) <  p3(i) for all i = 0..n-3
    k-ordered             p2(i) == p3(i) for i = 0..k and
                          p2(i) <  p3(i) for i = k+1..n-3

An OrderClass is named by one number, lead: how many rows open the trace
with p2 == p3.  It is 0 for the absolutely ordered class and k+1 for the
k-ordered class; a trace with a tie after its first strict row is
unordered, lead None.  So a member's row q ties exactly when q < lead,
and that is what the engine checks when the oracle hands it a lead.  The
classification only involves the value sequences, so it is independent
of the tie policy.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from enum import Enum
from operator import le
from typing import Iterable

from .numbers import _check_int, _from_decimal, _to_decimal

__all__ = [
    "EmptySequenceError",
    "NotSortedError",
    "TooShortError",
    "TiePolicy",
    "DEFAULT_TIE_POLICY",
    "HuffmanTrace",
    "HuffmanTree",
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
    # valid input passes at C speed; anything else meets the loops below
    if seq and set(map(type, seq)) == {int} and seq[0] >= 1 and all(map(le, seq, seq[1:])):
        return seq
    if not seq:
        raise EmptySequenceError("weight sequence is empty")
    for w in seq:
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValueError(f"weights must be positive integers, got {_value_repr(w)}")
    for a, b in zip(seq, seq[1:]):
        if a > b:
            raise NotSortedError(
                f"weights must be non-decreasing, got {_to_decimal(a)} before {_to_decimal(b)}")
    return seq


def _advance(seq, known, merged, q, i, j, lead=None, ties=None):
    """Resume the two-queue loop on the leaves seq[:known] of a sorted list.

    The loop is at step q+1: merged[:q] holds the values of the steps run
    so far, and seq[i:] and merged[j:q] are the two queues.  merged has n-1
    slots.  Runs each further step that reads no leaf past seq[:known],
    storing its merged value and, without a lead, appending its flag
    p2 == p3 to ties, and returns the new (q, i, j): just before the first
    step that would read seq[known], or after step n-1.  Given a class's
    lead, it returns None at the first row q whose flag is not q < lead.
    Entries of seq past known are read, if at all, only by a step that is
    then undone.
    """
    n = len(seq)
    stop = known if known < n else n + 1     # with every leaf known, no read is past them
    flagged = n - 2     # rows 0..n-3 carry a tie flag
    while q <= flagged:
        i0, j0 = i, j
        if j < q and (i == n or merged[j] <= seq[i]):
            a, j = merged[j], j + 1
        else:
            a, i = seq[i], i + 1
        if j < q and (i == n or merged[j] <= seq[i]):
            b, j = merged[j], j + 1
        else:
            b, i = seq[i], i + 1
        if i >= stop:
            # a pick read past seq[:known], or the flag would: undo the step
            return q, i0, j0
        if q < flagged:
            # b is at most either head, so p2 == p3 when a head equals it
            tie = i < n and seq[i] == b or j < q and merged[j] == b
            if lead is None:
                ties.append(tie)
            elif tie != (q < lead):
                return None
        merged[q] = a + b
        q += 1
    return q, i, j


def _run(weights, tie_policy):
    """Check the tie policy and the weights, then run the two-queue loop on them.

    Returns the validated tuple, each step's merged value and the flags p2(i) == p3(i).
    """
    if not isinstance(tie_policy, TiePolicy):
        raise ValueError(f"tie_policy must be a TiePolicy, got {_value_repr(tie_policy)}")
    seq = validate_weights(weights)
    merged, ties = [0] * (len(seq) - 1), []
    _advance(seq, len(seq), merged, 0, 0, 0, None, ties)
    return seq, merged, ties


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


def _positions(seq, merged, tie_policy) -> tuple[int, ...]:
    """The 1-based position of each merged value in its row, by the module docstring's formulas.

    Merged values never decrease, so each bisect starts where the last one
    ended.
    """
    lo = 0
    if tie_policy is TiePolicy.MERGED_BEFORE_EQUALS:
        values = sorted(seq + merged)
        return tuple([(lo := bisect_left(values, m, lo)) - 2 * q - 1 for q, m in enumerate(merged)])
    return tuple([(lo := bisect_right(seq, m, lo)) - q - 1 for q, m in enumerate(merged)])


class _DerivedPositions:
    """The positions field, held as a TiePolicy until first read and then as the tuple.

    A data descriptor, so every read, the dataclass's ==, hash and repr
    included, goes through __get__ and sees the tuple.  The instance dict
    holds a TiePolicy or a tuple, and both pickle and copy.
    """

    def __get__(self, trace, owner=None):
        if trace is None:
            raise AttributeError("positions")     # so the field has no default
        positions = trace.__dict__["positions"]
        if isinstance(positions, TiePolicy):
            positions = trace.__dict__["positions"] = _positions(trace.initial, trace.merged,
                                                                 positions)
        return positions

    def __set__(self, trace, value):
        trace.__dict__["positions"] = value


@dataclass(frozen=True, repr=False)
class HuffmanTrace:
    """Record of a Huffman run: the input and, per step, what the engine emits.

    merged[i-1] and positions[i-1] are the merged value of step i and its
    1-based position in P(i); ties[i] is p2(i) == p3(i) for i = 0..n-3.
    run_huffman passes its tie policy in place of the positions, which are
    derived from it, the input and the merged values on first read and then
    cached: cost, classification and trees never read them.  The rows P(i)
    are built anew on each request and not kept.
    """

    initial: tuple[int, ...]
    merged: tuple[int, ...]
    positions: tuple[int, ...] = _DerivedPositions()
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

    def text_rows(self):
        """Yield the rows P(0), ..., P(n-1) as tuples of decimal strings.

        Each value is converted once, and the rows are neither cached nor
        built as ints.  The merged value of step i is text row i at index
        positions[i-1] - 1.
        """
        return self._replay(tuple(map(_to_decimal, self.initial)),
                            tuple(map(_to_decimal, self.merged)))

    def sequences(self) -> list[tuple[int, ...]]:
        """Return [P(0), P(1), ..., P(n-1)]; the last entry is (total,).

        The O(n^2) rows are built on each call and not kept.
        """
        return list(self._replay(self.initial, self.merged))

    def merged_values(self) -> list[int]:
        return list(self.merged)


def run_huffman(weights: Iterable[int], tie_policy: TiePolicy = DEFAULT_TIE_POLICY) -> HuffmanTrace:
    """Run the Huffman merge process and return its trace.

    Raises EmptySequenceError, NotSortedError, or ValueError for invalid
    input.  The weights must already be sorted; callers wanting a
    sort-first behaviour sort before calling.
    """
    seq, merged, ties = _run(weights, tie_policy)
    # the positions are derived from the policy on first read
    return HuffmanTrace(seq, tuple(merged), tie_policy, tuple(ties))


@dataclass(frozen=True, repr=False)
class HuffmanTree:
    """A binary tree on n leaves held in three flat tuples.

    Node i < n is leaf i; node n+q is internal, with children left[q] and
    right[q].  weights[v] is the weight of node v, and an internal node's
    weight is its children's sum.  Every child must have a lower index than
    its parent, as in each tree build_tree returns, so the root is the last
    node.  Equality, hashing, repr, the preorder walk and codebook's reverse
    pass work on the tuples without recursion, at any height.
    """

    weights: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]

    __repr__ = _exact_repr

    @property
    def size(self) -> int:
        """The number of leaves."""
        return len(self.left) + 1


def build_tree(weights: Iterable[int], tie_policy: TiePolicy = DEFAULT_TIE_POLICY) -> HuffmanTree:
    """Build the Huffman tree from the nodes each merge step consumes.

    Internal node n+q joins the two nodes step q+1 consumes, in queue
    order, except that a lone leaf always becomes the right child; its
    weight is the trace's merged value.
    """
    seq, merged, _ = _run(weights, tie_policy)
    n = len(seq)
    values = seq + tuple(merged)
    # the stable sort of the module docstring; the root sorts last
    before = tie_policy is TiePolicy.MERGED_BEFORE_EQUALS
    nodes = [*range(2 * n - 2, n - 1, -1), *range(n)] if before else range(2 * n - 1)
    picks = sorted(nodes, key=values.__getitem__)
    left, right = picks[:-1:2], picks[1::2]
    for q, (a, b) in enumerate(zip(left, right)):
        if a < n <= b:
            left[q], right[q] = b, a
    return HuffmanTree(values, tuple(left), tuple(right))


def _walk(tree: HuffmanTree) -> tuple[list[int], list[int]]:
    """Node indices in preorder (leaves left to right) and node depths by index, root 0."""
    n, left, right = tree.size, tree.left, tree.right
    order, depth = [], [0] * len(tree.weights)
    stack = [len(tree.weights) - 1]
    while stack:
        v = stack.pop()
        d = depth[v]
        while v >= n:     # down the left spine, the right children pushed
            order.append(v)
            d += 1
            a, b = left[v - n], right[v - n]
            depth[a] = depth[b] = d
            stack.append(b)
            v = a
        order.append(v)
    return order, depth


def leaf_weights(tree: HuffmanTree) -> list[int]:
    """Leaf weights in left-to-right order."""
    n, weights = tree.size, tree.weights
    return [weights[v] for v in _walk(tree)[0] if v < n]


def leaf_depths(tree: HuffmanTree) -> list[int]:
    """Leaf depths in left-to-right order (root depth 0)."""
    n, (order, depth) = tree.size, _walk(tree)
    return [depth[v] for v in order if v < n]


def wepl(tree: HuffmanTree) -> int:
    """Weighted external path length: sum over leaves of depth * weight.

    Summed, the internal weights count each leaf weight once per ancestor.
    This needs each internal weight to be its children's sum, as in every
    tree build_tree returns; a tree built by hand is not checked.
    """
    return sum(tree.weights[tree.size:])


def codebook(tree: HuffmanTree) -> list[tuple[int, str]]:
    """Return (leaf index, codeword) pairs, leaves numbered left to right.

    Left edges emit '0', right edges '1'.  A single-leaf tree gets the
    empty codeword.
    """
    n, code = tree.size, [""] * len(tree.weights)
    parents = range(len(tree.weights) - 1, n - 1, -1)
    for v, a, b in zip(parents, reversed(tree.left), reversed(tree.right)):
        # a parent's code is dropped once its children have theirs
        code[a], code[b], code[v] = code[v] + "0", code[v] + "1", None
    return list(enumerate([code[v] for v in _walk(tree)[0] if v < n]))


def is_elongated(tree: HuffmanTree) -> bool:
    """True when every sibling pair contains at least one leaf.

    Equivalently the tree has the maximum height possible for its leaf
    count: a single leaf chain of internal nodes.
    """
    n = tree.size
    return all(a < n or b < n for a, b in zip(tree.left, tree.right))


@dataclass(frozen=True)
class OrderClass:
    """An order class, named by lead: how many rows open its traces with a tie.

    lead is 0 for the absolutely ordered class, k+1 for the k-ordered
    class and None for the unordered class, whose tie flags fit no single
    pattern.
    """

    lead: int | None

    def __post_init__(self):
        if self.lead is not None:
            _check_int("lead", self.lead, 0)

    def __str__(self) -> str:
        if self.lead is None:
            return "unordered"
        return f"{_to_decimal(self.lead - 1)}-ordered" if self.lead else "absolutely-ordered"


def classify_trace(trace: HuffmanTrace) -> OrderClass:
    """Classify the order pattern of an existing trace; needs size >= 3."""
    n = trace.size
    if n < 3:
        raise TooShortError(f"classification needs at least 3 weights, got {n}")
    ties = trace.ties
    lead = ties.index(False) if False in ties else len(ties)
    return OrderClass(None if True in ties[lead:] else lead)


def classify_order(weights: Iterable[int]) -> OrderClass:
    """Classify a weight sequence as absolutely ordered, k-ordered, or unordered.

    The sequence is absolutely ordered when p2 < p3 strictly in every
    intermediate sequence P(0)..P(n-3), and k-ordered when p2 == p3 holds
    for exactly the first k+1 of them and p2 < p3 after.  Any other tie
    pattern is unordered.
    """
    return classify_trace(run_huffman(weights))


def _json_chunks(trace: HuffmanTrace, indent: int | str | None):
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
        unit = indent if isinstance(indent, str) else " " * indent
        pad = ["\n" + unit * depth for depth in range(5)]
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


def trace_to_json(trace: HuffmanTrace, indent: int | str | None = None) -> str:
    """Serialize a trace to JSON with weights as decimal strings.

    The document is {"initial": P(0), "steps": [{"i": i, "input": P(i-1),
    "merged": merged value, "pos": position}, ...], "total": total}, and the
    text is byte-identical to json.dumps of it with the same indent.
    """
    return "".join(_json_chunks(trace, indent))


def _not_an_int(token):
    raise ValueError(f"malformed trace document: {token} where an integer belongs")


def trace_from_json(text: str) -> HuffmanTrace:
    """Parse a trace produced by trace_to_json back into a HuffmanTrace.

    Only the initial weights are parsed.  They are replayed under each tie
    policy, and the parsed document must equal json.loads of trace_to_json
    for one of those runs, so key order and whitespace do not matter.  A
    number where a decimal string belongs, a missing or extra key, or a row
    that does not replay raises ValueError, and so does a float, NaN,
    Infinity, true or false in place of a step's i or pos.
    """
    import json     # only parsing needs it; it slows start-up
    try:
        doc = json.loads(text, parse_float=_not_an_int, parse_constant=_not_an_int)
        initial = tuple(map(_from_decimal, doc["initial"]))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed trace document: {exc}") from exc
    for policy in TiePolicy:
        trace = run_huffman(initial, policy)
        if json.loads(trace_to_json(trace)) == doc:
            # True == 1, so only the type tells a bool from the int it equals
            if any(type(step["i"]) is bool or type(step["pos"]) is bool for step in doc["steps"]):
                raise ValueError("malformed trace document: true or false where an integer belongs")
            return trace
    raise ValueError("trace document does not replay from its initial weights")
