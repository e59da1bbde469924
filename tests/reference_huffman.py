"""Reference Huffman merge process by list slicing, kept to test the engine.

This is the direct O(n^2) reading of the algorithm: each step takes the two
front entries of the current sorted sequence, re-inserts their sum into the
remainder by bisection, and copies the whole row.  The trace engine and the
tree builder in huffwyth.huffman must agree with it exactly: same rows, same
merged values, same insert positions and the same tree, child order
included.  The reference tree is built from nested nodes of its own, and
nested() turns the library's array tree into the same form.

The reference renderers are the direct readings of the three trace formats:
they walk the int rows and convert every cell with str().  The renderers in
huffwyth must produce the same bytes, and so must the command line's tree
outline as reference_outline renders the reference tree.

reference_validate_weights is validate_weights by its loops alone, without
the fast path for valid input: every input must meet the same result or
the same error under both.

is_left_sided, check_elongated_inequality, check_fib_row_identity and the
exhaustive shape search optimal_tree_cost are cross-checks that only the tests use.

reference_scan is the oracle's scan by its definition, through public
calls only: a full trace and its classification for every tuple that
enumerate_sequences yields, and the elongated cost by the tests' own
depth pairing, direct_elongated_cost.
"""

import csv
import io
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from huffwyth.huffman import (EmptySequenceError, NotSortedError, OrderClass, TiePolicy,
                              classify_trace, run_huffman, validate_weights, _value_repr)
from huffwyth.numbers import _to_decimal, fib
from huffwyth.oracle import EmptyClassError, OracleReport
from huffwyth.theorems import min_k_cost, min_k_sequence
from huffwyth.wythoff import wythoff_row


@dataclass(frozen=True)
class Leaf:
    weight: int


@dataclass(frozen=True)
class Internal:
    left: "Leaf | Internal"
    right: "Leaf | Internal"
    weight: int


def reference_validate_weights(weights):
    """Validate and normalize a weight sequence to a tuple, one weight at a time."""
    seq = tuple(weights)
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


def _insert_index(sorted_vals, value, tie_policy, key=None):
    if tie_policy is TiePolicy.MERGED_BEFORE_EQUALS:
        return bisect_left(sorted_vals, value, key=key)
    return bisect_right(sorted_vals, value, key=key)


def reference_trace(seq, tie_policy):
    """Return (rows, merged values, 1-based insert positions) for sorted seq.

    rows holds P(0), ..., P(n-1), the last one being (total,).
    """
    rows, merged, positions = [], [], []
    cur = list(seq)
    for _ in range(1, len(seq)):
        value = cur[0] + cur[1]
        rest = cur[2:]
        idx = _insert_index(rest, value, tie_policy)
        rows.append(tuple(cur))
        merged.append(value)
        positions.append(idx + 1)
        rest.insert(idx, value)
        cur = rest
    rows.append(tuple(cur))
    return rows, merged, positions


def _merge_nodes(first, second):
    # A lone leaf always becomes the right child; otherwise keep queue order.
    total = first.weight + second.weight
    if isinstance(first, Leaf) and isinstance(second, Internal):
        return Internal(second, first, total)
    return Internal(first, second, total)


def reference_tree(seq, tie_policy):
    """Build the tree from a node queue that mirrors reference_trace."""
    queue = [Leaf(w) for w in seq]
    while len(queue) > 1:
        node = _merge_nodes(queue[0], queue[1])
        rest = queue[2:]
        idx = _insert_index(rest, node.weight, tie_policy, key=lambda nd: nd.weight)
        rest.insert(idx, node)
        queue = rest
    return queue[0]


def nested(tree):
    """The nested form of an array tree.

    Children have lower indices than their parents, so one pass in index
    order meets every child before its parent.
    """
    nodes = [Leaf(w) for w in tree.weights[:tree.size]]
    for a, b, w in zip(tree.left, tree.right, tree.weights[tree.size:]):
        nodes.append(Internal(nodes[a], nodes[b], w))
    return nodes[-1]


def reference_outline(tree):
    """The --tree outline of a reference tree: '+' internal nodes, '-' leaves, in preorder.

    Each node is indented two spaces a level.  An explicit stack of
    (node, depth) pairs walks the tree, so a tree of any height renders.
    """
    lines, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            lines.append(f"{'  ' * depth}- {node.weight}\n")
        else:
            lines.append(f"{'  ' * depth}+ {node.weight}\n")
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
    return "".join(lines)


def reference_table(trace):
    """The step table, one row per intermediate sequence, merged value marked '*'."""
    lines = ["step | sequence"]
    for i, seq in enumerate(trace.sequences()):
        cells = [str(w) for w in seq]
        if i > 0 and len(seq) > 1:
            cells[trace.positions[i - 1] - 1] += "*"
        lines.append(f"{i:>4} | {' '.join(cells)}")
    return "\n".join(lines) + "\n"


def reference_csv(trace):
    """CSV rows step, merged, pos, weights, written by csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "merged", "pos", "weights"])
    for i, seq in enumerate(trace.sequences()):
        if i == 0:
            merged, pos = "", ""
        else:
            merged, pos = trace.merged[i - 1], trace.positions[i - 1]
        writer.writerow([i, merged, pos, " ".join(str(w) for w in seq)])
    return buf.getvalue()


def reference_json(trace, indent=None):
    """The trace JSON document built from the int rows, weights as decimal strings."""
    rows = trace.sequences()
    doc = {
        "initial": [str(w) for w in trace.initial],
        "steps": [
            {
                "i": i,
                "input": [str(w) for w in row],
                "merged": str(value),
                "pos": pos,
            }
            for i, (row, value, pos) in enumerate(zip(rows, trace.merged, trace.positions), 1)
        ],
        "total": str(trace.total),
    }
    return json.dumps(doc, indent=indent)


def is_left_sided(tree):
    """True when the right node of every sibling pair is a leaf."""
    return all(b < tree.size for b in tree.right)


def check_elongated_inequality(trace):
    """Check p1 + p2 <= p4 in every intermediate sequence with >= 4 entries.

    Holding for all of P(0)..P(n-3) is sufficient for the input to admit an
    elongated optimal tree.
    """
    return all(len(seq) < 4 or seq[0] + seq[1] <= seq[3] for seq in trace.sequences())


def check_fib_row_identity(i: int, j_max: int) -> bool:
    """Check w[F(i)][j] == F(i+j) + F(j) for j = 0..j_max.

    Requires i >= 2 (rows 0 = F(0) and 1 = F(1)/F(2) do not satisfy the
    identity) and j_max >= 0.
    """
    if i < 2:
        raise ValueError(f"identity requires i >= 2, got {i}")
    if j_max < 0:
        raise ValueError(f"j_max must be nonnegative, got {j_max}")
    row = wythoff_row(fib(i), j_max + 1)
    fj_prev, fj = 0, 1              # F(j), F(j+1) running pair
    fij_prev, fij = fib(i - 1), fib(i)  # F(i+j-1), F(i+j) running pair
    for j in range(j_max + 1):
        if row[j] != fij + fj_prev:
            return False
        fj_prev, fj = fj, fj_prev + fj
        fij_prev, fij = fij, fij_prev + fij
    return True


class TooLargeError(ValueError):
    """Raised when exhaustive tree enumeration is asked for n > 10."""


@lru_cache(maxsize=None)
def _depth_profiles(n: int) -> tuple[tuple[int, ...], ...]:
    """All leaf depth multisets of strictly binary trees with n leaves.

    Each profile is sorted in descending order.  Profiles of a tree are the
    union of left and right subtree profiles shifted one level down.
    """
    if n == 1:
        return ((0,),)
    found = set()
    for left in range(1, n // 2 + 1):
        for a in _depth_profiles(left):
            for b in _depth_profiles(n - left):
                found.add(tuple(sorted((d + 1 for d in a + b), reverse=True)))
    return tuple(sorted(found))


def optimal_tree_cost(weights) -> int:
    """Exact minimum weighted external path length over all tree shapes.

    Exhaustive over leaf depth profiles, so restricted to n <= 10.
    """
    seq = validate_weights(weights)
    n = len(seq)
    if n > 10:
        raise TooLargeError(f"exhaustive shape enumeration is capped at n = 10, got {n}")
    best = None
    for profile in _depth_profiles(n):
        # profile is descending and seq ascending, the cheapest pairing
        cost = sum(d * w for d, w in zip(profile, seq))
        if best is None or cost < best:
            best = cost
    return best


def direct_elongated_cost(weights):
    """Independent cost: depths n-1, n-1, n-2, ..., 1 paired with the weights."""
    n = len(weights)
    depths = [n - 1] + [n - i + 1 for i in range(2, n + 1)]
    return sum(d * w for d, w in zip(depths, weights))


def enumerate_sequences(n, max_weight):
    """Yield all non-decreasing n-tuples over 1..max_weight in lexicographic order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if max_weight < 1:
        raise ValueError(f"need max_weight >= 1, got {max_weight}")
    return combinations_with_replacement(range(1, max_weight + 1), n)


def reference_scan(n, k, max_weight):
    """The OracleReport of brute_force_min(n, k, max_weight), by definition.

    Every candidate gets a full trace; it is a member when its
    classification is the class and its Huffman cost is the elongated cost.
    """
    target = OrderClass(0 if k is None else k + 1)
    candidates = members = 0
    best, best_seqs = None, []
    for cand in enumerate_sequences(n, max_weight):
        candidates += 1
        trace = run_huffman(cand)
        cost = sum(trace.merged)
        if classify_trace(trace) != target or cost != direct_elongated_cost(cand):
            continue
        members += 1
        if best is None or cost < best:
            best, best_seqs = cost, [cand]
        elif cost == best:
            best_seqs.append(cand)
    if best is None:
        raise EmptyClassError(f"no members of the class found with weights up to {max_weight}")
    closed_seq, closed_cost = min_k_sequence(n, k), min_k_cost(n, k)
    return OracleReport(
        n=n,
        k=k,
        weight_bound=max_weight,
        candidates_examined=candidates,
        members_examined=members,
        best_cost=best,
        best_sequences=tuple(best_seqs),
        closed_form_cost=closed_cost,
        closed_form_sequence=closed_seq,
        matches_closed_form=(best == closed_cost and closed_seq in best_seqs),
    )
