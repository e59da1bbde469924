"""Reference Huffman merge process by list slicing, kept to test the engine.

This is the direct O(n^2) reading of the algorithm: each step takes the two
front entries of the current sorted sequence, re-inserts their sum into the
remainder by bisection, and copies the whole row.  The trace engine and the
tree builder in huffwyth.huffman must agree with it exactly: same rows, same
merged values, same insert positions and the same tree, child order
included.
"""

from bisect import bisect_left, bisect_right

from huffwyth.huffman import Internal, Leaf, TiePolicy


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
