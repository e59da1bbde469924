"""The benchmark's own reference values.

Nothing here imports huffwyth: an expected value must never come from the
layer whose output it checks.  Large Fibonacci values are compared modulo a
61-bit prime, so a check costs O(log n) instead of recomputing the number.
"""

import functools

P = (1 << 61) - 1


def fib_pair_mod(n):
    """(F(n) mod P, F(n+1) mod P) by fast doubling."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * ((2 * b - a) % P) % P
        d = (a * a + b * b) % P
        a, b = (d, (c + d) % P) if bit == "1" else (c, d)
    return a, b


def int_mod(text):
    """A decimal string's value mod P, read in chunks below the interpreter's
    4300-digit limit on int() so that no process-wide setting is needed."""
    value = 0
    text = text.strip()
    for i in range(0, len(text), 4000):
        chunk = text[i:i + 4000]
        value = (value * pow(10, len(chunk), P) + int(chunk)) % P
    return value


def fib_mod(n):
    return fib_pair_mod(n)[0]


def lucas_mod(n):
    """L(n) mod P with L(1) = 1, L(2) = 3, via L(n) = F(n-1) + F(n+1)."""
    a, b = fib_pair_mod(n)
    return (2 * b - a) % P


def fib_list(m):
    """Exact [F(0), ..., F(m)] by a running pair."""
    out, a, b = [], 0, 1
    for _ in range(m + 1):
        out.append(a)
        a, b = b, a + b
    return out


def abs_minimizer(n):
    """F(1), ..., F(n)."""
    return tuple(fib_list(n)[1:])


def k_minimizer(n, k):
    """1, F(1), ..., F(k+1), then F(i-1) + F(i-k-3) for i = k+3..n."""
    f = fib_list(n)
    return (1,) + tuple(f[1:k + 2]) + tuple(f[i - 1] + f[i - k - 3] for i in range(k + 3, n + 1))


def abs_cost_mod(n):
    return (fib_mod(n + 4) - (n + 4)) % P


def k_cost_mod(n, k):
    return (fib_mod(n + 3) + fib_mod(n - k + 1) - (n - k + 3)) % P


def elongated_profile(n):
    """Leaf depths of any tree of height n-1 on n leaves, deepest first."""
    return [n - 1] + list(range(n - 1, 0, -1)) if n > 1 else [0]


def elongated_cost(weights):
    """Cost of the elongated tree on sorted weights: deepest slots take the smallest."""
    return sum(d * w for d, w in zip(elongated_profile(len(weights)), weights))


@functools.cache
def huffman_reference(weights):
    """Merged values and order class of sorted weights, by the two-queue method.

    Merged sums come out non-decreasing, so the current sequence P(i) is the
    union of two sorted queues and its second and third entries are read off
    their fronts.  Takes a tuple; returns (merged values, class string as
    huffwyth prints it), cached because every pass checks the same inputs.
    """
    leaves, merged = list(weights), []
    i = j = 0
    n = len(leaves)
    ties = []

    def front(count):
        return sorted(leaves[i:i + count] + merged[j:j + count])[:count]

    for step in range(n - 1):
        if n - step >= 3:
            p = front(3)
            ties.append(p[1] == p[2])
        pair = 0
        for _ in range(2):
            if j < len(merged) and (i >= n or merged[j] < leaves[i]):
                pair += merged[j]
                j += 1
            else:
                pair += leaves[i]
                i += 1
        merged.append(pair)
    tie_rows = [r for r, tie in enumerate(ties) if tie]
    if not tie_rows:
        cls = "absolutely-ordered"
    elif tie_rows == list(range(len(tie_rows))):
        cls = f"{len(tie_rows) - 1}-ordered"
    else:
        cls = "unordered"
    return merged, cls
