"""Exact integer sequences: Fibonacci, Lucas, and the lower Wythoff sequence.

Everything here runs on Python's unbounded integers; no floating point is
used anywhere.  A one-ulp error in float(phi) flips a floor for large
arguments, so the lower Wythoff term floor(m * phi), phi = (1 + sqrt(5)) / 2,
is computed from the exact identity

    floor(m * phi) = (m + isqrt(5 * m * m)) // 2

which holds because 5 * m * m is never a perfect square for m >= 1.

Indexing conventions:

    F(0) = 0, F(1) = 1, F(i) = F(i-1) + F(i-2)
    L(1) = 1, L(2) = 3, L(i) = L(i-1) + L(i-2)
"""

import math

__all__ = ["fib", "lucas", "isqrt", "lower_wythoff"]


def _fib_pair(i: int) -> tuple[int, int]:
    """Return (F(i), F(i+1)) by fast doubling, in O(log i) multiplications.

    F(2k) = F(k) * (2 F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2, taken
    over the bits of i from the top.
    """
    if i < 0:
        raise ValueError(f"Fibonacci index must be nonnegative, got {i}")
    a, b = 0, 1
    for bit in bin(i)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a, b


def fib(i: int) -> int:
    """Return the i-th Fibonacci number (F(0) = 0, F(1) = 1)."""
    return _fib_pair(i)[0]


def lucas(i: int) -> int:
    """Return the i-th Lucas number (L(1) = 1, L(2) = 3); defined for i >= 1.

    L(i) = F(i-1) + F(i+1) = 2 F(i+1) - F(i).
    """
    if i < 1:
        raise ValueError(f"Lucas index must be >= 1, got {i}")
    a, b = _fib_pair(i)
    return 2 * b - a


def isqrt(x: int) -> int:
    """Return the integer square root of x: the largest r with r*r <= x."""
    if x < 0:
        raise ValueError(f"isqrt argument must be nonnegative, got {x}")
    return math.isqrt(x)


def lower_wythoff(n: int) -> int:
    """Return the n-th lower Wythoff number floor((n+1) * phi), for n >= 0.

    The sequence starts 1, 3, 4, 6, 8, 9, 11, ...; these are the Beatty
    terms of the golden ratio.  Computed integer-only via the identity in
    the module docstring.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    m = n + 1
    return (m + math.isqrt(5 * m * m)) // 2
