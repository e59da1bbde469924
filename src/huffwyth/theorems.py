"""Closed forms for weight sequences minimizing cost over maximum-height trees.

Among all non-decreasing positive integer sequences of length n >= 3 whose
optimal prefix-code tree is elongated (every sibling pair contains a leaf,
so the tree has maximum height n-1), the minimum-cost representatives and
their weighted external path lengths have closed forms:

  absolutely ordered class
      P = F(1), F(2), ..., F(n)
      cost = F(n+4) - (n+4)

  k-ordered class, 0 <= k <= n-3
      p1 = 1
      pi = F(i-1)                    for i = 2..k+2
      pi = w[F(k+2)][i-k-3]          for i = k+3..n
      cost = F(n+3) + F(n-k+1) - (n-k+3)

  where w is the generalized Wythoff array.  The Wythoff tail can also be
  written purely in Fibonacci numbers:

      pi = F(i-1) + F(i-k-3)         for i = k+3..n

  The boundary cases have familiar shapes: the 0-ordered sequence is
  1, 1, L(1), ..., L(n-2) (Lucas numbers) and the (n-3)-ordered sequence is
  1, F(1), ..., F(n-1), with costs F(n+3) + F(n+1) - (n+3) and F(n+3) - 3.

The absolutely ordered class is the k-ordered definition with no tie step,
and the k-ordered cost at k = -1 is the absolutely ordered one.  So
min_k_sequence and min_k_cost take k=None for the absolutely ordered class.

Row 0 of the Wythoff array is the Fibonacci sequence, so the closed forms
read F(0), ..., F(m) off wythoff_row(0, m + 1).  The Lucas form in
corollary_sequences still builds L(i) as F(i-1) + F(i+1) from that prefix,
not from row 1, so that it checks the k = 0 closed form independently.
"""

from .numbers import _check_int, _to_decimal, fib
from .wythoff import wythoff_row

__all__ = [
    "SizeTooSmallError",
    "KOutOfRangeError",
    "min_abs_cost",
    "min_k_sequence",
    "min_k_sequence_fib_form",
    "min_k_cost",
    "corollary_sequences",
]


class SizeTooSmallError(ValueError):
    """Raised when the sequence size n is below 3."""


class KOutOfRangeError(ValueError):
    """Raised when k falls outside 0..n-3."""


def _check_k(n: int, k: int | None) -> None:
    _check_int("n", n)
    if n < 3:
        raise SizeTooSmallError(f"need n >= 3, got {_to_decimal(n)}")
    if k is not None:
        _check_int("k", k)
        if not 0 <= k <= n - 3:
            raise KOutOfRangeError(
                f"need 0 <= k <= n-3 = {_to_decimal(n - 3)}, got {_to_decimal(k)}")


def min_abs_cost(n: int) -> int:
    """Cost of the minimizing absolutely ordered sequence: min_k_cost(n, None)."""
    return min_k_cost(n, None)


def min_k_sequence(n: int, k: int | None) -> tuple[int, ...]:
    """The minimizing k-ordered sequence of length n, 0 <= k <= n-3.

    A prefix of Fibonacci numbers followed by the Wythoff row whose index
    is F(k+2); see the module docstring for the exact indexing.  k=None
    gives the absolutely ordered minimizer F(1), ..., F(n).
    """
    _check_k(n, k)
    if k is None:
        return tuple(wythoff_row(0, n + 1)[1:])
    f = wythoff_row(0, k + 3)
    # p2 .. p(k+2) = F(1) .. F(k+1), then row F(k+2) of the Wythoff array
    return (1, *f[1:k + 2], *wythoff_row(f[k + 2], n - k - 2))


def min_k_sequence_fib_form(n: int, k: int) -> tuple[int, ...]:
    """Same sequence as min_k_sequence, via pi = F(i-1) + F(i-k-3) for the tail."""
    _check_k(n, k)
    _check_int("k", k)
    f = wythoff_row(0, n)
    # p2 .. p(k+3) = F(1) .. F(k+2)
    return (1, *f[1:k + 3], *(f[i - 1] + f[i - k - 3] for i in range(k + 4, n + 1)))


def min_k_cost(n: int, k: int | None) -> int:
    """Cost of the minimizing k-ordered sequence: F(n+3) + F(n-k+1) - (n-k+3).

    k=None gives the absolutely ordered cost F(n+4) - (n+4).
    """
    _check_k(n, k)
    if k is None:
        return fib(n + 4) - (n + 4)
    return fib(n + 3) + fib(n - k + 1) - (n - k + 3)


def corollary_sequences(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two boundary sequences for size n.

    Returns (1, 1, L(1), ..., L(n-2)), the 0-ordered minimizer, and
    (1, F(1), ..., F(n-1)), the (n-3)-ordered one.
    """
    _check_k(n, None)
    f = wythoff_row(0, n)
    # L(i) = F(i-1) + F(i+1)
    lucas_form = (1, 1, *(f[i - 1] + f[i + 1] for i in range(1, n - 1)))
    return lucas_form, (1, *f[1:n])
