"""Exact integer sequences: Fibonacci, Lucas, and the lower Wythoff sequence.

Everything here runs on Python's unbounded integers; no floating point is
used anywhere.  A one-ulp error in float(phi) flips a floor for large
arguments, so the lower Wythoff term floor(m * phi), phi = (1 + sqrt(5)) / 2,
is computed from the exact identity

    floor(m * phi) = (m + math.isqrt(5 * m * m)) // 2

which holds because 5 * m * m is never a perfect square for m >= 1.

Indexing conventions:

    F(0) = 0, F(1) = 1, F(i) = F(i-1) + F(i-2)
    L(1) = 1, L(2) = 3, L(i) = L(i-1) + L(i-2)

Decimal text.  Python 3.11 (and 3.10.7 on) refuses int/str conversions of
more digits than sys.get_int_max_str_digits(): 4300 by default, and never
set below 640 except to 0 (no limit).  The private pair _to_decimal and
_from_decimal converts pieces of at most 512 digits, split off by divide
and conquer on powers of 10, so the package's text I/O stays exact under
any setting without touching the process-wide limit.
"""

import math

__all__ = ["fib", "lucas", "lower_wythoff"]


def _fib_pair(i: int) -> tuple[int, int]:
    """Return (F(i), F(i+1)), int i >= 0, by fast doubling on (F, L): two big products a bit.

    Over the bits of i from the top, k doubles by F(2k) = F(k) L(k) and
    L(2k) = L(k)^2 - 2 (-1)^k, and a set bit adds one by
    F(k+1) = (F(k) + L(k)) / 2 and L(k+1) = (5 F(k) + L(k)) / 2, with
    L(0) = 2.  At the end F(i+1) = (F(i) + L(i)) / 2.
    """
    fk, lk, odd = 0, 2, False      # F(k), L(k) and whether k is odd, for k = 0
    for bit in bin(i)[2:]:
        fk, lk = fk * lk, lk * lk + (2 if odd else -2)
        odd = bit == "1"
        if odd:
            fk, lk = (fk + lk) >> 1, (5 * fk + lk) >> 1
    return fk, (fk + lk) >> 1


def fib(i: int) -> int:
    """Return the i-th Fibonacci number (F(0) = 0, F(1) = 1)."""
    _check_int("Fibonacci index", i, 0)
    return _fib_pair(i)[0]


def lucas(i: int) -> int:
    """Return the i-th Lucas number (L(1) = 1, L(2) = 3); defined for i >= 1.

    L(i) = F(i-1) + F(i+1) = 2 F(i+1) - F(i).
    """
    _check_int("Lucas index", i, 1)
    a, b = _fib_pair(i)
    return 2 * b - a


def lower_wythoff(n: int) -> int:
    """Return the n-th lower Wythoff number floor((n+1) * phi), for n >= 0.

    The sequence starts 1, 3, 4, 6, 8, 9, 11, ...; these are the Beatty
    terms of the golden ratio.  Computed integer-only via the identity in
    the module docstring.
    """
    _check_int("index", n, 0)
    m = n + 1
    return (m + math.isqrt(5 * m * m)) // 2


_PIECE_DIGITS = 512
_PIECE_BITS = 1700      # 2**1700 < 10**512


def _to_decimal(x) -> str:
    """Return str(x) for an int of any size, whatever the int/str digit limit, or any other x."""
    if not isinstance(x, int) or x.bit_length() <= _PIECE_BITS:
        return str(x)
    if x < 0:
        return "-" + _to_decimal(-x)
    k = x.bit_length() * 3 // 20    # about half the digits, so 0 < x // 10**k
    hi, lo = divmod(x, 10 ** k)
    return _to_decimal(hi) + _to_decimal(lo).zfill(k)


def _check_int(name: str, value, least: int | None = None) -> None:
    """Raise ValueError unless value is an int other than a bool, and >= least if given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {_to_decimal(value)}")


def _from_decimal(text) -> int:
    """Return the int spelled by decimal text of any length, whatever the digit limit.

    The text must be ASCII digits with an optional sign and surrounding
    whitespace, at every length: int() alone would also take underscores
    and non-ASCII digits.  A non-str value raises ValueError too.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected decimal text, got {type(text).__name__}")
    body = text.strip()
    sign = -1 if body[:1] == "-" else 1
    if body[:1] in ("+", "-"):
        body = body[1:]
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"invalid decimal literal of {len(text)} characters: {text[:20]!r}")
    if len(body) <= _PIECE_DIGITS:
        return sign * int(body)
    k = len(body) // 2
    return sign * (_from_decimal(body[:-k]) * 10 ** k + _from_decimal(body[-k:]))
