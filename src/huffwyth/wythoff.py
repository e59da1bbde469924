"""The generalized Wythoff array.

Row i is seeded by the row index itself and by the lower Wythoff number
floor((i+1) * phi); every later entry obeys the Fibonacci rule:

    w[i][0] = i
    w[i][1] = floor((i+1) * phi)
    w[i][j] = w[i][j-1] + w[i][j-2]     for j >= 2

Column 0 holds the nonnegative integers, column 1 the lower Wythoff
sequence, and columns 2 onward the classical Wythoff array.  Row 0 is the
Fibonacci sequence and row 1 the Lucas sequence.  Every positive integer
appears exactly once in columns 2+.
"""

from .numbers import _check_int, _fib_pair, lower_wythoff

__all__ = ["wythoff_entry", "wythoff_row"]


def wythoff_entry(i: int, j: int) -> int:
    """Return w[i][j] of the generalized Wythoff array (row i >= 0, column j >= 0)."""
    _check_int("row index", i, 0)
    _check_int("column index", j, 0)
    if j == 0:
        return i
    # Every row obeys the Fibonacci rule, so w[i][j] = F(j-1) w[i][0] + F(j) w[i][1].
    f_prev, f = _fib_pair(j - 1)
    return f_prev * i + f * lower_wythoff(i)


def wythoff_row(i: int, length: int) -> list[int]:
    """Return [w[i][0], ..., w[i][length-1]] for row i; length must be >= 1."""
    _check_int("row index", i, 0)
    _check_int("row length", length, 1)
    row, a, b = [], i, lower_wythoff(i)
    for _ in range(length):
        row.append(a)
        a, b = b, a + b
    return row

