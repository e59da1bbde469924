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

Rows whose index is a Fibonacci number F(i), i >= 2, reproduce shifted
Fibonacci numbers:

    w[F(i)][j] = F(i+j) + F(j)      for all j >= 0
"""

from .numbers import _fib_pair, fib, lower_wythoff

__all__ = ["wythoff_entry", "wythoff_row", "check_fib_row_identity"]


def wythoff_entry(i: int, j: int) -> int:
    """Return w[i][j] of the generalized Wythoff array (row i >= 0, column j >= 0)."""
    if i < 0:
        raise ValueError(f"row index must be nonnegative, got {i}")
    if j < 0:
        raise ValueError(f"column index must be nonnegative, got {j}")
    if j == 0:
        return i
    # Every row obeys the Fibonacci rule, so w[i][j] = F(j-1) w[i][0] + F(j) w[i][1].
    f_prev, f = _fib_pair(j - 1)
    return f_prev * i + f * lower_wythoff(i)


def wythoff_row(i: int, length: int) -> list[int]:
    """Return [w[i][0], ..., w[i][length-1]] for row i; length must be >= 1."""
    if i < 0:
        raise ValueError(f"row index must be nonnegative, got {i}")
    if length < 1:
        raise ValueError(f"row length must be >= 1, got {length}")
    row = [i]
    if length == 1:
        return row
    row.append(lower_wythoff(i))
    for _ in range(length - 2):
        row.append(row[-1] + row[-2])
    return row


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
