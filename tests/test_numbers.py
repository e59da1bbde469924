import math

import pytest
import sympy
from hypothesis import given, strategies as st

from huffwyth.numbers import _fib_pair, fib, lower_wythoff, lucas


def test_fib_small_values():
    assert [fib(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_fib_big_index():
    # frozen after cross-checking against sympy.fibonacci(200)
    assert fib(200) == 280571172992510140037611932413038677189525
    assert fib(200) == sympy.fibonacci(200)


def test_fib_recurrence_and_growth():
    vals = [fib(i) for i in range(203)]
    for i in range(2, 203):
        assert vals[i] == vals[i - 1] + vals[i - 2]
        assert vals[i] > vals[i - 1] or i == 2


def test_fast_doubling_matches_running_pair():
    # the running-pair loops fib and lucas used before, as the reference
    a, b = 0, 1
    for i in range(2500):
        assert _fib_pair(i) == (a, b)
        assert fib(i) == a
        a, b = b, a + b
    a, b = 1, 3
    for i in range(1, 2500):
        assert lucas(i) == a
        a, b = b, a + b
    assert fib(100_003) == sympy.fibonacci(100_003)
    assert lucas(100_003) == sympy.lucas(100_003)


def _three_product_pair(i):
    """(F(i), F(i+1)) by doubling on (F(k), F(k+1)), three big products a bit."""
    a, b = 0, 1
    for bit in bin(i)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a, b


def test_fib_pair_matches_three_product_doubling():
    # near the benchmark's index, and at 2^m - 1 (every bit set) and 2^m + 1
    indices = [10 ** 5 + d for d in range(-3, 4)]
    indices += [2 ** m + d for m in range(1, 18) for d in (-1, 1)]
    for i in indices:
        assert _fib_pair(i) == _three_product_pair(i)


def test_lucas_small_values():
    assert [lucas(i) for i in range(1, 9)] == [1, 3, 4, 7, 11, 18, 29, 47]


def test_lucas_big_index():
    # frozen after cross-checking against sympy.lucas(100)
    assert lucas(100) == 792070839848372253127
    assert lucas(100) == sympy.lucas(100)


def test_lucas_recurrence():
    vals = [lucas(i) for i in range(1, 101)]
    for i in range(2, 100):
        assert vals[i] == vals[i - 1] + vals[i - 2]


def test_lucas_equals_fib_sum():
    # L(i) = F(i-1) + F(i+1) pins both indexings to each other
    for i in range(1, 60):
        assert lucas(i) == fib(i - 1) + fib(i + 1)


def test_lower_wythoff_small_values():
    expected = [1, 3, 4, 6, 8, 9, 11, 12, 14, 16, 17, 19, 21, 22]
    assert [lower_wythoff(n) for n in range(14)] == expected


def test_lower_wythoff_is_floor_of_golden_multiple():
    # w = floor(m * phi) is equivalent to w <= m * phi < w + 1, and with
    # phi = (1 + sqrt(5)) / 2 both bounds square to exact integer tests:
    # (2w - m)^2 <= 5 m^2 < (2w + 2 - m)^2.
    for n in range(0, 20001):
        m = n + 1
        w = lower_wythoff(n)
        assert (2 * w - m) ** 2 <= 5 * m * m < (2 * w + 2 - m) ** 2


@given(st.integers(min_value=0, max_value=10 ** 25))
def test_lower_wythoff_beatty_membership_random(n):
    m = n + 1
    w = lower_wythoff(n)
    assert (2 * w - m) ** 2 <= 5 * m * m < (2 * w + 2 - m) ** 2


def test_lower_wythoff_never_perfect_square_precondition():
    # the exactness of (m + isqrt(5 m^2)) // 2 needs 5 m^2 to be a nonsquare
    for m in range(1, 5000):
        r = math.isqrt(5 * m * m)
        assert r * r != 5 * m * m
