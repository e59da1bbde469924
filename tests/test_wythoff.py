import pytest
from hypothesis import given, strategies as st

from huffwyth.numbers import fib, lower_wythoff, lucas
from huffwyth.wythoff import wythoff_entry, wythoff_row
from reference_huffman import check_fib_row_identity

# first 14 rows, columns 0..12
REFERENCE_ROWS = (
    (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144),
    (1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521),
    (2, 4, 6, 10, 16, 26, 42, 68, 110, 178, 288, 466, 754),
    (3, 6, 9, 15, 24, 39, 63, 102, 165, 267, 432, 699, 1131),
    (4, 8, 12, 20, 32, 52, 84, 136, 220, 356, 576, 932, 1508),
    (5, 9, 14, 23, 37, 60, 97, 157, 254, 411, 665, 1076, 1741),
    (6, 11, 17, 28, 45, 73, 118, 191, 309, 500, 809, 1309, 2118),
    (7, 12, 19, 31, 50, 81, 131, 212, 343, 555, 898, 1453, 2351),
    (8, 14, 22, 36, 58, 94, 152, 246, 398, 644, 1042, 1686, 2728),
    (9, 16, 25, 41, 66, 107, 173, 280, 453, 733, 1186, 1919, 3105),
    (10, 17, 27, 44, 71, 115, 186, 301, 487, 788, 1275, 2063, 3338),
    (11, 19, 30, 49, 79, 128, 207, 335, 542, 877, 1419, 2296, 3715),
    (12, 21, 33, 54, 87, 141, 228, 369, 597, 966, 1563, 2529, 4092),
    (13, 22, 35, 57, 92, 149, 241, 390, 631, 1021, 1652, 2673, 4325),
)


def test_reference_rows():
    for i, expected in enumerate(REFERENCE_ROWS):
        assert tuple(wythoff_row(i, 13)) == expected


def test_entry_examples():
    assert wythoff_entry(1, 1) == 3
    assert wythoff_entry(2, 2) == 6
    assert wythoff_entry(8, 1) == 14
    assert wythoff_entry(8, 3) == 36
    assert wythoff_entry(5, 1) == 9


def test_row_examples():
    assert wythoff_row(0, 5) == [0, 1, 1, 2, 3]
    assert wythoff_row(1, 4) == [1, 3, 4, 7]
    assert wythoff_row(7, 1) == [7]


def test_row_zero_is_fibonacci():
    assert wythoff_row(0, 30) == [fib(j) for j in range(30)]


def test_row_one_is_lucas():
    # w[1][j] = L(j+1): 1, 3, 4, 7, 11, ...
    assert wythoff_row(1, 25) == [lucas(j + 1) for j in range(25)]


def test_column_one_is_lower_wythoff():
    for i in range(0, 200):
        assert wythoff_entry(i, 1) == lower_wythoff(i)


def test_entry_matches_row():
    for i in (0, 1, 5, 13, 40):
        row = wythoff_row(i, 12)
        for j in range(12):
            assert wythoff_entry(i, j) == row[j]


def test_entry_matches_row_far_out():
    for i in (0, 1, 7, 6765):
        assert wythoff_entry(i, 3000) == wythoff_row(i, 3001)[-1]


def test_fibonacci_rule():
    for i in range(0, 51):
        row = wythoff_row(i, 31)
        for j in range(2, 31):
            assert row[j] == row[j - 1] + row[j - 2]


@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=2, max_value=40))
def test_fibonacci_rule_random(i, j):
    assert wythoff_entry(i, j) == wythoff_entry(i, j - 1) + wythoff_entry(i, j - 2)


def test_fib_row_identity_direct():
    # w[F(i)][j] == F(i+j) + F(j), spot checks straight from the definition
    assert wythoff_entry(fib(5), 3) == fib(8) + fib(3)
    assert wythoff_entry(fib(2), 0) == fib(2) + fib(0)
    assert wythoff_entry(fib(10), 7) == fib(17) + fib(7)


def test_fib_row_identity_rejects_small_i():
    with pytest.raises(ValueError):
        check_fib_row_identity(1, 5)
    with pytest.raises(ValueError):
        check_fib_row_identity(0, 5)


def test_validation():
    with pytest.raises(ValueError):
        wythoff_entry(-1, 0)
    with pytest.raises(ValueError):
        wythoff_entry(0, -1)
    with pytest.raises(ValueError):
        wythoff_row(3, 0)
    with pytest.raises(ValueError):
        wythoff_row(-2, 4)
