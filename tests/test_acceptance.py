"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line once its assertions hold; pytest
itself reports the FAIL case.  Run with -s (or read the captured output)
to see the lines.
"""

import random
import time
from itertools import combinations_with_replacement
from operator import mul

from huffwyth.cli import run_selftest
from huffwyth.huffman import (TiePolicy, build_tree, leaf_depths, leaf_weights, run_huffman,
                              wepl)
from huffwyth.numbers import fib, lower_wythoff
from huffwyth.oracle import brute_force_min
from huffwyth.theorems import corollary_sequences, min_k_cost, min_k_sequence
from fixture_tables import STEMS, fixture_rows
from reference_huffman import check_fib_row_identity, optimal_tree_cost


def test_criterion_1_golden_selftest(capsys):
    start = time.perf_counter()
    lines = []
    rc = run_selftest(lines.append)
    elapsed = time.perf_counter() - start
    assert rc == 0, "\n".join(lines)
    tables = [fixture_rows(stem) for stem in STEMS]
    totals = [rows[-1][0] for rows in tables]
    assert totals == [143, 122, 109, 93, 89]
    for rows in tables:
        assert tuple(run_huffman(rows[0]).sequences()) == rows
    assert elapsed < 1.0, f"selftest took {elapsed:.3f}s"
    print(f"PASS criterion 1: selftest reproduces all five step tables "
          f"(totals 143 122 109 93 89) in {elapsed:.3f}s")


def test_criterion_2_construction_rows():
    expected = {
        0: (1, 1, 1, 3, 4, 7, 11, 18, 29, 47),
        1: (1, 1, 1, 2, 4, 6, 10, 16, 26, 42),
        4: (1, 1, 1, 2, 3, 5, 8, 14, 22, 36),
        7: (1, 1, 1, 2, 3, 5, 8, 13, 21, 34),
    }
    for k, row in expected.items():
        assert min_k_sequence(10, k) == row, k
    print("PASS criterion 2: min_k_sequence(10, k) matches the published "
          "rows for k in {0, 1, 4, 7}")


def test_criterion_3_cost_consistency():
    start = time.perf_counter()
    checked = 0
    for n in range(3, 41):
        assert wepl(build_tree(min_k_sequence(n, None))) == fib(n + 4) - (n + 4), n
        checked += 1
        for k in range(0, n - 2):
            expected = fib(n + 3) + fib(n - k + 1) - (n - k + 3)
            assert wepl(build_tree(min_k_sequence(n, k))) == expected, (n, k)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"cost consistency took {elapsed:.3f}s"
    print(f"PASS criterion 3: built-tree costs equal the closed forms for "
          f"{checked} (n, class) pairs, n = 3..40, in {elapsed:.3f}s")


def test_criterion_4_oracle_minimality():
    start = time.perf_counter()
    scans = 0
    for n in range(4, 8):
        for k in [None, *range(0, n - 2)]:
            report = brute_force_min(n, k)
            assert report.matches_closed_form, (n, k, report)
            scans += 1
    elapsed = time.perf_counter() - start
    assert scans == 18
    assert elapsed < 60.0, f"oracle scans took {elapsed:.3f}s"
    print(f"PASS criterion 4: {scans} brute-force scans (n = 4..7, every k "
          f"and the absolutely ordered class) all match the closed forms "
          f"in {elapsed:.3f}s")


def test_criterion_5_huffman_optimality():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for weights in combinations_with_replacement(range(1, 9), n):
            assert optimal_tree_cost(weights) == wepl(build_tree(weights)), weights
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 10_000
    assert elapsed < 60.0, f"optimality sweep took {elapsed:.3f}s"
    print(f"PASS criterion 5: built trees are optimal on all {checked} "
          f"sequences with n <= 8, weights <= 8, in {elapsed:.3f}s")


def test_criterion_6_identity_suites():
    for i in range(2, 16):
        assert check_fib_row_identity(i, 20), i
    for i in range(1, 51):
        assert 1 + sum(fib(j) for j in range(1, i + 1)) == fib(i + 2), i
    for n in range(0, 100_001):
        m = n + 1
        w = lower_wythoff(n)
        assert (2 * w - m) ** 2 <= 5 * m * m < (2 * w + 2 - m) ** 2, n
    print("PASS criterion 6: Wythoff row identity (i <= 15, j <= 20), "
          "Fibonacci partial-sum identity (i <= 50), and Beatty membership "
          "(n <= 100000) all hold exactly")


def test_criterion_7_corollaries():
    for n in range(3, 31):
        lucas_form, fib_form = corollary_sequences(n)
        assert min_k_sequence(n, 0) == lucas_form, n
        assert min_k_sequence(n, n - 3) == fib_form, n
        assert min_k_cost(n, n - 3) == fib(n + 3) - 3, n
        assert min_k_cost(n, 0) == fib(n + 3) + fib(n + 1) - (n + 3), n
    print("PASS criterion 7: boundary sequences and their cost formulas "
          "hold for n = 3..30")


def test_criterion_8_tie_policy_invariance():
    rng = random.Random(20260814)
    for trial in range(1000):
        n = rng.randint(3, 12)
        weights = [rng.randint(1, 20) for _ in range(n)]
        weights.append(rng.choice(weights))  # guarantee a duplicate
        weights = tuple(sorted(weights))
        # both trees hold the same merged values, so the cost is read off the leaves' depths
        before = build_tree(weights, TiePolicy.MERGED_BEFORE_EQUALS)
        after = build_tree(weights, TiePolicy.MERGED_AFTER_EQUALS)
        assert (sum(map(mul, leaf_depths(before), leaf_weights(before)))
                == sum(map(mul, leaf_depths(after), leaf_weights(after)))), weights
    print("PASS criterion 8: both tie policies give identical costs on "
          "1000 random duplicate-bearing sequences")
