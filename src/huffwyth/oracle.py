"""Brute-force verification of the closed-form minimizers.

The oracle enumerates every non-decreasing sequence of n weights drawn from
1..max_weight, keeps the ones that belong to the requested order class and
whose optimal tree is elongated, and reports the minimum cost found
together with all sequences attaining it.  As in theorems, k=None selects
the absolutely ordered class.

Membership is decided policy-independently.  For an elongated tree of size
n the leaf depth multiset is forced (n-1, n-1, n-2, ..., 2, 1), so the best
elongated tree costs

    elongated_cost(P) = (n-1) * p1 + sum over i = 2..n of (n-i+1) * pi

and P admits an elongated optimal tree exactly when this equals the true
Huffman cost.  The Huffman cost is taken from the merge engine as the sum
of all merged values (each weight contributes once per merge containing it,
i.e. once per level above its leaf), giving a cost path that never touches
the tree builder.

optimal_tree_cost cross-checks from a third direction: it enumerates every
strictly binary tree shape on n leaves (as a set of leaf depth multisets),
pairs depths and weights by the rearrangement inequality, and takes the
global minimum.  This is exponential and capped at n <= 10.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
import json
import math

from .huffman import OrderClass, _exact_repr, _merge, validate_weights
from .numbers import _to_decimal
from .theorems import min_k_cost, min_k_sequence

__all__ = [
    "SearchSpaceTooLargeError",
    "EmptyClassError",
    "TooLargeError",
    "OracleReport",
    "enumerate_sequences",
    "count_sequences",
    "elongated_cost",
    "optimal_tree_cost",
    "brute_force_min",
    "brute_force_min_abs",
    "report_to_json",
]

DEFAULT_CANDIDATE_LIMIT = 100_000_000


class SearchSpaceTooLargeError(ValueError):
    """Raised when the candidate count exceeds the configured limit."""


class EmptyClassError(ValueError):
    """Raised when no candidate belongs to the requested class (bound too small)."""


class TooLargeError(ValueError):
    """Raised when exhaustive tree enumeration is asked for n > 10."""


def enumerate_sequences(n, max_weight):
    """Yield all non-decreasing n-tuples over 1..max_weight in lexicographic order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if max_weight < 1:
        raise ValueError(f"need max_weight >= 1, got {max_weight}")
    return combinations_with_replacement(range(1, max_weight + 1), n)


def count_sequences(n: int, max_weight: int) -> int:
    """Number of such tuples: C(n + max_weight - 1, n)."""
    return math.comb(n + max_weight - 1, n)


def elongated_cost(weights) -> int:
    """Cost of the best elongated tree: depths n-1, n-1, n-2, ..., 2, 1.

    Every elongated tree on n leaves has exactly this depth multiset, and
    pairing the two deepest slots with the two smallest weights is optimal
    for a sorted input.
    """
    seq = validate_weights(weights)
    n = len(seq)
    if n == 1:
        return 0
    return (n - 1) * seq[0] + sum((n - i + 1) * seq[i - 1] for i in range(2, n + 1))


@lru_cache(maxsize=None)
def _depth_profiles(n: int) -> tuple[tuple[int, ...], ...]:
    """All leaf depth multisets of strictly binary trees with n leaves.

    Each profile is sorted in descending order.  Profiles of a tree are the
    union of left and right subtree profiles shifted one level down.
    """
    if n == 1:
        return ((0,),)
    found = set()
    for left in range(1, n // 2 + 1):
        for a in _depth_profiles(left):
            for b in _depth_profiles(n - left):
                found.add(tuple(sorted((d + 1 for d in a + b), reverse=True)))
    return tuple(sorted(found))


def optimal_tree_cost(weights) -> int:
    """Exact minimum weighted external path length over all tree shapes.

    Exhaustive over leaf depth profiles, so restricted to n <= 10.
    """
    seq = validate_weights(weights)
    n = len(seq)
    if n > 10:
        raise TooLargeError(f"exhaustive shape enumeration is capped at n = 10, got {n}")
    best = None
    for profile in _depth_profiles(n):
        # profile is descending and seq ascending, the cheapest pairing
        cost = sum(d * w for d, w in zip(profile, seq))
        if best is None or cost < best:
            best = cost
    return best


@dataclass(frozen=True, repr=False)
class OracleReport:
    """Outcome of a brute-force scan over one order class; k is None for absolutely ordered."""

    n: int
    k: int | None
    weight_bound: int
    candidates_examined: int
    members_examined: int
    best_cost: int
    best_sequences: tuple[tuple[int, ...], ...]
    closed_form_cost: int
    closed_form_sequence: tuple[int, ...]
    matches_closed_form: bool

    __repr__ = _exact_repr


def _scan_class(n, k, max_weight, limit):
    closed_seq = min_k_sequence(n, k)
    closed_cost = min_k_cost(n, k)
    target = OrderClass.absolutely_ordered() if k is None else OrderClass.k_ordered(k)
    if max_weight is None:
        max_weight = max(closed_seq) + 2
    total = count_sequences(n, max_weight)
    if total > limit:
        raise SearchSpaceTooLargeError(
            f"{total} candidates exceed the limit of {limit}; "
            f"lower max_weight or raise the limit"
        )
    best = None
    best_seqs = []
    members = 0
    pattern = target.tie_flags(n)
    for cand in enumerate_sequences(n, max_weight):
        # Candidates are valid by construction, so the scan runs the merge
        # engine directly and compares its tie flags with the class pattern.
        merged, _, ties, _ = _merge(cand, True)
        if ties != pattern:
            continue
        cost = sum(merged)
        if cost != elongated_cost(cand):
            continue  # no optimal tree of this sequence is elongated
        members += 1
        if best is None or cost < best:
            best, best_seqs = cost, [cand]
        elif cost == best:
            best_seqs.append(cand)
    if best is None:
        raise EmptyClassError(
            f"no members of the class found with weights up to {max_weight}"
        )
    return OracleReport(
        n=n,
        k=k,
        weight_bound=max_weight,
        candidates_examined=total,
        members_examined=members,
        best_cost=best,
        best_sequences=tuple(best_seqs),
        closed_form_cost=closed_cost,
        closed_form_sequence=closed_seq,
        matches_closed_form=(best == closed_cost and closed_seq in best_seqs),
    )


def brute_force_min(n, k, max_weight=None, limit=DEFAULT_CANDIDATE_LIMIT):
    """Scan the k-ordered class of size n and compare against the closed form.

    k=None scans the absolutely ordered class.  max_weight defaults to
    max(min_k_sequence(n, k)) + 2, which is enough to expose any cheaper
    member if one existed.  Enumeration is sequential and the report is
    deterministic.
    """
    return _scan_class(n, k, max_weight, limit)


def brute_force_min_abs(n, max_weight=None, limit=DEFAULT_CANDIDATE_LIMIT):
    """Scan the absolutely ordered class of size n: brute_force_min(n, None)."""
    return _scan_class(n, None, max_weight, limit)


def report_to_json(report: OracleReport, indent: int | None = None) -> str:
    """Serialize a report to JSON; weights and costs become decimal strings."""
    doc = {
        "n": report.n,
        "k": report.k,
        "weight_bound": _to_decimal(report.weight_bound),
        "candidates_examined": report.candidates_examined,
        "members_examined": report.members_examined,
        "best_cost": _to_decimal(report.best_cost),
        "best_sequences": [list(map(_to_decimal, seq)) for seq in report.best_sequences],
        "closed_form_cost": _to_decimal(report.closed_form_cost),
        "closed_form_sequence": list(map(_to_decimal, report.closed_form_sequence)),
        "matches_closed_form": report.matches_closed_form,
    }
    return json.dumps(doc, indent=indent)
