"""Brute-force verification of the closed-form minimizers.

The oracle covers every non-decreasing sequence of n weights drawn from
1..max_weight, keeps the ones that belong to the requested order class and
whose optimal tree is elongated, and reports the minimum cost found
together with all sequences attaining it.  As in theorems, k=None selects
the absolutely ordered class.

Membership is decided policy-independently.  For an elongated tree of size
n the leaf depth multiset is forced (n-1, n-1, n-2, ..., 2, 1).  With
s_j = p1 + ... + pj, the best elongated tree costs s_2 + s_3 + ... + s_n,
and P admits an elongated optimal tree exactly when this equals the
Huffman cost: the sum of the engine's merged values, as each weight counts
once per merge above its leaf.  No tree is built.

The chain lemma: a member has s(j-2) <= p_j for j = 3..n.  The elongated
tree puts the subtree of weight s(j-2) one level below the leaf p_j.  If
s(j-2) > p_j, swapping the two lowers the cost by s(j-2) - p_j, so the
Huffman cost is below s_2 + ... + s_n and P is not a member.

The class is decided by a walk over prefixes.  It sets p1, p2, ... in
lexicographic order, keeps the merge loop's state, s_j and s_2 + ... + s_j
on an explicit stack for each prefix length j, and resumes the engine's
value loop each time one more weight is known.  A prefix whose rows leave
the class's tie pattern p2(i) == p3(i) is dropped with every tuple of the
box that extends it.  The last weight starts at the lemma's bound
max(p(n-1), s(n-2)).  Starting every p_j at its bound is faster still, but
waits until the benchmark bounds its sample store (one entry per pass):
there it took oracle-sweep 42% less time and 32% more peak RSS.  A tuple
that reaches the last row on the pattern is a member when its merged
values sum to s_2 + ... + s_n, and only members leave the walk, in
lexicographic order.  candidates_examined is the size of the box covered,
C(n+max_weight-1, n), not the number of prefixes the walk visited.

The public names are the scan brute_force_min, with brute_force_min_abs
for the absolutely ordered class, its OracleReport, report_to_json and the
two errors.  The tests check the elongated cost by a depth pairing.
"""

from dataclasses import dataclass
import math

from .huffman import _advance, _exact_repr
from .numbers import _check_int, _to_decimal
from .theorems import _check_k, min_k_cost, min_k_sequence

__all__ = [
    "SearchSpaceTooLargeError",
    "EmptyClassError",
    "OracleReport",
    "brute_force_min",
    "brute_force_min_abs",
    "report_to_json",
]

DEFAULT_CANDIDATE_LIMIT = 100_000_000


class SearchSpaceTooLargeError(ValueError):
    """Raised when the candidate count exceeds the configured limit."""


class EmptyClassError(ValueError):
    """Raised when no candidate belongs to the requested class (bound too small)."""


def _members(n, max_weight, lead):
    """Yield (tuple, cost) for each member of OrderClass(lead) in the box, walked as above.

    heads[d] is the loop's state before p(d+1) is known.  Once the loop
    accepts a prefix of length d, sums[d] = p1 + ... + pd and
    chain[d] = s2 + ... + sd, at d = n the elongated cost of the tuple.
    """
    seq = [1] * n
    merged = [0] * (n - 1)
    heads = [(0, 0, 0)] * n
    sums = [0] * (n + 1)
    chain = [0] * (n + 1)
    d = 0
    while True:
        q, i, j = heads[d]
        state = _advance(seq, d + 1, merged, q, i, j, lead)
        if state is not None:
            s = sums[d + 1] = sums[d] + seq[d]
            cost = chain[d + 1] = chain[d] + s if d else 0
            if d < n - 1:
                d += 1
                heads[d] = state
                # the last weight starts at the chain lemma's bound s(n-2)
                seq[d] = max(seq[d - 1], sums[d - 1]) if d == n - 1 else seq[d - 1]
                if seq[d] <= max_weight:
                    continue
                d -= 1
            elif sum(merged) == cost:
                yield tuple(seq), cost
        # the next prefix in lexicographic order
        while seq[d] == max_weight:
            if d == 0:
                return
            d -= 1
        seq[d] += 1


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


def _too_large(count, limit):
    return SearchSpaceTooLargeError(f"{count} candidates exceed the limit of "
                                    f"{_to_decimal(limit)}; lower max_weight or raise the limit")


def _scan_class(n, k, max_weight, limit):
    _check_k(n, k)
    if max_weight is not None:
        _check_int("max_weight", max_weight, 1)
    _check_int("limit", limit, 0)
    # C(n+w-1, n) >= 2**min(n, w-1), and the default box has w >= F(n-1) + 2 >= n
    least = min(n, n if max_weight is None else max_weight) - 1
    if least >= limit.bit_length():
        raise _too_large(f"at least 2**{_to_decimal(least)}", limit)
    closed_seq = None
    if max_weight is None:
        closed_seq = min_k_sequence(n, k)
        max_weight = max(closed_seq) + 2
    # C(n+w-1, n) >= ((n+w-1)/n)**n, so past a huge limit no refusal counts the box
    least = n * (((n + max_weight - 1) // n).bit_length() - 1)
    if least >= limit.bit_length():
        raise _too_large(f"at least 2**{_to_decimal(least)}", limit)
    total = math.comb(n + max_weight - 1, n)
    if total > limit:
        raise _too_large(_to_decimal(total), limit)
    best = None
    best_seqs = []
    members = 0
    for cand, cost in _members(n, max_weight, 0 if k is None else k + 1):
        members += 1
        if best is None or cost < best:
            best, best_seqs = cost, [cand]
        elif cost == best:
            best_seqs.append(cand)
    if best is None:
        raise EmptyClassError(
            f"no members of the class found with weights up to {_to_decimal(max_weight)}"
        )
    # an explicit box builds the closed form only now, for the report
    closed_seq = closed_seq or min_k_sequence(n, k)
    closed_cost = min_k_cost(n, k)
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
    """Search the k-ordered class of size n and compare against the closed form.

    k=None searches the absolutely ordered class.  The box is every
    non-decreasing tuple over 1..max_weight, and its C(n+max_weight-1, n)
    tuples are all covered by the module docstring's walk: it drops each
    prefix at its first row off the class's tie pattern with all its
    extensions, and each full tuple whose last weight p_n is below
    s(n-2) = p1 + ... + p(n-2), as the chain lemma proves it is no member.
    max_weight defaults to max(min_k_sequence(n, k)) + 2.  That box is a
    heuristic, not a proven bound: a cheaper member with a larger weight
    would go unseen.  The walk is sequential and the report is
    deterministic.  n and k are checked as in theorems, max_weight must be
    at least 1 and limit at least 0, and a box of more than limit tuples
    raises SearchSpaceTooLargeError: at once where C(n+w-1, n) >=
    2**min(n, w-1) settles it, with w max_weight or n for the default box;
    then, before the count, where C(n+w-1, n) >= 2**(n*(b-1)) settles it,
    with b the bit length of (n+w-1)//n; or else on the exact count.  The
    closed form is built first only to size
    the default box; with an explicit max_weight it is built once the walk
    has found a member, for the report, so an empty box raises
    EmptyClassError without building it.
    """
    return _scan_class(n, k, max_weight, limit)


def brute_force_min_abs(n, max_weight=None, limit=DEFAULT_CANDIDATE_LIMIT):
    """Scan the absolutely ordered class of size n: brute_force_min(n, None)."""
    return _scan_class(n, None, max_weight, limit)


def report_to_json(report: OracleReport, indent: int | None = None) -> str:
    """Serialize a report to JSON; weights and costs become decimal strings."""
    import json     # only this needs it; it slows start-up
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
