"""Realizability criteria for bound pairs in good order.

Every checker is a stream of per-t terms (lhs, rhs, _) of its
inequality family, t = 0, 1, ... (prefix length), read by one scan,
``_first_failure``, that reports the smallest failing t; the two
Fulkerson checks quantify over a tail length m as well and share one
(t, m) scan.  Verdicts are therefore reproducible and can be re-verified
by direct evaluation.  Every stream that needs the parity correction
eps(t) takes it, and sum(a[:t]) with it, from the same O(n) pass of the
CDZ kernel, ``sequences._cdz_terms``; Berge-necessary needs no eps and
reads plain prefix sums.  Checkers never re-sort their input; callers
normalize first.

The checkers split by logical strength:

* ``check_cdz`` / ``check_cdz_reduced`` decide realizability exactly.
* ``check_berge_necessary`` is necessary only, ``check_berge_sufficient``
  sufficient only.
* ``check_fulkerson``, ``check_bollobas``, ``check_grunbaum`` and
  ``check_hasselbarth`` are classical-style interval generalizations;
  their necessity direction is sound, while their sufficiency direction
  is empirically false on some inputs (see the sweep harness), so none
  of them is treated as a decision procedure here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import sub
from typing import Callable, Iterable, Optional, Sequence

from .sequences import (
    IntervalSequencePair,
    _cdz_terms,
    _check_nonnegative,
    _reduced_range,
    berge_sequence,
    conjugate_sequence,
    require_good_order,
    require_non_increasing,
)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion: holds, or the smallest failing witness.

    When ``holds`` is False, re-evaluating the criterion's inequality at
    ``witness_t`` (and ``witness_m``, where a second quantifier exists)
    reproduces ``lhs > rhs``.
    """

    holds: bool
    witness_t: Optional[int] = None
    witness_m: Optional[int] = None
    lhs: Optional[int] = None
    rhs: Optional[int] = None


_HOLDS = CriterionVerdict(True)


def _fail(t: int, lhs: int, rhs: int, m: Optional[int] = None) -> CriterionVerdict:
    return CriterionVerdict(False, witness_t=t, witness_m=m, lhs=lhs, rhs=rhs)


def _first_failure(terms: Iterable[tuple[int, int, int]], stop: int) -> CriterionVerdict:
    """Smallest t < stop whose term (lhs, rhs, _) has lhs > rhs.

    ``terms`` yields the term for t = 0, 1, ...; the scan stops at the
    first failure, so a lazy stream is only evaluated up to it.
    """
    for t, (lhs, rhs, _) in zip(range(stop), terms):
        if lhs > rhs:
            return _fail(t, lhs, rhs)
    return _HOLDS


def _cdz_over_range(pair: IntervalSequencePair, t_max: int) -> CriterionVerdict:
    """Smallest failing t <= t_max of the CDZ family; no input validation."""
    return _first_failure(_cdz_terms(pair.a, pair.b), t_max + 1)


def check_cdz(pair: IntervalSequencePair) -> CriterionVerdict:
    """Exact realizability test.

    Holds iff for every t in 0..n:
        sum(a[:t]) <= t(t-1) + sum(min(t, b[j]) for j >= t) - eps(t).
    t = 0 carries the parity obstruction through eps(0).
    """
    require_good_order(pair)
    return _cdz_over_range(pair, pair.n)


def check_cdz_reduced(pair: IntervalSequencePair) -> CriterionVerdict:
    """Same inequality family as check_cdz, scanned only for t <= s.

    s = max{i : a[i-1] >= i-1}; any failure of the full family already
    occurs in this range, so the verdict coincides with check_cdz.
    """
    require_good_order(pair)
    return _cdz_over_range(pair, _reduced_range(pair.a))


def check_berge_necessary(pair: IntervalSequencePair) -> CriterionVerdict:
    """Prefix domination by the Berge sequence of b: necessary only.

    Holds iff sum(a[:t]) <= sum(berge(b)[:t]) for every t in 0..n.  The
    converse direction fails; see the cross-validation harness.
    """
    require_good_order(pair)
    prefixes = accumulate(berge_sequence(pair.b), initial=0)
    terms = zip(accumulate(pair.a, initial=0), prefixes, repeat(0))
    return _first_failure(terms, pair.n + 1)


def check_berge_sufficient(pair: IntervalSequencePair) -> CriterionVerdict:
    """Berge prefix domination sharpened by the parity correction: sufficient only.

    Holds iff sum(a[:t]) <= sum(berge(b)[:t]) - eps(t) for every t in 0..n.
    """
    require_good_order(pair)
    prefixes = accumulate(berge_sequence(pair.b), initial=0)
    kernel = _cdz_terms(pair.a, pair.b)
    terms = ((lhs, pb - eps, eps) for (lhs, _, eps), pb in zip(kernel, prefixes))
    return _first_failure(terms, pair.n + 1)


def _fulkerson_scan(
    pair: IntervalSequencePair, pick: Callable[[int, list[int]], Optional[int]]
) -> CriterionVerdict:
    """Smallest t for which ``pick(lhs, row)`` names a witness tail length m.

    row[m] = t(n-m-1) + sum(b[n-m:]) - eps(t) is the right-hand side at
    tail length m, for m in 0..n-t.
    """
    require_good_order(pair)
    n = pair.n
    tails = list(accumulate(reversed(pair.b), initial=0))  # tails[m] = sum(b[n-m:])
    for t, (lhs, _, eps) in enumerate(_cdz_terms(pair.a, pair.b)):
        row = [t * (n - m - 1) + tails[m] - eps for m in range(n - t + 1)]
        m = pick(lhs, row)
        if m is not None:
            return _fail(t, lhs, row[m], m=m)
    return _HOLDS


def _first_failing_tail(lhs: int, row: list[int]) -> Optional[int]:
    for m, rhs in enumerate(row):
        if lhs > rhs:
            return m
    return None


def _best_tail_if_all_fail(lhs: int, row: list[int]) -> Optional[int]:
    best = max(row)
    return row.index(best) if lhs > best else None


def check_fulkerson(pair: IntervalSequencePair) -> CriterionVerdict:
    """Tail-sum family quantified over every admissible tail length m.

    Holds iff for all t in 0..n and all m in 0..n-t:
        sum(a[:t]) <= t(n-m-1) + sum(b[n-m:]) - eps(t).
    Reports the lexicographically smallest failing (t, m).
    """
    return _fulkerson_scan(pair, _first_failing_tail)


def check_fulkerson_exists(pair: IntervalSequencePair) -> CriterionVerdict:
    """Weaker tail-sum variant: each t only needs one admissible m to work.

    Kept for side-by-side comparison with check_fulkerson in sweeps; the
    reported witness carries the m with the largest right-hand side.
    """
    return _fulkerson_scan(pair, _best_tail_if_all_fail)


def _bollobas_terms(pair: IntervalSequencePair):
    """Bollobas terms (lhs, rhs, shift) for t = 0..n.

    Adding shift = t(t-1) - sum(min(a[i], t-1) for i < t) to both sides
    gives the Grunbaum term, since max(t-1, x) = t-1 + x - min(x, t-1).
    """
    a, b = pair.a, pair.b
    tails = accumulate(b, sub, initial=sum(b))  # sum(b[t:])
    for t, ((lhs, _, eps), tail) in enumerate(zip(_cdz_terms(a, b), tails)):
        clip = sum(min(x, t - 1) for x in a[:t])
        yield lhs, tail + clip - eps, t * (t - 1) - clip


def check_bollobas(pair: IntervalSequencePair) -> CriterionVerdict:
    """Clipped-lower-bound family.

    Holds iff for every t in 0..n:
        sum(a[:t]) <= sum(b[t:]) + sum(min(a[i], t-1) for i < t) - eps(t).
    """
    require_good_order(pair)
    return _first_failure(_bollobas_terms(pair), pair.n + 1)


def check_grunbaum(pair: IntervalSequencePair) -> CriterionVerdict:
    """Raised-prefix family.

    Holds iff for every t in 0..n:
        sum(max(t-1, a[i]) for i < t) <= t(t-1) + sum(b[t:]) - eps(t).
    """
    require_good_order(pair)
    terms = ((lhs + shift, rhs + shift, shift) for lhs, rhs, shift in _bollobas_terms(pair))
    return _first_failure(terms, pair.n + 1)


def check_hasselbarth(pair: IntervalSequencePair) -> CriterionVerdict:
    """Conjugate-prefix family, scanned for t up to s-1.

    Holds iff sum(a[:t]) <= sum(conj(b)[:t]) - t - eps(t) for every t in
    0..s-1, where conj is the Ferrers conjugate and s = max{i : a[i-1] >= i-1}.
    """
    require_good_order(pair)
    prefixes = accumulate(conjugate_sequence(pair.b), initial=0)
    terms = (
        (lhs, pc - t - eps, eps)
        for t, ((lhs, _, eps), pc) in enumerate(zip(_cdz_terms(pair.a, pair.b), prefixes))
    )
    return _first_failure(terms, _reduced_range(pair.a))


def check_erdos_gallai_fixed(d: Sequence[int]) -> CriterionVerdict:
    """Classical graphicality test for a fixed non-increasing sequence.

    Holds iff sum(d) is even and for every k in 1..n:
        sum(d[:k]) <= k(k-1) + sum(min(d[j], k) for j >= k).
    An odd total is reported as witness_t = 0 with lhs 0, rhs -1,
    mirroring how the parity correction sinks the t = 0 inequality of
    check_cdz, so witness re-verification stays uniform.  The scan is the
    kernel's O(n) pass on the point box (d; d), parity correction added
    back (its k = 0 term is 0 <= 0); the kernel needs d capped at n-1,
    which changes no min(d[j], k).
    """
    require_non_increasing(d)
    _check_nonnegative(d, "sequence")
    if sum(d) % 2 == 1:
        return _fail(0, 0, -1)
    capped = [min(x, len(d) - 1) for x in d]
    terms = ((lhs, rhs + eps, eps) for lhs, rhs, eps in _cdz_terms(d, capped))
    return _first_failure(terms, len(d) + 1)


CHECKERS: dict[str, Callable[[IntervalSequencePair], CriterionVerdict]] = {
    "cdz": check_cdz,
    "cdz_reduced": check_cdz_reduced,
    "berge_necessary": check_berge_necessary,
    "berge_sufficient": check_berge_sufficient,
    "fulkerson": check_fulkerson,
    "bollobas": check_bollobas,
    "grunbaum": check_grunbaum,
    "hasselbarth": check_hasselbarth,
}

REPORT_ORDER = tuple(CHECKERS)


@dataclass(frozen=True)
class CriteriaReport:
    """All criterion verdicts for one pair, in a fixed deterministic order."""

    verdicts: dict[str, CriterionVerdict]
    cdz_consistent: bool


def criteria_report(pair: IntervalSequencePair) -> CriteriaReport:
    """Run every registered checker and flag cdz/cdz_reduced disagreement.

    The flag must never be False; it exists so a regression cannot pass
    silently through aggregated reports.
    """
    verdicts = {name: CHECKERS[name](pair) for name in REPORT_ORDER}
    consistent = verdicts["cdz"] == verdicts["cdz_reduced"]
    return CriteriaReport(verdicts=verdicts, cdz_consistent=consistent)
