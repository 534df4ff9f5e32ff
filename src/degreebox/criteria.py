"""Realizability criteria for bound pairs in good order.

Every checker scans its inequality family in increasing t (prefix
length) and reports the smallest failing witness, so verdicts are
reproducible and can be re-verified by direct evaluation.  Checkers
never re-sort their input; callers normalize first.

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
from typing import Callable, Optional, Sequence

from .sequences import (
    IntervalSequencePair,
    _cdz_terms,
    _check_nonnegative,
    berge_sequence,
    conjugate_sequence,
    crossing_indices,
    parity_corrections,
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


def _prefix_sums(seq: Sequence[int]) -> list[int]:
    out = [0]
    for x in seq:
        out.append(out[-1] + x)
    return out


def _cdz_over_range(pair: IntervalSequencePair, t_max: int) -> CriterionVerdict:
    """Smallest failing t <= t_max of the CDZ family; no input validation."""
    for t, (lhs, rhs, _) in zip(range(t_max + 1), _cdz_terms(pair.a, pair.b)):
        if lhs > rhs:
            return _fail(t, lhs, rhs)
    return _HOLDS


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
    return _cdz_over_range(pair, crossing_indices(pair).s)


def check_berge_necessary(pair: IntervalSequencePair) -> CriterionVerdict:
    """Prefix domination by the Berge sequence of b: necessary only.

    Holds iff sum(a[:t]) <= sum(berge(b)[:t]) for every t in 0..n.  The
    converse direction fails; see the cross-validation harness.
    """
    require_good_order(pair)
    pa = _prefix_sums(pair.a)
    pbar = _prefix_sums(berge_sequence(pair.b))
    for t in range(pair.n + 1):
        if pa[t] > pbar[t]:
            return _fail(t, pa[t], pbar[t])
    return _HOLDS


def check_berge_sufficient(pair: IntervalSequencePair) -> CriterionVerdict:
    """Berge prefix domination sharpened by the parity correction: sufficient only.

    Holds iff sum(a[:t]) <= sum(berge(b)[:t]) - eps(t) for every t in 0..n.
    """
    require_good_order(pair)
    eps = parity_corrections(pair)
    pa = _prefix_sums(pair.a)
    pbar = _prefix_sums(berge_sequence(pair.b))
    for t in range(pair.n + 1):
        rhs = pbar[t] - eps[t]
        if pa[t] > rhs:
            return _fail(t, pa[t], rhs)
    return _HOLDS


def _fulkerson_rhs(pair: IntervalSequencePair, suffix_b: list[int], eps_t: int, t: int, m: int) -> int:
    n = pair.n
    return t * (n - m - 1) + suffix_b[m] - eps_t


def check_fulkerson(pair: IntervalSequencePair) -> CriterionVerdict:
    """Tail-sum family quantified over every admissible tail length m.

    Holds iff for all t in 0..n and all m in 0..n-t:
        sum(a[:t]) <= t(n-m-1) + sum(b[n-m:]) - eps(t).
    Reports the lexicographically smallest failing (t, m).
    """
    require_good_order(pair)
    n = pair.n
    eps = parity_corrections(pair)
    pa = _prefix_sums(pair.a)
    suffix_b = [0]
    for x in reversed(pair.b):
        suffix_b.append(suffix_b[-1] + x)
    for t in range(n + 1):
        for m in range(n - t + 1):
            rhs = _fulkerson_rhs(pair, suffix_b, eps[t], t, m)
            if pa[t] > rhs:
                return _fail(t, pa[t], rhs, m=m)
    return _HOLDS


def check_fulkerson_exists(pair: IntervalSequencePair) -> CriterionVerdict:
    """Weaker tail-sum variant: each t only needs one admissible m to work.

    Kept for side-by-side comparison with check_fulkerson in sweeps; the
    reported witness carries the m with the largest right-hand side.
    """
    require_good_order(pair)
    n = pair.n
    eps = parity_corrections(pair)
    pa = _prefix_sums(pair.a)
    suffix_b = [0]
    for x in reversed(pair.b):
        suffix_b.append(suffix_b[-1] + x)
    for t in range(n + 1):
        best_m, best_rhs = 0, None
        ok = False
        for m in range(n - t + 1):
            rhs = _fulkerson_rhs(pair, suffix_b, eps[t], t, m)
            if best_rhs is None or rhs > best_rhs:
                best_m, best_rhs = m, rhs
            if pa[t] <= rhs:
                ok = True
                break
        if not ok:
            return _fail(t, pa[t], best_rhs if best_rhs is not None else 0, m=best_m)
    return _HOLDS


def check_bollobas(pair: IntervalSequencePair) -> CriterionVerdict:
    """Clipped-lower-bound family.

    Holds iff for every t in 0..n:
        sum(a[:t]) <= sum(b[t:]) + sum(min(a[i], t-1) for i < t) - eps(t).
    """
    require_good_order(pair)
    a, b, n = pair.a, pair.b, pair.n
    eps = parity_corrections(pair)
    pa = _prefix_sums(a)
    total_b = sum(b)
    pb = _prefix_sums(b)
    for t in range(n + 1):
        rhs = (total_b - pb[t]) + sum(min(a[i], t - 1) for i in range(t)) - eps[t]
        if pa[t] > rhs:
            return _fail(t, pa[t], rhs)
    return _HOLDS


def check_grunbaum(pair: IntervalSequencePair) -> CriterionVerdict:
    """Raised-prefix family.

    Holds iff for every t in 0..n:
        sum(max(t-1, a[i]) for i < t) <= t(t-1) + sum(b[t:]) - eps(t).
    """
    require_good_order(pair)
    a, b, n = pair.a, pair.b, pair.n
    eps = parity_corrections(pair)
    total_b = sum(b)
    pb = _prefix_sums(b)
    for t in range(n + 1):
        lhs = sum(max(t - 1, a[i]) for i in range(t))
        rhs = t * (t - 1) + (total_b - pb[t]) - eps[t]
        if lhs > rhs:
            return _fail(t, lhs, rhs)
    return _HOLDS


def check_hasselbarth(pair: IntervalSequencePair) -> CriterionVerdict:
    """Conjugate-prefix family, scanned for t up to s-1.

    Holds iff sum(a[:t]) <= sum(conj(b)[:t]) - t - eps(t) for every t in
    0..s-1, where conj is the Ferrers conjugate and s = max{i : a[i-1] >= i-1}.
    """
    require_good_order(pair)
    s = crossing_indices(pair).s
    eps = parity_corrections(pair)
    pa = _prefix_sums(pair.a)
    pconj = _prefix_sums(conjugate_sequence(pair.b))
    for t in range(s):
        rhs = pconj[t] - t - eps[t]
        if pa[t] > rhs:
            return _fail(t, pa[t], rhs)
    return _HOLDS


def check_erdos_gallai_fixed(d: Sequence[int]) -> CriterionVerdict:
    """Classical graphicality test for a fixed non-increasing sequence.

    Holds iff sum(d) is even and for every k in 1..n:
        sum(d[:k]) <= k(k-1) + sum(min(d[j], k) for j >= k).
    An odd total is reported as witness_t = 0 with lhs 0, rhs -1,
    mirroring how the parity correction sinks the t = 0 inequality of
    check_cdz, so witness re-verification stays uniform.  The scan is the
    kernel's O(n) pass on the point box (d; d), parity correction added
    back; the kernel needs d capped at n-1, which changes no min(d[j], k).
    """
    require_non_increasing(d)
    _check_nonnegative(d, "sequence")
    if sum(d) % 2 == 1:
        return _fail(0, 0, -1)
    capped = [min(x, len(d) - 1) for x in d]
    for k, (lhs, rhs, eps) in enumerate(_cdz_terms(d, capped)):
        if k and lhs > rhs + eps:
            return _fail(k, lhs, rhs + eps)
    return _HOLDS


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
