"""Realizability criteria for bound pairs in good order, declared in one table.

Every checker is a stream of per-t terms (lhs, rhs, _) of its
inequality family, t = 0, 1, ... (prefix length), read by one scan,
``_first_failure``, that reports the smallest failing t; the two
Fulkerson checks quantify over a tail length m as well and share one
(t, m) scan.  Verdicts are therefore reproducible and can be re-verified
by direct evaluation.  Every stream but Ryser's reads one O(n) pass of
the CDZ kernel, ``sequences._cdz_terms``, whose right-hand side is rhs(t)
below; Berge, Bollobas and Grunbaum subtract the head deficit D_x(t) of
one O(n) ``sequences._head_deficits`` pass.  The Ryser interval stream
reads a Gale-Ryser pass over the tilde system instead, the pass the
bipartite witness route probes as well.  Checkers never re-sort their
input; callers normalize first.

``CRITERIA`` declares each criterion once; the registries the report,
the sweeps and the CLI read are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .sequences import (
    IntervalSequencePair,
    _cdz_terms,
    _check_nonnegative,
    _head_deficits,
    _reduced_range,
    _tilde_unchecked,
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

    Holds iff sum(a[:t]) <= sum(berge(b)[:t]) = rhs(t) + eps(t) - D_b(t) for
    every t in 0..n.  The converse direction fails; see the crossval harness.
    """
    require_good_order(pair)
    kernel = zip(_cdz_terms(pair.a, pair.b), _head_deficits(pair.b))
    terms = ((lhs, rhs + eps - deficit, eps) for (lhs, rhs, eps), deficit in kernel)
    return _first_failure(terms, pair.n + 1)


def check_berge_sufficient(pair: IntervalSequencePair) -> CriterionVerdict:
    """Berge prefix domination sharpened by the parity correction: sufficient only.

    Holds iff sum(a[:t]) <= sum(berge(b)[:t]) - eps(t) = rhs(t) - D_b(t), t in 0..n.
    """
    require_good_order(pair)
    kernel = zip(_cdz_terms(pair.a, pair.b), _head_deficits(pair.b))
    terms = ((lhs, rhs - deficit, eps) for (lhs, rhs, eps), deficit in kernel)
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

    sum(min(a[i], t-1) for i < t) = t(t-1) - D_a(t); adding shift = D_a(t)
    to both sides gives the Grunbaum term, as max(t-1, x) = t-1 + x - min(x, t-1).
    """
    tails = accumulate(pair.b, sub, initial=sum(pair.b))  # sum(b[t:])
    kernel = zip(_cdz_terms(pair.a, pair.b), _head_deficits(pair.a), tails)
    for t, ((lhs, _, eps), deficit, tail) in enumerate(kernel):
        yield lhs, t * (t - 1) + tail - deficit - eps, deficit


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
    That rhs is rhs(t) - D_b(t) - #{k < t : b[k] < t}, and for t < s every
    b[k] with k < t is at least a[s-1] >= s-1 >= t, so both corrections
    vanish: this is the CDZ family over t <= s-1, one short of cdz_reduced.
    """
    require_good_order(pair)
    return _cdz_over_range(pair, _reduced_range(pair.a) - 1)


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


def _gale_ryser_terms(
    demand: Sequence[tuple[int, int]], supply: Sequence[tuple[int, int]]
) -> Iterator[tuple[int, int, int]]:
    """Yield (sum of the top k demands, sum(min(k, s) for s in supply), 0), k = 0..len(demand).

    Demands are the lower bounds of the ``demand`` cells, supplies the upper
    bounds of the ``supply`` cells; some 0-1 matrix has row sums the demands
    and column sums at most the supplies iff lhs <= rhs for every k (Gale
    1957, Ryser 1957).  A histogram of the supplies gives rhs(k + 1) =
    rhs(k) + #{s > k}, so after one sort of the demands the scan is O(n).
    """
    top = len(demand)
    count = [0] * (top + 1)
    for _, s in supply:
        count[min(s, top)] += 1
    above = len(supply)  # #{s > k - 1}
    lhs = rhs = 0
    for k, d in enumerate(sorted((lo for lo, _ in demand), reverse=True)):
        yield lhs, rhs, 0
        above -= count[k]
        lhs += d
        rhs += above
    yield lhs, rhs, 0


def ryser_interval_system(
    pair: IntervalSequencePair,
) -> list[tuple[int, int]]:
    """Per-vertex intervals [tilde(a)_i, tilde(b)_i], each side of the test below."""
    require_good_order(pair)
    ta = _tilde_unchecked(pair.a)
    tb = _tilde_unchecked(pair.b)
    return list(zip(ta, tb))


def check_ryser_interval(pair: IntervalSequencePair) -> CriterionVerdict:
    """Necessary condition: the tilde interval system is bipartite realizable.

    Applies the tilde lift to a and b separately (each with its own
    crossing index) and decides feasibility of the symmetric bipartite
    interval system.  Its two Gale-Ryser families coincide, so one O(n log n)
    scan of the lifted lower bounds against the lifted upper bounds decides
    it.  Realizable pairs always pass; the converse fails.  No witness
    indices apply, so a failing verdict carries none.
    """
    system = ryser_interval_system(pair)
    return CriterionVerdict(_first_failure(_gale_ryser_terms(system, system), pair.n + 1).holds)


REPORT, SWEEP, NAMED = "report", "sweep", "named"
EXACT, NECESSARY, SUFFICIENT = ("necessity", "sufficiency"), ("necessity",), ("sufficiency",)


class Criterion(NamedTuple):
    """One criterion: its checker, display name, gated arrows and scope.

    ``gated`` names the arrows a sweep gates to zero against the oracle:
    "necessity" flags an oracle-realizable instance the criterion fails,
    "sufficiency" a criterion-holding instance the oracle rejects.
    An exact criterion gates both, a necessary or sufficient one only its
    own.  ``scope`` is REPORT (run by criteria_report and every default
    sweep), SWEEP (the default sweep only) or NAMED (only a sweep naming it).
    """

    check: Callable[[IntervalSequencePair], CriterionVerdict]
    display: str
    gated: tuple[str, ...]
    scope: str


# Only the necessity of the classical-style interval generalizations is
# gated: their sufficiency is empirically false on some inputs (see the
# sweep harness), so none of them is a decision procedure here.
CRITERIA: dict[str, Criterion] = {
    "cdz": Criterion(check_cdz, "CDZ", EXACT, REPORT),
    "cdz_reduced": Criterion(check_cdz_reduced, "CDZ-reduced", EXACT, REPORT),
    "berge_necessary": Criterion(check_berge_necessary, "Berge-necessary", NECESSARY, REPORT),
    "berge_sufficient": Criterion(check_berge_sufficient, "Berge-sufficient", SUFFICIENT, REPORT),
    "fulkerson": Criterion(check_fulkerson, "Fulkerson", NECESSARY, REPORT),
    "bollobas": Criterion(check_bollobas, "Bollobas", NECESSARY, REPORT),
    "grunbaum": Criterion(check_grunbaum, "Grunbaum", NECESSARY, REPORT),
    "hasselbarth": Criterion(check_hasselbarth, "Hasselbarth", NECESSARY, REPORT),
    "ryser_interval": Criterion(check_ryser_interval, "Ryser-interval", NECESSARY, SWEEP),
    "fulkerson_exists": Criterion(check_fulkerson_exists, "Fulkerson-exists", NECESSARY, NAMED),
}

CHECKERS: dict[str, Callable[[IntervalSequencePair], CriterionVerdict]] = {
    name: row.check for name, row in CRITERIA.items() if row.scope == REPORT
}


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
    verdicts = {name: check(pair) for name, check in CHECKERS.items()}
    consistent = verdicts["cdz"] == verdicts["cdz_reduced"]
    return CriteriaReport(verdicts=verdicts, cdz_consistent=consistent)
