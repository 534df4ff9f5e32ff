"""Realizability criteria for bound pairs in good order, declared in one table.

Every criterion is an inequality family over the columns of the CDZ
kernel pass, ``sequences.kernel_pass``, and is written once, as a row
check that maps a whole batch of k pairs of equal size n to verdict
columns: holds, and the smallest failing witness t (and tail length m
for Fulkerson) with both sides of the inequality.  The smallest failing
t is a masked argmax over the (k, n+1) comparison; the Fulkerson row
scans t and compares all tail lengths m at once; the Ryser interval row is
one Gale-Ryser pass over the tilde system, whose bound rows ``_lifted``
builds; it is the package's only Gale-Ryser code.  Sweeps evaluate
each row over a chunk of instances at once.  The per-pair
checkers (``check_cdz``, ``check_cdz_reduced``, ..., ``CHECKERS``) are
the k = 1 view of the rows, read off the pair's cached
``IntervalSequencePair.kernel``, so ``check_cdz``, the exact decision,
and ``criteria_report`` on one pair share one pass;
``check_erdos_gallai_fixed`` reads the pass on the point box (d; d).
Verdicts are reproducible and can be re-verified by direct evaluation.
Checkers never re-sort their input; callers normalize first.

``CRITERIA`` declares each criterion once, and is the one registry the
report, the sweeps and the CLI read; ``CHECKERS`` is its per-pair view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .sequences import (
    IntervalSequencePair,
    KernelPass,
    _check_nonnegative,
    _require_integers,
    _row_histogram,
    kernel_pass,
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


class Verdicts(NamedTuple):
    """One criterion's verdicts over a batch of k pairs, as (k,) columns.

    On a failing row, t (and m, where a second quantifier exists), lhs and
    rhs are its smallest witness; a holding row's entries there mean
    nothing.  A column the criterion reports no witness in is None.
    """

    holds: np.ndarray
    t: Optional[np.ndarray] = None
    m: Optional[np.ndarray] = None
    lhs: Optional[np.ndarray] = None
    rhs: Optional[np.ndarray] = None

    def verdict(self, i: int) -> CriterionVerdict:
        """Row i as a CriterionVerdict."""
        if self.holds[i]:
            return CriterionVerdict(True)
        return CriterionVerdict(False, *(None if c is None else int(c[i]) for c in self[1:]))


def _failure_columns(lhs: np.ndarray, rhs: np.ndarray, stop=None) -> Verdicts:
    """Row by row, the smallest t (below stop[i], if given) with lhs[i, t] > rhs[i, t].

    The first True of each row of the (k, n+1) failure mask is its argmax;
    a row whose argmax is False has no failure.
    """
    fails = lhs > rhs
    if stop is not None:
        fails &= np.arange(lhs.shape[1]) < stop[:, None]
    rows = np.arange(len(fails))
    t = fails.argmax(axis=1)
    return Verdicts(~fails[rows, t], t, None, lhs[rows, t], rhs[rows, t])


def _cdz(kernel: KernelPass) -> Verdicts:
    """Exact realizability test.

    Holds iff for every t in 0..n:
        sum(a[:t]) <= t(t-1) + sum(min(t, b[j]) for j >= t) - eps(t).
    t = 0 carries the parity obstruction through eps(0).  Every column is
    read off the kernel pass.
    """
    return _failure_columns(kernel.lhs, kernel.rhs)


def _cdz_reduced(kernel: KernelPass) -> Verdicts:
    """Same inequality family as cdz, scanned only for t <= s.

    s = max{i : a[i-1] >= i-1}; any failure of the full family already
    occurs in this range, so the verdict coincides with cdz.
    """
    return _failure_columns(kernel.lhs, kernel.rhs, kernel.s + 1)


def _berge_necessary(kernel: KernelPass) -> Verdicts:
    """Prefix domination by the Berge sequence of b: necessary only.

    Holds iff sum(a[:t]) <= sum(berge(b)[:t]) = rhs(t) + eps(t) - D_b(t) for
    every t in 0..n.  The converse direction fails; see the crossval harness.
    """
    return _failure_columns(kernel.lhs, kernel.rhs + kernel.eps - kernel.deficit_b)


def _berge_sufficient(kernel: KernelPass) -> Verdicts:
    """Berge prefix domination sharpened by the parity correction: sufficient only.

    Holds iff sum(a[:t]) <= sum(berge(b)[:t]) - eps(t) = rhs(t) - D_b(t), t in 0..n.
    """
    return _failure_columns(kernel.lhs, kernel.rhs - kernel.deficit_b)


def _fulkerson(kernel: KernelPass) -> Verdicts:
    """Tail-sum family quantified over every admissible tail length m.

    Holds iff for all t in 0..n and all m in 0..n-t:
        sum(a[:t]) <= t(n-m-1) + sum(b[n-m:]) - eps(t).
    Reports the lexicographically smallest failing (t, m): t is scanned
    while some row holds, and at t the right-hand side over m is one
    (k, n-t+1) array whose first failing m is a masked argmax.
    """
    k, width = kernel.lhs.shape
    n = width - 1
    tails = kernel.tail[:, ::-1]  # tails[:, m] = sum(b[n-m:])
    rows = np.arange(k)
    holds = np.ones(k, dtype=bool)
    t_col, m_col, lhs_col, rhs_col = (np.zeros(k, dtype=np.int64) for _ in range(4))
    for t in range(width):
        if not holds.any():
            break
        m = np.arange(n - t + 1)
        rhs = t * (n - m - 1) + tails[:, :n - t + 1] - kernel.eps[:, t, None]
        lhs = kernel.lhs[:, t]
        fails = lhs[:, None] > rhs
        pick = fails.argmax(axis=1)
        hit = holds & fails[rows, pick]
        t_col[hit], m_col[hit] = t, pick[hit]
        lhs_col[hit], rhs_col[hit] = lhs[hit], rhs[rows, pick][hit]
        holds &= ~hit
    return Verdicts(holds, t_col, m_col, lhs_col, rhs_col)


def _bollobas_rhs(kernel: KernelPass) -> np.ndarray:
    """Bollobas's right-hand side, t(t-1) + sum(b[t:]) - D_a(t) - eps(t),
    as sum(min(a[i], t-1) for i < t) = t(t-1) - D_a(t)."""
    t = np.arange(kernel.lhs.shape[1])
    return t * (t - 1) + kernel.tail - kernel.deficit_a - kernel.eps


def _bollobas(kernel: KernelPass) -> Verdicts:
    """Clipped-lower-bound family.

    Holds iff for every t in 0..n:
        sum(a[:t]) <= sum(b[t:]) + sum(min(a[i], t-1) for i < t) - eps(t).
    """
    return _failure_columns(kernel.lhs, _bollobas_rhs(kernel))


def _grunbaum(kernel: KernelPass) -> Verdicts:
    """Raised-prefix family.

    Holds iff for every t in 0..n:
        sum(max(t-1, a[i]) for i < t) <= t(t-1) + sum(b[t:]) - eps(t).
    As max(t-1, x) = t-1 + x - min(x, t-1), this is Bollobas's family with
    D_a(t) added to both sides.
    """
    return _failure_columns(kernel.lhs + kernel.deficit_a, _bollobas_rhs(kernel) + kernel.deficit_a)


def _hasselbarth(kernel: KernelPass) -> Verdicts:
    """Conjugate-prefix family, scanned for t up to s-1.

    Holds iff sum(a[:t]) <= sum(conj(b)[:t]) - t - eps(t) for every t in
    0..s-1, where conj is the Ferrers conjugate and s = max{i : a[i-1] >= i-1}.
    That rhs is rhs(t) - D_b(t) - #{k < t : b[k] < t}, and for t < s every
    b[k] with k < t is at least a[s-1] >= s-1 >= t, so both corrections
    vanish: this is the CDZ family over t <= s-1, one short of cdz_reduced.
    """
    return _failure_columns(kernel.lhs, kernel.rhs, kernel.s)


def check_erdos_gallai_fixed(d: Sequence[int]) -> CriterionVerdict:
    """Classical graphicality test for a fixed non-increasing sequence.

    Holds iff sum(d) is even and for every k in 1..n:
        sum(d[:k]) <= k(k-1) + sum(min(d[j], k) for j >= k).
    An odd total is reported as witness_t = 0 with lhs 0, rhs -1,
    mirroring how the parity correction sinks the t = 0 inequality of
    check_cdz, so witness re-verification stays uniform.  The scan is the
    kernel pass on the point box (d; d), parity correction added back
    (its k = 0 term is 0 <= 0).  A d[0] past n-1 fails at k = 1, against
    the count of other positive entries, before the pass sees it.  An entry
    that is not an integer raises NonIntegerEntry; a numpy integer array
    gives the verdict of the equal tuple.
    """
    _require_integers(d, "sequence")
    require_non_increasing(d)
    _check_nonnegative(d, "sequence")
    if sum(d) % 2 == 1:
        return CriterionVerdict(False, witness_t=0, lhs=0, rhs=-1)
    if len(d) and d[0] > len(d) - 1:
        rhs = int(sum(x > 0 for x in d[1:]))
        return CriterionVerdict(False, witness_t=1, lhs=int(d[0]), rhs=rhs)
    kernel = kernel_pass([d], [d])
    return _failure_columns(kernel.lhs, kernel.rhs + kernel.eps).verdict(0)


def _gale_ryser(demand: np.ndarray, supply: np.ndarray) -> np.ndarray:
    """Row i: some 0-1 matrix has row sums demand[i] and column sums at most supply[i].

    By Gale (1957) and Ryser (1957) that holds iff for every k the k
    largest demands sum to at most sum(min(k, s) for s in supply[i]).  One
    sort of each row's demands gives the left sides, and a histogram of
    its supplies (capped at the number of demands) the right sides, as
    rhs(k + 1) = rhs(k) + #{s > k}.
    """
    k, top = demand.shape
    lhs = np.cumsum(np.sort(demand, axis=1)[:, ::-1], axis=1)
    capped = np.minimum(supply, top)
    above = supply.shape[1] - np.cumsum(_row_histogram(capped, top + 1), axis=1)[:, :top]
    return (lhs <= np.cumsum(above, axis=1)).all(axis=1)


def _lifted(x: np.ndarray) -> np.ndarray:
    """The tilde lift of each row: 1 added to its first g entries, g the
    largest i with x[i-1] >= i (0 if none)."""
    i = np.arange(1, x.shape[1] + 1)
    g = (i * (x >= i)).max(axis=1, initial=0)
    return x + (i <= g[:, None])


def _ryser_interval(kernel: KernelPass) -> Verdicts:
    """Necessary condition: the tilde interval system is bipartite realizable.

    Applies the tilde lift to a and b separately (each with its own
    crossing index) and decides feasibility of the symmetric bipartite
    interval system.  Its two Gale-Ryser families coincide, so one
    O(n log n) pass of the lifted lower bounds against the lifted upper
    bounds decides it.  Realizable pairs always pass; the converse fails.
    No witness indices apply, so a failing verdict carries none.
    """
    return Verdicts(_gale_ryser(_lifted(kernel.a), _lifted(kernel.b)))


EXACT, NECESSARY, SUFFICIENT = ("necessity", "sufficiency"), ("necessity",), ("sufficiency",)


class Criterion(NamedTuple):
    """One criterion: its row check, display name and gated arrows.

    ``check`` maps a kernel pass over k pairs to the criterion's verdict
    columns; sweeps and the implication matrix call it once per chunk.

    ``gated`` names the arrows a sweep gates to zero against the oracle:
    "necessity" flags an oracle-realizable instance the criterion fails,
    "sufficiency" a criterion-holding instance the oracle rejects.
    An exact criterion gates both, a necessary or sufficient one only its
    own.
    """

    check: Callable[[KernelPass], Verdicts]
    display: str
    gated: tuple[str, ...]


# Only the necessity of the classical-style interval generalizations is
# gated: their sufficiency is empirically false on some inputs (see the
# sweep harness), so none of them is a decision procedure here.
CRITERIA: dict[str, Criterion] = {
    "cdz": Criterion(_cdz, "CDZ", EXACT),
    "cdz_reduced": Criterion(_cdz_reduced, "CDZ-reduced", EXACT),
    "berge_necessary": Criterion(_berge_necessary, "Berge-necessary", NECESSARY),
    "berge_sufficient": Criterion(_berge_sufficient, "Berge-sufficient", SUFFICIENT),
    "fulkerson": Criterion(_fulkerson, "Fulkerson", NECESSARY),
    "bollobas": Criterion(_bollobas, "Bollobas", NECESSARY),
    "grunbaum": Criterion(_grunbaum, "Grunbaum", NECESSARY),
    "hasselbarth": Criterion(_hasselbarth, "Hasselbarth", NECESSARY),
    "ryser_interval": Criterion(_ryser_interval, "Ryser-interval", NECESSARY),
}


def _pair_view(name: str) -> Callable[[IntervalSequencePair], CriterionVerdict]:
    """CRITERIA[name] on one pair: its row check at k = 1, off the pair's kernel pass."""
    rows = CRITERIA[name].check

    def check(pair: IntervalSequencePair) -> CriterionVerdict:
        return rows(pair.kernel).verdict(0)

    check.__name__ = check.__qualname__ = f"check_{name}"
    check.__doc__ = rows.__doc__
    return check


CHECKERS: dict[str, Callable[[IntervalSequencePair], CriterionVerdict]] = {
    name: _pair_view(name) for name in CRITERIA
}
check_cdz = CHECKERS["cdz"]
check_cdz_reduced = CHECKERS["cdz_reduced"]
check_berge_necessary = CHECKERS["berge_necessary"]
check_berge_sufficient = CHECKERS["berge_sufficient"]
check_fulkerson = CHECKERS["fulkerson"]
check_bollobas = CHECKERS["bollobas"]
check_grunbaum = CHECKERS["grunbaum"]
check_hasselbarth = CHECKERS["hasselbarth"]
check_ryser_interval = CHECKERS["ryser_interval"]


@dataclass(frozen=True)
class CriteriaReport:
    """All criterion verdicts for one pair, in a fixed deterministic order."""

    verdicts: dict[str, CriterionVerdict]
    cdz_consistent: bool


def criteria_report(pair: IntervalSequencePair) -> CriteriaReport:
    """Run every ``CRITERIA`` row's checker, all off the pair's one kernel
    pass, and flag cdz/cdz_reduced disagreement.

    The flag must never be False; it exists so a regression cannot pass
    silently through aggregated reports.
    """
    verdicts = {name: check(pair) for name, check in CHECKERS.items()}
    consistent = verdicts["cdz"] == verdicts["cdz_reduced"]
    return CriteriaReport(verdicts=verdicts, cdz_consistent=consistent)
