"""Realizability criteria for bound pairs in good order, declared in one table.

Every criterion is an inequality family over the columns of the CDZ
kernel pass, ``sequences.kernel_pass``, and is written once, as a row
check that maps a whole batch of k pairs of equal size n to verdict
columns: holds, and the smallest failing witness t (and tail length m
for Fulkerson) with both sides of the inequality.  The smallest failing
t is an argmax over the (k, n+1) comparison.  cdz_reduced and hasselbarth
are read off cdz's scan, and grunbaum off bollobas's; each of those two
scans is made once per kernel pass, on first read.  The Fulkerson row
scans the (t, m) triangle in blocks of t, each one 3-D compare, so a
256-row sweep chunk up to n = 31 makes a single compare.  The Ryser interval row
is one Gale-Ryser pass over the tilde system, whose bound rows
``_lifted`` builds; it is the package's only Gale-Ryser code.

``CRITERIA`` declares each criterion once, and every reader looks its
rows up at the call.  ``evaluate`` maps a kernel pass to every row's
verdict columns; ``criteria_report`` reads it on one pair and both
sweeps on a chunk of instances, and ``cdz_inconsistent`` is their one
test of cdz against cdz_reduced.  The per-pair checkers (``check_cdz``,
..., ``CHECKERS``) are the k = 1 view of one row each, off the pair's
cached ``IntervalSequencePair.kernel``, so ``check_cdz``, the exact
decision, and ``criteria_report`` on one pair share one pass.  On a
point box (d; d), ``check_cdz`` decides whether the fixed sequence d is
graphic.  Verdicts are reproducible and can be re-verified by direct
evaluation.  Checkers never re-sort their input; callers normalize first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable, NamedTuple, Optional

import numpy as np

from .sequences import IntervalSequencePair, KernelPass, _row_histogram


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


def _failure_columns(lhs: np.ndarray, rhs: np.ndarray) -> Verdicts:
    """Row by row, the smallest t with lhs[i, t] > rhs[i, t].

    The first True of each row of the (k, n+1) failure mask is its argmax;
    a row whose argmax is False has no failure.
    """
    fails = lhs > rhs
    rows = np.arange(len(fails))
    t = fails.argmax(axis=1)
    return Verdicts(~fails[rows, t], t, None, lhs[rows, t], rhs[rows, t])


def _shared(row: Callable[[KernelPass], Verdicts]) -> Callable[[KernelPass], Verdicts]:
    """row as a scan other rows derive from: made on its first call on a
    kernel pass and kept in the pass's ``scans``, so every later call, by
    the row or by one derived from it, returns the same columns."""

    @wraps(row)
    def once(kernel: KernelPass) -> Verdicts:
        if row not in kernel.scans:
            kernel.scans[row] = row(kernel)
        return kernel.scans[row]

    return once


def _below(verdicts: Verdicts, stop: np.ndarray) -> Verdicts:
    """The family's verdicts with t scanned only below stop[i].

    A row's first failure below its stop is its first failure overall, if
    that lies below the stop, so only holds changes; the witness columns
    are shared, not copied.
    """
    return verdicts._replace(holds=verdicts.holds | (verdicts.t >= stop))


@_shared
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
    occurs in this range, so the verdict coincides with cdz.  It is read
    off cdz's scan: a first failure past s would make it hold where cdz
    fails, which the sweeps count.
    """
    return _below(_cdz(kernel), kernel.s + 1)


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


# Cells (row, t, m) per compare of the Fulkerson scan; it sets a block's height
_FULKERSON_BLOCK_CELLS = 2 ** 18
# Stands for t*m past m = n-t, where no tail length exists: no c(t) + _NO_TAIL
# exceeds a tail sum
_NO_TAIL = np.iinfo(np.int64).min // 2


def _fulkerson(kernel: KernelPass) -> Verdicts:
    """Tail-sum family quantified over every admissible tail length m.

    Holds iff for all t in 0..n and all m in 0..n-t:
        sum(a[:t]) <= t(n-m-1) + sum(b[n-m:]) - eps(t).
    With c(t) = sum(a[:t]) + eps(t) - t(n-1), (t, m) fails iff
    c(t) + t*m > sum(b[n-m:]).  The (t, m) triangle is scanned in blocks of
    B consecutive t from t0 on: one 3-D compare of every row against a
    (B, n-t0+1) table of t*m, with _NO_TAIL past m = n-t, whose first True
    in a row's flattened block is the row's lexicographically smallest
    failing (t, m) if the row held before t0.  B is _FULKERSON_BLOCK_CELLS
    over k(n+1), at least 1: a 256-row chunk is one block up to n = 31 and
    one t per block from n = 512 on, and a single pair one block up to
    n = 511.  Failed rows stay in the compare, as dropping them saved no
    time on sampled chunks at n = 40 to 2000; the scan stops once no row
    holds.  It makes O(n^2) compares per row.
    """
    k, width = kernel.lhs.shape
    n = width - 1
    tails = kernel.tail[:, ::-1]  # tails[:, m] = sum(b[n-m:])
    t = np.arange(width)
    c = kernel.lhs + kernel.eps - t * (n - 1)
    step = max(1, _FULKERSON_BLOCK_CELLS // (max(k, 1) * width))
    rows = np.arange(k)
    holds = np.ones(k, dtype=bool)
    t_col, m_col = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    for t0 in range(0, width, step):
        ts, m = t[t0:t0 + step, None], t[:width - t0]
        table = np.where(m <= n - ts, ts * m, _NO_TAIL)
        fails = c[:, t0:t0 + step, None] + table > tails[:, None, :width - t0]
        fails = fails.reshape(k, table.size)  # k = 0 takes no -1 here
        first = fails.argmax(axis=1)
        found = holds & fails[rows, first]  # a row that failed before t0 keeps its witness
        holds &= ~found
        # first is j*w + m for t = t0 + j, w = n-t0+1, so first + t0*w is t*w + m
        t_col[found], m_col[found] = np.divmod(first[found] + t0 * (width - t0), width - t0)
        if not holds.any():
            break
    rhs = t_col * (n - m_col - 1) + kernel.tail[rows, n - m_col] - kernel.eps[rows, t_col]
    return Verdicts(holds, t_col, m_col, kernel.lhs[rows, t_col], rhs)


@_shared
def _bollobas(kernel: KernelPass) -> Verdicts:
    """Clipped-lower-bound family.

    Holds iff for every t in 0..n:
        sum(a[:t]) <= sum(b[t:]) + sum(min(a[i], t-1) for i < t) - eps(t).
    The clipped sum is t(t-1) - D_a(t).
    """
    t = np.arange(kernel.lhs.shape[1])
    return _failure_columns(kernel.lhs, t * (t - 1) + kernel.tail - kernel.deficit_a - kernel.eps)


def _grunbaum(kernel: KernelPass) -> Verdicts:
    """Raised-prefix family.

    Holds iff for every t in 0..n:
        sum(max(t-1, a[i]) for i < t) <= t(t-1) + sum(b[t:]) - eps(t).
    As max(t-1, x) = t-1 + x - min(x, t-1), this is Bollobas's family with
    D_a(t) added to both sides, which changes no comparison; so it is
    Bollobas's scan with D_a added to both sides of each witness.
    """
    bollobas = _bollobas(kernel)
    raised = kernel.deficit_a[np.arange(len(kernel.lhs)), bollobas.t]
    return bollobas._replace(lhs=bollobas.lhs + raised, rhs=bollobas.rhs + raised)


def _hasselbarth(kernel: KernelPass) -> Verdicts:
    """Conjugate-prefix family, scanned for t up to s-1.

    Holds iff sum(a[:t]) <= sum(conj(b)[:t]) - t - eps(t) for every t in
    0..s-1, where conj is the Ferrers conjugate and s = max{i : a[i-1] >= i-1}.
    That rhs is rhs(t) - D_b(t) - #{k < t : b[k] < t}, and for t < s every
    b[k] with k < t is at least a[s-1] >= s-1 >= t, so both corrections
    vanish: this is the CDZ family over t <= s-1, one short of cdz_reduced,
    and it is read off cdz's scan.
    """
    return _below(_cdz(kernel), kernel.s)


def _gale_ryser(demand: np.ndarray, supply: np.ndarray) -> np.ndarray:
    """Row i: some 0-1 matrix has row sums demand[i] and column sums at most supply[i].

    By Gale (1957) and Ryser (1957) that holds iff for every k the k
    largest demands sum to at most sum(min(k, s) for s in supply[i]).
    Each row of demand must be non-increasing, so its prefix sums are the
    left sides; a histogram of its supplies (capped at the number of
    demands) gives the right sides, as rhs(k + 1) = rhs(k) + #{s > k}.
    """
    k, top = demand.shape
    lhs = demand.cumsum(axis=1)
    capped = np.minimum(supply, top)
    above = supply.shape[1] - _row_histogram(capped, top + 1)[0].cumsum(axis=1)[:, :top]
    return (lhs <= above.cumsum(axis=1)).all(axis=1)


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
    O(n) pass of the lifted lower bounds against the lifted upper bounds
    decides it; in good order a is non-increasing, and so is its lift.
    Realizable pairs always pass; the converse fails.  No witness indices
    apply, so a failing verdict carries none.
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
    """CRITERIA[name] on one pair: the row check the table holds at the
    call, at k = 1, off the pair's kernel pass."""

    def check(pair: IntervalSequencePair) -> CriterionVerdict:
        return CRITERIA[name].check(pair.kernel).verdict(0)

    check.__name__ = check.__qualname__ = f"check_{name}"
    check.__doc__ = CRITERIA[name].check.__doc__
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


def evaluate(kernel: KernelPass) -> dict[str, Verdicts]:
    """Every ``CRITERIA`` row's verdict columns over the kernel pass, by
    name in table order, each row read from the table at the call."""
    return {name: row.check(kernel) for name, row in CRITERIA.items()}


def cdz_inconsistent(verdicts: dict[str, Verdicts]) -> np.ndarray:
    """Rows on which the cdz and cdz_reduced verdicts of ``evaluate``
    differ as CriterionVerdicts: in holds or, where both fail, in a witness
    column (a column against None differs on every such row)."""
    x, y = verdicts["cdz"], verdicts["cdz_reduced"]
    differ = x.holds != y.holds
    for cx, cy in zip(x[1:], y[1:]):
        if cx is cy:  # both None, or one column shared, as ``_below`` shares them
            continue
        differ |= ~x.holds & (True if cx is None or cy is None else cx != cy)
    return differ


def criteria_report(pair: IntervalSequencePair) -> CriteriaReport:
    """Every ``CRITERIA`` row's verdict on the pair, all off its one kernel
    pass, and the flag for cdz/cdz_reduced disagreement, row 0 of
    ``cdz_inconsistent``.

    The flag must never be False; it exists so a regression cannot pass
    silently through aggregated reports.
    """
    verdicts = evaluate(pair.kernel)
    return CriteriaReport(verdicts={name: v.verdict(0) for name, v in verdicts.items()},
                          cdz_consistent=not cdz_inconsistent(verdicts)[0])
