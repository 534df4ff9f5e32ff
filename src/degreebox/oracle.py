"""Ground-truth enumeration and the criterion cross-validation harness.

The oracle counts, for every labelled degree vector, the edge subsets of
the complete graph K_n that produce it, by a dynamic program over the
edges, and keeps those counts as n-dimensional prefix sums (a summed-area
table).  A box query is then an exact inclusion-exclusion sum over the
box's 2^n corners.  It never consults the criteria module, which is what
makes the agreement sweeps meaningful.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import criteria as _criteria
from .errors import InputError, TooLarge, UnknownCriterion
from .sequences import IntervalSequencePair

MAX_EXHAUSTIVE_N = 7
MAX_MATRIX_N = 6

ALL_CRITERIA = {name: row.check for name, row in _criteria.CRITERIA.items()}
DEFAULT_SWEEP_CRITERIA = tuple(
    name for name, row in _criteria.CRITERIA.items() if row.scope != _criteria.NAMED
)


class OracleResult(NamedTuple):
    realizable: bool
    witness_count: int


@lru_cache(maxsize=None)
def _count_grid(n: int):
    """Summed-area table of edge-subset degree vectors of K_n, plus corners.

    Before the prefix sums, cell d of the (n,)*n grid holds the number of
    edge subsets whose degree vector is d: each edge (u, v) either stays
    out or adds one to both d_u and d_v.  After them, cell x counts the
    subsets with degree vector <= x componentwise.  The corners are the
    2^n choices of "lower" or "upper" side per axis with their
    inclusion-exclusion signs.
    """
    grid = np.zeros((n,) * n, dtype=np.int64)
    grid[(0,) * n] = 1
    for u, v in itertools.combinations(range(n), 2):
        dst = [slice(None)] * n
        src = [slice(None)] * n
        dst[u] = dst[v] = slice(1, None)
        src[u] = src[v] = slice(None, -1)
        grid[tuple(dst)] = grid[tuple(dst)] + grid[tuple(src)]
    for axis in range(n):
        grid = np.cumsum(grid, axis=axis)
    lower = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    signs = (-1) ** lower.sum(axis=1)
    strides = n ** np.arange(n - 1, -1, -1)
    return grid.ravel(), lower, signs, strides


def oracle_realizable(pair: IntervalSequencePair) -> OracleResult:
    """Exhaustive decision plus the number of witnessing edge subsets.

    The count of subsets with a_i <= deg_i <= b_i is an inclusion-exclusion
    sum over the 2^n corners of the box, one summed-area lookup each;
    corners below zero on some axis count nothing and are dropped.
    """
    if pair.n > MAX_EXHAUSTIVE_N:
        raise TooLarge(f"oracle enumerates up to n = {MAX_EXHAUSTIVE_N}, got {pair.n}")
    cumulative, lower, signs, strides = _count_grid(pair.n)
    a = np.asarray(pair.a, dtype=np.int64)
    b = np.asarray(pair.b, dtype=np.int64)
    corners = np.where(lower, a - 1, b)
    inside = (corners >= 0).all(axis=1)
    count = int(signs[inside] @ cumulative[corners[inside] @ strides])
    return OracleResult(count > 0, count)


def oracle_decide(pair: IntervalSequencePair) -> bool:
    """Decision-only view of oracle_realizable."""
    return oracle_realizable(pair).realizable


def _require_size(n: int) -> None:
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")


def _cells(n: int) -> list[tuple[int, int]]:
    """All bound cells (a, b) with 0 <= a <= b <= n-1, largest first."""
    cells = [(a, b) for b in range(n) for a in range(b + 1)]
    cells.sort(key=lambda c: (-c[0], -c[1]))
    return cells


def _pair_of(cells: Sequence[tuple[int, int]]) -> IntervalSequencePair:
    """The pair whose i-th cell (a[i], b[i]) is cells[i]."""
    return IntervalSequencePair(tuple(c[0] for c in cells), tuple(c[1] for c in cells))


def instance_space_size(n: int) -> int:
    """Number of good-ordered pairs on n vertices: multisets of bound cells."""
    if n <= 0:
        return 1 if n == 0 else 0
    return comb(n * (n + 1) // 2 + n - 1, n)


def enumerate_instances(n: int) -> Iterator[IntervalSequencePair]:
    """Every good-ordered pair with clamped bounds, each exactly once.

    Order is deterministic: cell multisets in lexicographic order over
    cells listed largest-first, so within each instance the cells are
    already good-ordered.
    """
    _require_size(n)
    if n > MAX_EXHAUSTIVE_N:
        raise TooLarge(f"exhaustive instance space supports n <= {MAX_EXHAUSTIVE_N}")
    for combo in itertools.combinations_with_replacement(_cells(n), n):
        yield _pair_of(combo)


def unrank_instance(n: int, rank: int) -> IntervalSequencePair:
    """The rank-th pair of enumerate_instances(n), computed directly."""
    cells = _cells(n)
    total = instance_space_size(n)
    if not 0 <= rank < total:
        raise IndexError(f"rank {rank} not in [0, {total})")
    combo = []
    c = 0
    for pos in range(n):
        remaining = n - pos - 1
        while True:
            # tails: multisets of size `remaining` drawn from cells c..end
            tails = comb(len(cells) - c + remaining - 1, remaining)
            if rank < tails:
                break
            rank -= tails
            c += 1
        combo.append(cells[c])
    return _pair_of(combo)


def sample_instances(n: int, count: int, seed: int) -> list[IntervalSequencePair]:
    """Uniform sample without replacement from the good-ordered instance space."""
    total = instance_space_size(n)
    if count >= total:
        return list(enumerate_instances(n))
    rng = random.Random(seed)
    if total <= 1 << 62:
        ranks = sorted(rng.sample(range(total), count))
    else:  # len() of a huge range overflows; fall back to rejection sampling
        picked: set[int] = set()
        while len(picked) < count:
            picked.add(rng.randrange(total))
        ranks = sorted(picked)
    return [unrank_instance(n, r) for r in ranks]


def random_instances(
    count: int, max_n: int, seed: int
) -> Iterator[IntervalSequencePair]:
    """Seeded stream of good-ordered pairs with 1 <= n <= max_n.

    Sizes and cells are drawn uniformly; cells are sorted into good order.
    Used by the randomized equivalence suites where exhaustion is out of
    reach.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        cells = []
        for _ in range(n):
            hi = rng.randint(0, n - 1)
            cells.append((rng.randint(0, hi), hi))
        cells.sort(key=lambda c: (-c[0], -c[1]))
        yield _pair_of(cells)


def _resolve_criteria(names: Optional[Sequence[str]]) -> tuple[str, ...]:
    if names is None:
        return DEFAULT_SWEEP_CRITERIA
    for name in names:
        if name not in ALL_CRITERIA:
            raise UnknownCriterion(
                f"unknown criterion {name!r}; available: {', '.join(sorted(ALL_CRITERIA))}"
            )
    return tuple(names)


@dataclass
class SweepReport:
    """Aggregate of one oracle-vs-criteria sweep.

    ``cells[name]`` is a 2x2 tally keyed oracle outcome x criterion
    outcome; ``violations`` lists, verbatim, every instance breaking a
    gated arrow, in enumeration order.  ``elapsed`` is informational and
    excluded from the canonical JSON so reports stay byte-reproducible.
    """

    n: int
    mode: str
    sample_size: Optional[int]
    seed: Optional[int]
    criteria: tuple[str, ...]
    instance_count: int = 0
    oracle_used: bool = True
    oracle_yes: int = 0
    cells: dict = field(default_factory=dict)
    holds_counts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    cdz_oracle_disagreements: Optional[int] = None
    cdz_reduced_disagreements: Optional[int] = None
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema": "degreebox.sweep/1",
            "n": self.n,
            "mode": self.mode,
            "sample_size": self.sample_size,
            "seed": self.seed,
            "criteria": list(self.criteria),
            "instance_count": self.instance_count,
            "oracle_used": self.oracle_used,
            "oracle_yes": self.oracle_yes if self.oracle_used else None,
            "cells": self.cells,
            "holds_counts": self.holds_counts,
            "violations": self.violations,
            "cdz_oracle_disagreements": self.cdz_oracle_disagreements,
            "cdz_reduced_disagreements": self.cdz_reduced_disagreements,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"sweep n={self.n} mode={self.mode}"
            + (f" sample={self.sample_size} seed={self.seed}" if self.mode == "sample" else ""),
            f"instances: {self.instance_count}"
            + (f", oracle-realizable: {self.oracle_yes}" if self.oracle_used else " (oracle skipped)"),
        ]
        if self.oracle_used:
            header = f"{'criterion':<18}{'yes/holds':>10}{'yes/fails':>10}{'no/holds':>10}{'no/fails':>10}"
            lines.append(header)
            for name in self.criteria:
                c = self.cells[name]
                lines.append(
                    f"{name:<18}{c['oracle_yes_holds']:>10}{c['oracle_yes_fails']:>10}"
                    f"{c['oracle_no_holds']:>10}{c['oracle_no_fails']:>10}"
                )
            lines.append(f"cdz vs oracle disagreements: {self.cdz_oracle_disagreements}")
        else:
            for name in self.criteria:
                lines.append(f"{name:<18} holds on {self.holds_counts[name]} instances")
        if self.cdz_reduced_disagreements is not None:
            lines.append(f"cdz vs cdz_reduced disagreements: {self.cdz_reduced_disagreements}")
        lines.append(f"gated violations: {len(self.violations)}")
        for v in self.violations[:20]:
            lines.append(f"  {v}")
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        lines.append(f"elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines) + "\n"


def cross_validate(
    n: int,
    criteria: Optional[Sequence[str]] = None,
    sample: Optional[int] = None,
    seed: int = 0,
) -> SweepReport:
    """Evaluate criteria against the oracle over the instance space at size n.

    Exhaustive for n <= 7; a seeded uniform sample is required beyond that
    (where the oracle is unavailable and only criterion-vs-criterion
    tallies are reported).  Reports are deterministic given (n, criteria,
    sample, seed).
    """
    _require_size(n)
    if sample is not None and sample < 1:
        raise InputError(f"sample must be >= 1, got {sample}")
    names = _resolve_criteria(criteria)
    if "cdz" not in names:
        names = ("cdz",) + names
    if sample is None:
        if n > MAX_EXHAUSTIVE_N:
            raise TooLarge(
                f"exhaustive sweep supports n <= {MAX_EXHAUSTIVE_N}; pass sample="
            )
        instances: Iterable[IntervalSequencePair] = enumerate_instances(n)
        report = SweepReport(n=n, mode="exhaustive", sample_size=None, seed=None, criteria=names)
    else:
        instances = sample_instances(n, sample, seed)
        report = SweepReport(n=n, mode="sample", sample_size=sample, seed=seed, criteria=names)
    report.oracle_used = n <= MAX_EXHAUSTIVE_N
    report.cells = {
        name: {
            "oracle_yes_holds": 0,
            "oracle_yes_fails": 0,
            "oracle_no_holds": 0,
            "oracle_no_fails": 0,
        }
        for name in names
    }
    report.holds_counts = dict.fromkeys(names, 0)
    track_reduced = "cdz_reduced" in names
    if track_reduced:
        report.cdz_reduced_disagreements = 0

    start = time.perf_counter()
    for index, pair in enumerate(instances):
        report.instance_count += 1
        verdicts = {name: ALL_CRITERIA[name](pair) for name in names}
        if track_reduced and verdicts["cdz"] != verdicts["cdz_reduced"]:
            report.cdz_reduced_disagreements += 1
            report.violations.append(
                _violation(index, pair, "cdz_reduced", "reduced-vs-full", verdicts["cdz_reduced"])
            )
        for name in names:
            report.holds_counts[name] += verdicts[name].holds
        if not report.oracle_used:
            continue
        realizable = oracle_decide(pair)
        report.oracle_yes += int(realizable)
        for name in names:
            verdict = verdicts[name]
            key = (
                "oracle_yes_holds" if realizable and verdict.holds
                else "oracle_yes_fails" if realizable
                else "oracle_no_holds" if verdict.holds
                else "oracle_no_fails"
            )
            report.cells[name][key] += 1
            arrow = "necessity" if realizable else "sufficiency"  # the arrow a disagreement breaks
            if verdict.holds != realizable and arrow in _criteria.CRITERIA[name].gated:
                report.violations.append(_violation(index, pair, name, arrow, verdict))
    report.elapsed = time.perf_counter() - start
    if report.oracle_used:
        cdz = report.cells["cdz"]
        report.cdz_oracle_disagreements = cdz["oracle_yes_fails"] + cdz["oracle_no_holds"]
    return report


def _violation(index, pair, name, direction, verdict) -> dict:
    return {
        "instance_index": index,
        "a": list(pair.a),
        "b": list(pair.b),
        "criterion": name,
        "direction": direction,
        "witness_t": verdict.witness_t,
        "witness_m": verdict.witness_m,
    }


@dataclass
class ImplicationMatrix:
    """Pairwise criterion implication tallies over a set of instances.

    ``counts[(x, y)]`` is the number of instances where x holds and y
    fails; a zero cell supports "x implies y".  Each nonzero cell stores
    the first counterexample encountered.
    """

    criteria: tuple[str, ...]
    instance_count: int
    counts: dict
    examples: dict

    def cell(self, x: str, y: str) -> int:
        return self.counts[(x, y)]

    def example(self, x: str, y: str):
        return self.examples.get((x, y))

    def to_json_dict(self) -> dict:
        return {
            "schema": "degreebox.matrix/1",
            "criteria": list(self.criteria),
            "instance_count": self.instance_count,
            "cells": {
                f"{x}->{y}": c for (x, y), c in sorted(self.counts.items()) if c
            },
            "examples": {
                f"{x}->{y}": {"a": list(p.a), "b": list(p.b)}
                for (x, y), p in sorted(self.examples.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        width = max(len(c) for c in self.criteria) + 2
        lines = [f"implication matrix over {self.instance_count} instances"]
        lines.append("cells count instances where ROW holds and COLUMN fails")
        header = " " * width + "".join(f"{c:>{width}}" for c in self.criteria)
        lines.append(header)
        for x in self.criteria:
            row = f"{x:<{width}}"
            for y in self.criteria:
                row += f"{'-' if x == y else self.counts[(x, y)]:>{width}}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def implication_matrix(
    n: Optional[int] = None,
    pairs: Optional[Iterable[IntervalSequencePair]] = None,
    criteria: Optional[Sequence[str]] = None,
) -> ImplicationMatrix:
    """Tally x-holds/y-fails over the exhaustive space at n, or explicit pairs."""
    names = _resolve_criteria(criteria)
    if pairs is None:
        if n is None:
            raise ValueError("pass either n or pairs")
        _require_size(n)
        if n > MAX_MATRIX_N:
            raise TooLarge(f"implication matrix supports n <= {MAX_MATRIX_N}")
        pairs = enumerate_instances(n)
    counts = {(x, y): 0 for x in names for y in names if x != y}
    examples: dict = {}
    total = 0
    for pair in pairs:
        total += 1
        holds = {name: ALL_CRITERIA[name](pair).holds for name in names}
        if all(holds.values()):
            continue
        for x in names:
            if not holds[x]:
                continue
            for y in names:
                if x != y and not holds[y]:
                    counts[(x, y)] += 1
                    examples.setdefault((x, y), pair)
    return ImplicationMatrix(
        criteria=names, instance_count=total, counts=counts, examples=examples
    )
