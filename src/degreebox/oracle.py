"""Ground-truth enumeration and the criterion cross-validation harness.

The oracle counts, for every labelled degree vector, the edge subsets of
the complete graph K_n that produce it, by a dynamic program over the
edges, and keeps those counts as n-dimensional prefix sums (a summed-area
table), int32 and filled in place, for n <= MAX_EXHAUSTIVE_N = 8.  A box
query is then an exact inclusion-exclusion sum over the box's 2^n
corners.  The oracle never consults the criteria module, which is what
makes the agreement sweeps meaningful.

Every reader of the instance space (``enumerate_instances``,
``sample_instances``, a sweep ``cross_validate`` and the implication
matrix) reads one stream, ``_chunks``: every instance or a seeded
sample, in rank order, as chunks of up to SWEEP_CHUNK rows, two (k, n)
bound arrays each, with no per-instance Python object.  Up to 2^62
instances (n <= 14) each run of ranks is unranked at once, with one
running offset per rank and, per position, one searchsorted, one column
write and one step-table gather; past that, instances are drawn in O(n)
by stars and bars.  Each sweep chunk makes one oracle gather over its
boxes and one kernel pass, which ``criteria.evaluate`` maps to every
``criteria.CRITERIA`` row's verdict columns, and both sweeps count
through one product of the chunk's holds table, written row by row into
one array, with its transpose; a pair is built only for a matrix
example, from its row.  No row check is called here.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import criteria as _criteria
from .errors import InputError, TooLarge
from .sequences import IntervalSequencePair, kernel_pass

MAX_EXHAUSTIVE_N = 8
# The sweep's chunk sets this limit, not the draw: at n = 2000 one
# SWEEP_CHUNK-row chunk takes about 0.1 s in its kernel pass and 1.15 to 1.25 s
# in the O(n^2) Fulkerson row on 2 cores, and the sweep peaks at 172 MB RSS;
# the pass's memory grows with k * n
MAX_SAMPLE_N = 2000
# A sample holds at most this many cells (instances times n), counted
# before the draw: its ranks or cell rows are held whole.  Drawn and
# decoded at the bound it peaks at 138 to 146 MB RSS at n = 8 and 14,
# 248 MB (19.5 s) at n = 15 and 487 MB at n = 2000 on 2 cores
MAX_SAMPLE_CELLS = 10**7
# Instances per chunk of a sweep: about 2 KB of oracle indices each at n = 8
SWEEP_CHUNK = 256


class OracleResult(NamedTuple):
    realizable: bool
    witness_count: int


@lru_cache(maxsize=None)
def _count_grid(n: int):
    """Summed-area table of edge-subset degree vectors of K_n, plus corners.

    Before the prefix sums, cell d of the (n,)*n grid holds the number of
    edge subsets whose degree vector is d: each edge (u, v) either stays
    out or adds one to both d_u and d_v.  After them, cell x counts the
    subsets with degree vector <= x componentwise.  Every cell counts edge
    subsets, at most 2^(n(n-1)/2), which is at most 2^28 for n <= 8, so the
    grid is int32 and exact; past MAX_EXHAUSTIVE_N it would overflow, and n
    is refused before anything is allocated.  The grid is filled in place:
    edge (u, v) adds plane i-1 of axis u, shifted one along axis v, into
    plane i, for i from n-1 down to 1, so each plane is read before it
    changes, and two distinct planes share no memory, so numpy makes no
    temporary; each axis's prefix sum writes into the grid too.  The
    corners are the 2^n choices of "lower" or "upper" side per axis, as
    the 0/1 columns of ``lower_t`` (one per corner), with their
    inclusion-exclusion signs.  ``lower_t`` is float64 so that products
    with it run through BLAS; at the n <= 8 built here they are integers
    far below 2^53, so exact.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise TooLarge(f"oracle enumerates up to n = {MAX_EXHAUSTIVE_N}, got {n}")
    grid = np.zeros((n,) * n, dtype=np.int32)
    grid[(0,) * n] = 1
    for u, v in itertools.combinations(range(n), 2):
        dst = [slice(None)] * n
        src = [slice(None)] * n
        dst[v], src[v] = slice(1, None), slice(None, -1)
        for i in range(n - 1, 0, -1):
            dst[u], src[u] = i, i - 1
            grid[tuple(dst)] += grid[tuple(src)]
    for axis in range(n):
        np.cumsum(grid, axis=axis, out=grid)
    lower_t = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    signs = (-1) ** lower_t.sum(axis=0)
    strides = n ** np.arange(n - 1, -1, -1)
    return grid.ravel(), lower_t.astype(np.float64), signs, strides


def _box_counts(n: int, lows, highs) -> np.ndarray:
    """Witness counts of k >= 1 boxes on n vertices, given as (k, n) bound arrays.

    The count of edge subsets with lows[i] <= deg <= highs[i] is an
    inclusion-exclusion sum over the 2^n corners of box i, one summed-area
    lookup each; corners below zero on some axis count nothing.  Corner c
    takes lows[i, j] - 1 on the axes j it has lower and highs[i, j] on the
    rest, so its flat index is the upper corner's plus the lower axes'
    (lows - 1 - highs) * strides: all k * 2^n indices come from two small
    matrix products, with no corners array, and make one gather.  The
    float64 indices are exact and below n^n <= 2^24 in magnitude, so they
    are cast to int32 and let go; ``take`` reads int32 indices about as
    fast as int64 ones, where plain indexing is 2-3x slower.  The products
    stay float64: in float32, from max(lows - 1, 0), they are exact at
    n <= 8 too, but the CLI's exhaustive ``crossval 7`` ran 19-32 % slower.
    """
    cumulative, lower_t, signs, strides = _count_grid(n)
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    # a corner is outside iff it takes a lower side where lows is 0; its
    # index wraps to some other cell, so its lookup is zeroed
    outside = (lows == 0) @ lower_t > 0
    index = ((lows - 1 - highs) * strides) @ lower_t
    index += (highs @ strides)[:, None]
    index = index.astype(np.int32)
    counts = cumulative.take(index)
    counts[outside] = 0
    return counts @ signs


def oracle_realizable(pair: IntervalSequencePair) -> OracleResult:
    """Exhaustive decision plus the number of witnessing edge subsets: the
    one-box case of ``_box_counts``, over the pair's checked rows; past
    MAX_EXHAUSTIVE_N the table refuses n with ``TooLarge``."""
    count = int(_box_counts(pair.n, *pair._rows)[0])
    return OracleResult(count > 0, count)


@lru_cache(maxsize=None)
def _unrank_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rank route's binomials as two int64 tables, and the cells'
    bounds as two arrays.  Row r of the first holds -comb(L - x + r, r + 1)
    for every cell x of the L cells, increasing in x; row r of the second,
    the step, is row r - 1 of the first less row r, which by Pascal's rule
    is comb(L - x + r - 1, r + 1) >= 0 (row 0 is unused).  The largest
    magnitude is the size of the space, so both fit where that is at most
    2^62 (n <= 14)."""
    size = n * (n + 1) // 2
    table = np.array([[-comb(size - x + r, r + 1) for x in range(size)] for r in range(n)],
                     dtype=np.int64).reshape(n, size)
    steps = np.zeros_like(table)
    np.subtract(table[:-1], table[1:], out=steps[1:])
    lows, highs = _cell_bounds(n, np.arange(size))
    for array in (table, steps, lows, highs):
        array.flags.writeable = False  # shared by every caller
    return table, steps, lows, highs


def _unrank_rows(n: int, ranks) -> tuple[np.ndarray, np.ndarray]:
    """The instances at ranks, as (k, n) lower and upper bound arrays; for
    spaces of at most 2^62 instances.  Rank order lists the multisets of
    n cells in lexicographic order over the cells listed largest first
    (``_cell_bounds``), so each instance's cells come good-ordered.

    With L cells and r more to place after position pos, comb(L-x+r, r+1)
    multisets fill positions pos.. from cell x on.  Each rank carries one
    running offset, below = rank less the count of multisets from the
    current position's earliest possible cell on, so below < 0; the cell at
    pos is the largest x with -comb(L-x+r, r+1) <= below, for every rank at
    once: one searchsorted in row r of ``_unrank_table``'s binomials.
    Entry 0 of that row never exceeds below, so the search skips it, and
    the count of the later entries at most below is x itself.
    Fixing cell x leaves comb(L-x+r-1, r) multisets for the positions after
    it, and below moves up by the difference, row r of the step table at x.
    """
    table, steps, cell_lows, cell_highs = _unrank_table(n)
    total = instance_space_size(n)
    if isinstance(ranks, range):
        below = np.arange(ranks.start - total, ranks.stop - total, dtype=np.int64)
    else:
        below = np.asarray(ranks, dtype=np.int64) - total
    cell = np.empty((len(below), n), dtype=np.int64)
    for pos in range(n):
        r = n - pos - 1
        x = table[r, 1:].searchsorted(below, side="right")
        cell[:, pos] = x
        if r:
            below += steps[r].take(x)
    return cell_lows.take(cell), cell_highs.take(cell)


def _cell_bounds(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (a, b) of the cells at indices x, elementwise, in the cell
    order of rank order: all cells (a, b) with 0 <= a <= b <= n-1, largest
    first.  The cells with a = n-1-k run from index k(k+1)/2 with b falling
    from n-1, so k is the root with k(k+1)/2 <= x < (k+1)(k+2)/2."""
    x = np.asarray(x, dtype=np.int64)
    k = ((np.sqrt(8 * x + 1) - 1) // 2).astype(np.int64)
    # a rounded root is at most one off
    k -= k * (k + 1) // 2 > x
    k += (k + 1) * (k + 2) // 2 <= x
    return n - 1 - k, n - 1 - x + k * (k + 1) // 2


def instance_space_size(n: int) -> int:
    """Number of good-ordered pairs on n vertices: multisets of bound cells."""
    if n <= 0:
        return 1 if n == 0 else 0
    return comb(n * (n + 1) // 2 + n - 1, n)


def _draw_cells(rng: random.Random, n: int) -> tuple[int, ...]:
    """The cell indices, non-decreasing, of one uniform instance of size n:
    by stars and bars, x_i = s_i - i maps the n-subsets s_0 < ... < s_{n-1}
    of range(L + n - 1) one to one onto the multisets of n of the L cells."""
    subset = sorted(rng.sample(range(n * (n + 1) // 2 + n - 1), n))
    return tuple(s - i for i, s in enumerate(subset))


def _sample_ranks(n: int, count: int, seed: int) -> Sequence[int]:
    """Sorted ranks of a uniform sample without replacement, for spaces of
    at most 2^62 instances: every rank when count covers the space."""
    total = instance_space_size(n)
    if count >= total:
        return range(total)
    return sorted(random.Random(seed).sample(range(total), count))


def _sample_cells(n: int, count: int, seed: int) -> np.ndarray:
    """Cell index rows of a seeded sample without replacement of count
    instances (fewer than the space holds, or this never ends): a draw
    that repeats one already taken is dropped.  The rows are sorted
    lexicographically, which is rank order."""
    rng = random.Random(seed)
    picked: set[tuple[int, ...]] = set()
    while len(picked) < count:
        picked.add(_draw_cells(rng, n))
    return np.array(sorted(picked), dtype=np.int64).reshape(count, n)


def _chunks(n: int, sample: Optional[int] = None,
            seed: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The instance stream: every instance of size n (sample None) or a
    seeded uniform sample of that many without replacement, in rank order,
    as (k, n) lower and upper bound arrays of up to SWEEP_CHUNK rows.

    Ranks, all or sampled, are unranked a chunk at a time in spaces of at
    most 2^62 instances (n <= 14); past that, a sample is drawn by
    ``_sample_cells`` and decoded by ``_cell_bounds``.  A sample asking
    for more than the space holds is the whole space.  Every reader
    relies on it to check n and the sample size, before anything is drawn.
    """
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")
    if sample is None:
        if n > MAX_EXHAUSTIVE_N:
            raise TooLarge(f"exhaustive sweep supports n <= {MAX_EXHAUSTIVE_N}, got {n}; "
                           "pass a sample size")
        ranks = range(instance_space_size(n))
    else:
        if n > MAX_SAMPLE_N:
            raise TooLarge(f"sampling supports n <= {MAX_SAMPLE_N}, got {n}")
        if sample < 0:
            raise InputError(f"sample size must be >= 0, got {sample}")
        if min(sample, instance_space_size(n)) * n > MAX_SAMPLE_CELLS:
            raise InputError(f"a sample at n = {n} holds at most "
                             f"{MAX_SAMPLE_CELLS // n:,} instances, got {sample:,}")
        if instance_space_size(n) > 1 << 62:
            cells = _sample_cells(n, sample, seed)
            for start in range(0, sample, SWEEP_CHUNK):
                yield _cell_bounds(n, cells[start:start + SWEEP_CHUNK])
            return
        ranks = _sample_ranks(n, sample, seed)
    for start in range(0, len(ranks), SWEEP_CHUNK):
        yield _unrank_rows(n, ranks[start:start + SWEEP_CHUNK])


def _pairs(chunks) -> Iterator[IntervalSequencePair]:
    """One pair per row of the chunks, in order."""
    for lows, highs in chunks:
        for a, b in zip(lows.tolist(), highs.tolist()):
            yield IntervalSequencePair(tuple(a), tuple(b))


def enumerate_instances(n: int) -> Iterator[IntervalSequencePair]:
    """Every good-ordered pair with clamped bounds, each exactly once, in
    rank order; n <= MAX_EXHAUSTIVE_N."""
    yield from _pairs(_chunks(n))


def sample_instances(n: int, count: int, seed: int) -> list[IntervalSequencePair]:
    """Uniform sample without replacement from the good-ordered instance
    space, in rank order."""
    return list(_pairs(_chunks(n, count, seed)))


@dataclass
class SweepReport:
    """Aggregate of one oracle-vs-criteria sweep.

    ``cells[name]`` is a 2x2 tally keyed oracle outcome x criterion
    outcome, all zero past the oracle, where ``oracle_yes`` and
    ``cdz_oracle_disagreements`` are None; ``violations`` lists, verbatim,
    every instance breaking a gated arrow, in enumeration order.
    ``elapsed`` is informational and excluded from the canonical JSON so
    reports stay byte-reproducible.
    """

    n: int
    mode: str
    sample_size: Optional[int]
    seed: Optional[int]
    criteria: tuple[str, ...]
    instance_count: int
    oracle_used: bool
    oracle_yes: Optional[int]
    cells: dict
    holds_counts: dict
    violations: list
    cdz_oracle_disagreements: Optional[int]
    cdz_reduced_disagreements: int
    elapsed: float

    def to_json_dict(self) -> dict:
        report = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "elapsed"}
        return {"schema": "degreebox.sweep/1", **report, "criteria": list(self.criteria)}

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
        lines.append(f"cdz vs cdz_reduced disagreements: {self.cdz_reduced_disagreements}")
        lines.append(f"gated violations: {len(self.violations)}")
        for v in self.violations[:20]:
            lines.append(f"  {v}")
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        lines.append(f"elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines) + "\n"


def cross_validate(n: int, sample: Optional[int] = None, seed: int = 0) -> SweepReport:
    """Evaluate every ``criteria.CRITERIA`` row against the oracle over the
    instance space at size n.

    Exhaustive for n <= MAX_EXHAUSTIVE_N = 8 (all 145,008,513 instances
    there); a seeded uniform sample is required beyond that
    (where the oracle is unavailable and only criterion-vs-criterion
    tallies are reported).  Reports are deterministic given (n, sample,
    seed).

    Each chunk writes the oracle's realizable column (all zero past the
    oracle) and then each row's holds into one (C+1, k) 0/1 table H and
    adds H @ H.T to the tally: entry (0, 0) counts the realizable
    instances, (i, i) the ones row i holds on and (0, i) the realizable
    ones among those, which give a criterion's four cells.  A gated arrow
    breaks where a row's holds differs from the realizable column: its
    necessity where that is 1, its sufficiency where it is 0.  The
    violations are one ``np.nonzero`` over a (C+1, k) mask of broken
    arrows, row 0 cdz_reduced against cdz, read in (instance, row) order.
    """
    if sample is not None and sample < 1:
        raise InputError(f"sample must be >= 1, got {sample}")
    names = tuple(_criteria.CRITERIA)
    oracle_used = n <= MAX_EXHAUSTIVE_N
    # a row's gated arrows, as (C, 1) columns against the chunk's (C, k) holds
    gated = [row.gated for row in _criteria.CRITERIA.values()]
    necessity, sufficiency = np.array([[arrow in g for g in gated]
                                       for arrow in ("necessity", "sufficiency")])[..., None]
    tally = np.zeros((len(names) + 1,) * 2)
    violations = []
    start = time.perf_counter()
    index = 0
    for lows, highs in _chunks(n, sample, seed):
        verdicts = _criteria.evaluate(kernel_pass(lows, highs))
        table = np.zeros((len(names) + 1, len(lows)))
        for row, v in zip(table[1:], verdicts.values()):
            row[:] = v.holds
        realizable = table[0]
        broken = np.zeros(table.shape, dtype=bool)
        broken[0] = _criteria.cdz_inconsistent(verdicts)
        if oracle_used:
            np.greater(_box_counts(n, lows, highs), 0, out=realizable)
            np.logical_and(table[1:] != realizable, np.where(realizable, necessity, sufficiency),
                           out=broken[1:])
        tally += table @ table.T  # one BLAS product; float64 counts far below 2^53 are exact
        # transposed, the flags come in (instance, row) order
        for i, row in zip(*(axis.tolist() for axis in np.nonzero(broken.T))):
            if row == 0:
                name, arrow = "cdz_reduced", "reduced-vs-full"
            else:
                name, arrow = names[row - 1], "necessity" if realizable[i] else "sufficiency"
            verdict = verdicts[name].verdict(i)
            violations.append({"instance_index": index + i, "a": lows[i].tolist(), "b": highs[i].tolist(),
                               "criterion": name, "direction": arrow,
                               "witness_t": verdict.witness_t, "witness_m": verdict.witness_m})
        index += len(lows)
    elapsed = time.perf_counter() - start
    counts = tally.astype(np.int64).tolist()
    yes = counts[0][0]
    held = [counts[i][i] for i in range(1, len(counts))]
    keys = ("oracle_yes_holds", "oracle_yes_fails", "oracle_no_holds", "oracle_no_fails")
    # past the oracle every cell is zero
    cells = {name: dict(zip(keys, (y, yes - y, h - y, index - yes - h + y) if oracle_used else (0,) * 4))
             for name, h, y in zip(names, held, counts[0][1:])}
    return SweepReport(
        n=n, mode="exhaustive" if sample is None else "sample", sample_size=sample,
        seed=None if sample is None else seed, criteria=names, instance_count=index,
        oracle_used=oracle_used, oracle_yes=yes if oracle_used else None, cells=cells,
        holds_counts=dict(zip(names, held)), violations=violations,
        cdz_oracle_disagreements=(cells["cdz"]["oracle_yes_fails"] + cells["cdz"]["oracle_no_holds"]
                                  if oracle_used else None),
        # row 0 of the broken mask; cdz_reduced's gated arrows share its name
        cdz_reduced_disagreements=sum(v["direction"] == "reduced-vs-full" for v in violations),
        elapsed=elapsed)


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


def implication_matrix(n: int) -> ImplicationMatrix:
    """Tally x-holds/y-fails over the exhaustive space at n, for every
    ``criteria.CRITERIA`` row; like every exhaustive reader, it is bounded
    to n <= MAX_EXHAUSTIVE_N, but it refuses a larger n itself, since the
    stream's refusal points to a sample, which the matrix does not take.

    Each chunk writes each row's holds into one (C, k) 0/1 table H and
    adds H @ H.T to a tally of the instances two rows both hold on, so cell (x, y) is entry (x, x) less
    (x, y).  A cell's example is taken in the chunk where the cell first
    becomes nonzero: that chunk's first instance where x holds and y fails.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise TooLarge(f"exhaustive sweep supports n <= {MAX_EXHAUSTIVE_N}, got {n}; "
                       "the matrix covers every instance")
    names = tuple(_criteria.CRITERIA)
    tally = np.zeros((len(names),) * 2)
    counts = np.zeros_like(tally)
    examples: dict = {}
    total = 0
    for lows, highs in _chunks(n):
        total += len(lows)
        table = np.empty((len(names), len(lows)))
        for row, v in zip(table, _criteria.evaluate(kernel_pass(lows, highs)).values()):
            row[:] = v.holds
        tally += table @ table.T
        fresh = counts == 0
        counts = tally.diagonal()[:, None] - tally
        for x, y in np.argwhere(fresh & (counts > 0)).tolist():
            i = int((table[x] > table[y]).argmax())
            examples[(names[x], names[y])] = IntervalSequencePair(lows[i], highs[i])
    counts = counts.astype(np.int64).tolist()
    return ImplicationMatrix(criteria=names, instance_count=total, examples=examples,
                             counts={(x, y): counts[i][j] for i, x in enumerate(names)
                                     for j, y in enumerate(names) if i != j})
