"""Bound pairs and the sequence transforms the realizability criteria are built from.

A *bound pair* is two integer vectors a, b of equal length n with
0 <= a[i] <= b[i] <= n-1; it asks for a simple graph on n vertices whose
i-th degree lies in [a[i], b[i]].  The pair is in *good order* when the
per-vertex cells (a[i], b[i]) are non-increasing lexicographically
(first by a, then by b).

Vertex indices are 0-based throughout.  Arguments named ``t`` (and the
derived quantities ``s``, ``g``, ``f``) are prefix lengths, i.e. counts
of leading entries, not element indices.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    LowerExceedsMaxDegree,
    LowerExceedsUpper,
    NegativeEntry,
    NotGoodOrder,
    NotNonIncreasing,
)

DegreeSequence = tuple[int, ...]


class KernelPass(NamedTuple):
    """The CDZ kernel's columns over a batch of k pairs of equal size n.

    a and b are the (k, n) bound arrays.  Column t of each (k, n+1) array
    is, row by row: lhs = sum(a[:t]), rhs = t(t-1) + sum(min(t, b[j]) for
    j >= t) - eps(t), the parity correction eps(t), tail = sum(b[t:]), and
    the head deficits D_a(t), D_b(t), with D_x(t) = sum(max(0, t-1-x[k])
    for k < t).  s[i] = #{j : a[i, j] >= j}, which is max{t : a[t-1] >= t-1}
    when row i is in good order.  Every criterion is read off these columns.
    """

    a: np.ndarray
    b: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    eps: np.ndarray
    tail: np.ndarray
    deficit_a: np.ndarray
    deficit_b: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class IntervalSequencePair:
    """Per-vertex degree bounds a[i] <= b[i] for a simple graph on n vertices."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.a)

    @cached_property
    def kernel(self) -> KernelPass:
        """This pair's kernel pass, a batch of one, built on first use after
        the good-order check (which raises NotGoodOrder, and caches nothing,
        on unordered input); every later read returns the same pass."""
        a, b = np.array([self.a], dtype=np.int64), np.array([self.b], dtype=np.int64)
        _require_good_order_rows(a, b)
        return kernel_pass(a, b)


@dataclass(frozen=True)
class NormalizedInstance:
    """A good-ordered pair plus the permutation back to the input labeling.

    ``perm[i]`` is the original position of normalized position i, so
    ``original_a[perm[i]] == pair.a[i]`` (and likewise for b).
    """

    pair: IntervalSequencePair
    perm: tuple[int, ...]


def _check_nonnegative(seq: Sequence[int], name: str) -> None:
    for x in seq:
        if x < 0:
            raise NegativeEntry(f"{name} contains negative entry {x}")


def require_non_increasing(seq: Sequence[int]) -> None:
    for i in range(len(seq) - 1):
        if seq[i] < seq[i + 1]:
            raise NotNonIncreasing(f"entry {i + 1} increases: {seq[i]} < {seq[i + 1]}")


def _int64_column(seq: Sequence[int]) -> np.ndarray:
    """seq as an int64 array; a Python int beyond int64 saturates to its range.

    Every check on a bound compares it with 0 or n-1, so a saturated entry
    is rejected or clamped exactly where the Python int would be.
    """
    try:
        return np.fromiter(seq, np.int64, len(seq))
    except OverflowError:
        info = np.iinfo(np.int64)
        return np.fromiter((min(max(x, info.min), info.max) for x in seq), np.int64, len(seq))


def _validated_columns(a: Sequence[int], b: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """a and b as int64 columns, b clamped to n-1, checked as masks.

    Raises what ``normalize_good_order`` documents, naming the first
    offending entry.  A lower bound above n-1 also exceeds its clamped
    upper bound, so one mask finds the first index of either error.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"lower has length {len(a)}, upper has length {len(b)}")
    n = len(a)
    lo, hi = _int64_column(a), _int64_column(b)
    for column, seq, name in ((lo, a, "lower bounds"), (hi, b, "upper bounds")):
        negative = column < 0
        if negative.any():
            raise NegativeEntry(f"{name} contains negative entry {seq[int(negative.argmax())]}")
    hi = np.minimum(hi, n - 1)
    above = lo > hi
    if above.any():
        i = int(above.argmax())
        if lo[i] > n - 1:
            raise LowerExceedsMaxDegree(f"a[{i}] = {a[i]} exceeds n-1 = {n - 1}")
        raise LowerExceedsUpper(f"a[{i}] = {a[i]} exceeds b[{i}] = {hi[i]} after clamping")
    return lo, hi


def _good_order_rows(a, b) -> np.ndarray:
    """Row i of the (k, n) bounds a, b is in good order: no cell (a, b) is
    lexicographically above the one before it."""
    rise_a = np.diff(np.asarray(a, dtype=np.int64), axis=1)
    rise_b = np.diff(np.asarray(b, dtype=np.int64), axis=1)
    return ~((rise_a > 0) | ((rise_a == 0) & (rise_b > 0))).any(axis=1)


def _require_good_order_rows(a, b) -> None:
    if not _good_order_rows(a, b).all():
        raise NotGoodOrder("bound pair is not in good order; normalize first")


def require_good_order(pair: IntervalSequencePair) -> None:
    _require_good_order_rows([pair.a], [pair.b])


def normalize_good_order(a: Sequence[int], b: Sequence[int]) -> NormalizedInstance:
    """Validate, clamp, and stably sort the cells into good order.

    Each upper bound is clamped to n-1: degrees in a simple graph cannot
    exceed it, so clamping b does not change realizability.  A lower bound
    above n-1 is rejected outright (LowerExceedsMaxDegree), as are paired
    vectors of different lengths (LengthMismatch), negative entries
    (NegativeEntry) and a lower bound above its clamped upper bound
    (LowerExceedsUpper).  The checks run as int64 masks over both vectors;
    entries past int64 are decided as their Python values would be.  The
    cells are then sorted by a descending, then b descending, as one
    stable argsort of the int64 key a*n + b (0 <= b < n keeps it
    lexicographic); ties keep input order, so the recorded permutation is
    deterministic.
    """
    lo, hi = _validated_columns(a, b)
    order = np.argsort(-(lo * len(lo) + hi), kind="stable")
    pair = IntervalSequencePair(tuple(lo[order].tolist()), tuple(hi[order].tolist()))
    return NormalizedInstance(pair, tuple(order.tolist()))


def _berge_rows(d) -> np.ndarray:
    """The Berge sequence of every row of a (k, n) batch, entries in 0..n-1
    unchecked: the column sums of the zero-diagonal 0-1 matrix whose row k
    carries d[k] ones in the leading columns, skipping the diagonal cell
    (k, k).  Column j is P(j+1) - P(j) for P(t) = rhs(t) + eps(t) - D_d(t),
    so all rows come from one kernel pass on the point boxes (d; d)."""
    kernel = kernel_pass(d, d)
    return np.diff(kernel.rhs + kernel.eps - kernel.deficit_b, axis=1)


def conjugate_sequence(d: Sequence[int]) -> DegreeSequence:
    """Ferrers conjugate: entry j counts the entries of d that are >= j+1."""
    n = len(d)
    _check_nonnegative(d, "sequence")
    return tuple(sum(1 for x in d if x >= j + 1) for j in range(n))


def crossing_index(d: Sequence[int]) -> int:
    """Largest i (1-based position, i.e. prefix length) with d[i-1] >= i; 0 if none."""
    g = 0
    for i, x in enumerate(d, start=1):
        if x >= i:
            g = i
    return g


def _cdz_terms(a: Sequence[int], b: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """Yield (lhs, rhs, eps) of the CDZ inequality for t = 0, 1, ..., n.

    lhs = sum(a[:t]) and rhs = t(t-1) + sum(min(t, b[j]) for j >= t) - eps(t).
    With S(t) = {j >= t : b[j] > t}, the tail sum is
    sum(b[t:]) - sum(b[S]) + t*|S|, and eps(t) needs only |S|, sum(b[S]) and
    whether S has an unforced cell (a < b).  Histograms of b (all suffix
    cells, and unforced ones) keep all three up to date as t advances, so
    the whole scan is O(n) and a caller may stop it early.  Any order of
    the cells works; entries of b must lie in 0..n-1.
    """
    n = len(a)
    count = [0] * (n + 1)  # count[v], v > t: cells j >= t with b[j] == v
    loose_count = [0] * (n + 1)  # the same, unforced cells only
    for lo, hi in zip(a, b):
        count[hi] += 1
        loose_count[hi] += lo < hi
    size, total, loose = n, sum(b), sum(loose_count)
    tail = total
    lhs = 0
    for t in range(n + 1):
        # raise the threshold to t: cells with b == t leave S
        size -= count[t]
        total -= t * count[t]
        loose -= loose_count[t]
        eps = (total + t * size) % 2 if loose == 0 else 0
        yield lhs, t * (t - 1) + tail - total + t * size - eps, eps
        if t < n:
            # move cell t from the suffix into the prefix
            lo, hi = a[t], b[t]
            lhs += lo
            tail -= hi
            if hi > t:
                size -= 1
                total -= hi
                loose -= lo < hi
                count[hi] -= 1
                loose_count[hi] -= lo < hi


def kernel_pass(a, b) -> KernelPass:
    """The kernel's columns for a (k, n) batch of bounds a, b, in O(kn).

    Every column is a per-row histogram of a threshold, summed up to t.
    Cell j lies in S(t) = {j >= t : b[j] > t} iff t < min(j, b[j] - 1) + 1,
    so |S(t)|, the b-sum over S(t) and its unforced (a < b) cells, like
    sum(b[t:]), are histograms summed from the top down.  Head k adds
    t - 1 - x[k] to D_x(t) from t = max(k + 1, x[k] + 2) on, so D_x(t) is
    t * #{heads started} - sum(1 + x[k] over them), and these, like
    sum(a[:t]), are histograms summed from the bottom up.  All nine
    histograms are one bincount, in float64, which is exact while each
    row's weights (at most n per cell) sum below 2^53.  Any order of the
    cells works; entries of b must lie in 0..n-1.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    k, n = a.shape
    t = np.arange(n + 1)
    index = np.empty((9, k, n), dtype=np.int64)
    weights = np.ones((9, k, n))
    index[:3] = np.minimum(t[:-1], b - 1) + 1  # |S(t)|, its b-sum, its unforced cells
    weights[1], weights[2] = b, a < b
    index[3:5] = t[1:]  # sum(b[t:]), sum(a[:t])
    weights[3], weights[4] = b, a
    index[5:7] = np.maximum(t[1:], a + 2)  # heads started in D_a, their 1 + a[k]
    weights[6] = a + 1
    index[7:] = np.maximum(t[1:], b + 2)  # the same for D_b
    weights[8] = b + 1
    hist = _row_histogram(index.reshape(9 * k, n), n + 2, weights).reshape(9, k, n + 2)
    # summed from the top, column c counts entries >= c: the value at t is column t + 1
    size, total, loose, tail = np.cumsum(hist[:4, :, :0:-1], axis=2)[:, :, ::-1]
    lhs, started_a, offset_a, started_b, offset_b = np.cumsum(hist[4:, :, :-1], axis=2)
    eps = np.where(loose == 0, (total + t * size) % 2, 0)
    rhs = t * (t - 1) + tail - total + t * size - eps
    return KernelPass(a, b, lhs, rhs, eps, tail, t * started_a - offset_a,
                      t * started_b - offset_b, (a >= t[:-1]).sum(axis=1))


def _row_histogram(index: np.ndarray, width: int, weights=None) -> np.ndarray:
    """Row i's bincount of index[i] (entries in 0..width-1), as a (k, width) int64 array.

    A weighted bincount comes back as float64; it is exact, and so is the
    cast back, while every row's weight sum stays below 2^53.
    """
    k = len(index)
    flat = (index + width * np.arange(k)[:, None]).ravel()
    weights = None if weights is None else weights.ravel()
    counts = np.bincount(flat, weights, minlength=k * width)
    return counts.astype(np.int64, copy=False).reshape(k, width)


def _reduced_range(a: Sequence[int]) -> int:
    """s = max{i : a[i-1] >= i-1} for non-increasing a (0 when a is empty).

    a[i] - i strictly decreases, so the qualifying prefix lengths form an
    initial run and s is found by bisection.
    """
    return bisect_left(range(len(a)), True, key=lambda i: a[i] < i)


def max_sum_identities_hold(p: Sequence[int], t: int) -> bool:
    """Check two truncation identities on the length-t prefix of p.

    Both rewrite the clipped prefix sum: with q[i] = p[i] for i < t,

        sum q[i] + sum max(-t+1, -q[i])
            == sum max(0, q[i] - t + 1)
            == sum (max(t-1, q[i]) - (t-1)).

    These hold for every nonnegative p; a failure indicates a bug in the
    caller's arithmetic, not in the input.
    """
    if not 1 <= t <= len(p):
        raise IndexOutOfRange(f"t = {t} not in [1, {len(p)}]")
    _check_nonnegative(p, "sequence")
    prefix = p[:t]
    lhs = sum(prefix) + sum(max(-t + 1, -x) for x in prefix)
    rhs_pos = sum(max(0, x - t + 1) for x in prefix)
    rhs_max = sum(max(t - 1, x) - (t - 1) for x in prefix)
    return lhs == rhs_pos == rhs_max
