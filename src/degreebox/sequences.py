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
from typing import Iterator, Sequence

from .errors import (
    EntryTooLarge,
    IndexOutOfRange,
    LengthMismatch,
    LowerExceedsMaxDegree,
    LowerExceedsUpper,
    NegativeEntry,
    NotGoodOrder,
    NotNonIncreasing,
)

DegreeSequence = tuple[int, ...]


@dataclass(frozen=True)
class IntervalSequencePair:
    """Per-vertex degree bounds a[i] <= b[i] for a simple graph on n vertices."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class NormalizedInstance:
    """A good-ordered pair plus the permutation back to the input labeling.

    ``perm[i]`` is the original position of normalized position i, so
    ``original_a[perm[i]] == pair.a[i]`` (and likewise for b).
    """

    pair: IntervalSequencePair
    perm: tuple[int, ...]


@dataclass(frozen=True)
class IndexProfile:
    """Crossing indices of a bound pair.

    s   largest i with a[i-1] >= i-1 (always >= 1 for n >= 1)
    g_a largest i with a[i-1] >= i (0 if none)
    g_b largest i with b[i-1] >= i (0 if none)
    """

    s: int
    g_a: int
    g_b: int


def _check_nonnegative(seq: Sequence[int], name: str) -> None:
    for x in seq:
        if x < 0:
            raise NegativeEntry(f"{name} contains negative entry {x}")


def require_non_increasing(seq: Sequence[int]) -> None:
    for i in range(len(seq) - 1):
        if seq[i] < seq[i + 1]:
            raise NotNonIncreasing(f"entry {i + 1} increases: {seq[i]} < {seq[i + 1]}")


def validate_and_clamp(a: Sequence[int], b: Sequence[int]) -> IntervalSequencePair:
    """Build a pair, clamping each upper bound to n-1.

    Degrees in a simple graph cannot exceed n-1, so clamping b does not
    change realizability; a lower bound above n-1 is rejected outright.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"lower has length {len(a)}, upper has length {len(b)}")
    _check_nonnegative(a, "lower bounds")
    _check_nonnegative(b, "upper bounds")
    n = len(a)
    clamped = tuple(min(x, n - 1) for x in b)
    for i, (lo, hi) in enumerate(zip(a, clamped)):
        if lo > n - 1:
            raise LowerExceedsMaxDegree(f"a[{i}] = {lo} exceeds n-1 = {n - 1}")
        if lo > hi:
            raise LowerExceedsUpper(f"a[{i}] = {lo} exceeds b[{i}] = {hi} after clamping")
    return IntervalSequencePair(tuple(a), clamped)


def is_good_order(pair: IntervalSequencePair) -> bool:
    """True iff the cells (a[i], b[i]) are lexicographically non-increasing."""
    a, b = pair.a, pair.b
    for i in range(pair.n - 1):
        if a[i + 1] > a[i] or (a[i + 1] == a[i] and b[i + 1] > b[i]):
            return False
    return True


def require_good_order(pair: IntervalSequencePair) -> None:
    if not is_good_order(pair):
        raise NotGoodOrder("bound pair is not in good order; normalize first")


def normalize_good_order(a: Sequence[int], b: Sequence[int]) -> NormalizedInstance:
    """Validate, clamp, and stably sort the cells into good order.

    Ties keep input order, so the recorded permutation is deterministic.
    """
    pair = validate_and_clamp(a, b)
    order = sorted(range(pair.n), key=lambda i: (-pair.a[i], -pair.b[i]))
    sorted_pair = IntervalSequencePair(
        tuple(pair.a[i] for i in order), tuple(pair.b[i] for i in order)
    )
    return NormalizedInstance(sorted_pair, tuple(order))


def berge_sequence(d: Sequence[int]) -> DegreeSequence:
    """Column sums of the zero-diagonal left-packed 0-1 matrix of d.

    Row k carries d[k] ones in the leading columns, skipping the diagonal
    cell (k, k).  Requires every entry <= n-1; preserves the total sum.
    """
    n = len(d)
    _check_nonnegative(d, "sequence")
    for k, x in enumerate(d):
        if x > n - 1:
            raise EntryTooLarge(f"entry d[{k}] = {x} exceeds n-1 = {n - 1}")
    out = []
    for j in range(n):
        count = 0
        for k, x in enumerate(d):
            if k > j:
                if x >= j + 1:
                    count += 1
            elif k < j:
                if x >= j:
                    count += 1
        out.append(count)
    return tuple(out)


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


def tilde_sequence(d: Sequence[int]) -> DegreeSequence:
    """Add 1 to the first g entries, g = crossing_index(d); input non-increasing."""
    require_non_increasing(d)
    return _tilde_unchecked(d)


def _tilde_unchecked(d: Sequence[int]) -> DegreeSequence:
    g = crossing_index(d)
    return tuple(x + 1 if i < g else x for i, x in enumerate(d))


def parity_support(pair: IntervalSequencePair, t: int) -> frozenset[int]:
    """Vertices past the prefix whose upper bound exceeds t.

    Returns the 0-based indices j with j >= t and b[j] >= t+1; this is
    the support over which the parity correction is evaluated.
    """
    if not 0 <= t <= pair.n:
        raise IndexOutOfRange(f"t = {t} not in [0, {pair.n}]")
    return frozenset(j for j in range(t, pair.n) if pair.b[j] >= t + 1)


def parity_correction(pair: IntervalSequencePair, t: int) -> int:
    """1 iff all supported bounds are forced (a = b) and their sum has bad parity.

    On the support S = parity_support(pair, t) the correction is 1 exactly
    when a[j] = b[j] for every j in S and sum(b[j] for j in S) + t*|S| is
    odd; the empty support gives 0.
    """
    if not 0 <= t <= pair.n:
        raise IndexOutOfRange(f"t = {t} not in [0, {pair.n}]")
    return parity_corrections(pair)[t]


def parity_corrections(pair: IntervalSequencePair) -> tuple[int, ...]:
    """The parity correction eps(t) for every t in 0..n, in one O(n) pass.

    This is the eps column of _cdz_terms, so eps has a single implementation.
    """
    return tuple(eps for _, _, eps in _cdz_terms(pair.a, pair.b))


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


def _reduced_range(a: Sequence[int]) -> int:
    """s = max{i : a[i-1] >= i-1} for non-increasing a (0 when a is empty).

    a[i] - i strictly decreases, so the qualifying prefix lengths form an
    initial run and s is found by bisection.
    """
    return bisect_left(range(len(a)), True, key=lambda i: a[i] < i)


def crossing_indices(pair: IntervalSequencePair) -> IndexProfile:
    """Compute s, g_a and g_b for a good-ordered pair."""
    require_good_order(pair)
    return IndexProfile(
        s=_reduced_range(pair.a), g_a=crossing_index(pair.a), g_b=crossing_index(pair.b)
    )


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
