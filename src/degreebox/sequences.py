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

from dataclasses import FrozenInstanceError
from functools import cached_property
import operator
import struct
from typing import Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    LowerExceedsMaxDegree,
    LowerExceedsUpper,
    NegativeEntry,
    NonIntegerEntry,
    NotGoodOrder,
    UpperExceedsMaxDegree,
)


class KernelPass:
    """The CDZ kernel's columns over a batch of k pairs of equal size n.

    a and b are the (k, n) bound arrays.  Column t of each (k, n+1) array
    is, row by row: lhs = sum(a[:t]), rhs = t(t-1) + sum(min(t, b[j]) for
    j >= t) - eps(t), the parity correction eps(t), tail = sum(b[t:]), and
    the head deficits D_a(t), D_b(t), with D_x(t) = sum(max(0, t-1-x[k])
    for k < t).  s[i] = #{j : a[i, j] >= j}, which is max{t : a[t-1] >= t-1}
    when row i is in good order.  Every criterion is read off these columns.
    ``kernel_pass`` builds lhs, rhs, eps and tail, all the exact decision
    reads; D_a and D_b are built together, and s alone, on first read.
    ``scans`` holds the criterion scans that other rows derive from, by
    row, each made on its first read (``criteria``); nobody writes their
    columns.
    """

    def __init__(self, a, b, lhs, rhs, eps, tail):
        self.a, self.b, self.lhs, self.rhs, self.eps, self.tail = a, b, lhs, rhs, eps, tail
        self.scans = {}

    @cached_property
    def _deficits(self) -> np.ndarray:
        """D_a and D_b as one (2, k, n+1) array.

        Head j adds t - 1 - x[j] to D_x(t) from t = max(j + 1, x[j] + 2)
        on, so D_x(t) is t * #{heads started} - sum(1 + x[j] over them):
        for x = a and x = b, two histograms of the start, one unweighted
        and one weighted by x + 1, over the 2k rows of the stacked (a, b),
        summed from the bottom up.
        """
        x = np.array((self.a, self.b))
        _, k, n = x.shape
        t = np.arange(n + 1)
        start = np.maximum(t[1:], x + 2).reshape(2 * k, n)
        hist = _row_histogram(start, n + 2, x + 1)
        started, offset = hist.reshape(2, 2, k, n + 2)[..., :-1].cumsum(axis=3)
        return t * started - offset

    @property
    def deficit_a(self) -> np.ndarray:
        return self._deficits[0]

    @property
    def deficit_b(self) -> np.ndarray:
        return self._deficits[1]

    @cached_property
    def s(self) -> np.ndarray:
        return (self.a >= np.arange(self.a.shape[1])).sum(axis=1)


class _Record:
    """A frozen record whose fields may be built on first read.

    Equality, hashing and repr read the fields named in ``_fields``, as a
    frozen dataclass's would; an instance's state lives in its ``__dict__``,
    so a field built on first read is a ``cached_property``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class IntervalSequencePair(_Record):
    """Per-vertex degree bounds a[i] <= b[i] for a simple graph on n vertices.

    The pair's state is its checked (1, n) int64 rows ``_rows``.  A pair
    built directly keeps the a and b it was given as tuples (an array's
    through ``tolist``) and makes and checks the rows on first use; a pair
    ``normalize_good_order`` builds keeps the rows it sorted, and makes a
    and b, tuples of Python ints, on first read.  Equality, hashing and
    repr compare and show the tuples, whichever way the pair was built.
    """

    _fields = ("a", "b")
    # a pair normalize_good_order builds is in good order by construction
    _in_good_order = False

    def __init__(self, a: Sequence[int], b: Sequence[int]):
        a, b = (tuple(x.tolist() if isinstance(x, np.ndarray) else x) for x in (a, b))
        vars(self).update(a=a, b=b, n=len(a))

    @classmethod
    def _of_rows(cls, a: np.ndarray, b: np.ndarray) -> IntervalSequencePair:
        """The pair whose bounds are the checked (1, n) int64 rows a, b, in
        good order, which it keeps as its ``_rows``."""
        pair = cls.__new__(cls)
        vars(pair).update(_rows=(a, b), n=a.shape[1], _in_good_order=True)
        return pair

    @cached_property
    def a(self) -> tuple[int, ...]:
        return tuple(self._rows[0][0].tolist())

    @cached_property
    def b(self) -> tuple[int, ...]:
        return tuple(self._rows[1][0].tolist())

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """a and b as (1, n) int64 rows, built on first use and checked as
        masks: a pair ``normalize_good_order`` rejects raises what it
        raises, and an upper bound above n-1, which it clamps,
        UpperExceedsMaxDegree; a pair that fails caches nothing."""
        lo, hi, _ = _validated_columns(self.a, self.b)
        above = hi > self.n - 1
        if above.any():
            i = int(above.argmax())
            raise UpperExceedsMaxDegree(f"b[{i}] = {self.b[i]} exceeds n-1 = {self.n - 1}")
        return lo[None], hi[None]

    @cached_property
    def kernel(self) -> KernelPass:
        """This pair's kernel pass, a batch of one over its checked rows,
        built on first use after the good-order check (which raises
        NotGoodOrder, and caches nothing, on unordered input); every later
        read returns the same pass."""
        require_good_order(self)
        return kernel_pass(*self._rows)


class NormalizedInstance(_Record):
    """A good-ordered pair plus the permutation back to the input labeling.

    ``perm[i]`` is the original position of normalized position i, so
    ``original_a[perm[i]] == pair.a[i]`` (and likewise for b).  The
    instance keeps a copy of the perm it was given as an array, so the
    caller's list or array cannot change it later, and makes ``perm``, a
    tuple of Python ints, on first read; equality and hashing compare it.
    """

    _fields = ("pair", "perm")

    def __init__(self, pair: IntervalSequencePair, perm: Sequence[int]):
        vars(self).update(pair=pair, _order=np.array(perm))

    @cached_property
    def perm(self) -> tuple[int, ...]:
        return tuple(self._order.tolist())


_INT64 = np.iinfo(np.int64)


def _int64_column(seq: Sequence[int], name: str) -> np.ndarray:
    """seq as an int64 array, refusing an entry that is not an integer with
    NonIntegerEntry, which names the first as ``name[i]``.

    An entry is an integer iff ``operator.index`` accepts it (a Python int
    or bool, a numpy integer, a 0-d integer array, any object with
    ``__index__``) or it is a numpy bool; a float, a str, a Fraction, None
    or a row of a 2-D array is not.  An integer past int64 saturates to its
    range: every check on a bound compares it with 0 or n-1, so a saturated
    entry is rejected or clamped exactly where the Python int would be.

    Every vector, list, tuple or array, takes one ``struct`` pack, which
    converts every entry through ``__index__`` and refuses any entry
    without it or past int64, so the integer check costs nothing more.
    Only when the pack fails does a scan apply the rule above entry by
    entry; it tests for a numpy bool by type first.  numpy >= 2 refuses a
    numpy bool's ``__index__``, so such an entry always reaches the scan.
    numpy < 2 accepts it with a DeprecationWarning: where warnings are
    errors the scan takes over, and elsewhere the pack keeps the entry's
    value and the warning reaches the caller.
    """
    try:
        return np.frombuffer(struct.pack(f"{len(seq)}q", *seq), np.int64)
    except (struct.error, TypeError, DeprecationWarning):
        pass
    values = []
    for i, x in enumerate(seq):
        if isinstance(x, np.bool_):
            x = bool(x)
        else:
            try:
                x = operator.index(x)
            except TypeError:
                raise NonIntegerEntry(f"{name}[{i}] = {x!r} is not an integer") from None
        values.append(min(max(x, _INT64.min), _INT64.max))
    return np.array(values, dtype=np.int64)


def _validated_columns(a: Sequence[int], b: Sequence[int]) -> tuple[np.ndarray, ...]:
    """a, b and b clamped to n-1, as int64 columns, checked as masks.

    Raises what ``normalize_good_order`` documents, naming the first
    offending entry.  ``_int64_column`` converts a, then b, and refuses a
    non-integer entry as it converts, so a's is named before b's.  Valid
    bounds then pass one fused mask,
    0 <= a[i] <= min(b[i], n-1), whose clamped b is returned with them;
    only when it fails do the scans below run to tell the errors apart.
    A lower bound above n-1 also exceeds its clamped upper bound, so one
    mask finds the first index of either.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"lower has length {len(a)}, upper has length {len(b)}")
    n = len(a)
    lo, hi = _int64_column(a, "a"), _int64_column(b, "b")
    clamped = np.minimum(hi, n - 1)
    if ((lo >= 0) & (lo <= clamped)).all():
        return lo, hi, clamped
    for column, seq, name in ((lo, a, "lower bounds"), (hi, b, "upper bounds")):
        negative = column < 0
        if negative.any():
            raise NegativeEntry(f"{name} contains negative entry {seq[int(negative.argmax())]}")
    i = int((lo > clamped).argmax())
    if lo[i] > n - 1:
        raise LowerExceedsMaxDegree(f"a[{i}] = {a[i]} exceeds n-1 = {n - 1}")
    raise LowerExceedsUpper(f"a[{i}] = {a[i]} exceeds b[{i}] = {clamped[i]} after clamping")


def _good_order_rows(a, b) -> np.ndarray:
    """Row i of the (k, n) bounds a, b is in good order: no cell (a, b) is
    lexicographically above the one before it.  With b in 0..n-1 the key
    a*n + b orders the cells lexicographically, so no key may rise."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    key = a * a.shape[1] + b
    return (key[:, 1:] <= key[:, :-1]).all(axis=1)


def require_good_order(pair: IntervalSequencePair) -> None:
    """Raise unless the pair's checked rows are in good order; a pair
    ``normalize_good_order`` built is, by construction, and skips the scan."""
    if not pair._in_good_order and not _good_order_rows(*pair._rows).all():
        raise NotGoodOrder("bound pair is not in good order; normalize first")


def normalize_good_order(a: Sequence[int], b: Sequence[int]) -> NormalizedInstance:
    """Validate, clamp, and stably sort the cells into good order.

    Each upper bound is clamped to n-1: degrees in a simple graph cannot
    exceed it, so clamping b does not change realizability.  A lower bound
    above n-1 is rejected outright (LowerExceedsMaxDegree), as are paired
    vectors of different lengths (LengthMismatch), entries that are not
    integers (NonIntegerEntry), negative entries (NegativeEntry) and a
    lower bound above its clamped upper bound (LowerExceedsUpper).  An
    entry is an integer iff ``operator.index`` accepts it or it is a numpy
    bool, so any object with ``__index__`` counts, and a float, a str or a
    Fraction does not.  Each vector becomes an int64 column by one
    ``struct`` pack, which checks every entry as it converts.  The checks
    run as int64 masks over both columns; entries past int64 are decided
    as their Python values would be.

    The cells are sorted by a descending, then b descending, ties in input
    order, so the recorded permutation is deterministic: a plain sort of
    the distinct int64 keys ((n-1-a)*n + (n-1-b)) * 2^m + i, with 2^m the
    least power of two >= n, whose low m bits are the order.  Each key is
    (n^2 - 1) * 2^m - (a*n + b) * 2^m + i, built in one buffer.  The keys
    stay below n^2 * 2^m, which reaches 2^63 at n = 2,097,152 (2^21), so
    from there on a stable argsort of a*n + b sorts instead.  The pair
    keeps the sorted rows and the instance the order; the tuples
    ``pair.a``, ``pair.b`` and ``perm`` are built on first read.
    """
    lo, _, hi = _validated_columns(a, b)
    n = len(lo)
    m = max(n - 1, 0).bit_length()
    if n * n << m < 2 ** 63:
        c = (n * n - 1) << m
        key = lo * n
        key += hi
        key *= -(1 << m)
        key += np.arange(c, c + n)
        order = np.sort(key)
        order &= (1 << m) - 1
    else:
        order = np.argsort(-(lo * n + hi), kind="stable")
    pair = IntervalSequencePair._of_rows(lo.take(order)[None], hi.take(order)[None])
    return NormalizedInstance(pair, order)


def kernel_pass(a, b) -> KernelPass:
    """The kernel pass of a (k, n) batch of bounds a, b, in O(kn).

    It builds the columns the exact decision reads.  lhs and tail are
    prefix and suffix sums of a and b.  Cell j lies in
    S(t) = {j >= t : b[j] > t} iff t < min(j + 1, b[j]), so |S(t)|, the
    b-sum over S(t) and its unforced (a < b) cells are histograms of that
    threshold summed from the top down: one flat index, three bincounts
    (unweighted, weighted by b, weighted by a < b) into one int64 table.
    A weighted bincount counts in float64, which is exact while each
    row's weights (at most n per cell) sum below 2^53.  The b-sum less
    t|S(t)| is what the cells of S(t) lose to the clip at t, so rhs is
    t(t-1) + tail less that, less eps, and eps is its parity where S(t)
    has no unforced cell.  The head deficits and s wait for their first
    read (``KernelPass``).  Any order of the cells works; entries of b
    must lie in 0..n-1.  The bounds are read, never written, so int64
    arrays are kept without a copy.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    k, n = a.shape
    t = np.arange(n + 1)
    lhs = np.zeros((k, n + 1), dtype=np.int64)
    tail = np.zeros((k, n + 1), dtype=np.int64)
    a.cumsum(axis=1, out=lhs[:, 1:])
    b[:, ::-1].cumsum(axis=1, out=tail[:, -2::-1])
    hist = _row_histogram(np.minimum(t[1:], b), n + 2, b, a < b)
    # summed from the top, column c counts entries >= c: the value at t is column t + 1
    size, total, loose = hist[:, :, :0:-1].cumsum(axis=2)[:, :, ::-1]
    clipped = total - t * size
    eps = clipped & (loose == 0)
    rhs = tail - clipped
    rhs -= eps
    rhs += t * (t - 1)
    return KernelPass(a, b, lhs, rhs, eps, tail)


def _row_histogram(index: np.ndarray, width: int, *weights: np.ndarray) -> np.ndarray:
    """Row i's bincount of index[i] (entries in 0..width-1), then one per
    weight array (of index's size, in its order), as a
    (1 + len(weights), k, width) int64 table.

    Every bincount reads one flat index.  A weighted bincount counts in
    float64; it is exact, and so is the cast into the table, while every
    row's weight sum stays below 2^53.
    """
    k = len(index)
    size = k * width
    flat = (index + np.arange(0, size, width)[:, None]).ravel()
    counts = np.empty((1 + len(weights), size), dtype=np.int64)
    counts[0] = np.bincount(flat, minlength=size)
    for row, weight in zip(counts[1:], weights):
        row[:] = np.bincount(flat, weight.ravel(), minlength=size)
    return counts.reshape(len(counts), k, width)
