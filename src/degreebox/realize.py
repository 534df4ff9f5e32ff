"""Witness construction: a simple graph meeting a bound pair.

The route fixes an in-box graphic degree vector by decision
self-reduction through the CDZ kernel, each search run from both ends of
its bracket, and realizes it with a bucketed Havel-Hakimi.  The witness
holds its edges as two sorted int64 columns, so no Python object is built
per edge; they go through ``verify_witness`` to the edge-list, DOT and
JSON writers.  The route is exact and is cross-validated against
brute-force enumeration at small sizes.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import LengthMismatch
from .sequences import IntervalSequencePair, _cdz_terms, _reduced_range, require_good_order


class SimpleGraph:
    """Undirected graph on vertices 0..n-1, held as two int64 edge columns.

    ``SimpleGraph(n, u, v)`` takes the rows (u[i], v[i]) as given.  A
    witness has u < v in every row and its rows in (u, v) order, so the
    writers read the columns as they are: degrees are two bincounts and
    each writer one string lookup per endpoint, O(n + m).  ``.edges``, the
    frozenset of row pairs as Python ints, is built on first use; graphs
    compare and hash by n and ``.edges``.
    """

    __slots__ = ("n", "u", "v", "_edges")

    def __init__(self, n: int, u, v):
        self.n, self._edges = n, None
        self.u, self.v = np.asarray(u, np.int64), np.asarray(v, np.int64)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = frozenset(zip(self.u.tolist(), self.v.tolist()))
        return self._edges

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={len(self.u)})"

    def degrees(self) -> tuple[int, ...]:
        deg = np.bincount(self.u, minlength=self.n) + np.bincount(self.v, minlength=self.n)
        return tuple(deg.tolist())

    def _join(self, head: str, tail: str) -> str:
        """head.format(u + 1) + tail.format(v + 1) for each row, joined, from per-label tables."""
        labels = range(1, self.n + 1)
        pieces = np.empty(2 * len(self.u), dtype=object)
        pieces[0::2] = np.array([head.format(i) for i in labels], dtype=object)[self.u]
        pieces[1::2] = np.array([tail.format(i) for i in labels], dtype=object)[self.v]
        return "".join(pieces.tolist())

    def to_edge_list(self) -> str:
        """One 'u v' line per edge in row order, vertices printed 1-based."""
        return self._join("{} ", "{}\n")

    def to_json_edges(self) -> str:
        """The rows as a compact JSON array of 1-based [u, v] pairs."""
        return "[" + self._join(",[{},", "{}]")[1:] + "]"

    def to_dot(self) -> str:
        """Undirected DOT document with vertices labeled 1..n."""
        deg = self.degrees()
        isolated = "".join(f"  {i + 1};\n" for i in range(self.n) if deg[i] == 0)
        return "graph witness {\n" + isolated + self._join("  {} -- ", "{};\n") + "}\n"


def _take_largest(buckets: list[list[int]], top: int) -> Optional[list[int]]:
    """Take the top vertices of largest residual, ties to the smallest index,
    each one bucket down; None if fewer than top have a positive residual.

    buckets[r] holds the vertices of residual r in index order, none above
    top.  A taken prefix, decremented, is merged into the bucket below, so
    nothing is re-sorted, but each merge copies the rest of its bucket:
    O(top + B) per take for B the largest bucket touched.
    """
    taken, moved, need, d = [], [], top, top
    while need or moved and d:
        if d == 0:
            return None
        source = buckets[d]
        buckets[d] = sorted(source[need:] + moved)
        moved = source[:need]
        taken += moved
        need -= len(moved)
        d -= 1
    return taken


def _havel_hakimi(
    deg: Sequence[int], label: Sequence[int]
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Havel-Hakimi on degrees deg[v]: edge columns (u, v) in labels label[v], or None.

    Each round joins the largest residual to the next-largest ones, ties to
    smallest v, by ``_take_largest`` over the residual buckets, so the
    walk is O(m + n * B) for B the largest bucket.  The walk records each
    head with its residual and one flat list of neighbours; relabelling,
    orienting to u < v and ordering the rows by (u, v), as one sort of the
    keys u*n + v, are then array passes, so no per-edge tuple is built.
    """
    n = len(deg)
    if any(x >= n for x in deg):
        return None
    buckets: list[list[int]] = [[] for _ in deg]
    for v, x in enumerate(deg):
        buckets[x].append(v)
    heads, tops, nbrs = [], [], []
    for top in range(n - 1, 0, -1):  # the largest residual never grows
        while buckets[top]:
            heads.append(buckets[top].pop(0))
            tops.append(top)
            taken = _take_largest(buckets, top)
            if taken is None:
                return None
            nbrs += taken
    label = np.fromiter(label, dtype=np.int64, count=n)
    u = np.repeat(label[heads], np.array(tops, dtype=np.int64))
    v = label[np.fromiter(nbrs, np.int64, len(nbrs))]
    keys = np.minimum(u, v) * n + np.maximum(u, v)  # row (u, v) with u < v, as one integer
    keys.sort()
    return np.divmod(keys, n)


def _largest(good: int, bad: int, feasible: Callable[[int], bool]) -> int:
    """Largest x in [good, bad) with feasible(x); feasible holds at good and is monotone.

    ``_self_reduce`` runs one such search per run of raised cells and one
    per cell fixed below its upper bound.  An exponential search from both ends probes good + 1, bad - 1, good + 2,
    bad - 2, good + 4, ..., each off the bracket as it stands, until a probe
    from below fails or one from above holds; bisection then finishes the
    bracket left.  An answer at either end costs at most two probes, any
    other at most 3 log2(bad - good), and every probe lies strictly inside
    the bracket, so none repeats.
    """
    step = 1
    while good + step < bad:
        x = good + step
        if not feasible(x):
            bad = x
            break
        good = x
        if bad - step <= good:
            break
        x = bad - step
        if feasible(x):
            good = x
            break
        bad = x
        step *= 2
    while good + 1 < bad:
        x = (good + bad) // 2
        if feasible(x):
            good = x
        else:
            bad = x
    return good


def _self_reduce(
    cells: Iterable[tuple[int, int]], feasible: Callable[[list[tuple[int, int]]], bool]
) -> Optional[tuple[int, ...]]:
    """A value inside each cell (lo, hi) such that the point box stays feasible, or None.

    ``feasible``, the CDZ probe of ``graphic_vector_in_box``, takes a
    fresh list of cells and is monotone: raising a lower bound never makes
    an infeasible box feasible.  So each loose
    cell (lo < hi), in index order, can be fixed to (v, v) for the largest
    v keeping the box feasible.  Most cells end at hi, so the walk finds
    the longest run of next loose cells that can sit at (hi, hi) at once,
    exactly the run a cell-by-cell search would put there, then searches
    the cell after it over [lo, hi), hi being known infeasible, for the
    value that search would give.  Both are ``_largest`` searches from
    both ends: an empty run costs one probe, a run of every loose cell
    left two, of all but one at most five, and any run or cell O(log n).
    None is returned exactly when the cells as given are infeasible.
    """
    cells = list(cells)

    def stays_feasible(changes) -> bool:
        box = cells.copy()
        for i, cell in changes:
            box[i] = cell
        return feasible(box)

    if not stays_feasible(()):
        return None
    loose = [i for i, (lo, hi) in enumerate(cells) if lo < hi]
    while loose:
        raised = [(i, (cells[i][1],) * 2) for i in loose]
        r = _largest(0, len(loose) + 1, lambda k: stays_feasible(raised[:k]))
        for i, cell in raised[:r]:
            cells[i] = cell
        if r < len(loose):
            i = loose[r]
            lo, hi = cells[i]
            v = _largest(lo, hi, lambda v: stays_feasible([(i, (v, hi))]))
            cells[i] = (v, v)
        del loose[:r + 1]
    return tuple(lo for lo, _ in cells)


def graphic_vector_in_box(pair: IntervalSequencePair) -> Optional[tuple[int, ...]]:
    """Find an in-box degree vector whose multiset is graphic, positionwise.

    Decision self-reduction (``_self_reduce``) through the CDZ kernel,
    which raising lower bounds keeps monotone: 3 to 8 probes on planted
    n = 400 boxes.  A probe sorts the box into good order and reads
    the CDZ family for t <= s off the scalar stream ``_cdz_terms`` up to its
    first failure, cheaper than a kernel pass on the boxes probes see.
    None is returned exactly when the pair is not realizable.
    """
    require_good_order(pair)

    def realizable(box) -> bool:
        box.sort(reverse=True)
        a = [lo for lo, _ in box]
        b = [hi for _, hi in box]
        terms = islice(_cdz_terms(a, b), _reduced_range(a) + 1)
        return all(lhs <= rhs for lhs, rhs, _ in terms)

    return _self_reduce(zip(pair.a, pair.b), realizable)


def realize_pair(
    pair: IntervalSequencePair, perm: Optional[Sequence[int]] = None
) -> Optional[SimpleGraph]:
    """Build a simple graph meeting the bounds, relabeled through perm.

    ``perm`` maps normalized positions to original positions (as produced
    by normalize_good_order); identity when omitted.  Havel-Hakimi breaks
    ties by normalized position and writes its edges in perm's labels.
    Returns None exactly when the pair is not realizable.
    """
    vec = graphic_vector_in_box(pair)
    if vec is None:
        return None
    columns = _havel_hakimi(vec, range(pair.n) if perm is None else perm)
    if columns is None:  # cannot happen: the search only returns graphic vectors
        raise AssertionError("graphic vector failed to realize")
    return SimpleGraph(pair.n, *columns)


def verify_witness(g: SimpleGraph, a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff g is a witness: simple, in row order, every degree within the bounds.

    O(n + m) array passes over the edge columns.  Every row must have
    0 <= u < v < n, which rules out loops, reversed pairs and vertices out
    of range; the keys u*n + v must strictly increase, which rules out a
    repeated edge; and each degree, from two bincounts, must lie in
    [a_i, b_i].
    """
    if len(a) != len(b):
        raise LengthMismatch(f"lower has length {len(a)}, upper has length {len(b)}")
    if g.n != len(a):
        raise LengthMismatch(f"graph has {g.n} vertices, bounds have {len(a)}")
    u, v = g.u, g.v
    if len(u):
        if u.min() < 0 or v.max() >= g.n or not (u < v).all():
            return False
        keys = u * g.n + v
        if not (keys[1:] > keys[:-1]).all():
            return False
    return all(lo <= d <= hi for lo, d, hi in zip(a, g.degrees(), b))
