"""Witness construction: a simple graph meeting a bound pair.

The route fixes an in-box graphic degree vector by decision
self-reduction, each search trying one step up from the bottom of its
bracket and then galloping down from the top, and each probe one scalar
CDZ scan over t <= s (``_cdz_holds``), and realizes it with a bucketed
Havel-Hakimi.  The witness holds its edges as two sorted int64 columns,
so no Python object is built per edge; they go through
``verify_witness`` to the edge-list, DOT and JSON writers.  The route is
exact and is cross-validated against brute-force enumeration at small
sizes.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, LengthMismatch, NonIntegerEntry
from .sequences import IntervalSequencePair, _int64_column, require_good_order


class SimpleGraph:
    """Undirected graph on vertices 0..n-1, held as two int64 edge columns.

    ``SimpleGraph(n, u, v)`` takes the rows (u[i], v[i]) as given; u and
    v must be 1-D and of one length, or it raises LengthMismatch, and
    each empty or of an integer dtype, or it raises NonIntegerEntry.  A
    witness has u < v in every row and its rows in (u, v) order, so the
    writers read the columns as they are: degrees are two bincounts and
    each writer two gathers from per-label byte tables, O(n + m).
    ``.edges``, the frozenset of row pairs as Python ints, is built on
    first use; graphs compare and hash by n and ``.edges``.
    """

    __slots__ = ("n", "u", "v", "_edges")

    def __init__(self, n: int, u, v):
        self.n, self._edges = n, None
        u, v = np.asarray(u), np.asarray(v)
        if u.ndim != 1 or u.shape != v.shape:
            raise LengthMismatch(f"edge columns have shapes {u.shape} and {v.shape}")
        for column in u, v:
            if column.size and column.dtype.kind not in "biu":
                raise NonIntegerEntry(f"edge column of dtype {column.dtype} is not integer")
        self.u, self.v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)

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
        """head.format(u + 1) + tail.format(v + 1) for each row, joined, from per-label tables.

        Each table holds its n pieces as NUL-padded bytes, as wide as the
        next power of two, at least 4 (see ``_pieces``).  One gather per
        column fills a row of the two pieces per edge, and dropping every
        NUL from the rows' bytes leaves the text: digits and the writers'
        pieces hold no NUL.  Both tables share one table of label digits.
        """
        if not self.n:  # no labels, so no rows and no widest piece
            return ""
        digits = len(str(self.n))
        labels = np.arange(1, self.n + 1).astype(f"S{digits}").view(np.uint8).reshape(self.n, digits)
        heads, tails = _pieces(head, labels), _pieces(tail, labels)
        rows = np.empty(len(self.u), dtype=[("u", heads.dtype), ("v", tails.dtype)])
        rows["u"] = heads[self.u]
        rows["v"] = tails[self.v]
        return rows.tobytes().translate(None, b"\0").decode("ascii")

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


def _pieces(fmt: str, labels: np.ndarray) -> np.ndarray:
    """fmt.format(i) for the labels i = 1..n as NUL-padded bytes, as wide as a power of two.

    labels is the (n, digits) byte table of 1..n, each NUL-padded to the
    digits of n.  The table is one (n, width) byte array: the prefix, the
    label and the suffix, so a shorter label keeps NULs inside its piece,
    which the writers' ``translate`` drops with the padding.  The width is
    the next power of two, at least 4, that holds the widest piece: a
    gather of such rows stays aligned, and ``translate`` costs in
    proportion to the NULs it drops, so the padding is kept small: a
    JSON row takes 8 + 4 bytes at n = 100 to 999, not 8 + 8.
    """
    prefix, suffix = (np.frombuffer(part.encode(), np.uint8) for part in fmt.split("{}"))
    n, digits = labels.shape
    end = len(prefix) + digits
    table = np.zeros((n, max(4, 1 << (end + len(suffix) - 1).bit_length())), dtype=np.uint8)
    table[:, :len(prefix)] = prefix
    table[:, len(prefix):end] = labels
    table[:, end:end + len(suffix)] = suffix
    return table.view(f"S{table.shape[1]}").ravel()


def _take_largest(buckets: list[list[int]], top: int, nbrs: list[int]) -> bool:
    """Append to nbrs the top vertices of largest residual, ties to the smallest
    index, each moved one bucket down; False if fewer than top have a positive
    residual.

    buckets[r] holds the vertices of residual r in index order, none above
    top.  A bucket taken whole is handed down by reference, and the list
    moved into it from above takes its place.  A bucket taken in part loses
    its prefix with one ``del`` (a memmove) and merges the list from above
    in place: ``sort`` finds the two sorted runs and merges them.  So
    nothing is copied per element but the taken vertices and the merges.
    """
    moved, need, d = [], top, top
    while need or moved and d:
        if d == 0:
            return False
        source = buckets[d]
        if need >= len(source):
            buckets[d], moved = moved, source
        else:
            taken = source[:need]
            del source[:need]
            if moved:
                source += moved
                source.sort()
            moved = taken
        nbrs += moved
        need -= len(moved)
        d -= 1
    return True


def _havel_hakimi(
    deg: Sequence[int], label: Sequence[int]
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Havel-Hakimi on degrees deg[v]: edge columns (u, v) in labels label[v], or None.

    Each round joins the largest residual to the next-largest ones, ties to
    smallest v, by ``_take_largest`` over the residual buckets.  A round
    moves whole buckets by reference and pays per element only for its
    top neighbours and for the one or two buckets it takes in part (a
    memmove and a merge of two sorted runs).  The walk records each head
    with its residual and one flat list of neighbours; relabelling,
    orienting to u < v and ordering the rows by (u, v), as one sort of the
    keys u*n + v split back by one floor divide, are then array passes, so
    no per-edge tuple is built.
    An entry outside [0, n) is never graphic and gives None.  label is
    read through ``np.asarray(label, dtype=np.int64)``, so an int64 array
    is used as it is and a list or range is converted.
    """
    n = len(deg)
    if any(not 0 <= x < n for x in deg):
        return None
    buckets: list[list[int]] = [[] for _ in deg]
    for v, x in enumerate(deg):
        buckets[x].append(v)
    heads, tops, nbrs = [], [], []
    for top in range(n - 1, 0, -1):  # the largest residual never grows
        while buckets[top]:
            heads.append(buckets[top].pop(0))
            tops.append(top)
            if not _take_largest(buckets, top, nbrs):
                return None
    label = np.asarray(label, dtype=np.int64)
    u = np.repeat(label[heads], np.array(tops, dtype=np.int64))
    v = label[np.fromiter(nbrs, np.int64, len(nbrs))]
    keys = np.minimum(u, v) * n + np.maximum(u, v)  # row (u, v) with u < v, as one integer
    keys.sort()
    u = keys // n
    return u, keys - u * n


def _largest(good: int, bad: int, feasible: Callable[[int], bool]) -> int:
    """Largest x in [good, bad) with feasible(x); feasible holds at good and is monotone.

    ``_self_reduce`` runs one such search per run of raised cells and one
    per cell fixed below its upper bound.  It probes good + 1; if that
    holds, it gallops down from the top, bad - 1, bad - 2, bad - 4, ...,
    until a probe holds, and bisection finishes the bracket left.  The
    self-reduction's answers sit mostly at the top or one or two below
    it, so an answer at good or bad - 1 costs at most two probes, one at
    bad - 2 at most three, and any other at most 3 log2(bad - good).
    Every probe lies strictly inside the bracket as it stands, so none
    repeats.
    """
    if good + 1 < bad:
        if not feasible(good + 1):
            return good
        good, top, step = good + 1, bad, 1
        while top - step > good:
            x = top - step
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


def _cdz_holds(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the good-ordered box (a, b) meets CDZ for t = 0..s, so is realizable.

    lhs = sum(a[:t]) and rhs = t(t-1) + sum(min(t, b[j]) for j >= t) - eps(t).
    With S(t) = {j >= t : b[j] > t}, the tail sum is
    sum(b[t:]) - sum(b[S]) + t*|S|, and eps(t) needs only |S|, sum(b[S]) and
    whether S has an unforced cell (a < b).  Histograms of b (all suffix
    cells, and unforced ones) keep all three up to date as t advances, so
    the scan is O(n).  It stops at the first failing t, or after t = s, the
    first t with a[t] < t (or n): past s the family holds whenever it holds
    up to s.  Entries of b must lie in 0..n-1.
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
        if lhs > t * (t - 1) + tail - total + t * size - eps:
            return False
        if t == n or a[t] < t:
            break
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
    return True


def _self_reduce(cells: list[tuple[int, int]]) -> Optional[tuple[int, ...]]:
    """A value inside each cell (lo, hi) such that the point box stays realizable, or None.

    A probe sorts a copy of the cells, with its changes, into good order
    and runs ``_cdz_holds``; raising a lower bound never makes an
    infeasible box feasible, so the probe is monotone.  So each loose
    cell (lo < hi), in index order, can be fixed to (v, v) for the largest
    v keeping the box feasible.  Most cells end at hi, so the walk finds
    the longest run of next loose cells that can sit at (hi, hi) at once,
    exactly the run a cell-by-cell search would put there, then searches
    the cell after it over [lo, hi), hi being known infeasible, for the
    value that search would give.  Both are ``_largest`` searches, top
    first: an empty run costs one probe, a run of every loose cell left
    two, of all but one three, and any run or cell O(log n).
    None is returned exactly when the cells as given are infeasible.
    """

    def stays_feasible(changes) -> bool:
        box = cells.copy()
        for i, cell in changes:
            box[i] = cell
        box.sort(reverse=True)
        return _cdz_holds([lo for lo, _ in box], [hi for _, hi in box])

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

    Decision self-reduction (``_self_reduce``) through the CDZ family,
    which raising lower bounds keeps monotone: 3 to 6 probes, 4.4 on
    average, on planted n = 400 boxes.  Each probe is the scalar scan ``_cdz_holds``, which
    stops at its first failure and is cheaper than a kernel pass on the
    boxes probes see.  None is returned exactly when the pair is not
    realizable.
    """
    require_good_order(pair)
    return _self_reduce(list(zip(pair.a, pair.b)))


def realize_pair(
    pair: IntervalSequencePair, perm: Optional[Sequence[int]] = None
) -> Optional[SimpleGraph]:
    """Build a simple graph meeting the bounds, relabeled through perm.

    ``perm`` maps normalized positions to original positions (as produced
    by normalize_good_order); identity when omitted.  Havel-Hakimi breaks
    ties by normalized position and writes its edges in perm's labels.
    Returns None exactly when the pair is not realizable.  A perm whose
    length is not n raises LengthMismatch, one with an entry that is not
    an integer NonIntegerEntry (naming ``perm[i]``, by the rule
    ``normalize_good_order`` applies to bounds), and one that is not a
    permutation of 0..n-1 InputError.  perm is converted to int64 labels
    once, and those labels are what is checked and written.
    """
    if perm is None:
        labels = np.arange(pair.n)
    else:
        if len(perm) != pair.n:
            raise LengthMismatch(f"perm has length {len(perm)}, the pair has n = {pair.n}")
        labels = _int64_column(perm, "perm")
        if not np.array_equal(np.sort(labels), np.arange(pair.n)):
            raise InputError(f"perm is not a permutation of 0..{pair.n - 1}")
    vec = graphic_vector_in_box(pair)
    if vec is None:
        return None
    columns = _havel_hakimi(vec, labels)
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
