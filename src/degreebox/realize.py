"""Witness construction: simple graphs meeting bound pairs, bipartite interval graphs.

The simple-graph route fixes an in-box graphic degree vector by decision
self-reduction through the CDZ kernel, one O(n) scan per probe, and
realizes it with Havel-Hakimi; the bipartite route reduces per-vertex
degree intervals to a feasible-flow problem with lower bounds.  Both
routes are exact and are cross-validated against brute-force enumeration
at small sizes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .criteria import CriterionVerdict, _cdz_over_range
from .errors import LengthMismatch, LowerExceedsUpper, NegativeEntry
from .sequences import (
    IntervalSequencePair,
    _reduced_range,
    _tilde_unchecked,
    require_good_order,
    require_non_increasing,
)


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless undirected graph on vertices 0..n-1 with a set of sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def to_edge_list(self) -> str:
        """One 'u v' line per edge, vertices printed 1-based, sorted."""
        lines = [f"{u + 1} {v + 1}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dot(self) -> str:
        """Undirected DOT document with vertices labeled 1..n."""
        deg = self.degrees()
        lines = ["graph witness {"]
        lines += [f"  {i + 1};" for i in range(self.n) if deg[i] == 0]
        lines += [f"  {u + 1} -- {v + 1};" for u, v in sorted(self.edges)]
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph: edges are (left index, right index) pairs, both 0-based."""

    left_n: int
    right_n: int
    edges: frozenset[tuple[int, int]]

    def left_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.left_n
        for i, _ in self.edges:
            deg[i] += 1
        return tuple(deg)

    def right_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.right_n
        for _, j in self.edges:
            deg[j] += 1
        return tuple(deg)


def havel_hakimi_realize(d: Sequence[int]) -> Optional[SimpleGraph]:
    """Realize a non-increasing degree sequence, or return None if not graphic.

    Each round connects the largest remaining residual to the next-largest
    ones; ties break by original vertex index, so the witness is
    deterministic.  Success agrees exactly with check_erdos_gallai_fixed.
    """
    require_non_increasing(d)
    for x in d:
        if x < 0:
            raise NegativeEntry(f"degree {x} is negative")
    edges = _havel_hakimi(list(enumerate(d)))
    if edges is None:
        return None
    return SimpleGraph(len(d), frozenset(edges))


def _havel_hakimi(targets: list[tuple[int, int]]) -> Optional[set[tuple[int, int]]]:
    """Core loop on (vertex, degree) items; returns edge set or None."""
    work = [[deg, vertex] for vertex, deg in targets]
    edges: set[tuple[int, int]] = set()
    for _ in range(len(work)):
        work.sort(key=lambda item: (-item[0], item[1]))
        head = work[0]
        need, u = head[0], head[1]
        if need == 0:
            break
        if need > len(work) - 1:
            return None
        for item in work[1 : need + 1]:
            if item[0] == 0:
                return None
            item[0] -= 1
            v = item[1]
            edges.add((min(u, v), max(u, v)))
        head[0] = 0
    return edges


def graphic_vector_in_box(pair: IntervalSequencePair) -> Optional[tuple[int, ...]]:
    """Find an in-box degree vector whose multiset is graphic, positionwise.

    Decision self-reduction through the CDZ kernel.  Raising one cell's
    lower bound can only shrink the set of realizations, so whether the
    box stays realizable is monotone in the raised bound.  For each vertex
    in turn, binary search finds the largest feasible lower bound v; every
    realization of that box has degree exactly v there, so the cell is
    fixed to (v, v) and the box stays realizable.  When every cell is
    fixed the box is one graphic vector.  Each probe decides the box with
    one O(n) kernel scan over t <= s, the reduced range that is
    equivalent to the full one, and the cells are kept in good order by
    moving only the one changed cell.  None is returned exactly when the
    pair is not realizable.
    """
    require_good_order(pair)
    if not _cdz_over_range(pair, _reduced_range(pair.a)).holds:
        return None
    keys = [(-lo, -hi, i) for i, (lo, hi) in enumerate(zip(pair.a, pair.b))]
    lows, highs = list(pair.a), list(pair.b)

    def stays_realizable(p: int, v: int) -> bool:
        # the box with the lower bound at position p raised to v; a raised
        # cell can only move towards the front, to position q
        hi = highs[p]
        q = bisect_left(keys, (-v, -hi, keys[p][2]), 0, p)
        a = lows[:q] + [v] + lows[q:p] + lows[p + 1:]
        b = highs[:q] + [hi] + highs[q:p] + highs[p + 1:]
        return _cdz_over_range(IntervalSequencePair(a, b), _reduced_range(a)).holds

    vec = list(pair.a)
    for i, (lo, hi) in enumerate(zip(pair.a, pair.b)):
        if lo == hi:
            continue
        p = bisect_left(keys, (-lo, -hi, i))
        top = hi
        while lo < top:
            mid = (lo + top + 1) // 2
            if stays_realizable(p, mid):
                lo = mid
            else:
                top = mid - 1
        vec[i] = lo
        del keys[p], lows[p], highs[p]
        q = bisect_left(keys, (-lo, -lo, i))
        keys.insert(q, (-lo, -lo, i))
        lows.insert(q, lo)
        highs.insert(q, lo)
    return tuple(vec)


def find_graphic_in_box(pair: IntervalSequencePair) -> Optional[tuple[int, ...]]:
    """Non-increasing graphic sequence assignable into the boxes, or None."""
    vec = graphic_vector_in_box(pair)
    if vec is None:
        return None
    return tuple(sorted(vec, reverse=True))


def realize_pair(
    pair: IntervalSequencePair, perm: Optional[Sequence[int]] = None
) -> Optional[SimpleGraph]:
    """Build a simple graph meeting the bounds, relabeled through perm.

    ``perm`` maps normalized positions to original positions (as produced
    by normalize_good_order); identity when omitted.  Returns None exactly
    when the pair is not realizable.
    """
    vec = graphic_vector_in_box(pair)
    if vec is None:
        return None
    if perm is None:
        perm = range(pair.n)
    items = sorted(enumerate(vec), key=lambda iv: (-iv[1], iv[0]))
    edges = _havel_hakimi([(i, v) for i, v in items])
    if edges is None:  # cannot happen: the search only returns graphic vectors
        raise AssertionError("graphic vector failed to realize")
    relabeled = frozenset(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    )
    return SimpleGraph(pair.n, relabeled)


def verify_witness(g: SimpleGraph, a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff g is simple and every degree lies within the original bounds."""
    if len(a) != len(b):
        raise LengthMismatch(f"lower has length {len(a)}, upper has length {len(b)}")
    if g.n != len(a):
        raise LengthMismatch(f"graph has {g.n} vertices, bounds have {len(a)}")
    for u, v in g.edges:
        if not (0 <= u < v < g.n):
            return False
    deg = g.degrees()
    return all(lo <= deg[i] <= hi for i, (lo, hi) in enumerate(zip(a, b)))


class _Dinic:
    """Plain max-flow used only for small feasibility networks."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(idx + 1)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for idx in self.adj[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def push(u: int, limit: int) -> int:
                if u == t:
                    return limit
                while it[u] < len(self.adj[u]):
                    idx = self.adj[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = push(v, min(limit, self.cap[idx]))
                        if got > 0:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                got = push(s, 1 << 60)
                if got == 0:
                    break
                flow += got


def _feasible_flow(
    n_nodes: int, arcs: list[tuple[int, int, int, int]], source: int, sink: int
) -> Optional[list[int]]:
    """Flow meeting [lower, upper] on every arc, or None.

    Standard reduction: close the network with a sink->source arc, strip
    lower bounds into node imbalances, and saturate them from a super
    source/sink pair.
    """
    big = 1 + sum(hi for _, _, _, hi in arcs)
    all_arcs = arcs + [(sink, source, 0, big)]
    excess = [0] * n_nodes
    net = _Dinic(n_nodes + 2)
    arc_idx = []
    for u, v, lo, hi in all_arcs:
        if lo > hi:
            raise LowerExceedsUpper(f"arc bounds [{lo}, {hi}] are inverted")
        arc_idx.append(net.add_edge(u, v, hi - lo))
        excess[v] += lo
        excess[u] -= lo
    super_s, super_t = n_nodes, n_nodes + 1
    need = 0
    for v, e in enumerate(excess):
        if e > 0:
            net.add_edge(super_s, v, e)
            need += e
        elif e < 0:
            net.add_edge(v, super_t, -e)
    if net.max_flow(super_s, super_t) < need:
        return None
    flows = []
    for (u, v, lo, hi), idx in zip(all_arcs, arc_idx):
        flows.append(lo + (hi - lo) - net.cap[idx])
    return flows[: len(arcs)]


def interval_bipartite_realize(
    left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]]
) -> Optional[BipartiteGraph]:
    """Bipartite graph with each vertex degree inside its interval, or None.

    Source->left and right->sink arcs carry the degree intervals as flow
    bounds; left-right arcs have capacity one.  The decision is exact, and
    bounds beyond the opposite part size simply make the system infeasible
    (a lower bound) or slack (an upper bound).
    """
    ln, rn = len(left), len(right)
    for side, bounds in (("left", left), ("right", right)):
        for i, (lo, hi) in enumerate(bounds):
            if lo < 0:
                raise NegativeEntry(f"{side}[{i}] lower bound {lo} is negative")
            if lo > hi:
                raise LowerExceedsUpper(f"{side}[{i}] bounds [{lo}, {hi}] are inverted")
    source = 0
    sink = 1 + ln + rn
    arcs: list[tuple[int, int, int, int]] = []
    for i, (lo, hi) in enumerate(left):
        arcs.append((source, 1 + i, lo, hi))
    pair_start = len(arcs)
    for i in range(ln):
        for j in range(rn):
            arcs.append((1 + i, 1 + ln + j, 0, 1))
    for j, (lo, hi) in enumerate(right):
        arcs.append((1 + ln + j, sink, lo, hi))
    flows = _feasible_flow(sink + 1, arcs, source, sink)
    if flows is None:
        return None
    edges = set()
    k = pair_start
    for i in range(ln):
        for j in range(rn):
            if flows[k]:
                edges.add((i, j))
            k += 1
    return BipartiteGraph(ln, rn, frozenset(edges))


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
    interval system.  Realizable pairs always pass; the converse fails.
    No witness indices apply, so a failing verdict carries none.
    """
    system = ryser_interval_system(pair)
    witness = interval_bipartite_realize(system, system)
    return CriterionVerdict(witness is not None)
