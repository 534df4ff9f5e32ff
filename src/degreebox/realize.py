"""Witness construction: simple graphs meeting bound pairs, bipartite interval graphs.

The simple-graph route fixes an in-box graphic degree vector by galloping
decision self-reduction through the CDZ kernel and realizes it with a
bucketed O(n + m) Havel-Hakimi (a planted n = 1000 box: about 0.1 s on
2 cores).  The bipartite route decides a per-vertex degree-interval
system by two one-sided Gale-Ryser scans (O(n log n) each), fixes exact
degrees by self-reduction through them and realizes those with the
constructive Gale-Ryser greedy.  Both routes are exact and are
cross-validated against brute-force enumeration at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .criteria import CriterionVerdict, _cdz_over_range, _first_failure
from .errors import LengthMismatch, LowerExceedsUpper, NegativeEntry
from .sequences import (
    IntervalSequencePair,
    _check_nonnegative,
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
    _check_nonnegative(d, "degree sequence")
    edges = _havel_hakimi(d, range(len(d)))
    if edges is None:
        return None
    return SimpleGraph(len(d), frozenset(edges))


def _havel_hakimi(deg: Sequence[int], label: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """Havel-Hakimi on degrees deg[v], edges in labels label[v]; None if not graphic.

    Each round joins the largest residual to the next-largest ones, ties to
    smallest v.  Buckets per residual, sorted by v, hand these out from the
    top, and a taken prefix, decremented, is merged into the bucket below,
    so nothing is re-sorted: O(n + m) steps plus C-level sorted-list merges.
    """
    if any(x >= len(deg) for x in deg):
        return None
    buckets: list[list[int]] = [[] for _ in deg]
    for v, x in enumerate(deg):
        buckets[x].append(v)
    edges = []
    for top in range(len(deg) - 1, 0, -1):  # the largest residual never grows
        while buckets[top]:
            u = buckets[top].pop(0)
            lu, need, d, moved = label[u], top, top, []
            while need or moved and d:
                if d == 0:  # fewer vertices of positive residual than the head needs
                    return None
                source = buckets[d]
                buckets[d] = sorted(source[need:] + moved)
                moved = source[:need]
                edges += [(lu, lv) if lu < lv else (lv, lu) for lv in map(label.__getitem__, moved)]
                need -= len(moved)
                d -= 1
    return edges


def _largest(good: int, bad: int, feasible: Callable[[int], bool], gallop: bool = False) -> int:
    """Largest x in [good, bad) with feasible(x); feasible holds at good and is monotone.

    Bisection, after an exponential search over 1, 2, 4, ... if gallop is set.
    """
    while good + 1 < bad:
        x = min(2 * good or 1, bad - 1) if gallop else (good + bad) // 2
        if feasible(x):
            good = x
        else:
            bad, gallop = x, False
    return good


def graphic_vector_in_box(pair: IntervalSequencePair) -> Optional[tuple[int, ...]]:
    """Find an in-box degree vector whose multiset is graphic, positionwise.

    Decision self-reduction through the CDZ kernel: raising lower bounds
    only shrinks the set of realizations, so each loose cell (a_i < b_i),
    in index order, can be fixed to the largest v keeping the box
    realizable.  Most cells end at b_i, so the walk gallops to the longest
    run of next loose cells that can sit at (b_i, b_i) at once, exactly the
    run a cell-by-cell search would put there, then binary-searches the
    cell after it over [a_i, b_i) as that search would.  That is O(log n)
    probes per run and per cell below b_i: 11 to 20 on planted n = 400
    boxes, where one search per cell took 820 to 870.  A probe sorts the
    box into good order and runs one O(n) kernel scan over t <= s.  None
    is returned exactly when the pair is not realizable.
    """
    require_good_order(pair)
    cells = list(zip(pair.a, pair.b))

    def stays_realizable(changes) -> bool:
        box = cells.copy()
        for i, cell in changes:
            box[i] = cell
        box.sort(reverse=True)
        a = [lo for lo, _ in box]
        b = [hi for _, hi in box]
        return _cdz_over_range(IntervalSequencePair(a, b), _reduced_range(a)).holds

    if not stays_realizable(()):
        return None
    loose = [i for i, (lo, hi) in enumerate(cells) if lo < hi]
    while loose:
        raised = [(i, (cells[i][1],) * 2) for i in loose]
        r = _largest(0, len(loose) + 1, lambda k: stays_realizable(raised[:k]), gallop=True)
        for i, cell in raised[:r]:
            cells[i] = cell
        if r < len(loose):
            i = loose[r]
            lo, hi = cells[i]
            v = _largest(lo, hi + 1, lambda v: v < hi and stays_realizable([(i, (v, hi))]))
            cells[i] = (v, v)
        del loose[:r + 1]
    return tuple(lo for lo, _ in cells)


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
    by normalize_good_order); identity when omitted.  Havel-Hakimi breaks
    ties by normalized position and writes its edges in perm's labels.
    Returns None exactly when the pair is not realizable.
    """
    vec = graphic_vector_in_box(pair)
    if vec is None:
        return None
    edges = _havel_hakimi(vec, range(pair.n) if perm is None else perm)
    if edges is None:  # cannot happen: the search only returns graphic vectors
        raise AssertionError("graphic vector failed to realize")
    return SimpleGraph(pair.n, frozenset(edges))


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


def _gale_ryser_terms(
    demand: Sequence[tuple[int, int]], supply: Sequence[tuple[int, int]]
) -> Iterator[tuple[int, int, int]]:
    """Yield (sum of the top k demands, sum(min(k, s) for s in supply), 0), k = 0..len(demand).

    Demands are the lower bounds of the ``demand`` cells, supplies the upper
    bounds of the ``supply`` cells; some 0-1 matrix has row sums the demands
    and column sums at most the supplies iff lhs <= rhs for every k (Gale
    1957, Ryser 1957).  A histogram of the supplies gives rhs(k + 1) =
    rhs(k) + #{s > k}, so after one sort of the demands the scan is O(n).
    """
    top = len(demand)
    count = [0] * (top + 1)
    for _, s in supply:
        count[min(s, top)] += 1
    above = len(supply)  # #{s > k - 1}
    lhs = rhs = 0
    for k, d in enumerate(sorted((lo for lo, _ in demand), reverse=True)):
        yield lhs, rhs, 0
        above -= count[k]
        lhs += d
        rhs += above
    yield lhs, rhs, 0


def _interval_feasible(left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]]) -> bool:
    """Some bipartite graph has every degree inside its interval.

    By Hoffman's circulation theorem the cut conditions split into two
    one-sided Gale-Ryser families, each side's lower bounds against the
    other side's upper bounds.
    """
    families = ((left, right), (right, left))
    return all(_first_failure(_gale_ryser_terms(d, s), len(d) + 1).holds for d, s in families)


def interval_bipartite_realize(
    left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]]
) -> Optional[BipartiteGraph]:
    """Bipartite graph with each vertex degree inside its interval, or None.

    Every cell, left side then right side, in index order, is fixed to
    (v, v) for the largest v in it that keeps the system feasible; the
    constructive Gale-Ryser greedy then realizes these exact degrees, each
    left vertex in index order joining the right vertices of largest
    residual, ties to the smallest index.  Bounds beyond the opposite part
    size make the system infeasible (a lower bound) or slack (an upper bound).
    """
    for side, bounds in (("left", left), ("right", right)):
        for i, (lo, hi) in enumerate(bounds):
            if lo < 0:
                raise NegativeEntry(f"{side}[{i}] lower bound {lo} is negative")
            if lo > hi:
                raise LowerExceedsUpper(f"{side}[{i}] bounds [{lo}, {hi}] are inverted")
    lcells, rcells = list(left), list(right)
    if not _interval_feasible(lcells, rcells):
        return None
    for cells, other in ((lcells, rcells), (rcells, lcells)):
        for i, (lo, hi) in enumerate(cells):

            def stays_feasible(v: int) -> bool:
                cells[i] = (v, hi)  # overwritten with (v, v) once v is found
                return _interval_feasible(lcells, rcells)

            v = _largest(lo, min(hi, len(other)) + 1, stays_feasible)
            cells[i] = (v, v)
    residual = [d for d, _ in rcells]
    edges = set()
    for i, (d, _) in enumerate(lcells):
        # a stable sort keeps ties in index order, reversed or not
        for j in sorted(range(len(residual)), key=residual.__getitem__, reverse=True)[:d]:
            residual[j] -= 1
            edges.add((i, j))
    return BipartiteGraph(len(left), len(right), frozenset(edges))


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
    interval system.  Its two Gale-Ryser families coincide, so one O(n log n)
    scan of the lifted lower bounds against the lifted upper bounds decides
    it.  Realizable pairs always pass; the converse fails.  No witness
    indices apply, so a failing verdict carries none.
    """
    system = ryser_interval_system(pair)
    return CriterionVerdict(_first_failure(_gale_ryser_terms(system, system), pair.n + 1).holds)
