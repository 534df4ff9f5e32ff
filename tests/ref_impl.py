"""Independent reference evaluations used to cross-check the checkers.

Everything here is written directly from the inequality definitions with
plain comprehensions, deliberately avoiding the package's prefix-sum
bookkeeping, so a bug in the implementation cannot hide in the tests.
The two exceptions read the package: ``ref_cdz_stream`` reads its scalar
CDZ stream, which shares no code with the kernel pass the criteria rows
read, and ``kernel_berge_rows`` reads Berge sequences off that pass, so
that checking them against ``ref_berge`` tests the pass's columns.
"""

import itertools
import math
import random
from functools import lru_cache

import numpy as np

from degreebox.criteria import CriterionVerdict
from degreebox.sequences import IntervalSequencePair, _cdz_terms, kernel_pass


def ref_cdz_stream(pair):
    """The CDZ verdict from the scalar stream ``sequences._cdz_terms``: the
    smallest t in 0..n with lhs > rhs, stopping there, as a CriterionVerdict."""
    for t, (lhs, rhs, _) in enumerate(_cdz_terms(pair.a, pair.b)):
        if lhs > rhs:
            return CriterionVerdict(False, witness_t=t, lhs=lhs, rhs=rhs)
    return CriterionVerdict(True)


def ref_eps(pair, t):
    support = [j for j in range(pair.n) if j >= t and pair.b[j] >= t + 1]
    if any(pair.a[j] != pair.b[j] for j in support):
        return 0
    return (sum(pair.b[j] for j in support) + t * len(support)) % 2


def ref_s(pair):
    return max((i for i in range(1, pair.n + 1) if pair.a[i - 1] >= i - 1), default=0)


def ref_berge(d):
    """Column sums of the literally-constructed zero-diagonal matrix."""
    n = len(d)
    matrix = [[0] * n for _ in range(n)]
    for k in range(n):
        columns = [j for j in range(n) if j != k][: d[k]]
        for j in columns:
            matrix[k][j] = 1
    return tuple(sum(matrix[k][j] for k in range(n)) for j in range(n))


def kernel_berge_rows(d):
    """The Berge sequence of every row of a (k, n) batch d, entries in
    0..n-1, read off the kernel pass on the point boxes (d; d): column j
    is P(j+1) - P(j) for P(t) = rhs(t) + eps(t) - D_d(t)."""
    kernel = kernel_pass(d, d)
    return np.diff(kernel.rhs + kernel.eps - kernel.deficit_b, axis=1)


def ref_conj(d):
    """Ferrers conjugate: entry j counts the entries of d that are >= j+1."""
    return tuple(sum(1 for x in d if x >= j + 1) for j in range(len(d)))


def ref_crossing_index(d):
    """Largest prefix length i with d[i-1] >= i; 0 if none."""
    return max((i for i in range(1, len(d) + 1) if d[i - 1] >= i), default=0)


def ref_max_sum_identities_hold(p, t):
    """The two truncation identities on the length-t prefix q of p, 1 <= t <= len(p):

        sum q[i] + sum max(-t+1, -q[i])
            == sum max(0, q[i] - t + 1)
            == sum (max(t-1, q[i]) - (t-1)).
    """
    q = p[:t]
    lhs = sum(q) + sum(max(-t + 1, -x) for x in q)
    return lhs == sum(max(0, x - t + 1) for x in q) == sum(max(t - 1, x) - (t - 1) for x in q)


def identity_failures(count, seed):
    """Randomized identity checks; returns the (expected-empty) failure list.

    Per round: the two max-sum truncation identities on a random prefix,
    sum preservation of both matrix transforms, prefix agreement between
    the zero-diagonal column sums and the shifted conjugate, and the
    conjugate involution.  Rounds are drawn and checked in blocks of 2048;
    the Berge sequences of a block's rounds of one length come from one
    kernel pass, so the rounds test the pass's columns.
    """
    rng = random.Random(seed)
    failures = []

    def record(kind, **data):
        failures.append({"kind": kind, **data})

    def strip_zeros(seq):
        out = list(seq)
        while out and out[-1] == 0:
            out.pop()
        return out

    for start in range(0, count, 2048):
        rounds = []
        for _ in range(min(2048, count - start)):
            n = rng.randint(1, 12)
            p = [rng.randint(0, 12) for _ in range(n)]
            t = rng.randint(1, n)
            d = sorted((rng.randint(0, n - 1) for _ in range(n)), reverse=True)
            rounds.append((p, t, d))
        by_length = {}
        for _, _, d in rounds:
            by_length.setdefault(len(d), []).append(d)
        berge_rows = {n: iter(kernel_berge_rows(ds).tolist())
                      for n, ds in by_length.items()}
        for p, t, d in rounds:
            if not ref_max_sum_identities_hold(p, t):
                record("max_sum_identities", p=p, t=t)

            berge = next(berge_rows[len(d)])
            conj = ref_conj(d)
            if sum(berge) != sum(d) or sum(conj) != sum(d):
                record("sum_preservation", d=d, berge=berge, conjugate=list(conj))
            f = ref_crossing_index(d)
            bp = cp = 0
            for k in range(f):
                bp += berge[k]
                cp += conj[k] - 1
                if bp != cp:
                    record("berge_conjugate_prefix", d=d, k=k + 1, berge_prefix=bp,
                           conjugate_prefix=cp)
                    break

            twice = ref_conj(conj)
            if strip_zeros(twice) != strip_zeros(d):
                record("conjugate_involution", d=d, twice=list(twice))
    return failures


def ref_good_order(pair):
    """Good order by tuple comparison: no cell (a, b) above the one before it."""
    cells = list(zip(pair.a, pair.b))
    return all(cells[i] >= cells[i + 1] for i in range(len(cells) - 1))


def ref_normalize(a, b):
    """(a, b clamped to n-1, perm) in good order, by Python's stable sort of
    the input positions, a descending then b descending."""
    n = len(a)
    b = [min(x, n - 1) for x in b]
    order = sorted(range(n), key=lambda i: (-a[i], -b[i]))
    return tuple(a[i] for i in order), tuple(b[i] for i in order), tuple(order)


def eval_at(name, pair, t, m=None):
    """(lhs, rhs) of the named inequality at prefix length t (and tail m)."""
    a, b, n = pair.a, pair.b, pair.n
    eps = ref_eps(pair, t)
    lhs = sum(a[:t])
    if name in ("cdz", "cdz_reduced"):
        return lhs, t * (t - 1) + sum(min(t, x) for x in b[t:]) - eps
    if name == "berge_necessary":
        return lhs, sum(ref_berge(b)[:t])
    if name == "berge_sufficient":
        return lhs, sum(ref_berge(b)[:t]) - eps
    if name == "fulkerson":
        return lhs, t * (n - m - 1) + sum(b[n - m:] if m else ()) - eps
    if name == "bollobas":
        return lhs, sum(b[t:]) + sum(min(x, t - 1) for x in a[:t]) - eps
    if name == "grunbaum":
        return (
            sum(max(t - 1, x) for x in a[:t]),
            t * (t - 1) + sum(b[t:]) - eps,
        )
    if name == "hasselbarth":
        return lhs, sum(ref_conj(b)[:t]) - t - eps
    raise KeyError(name)


def smallest_failure(name, pair):
    """First failing witness by plain scan; None when the criterion holds."""
    n = pair.n
    if name == "fulkerson":
        for t in range(n + 1):
            for m in range(n - t + 1):
                lhs, rhs = eval_at(name, pair, t, m)
                if lhs > rhs:
                    return t, m, lhs, rhs
        return None
    if name == "cdz_reduced":
        t_range = range(ref_s(pair) + 1)
    elif name == "hasselbarth":
        t_range = range(ref_s(pair))
    else:
        t_range = range(n + 1)
    for t in t_range:
        lhs, rhs = eval_at(name, pair, t)
        if lhs > rhs:
            return t, None, lhs, rhs
    return None


def ref_erdos_gallai_failure(d):
    """Smallest failing (k, lhs, rhs) of the Erdos-Gallai scan; None if graphic.

    An odd total fails as (0, 0, -1), the form check_erdos_gallai_fixed reports.
    """
    n = len(d)
    if sum(d) % 2:
        return 0, 0, -1
    for k in range(1, n + 1):
        lhs, rhs = sum(d[:k]), k * (k - 1) + sum(min(x, k) for x in d[k:])
        if lhs > rhs:
            return k, lhs, rhs
    return None


def ref_erdos_gallai(d):
    """Graphicality by the plain inequality scan plus the parity condition."""
    return ref_erdos_gallai_failure(d) is None


def ref_havel_hakimi(targets):
    """Havel-Hakimi on (vertex, degree) items, re-sorting every round; edges or None.

    Each round the largest residual (smallest vertex among ties) is joined to
    the next-largest ones in the same order: the plain spec of the edge set.
    """
    work = [[deg, vertex] for vertex, deg in targets]
    edges = set()
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


def ref_graphic_vector_in_box(pair, decide):
    """Per-cell self-reduction, kept as the spec of the in-box vector.

    ``decide(a, b)`` decides a box given in good order.  Each loose cell, in
    index order, gets the largest lower bound v in [a_i, b_i] under which the
    box stays realizable, by binary search with one decide call per probe,
    and is then fixed to (v, v).  None when the pair is not realizable.
    """
    cells = list(zip(pair.a, pair.b))

    def realizable():
        box = sorted(cells, reverse=True)
        return decide([lo for lo, _ in box], [hi for _, hi in box])

    if not realizable():
        return None
    for i, (lo, hi) in enumerate(zip(pair.a, pair.b)):
        if lo == hi:
            continue
        top = hi
        while lo < top:
            mid = (lo + top + 1) // 2
            cells[i] = (mid, hi)
            if realizable():
                lo = mid
            else:
                top = mid - 1
        cells[i] = (lo, lo)
    return tuple(lo for lo, _ in cells)


def ref_cells(n):
    """All bound cells (a, b) with 0 <= a <= b <= n-1, largest first."""
    return sorted(((a, b) for b in range(n) for a in range(b + 1)), reverse=True)


def ref_instances(n):
    """Every good-ordered pair on n vertices in rank order: the size-n
    multisets of ``ref_cells(n)`` in itertools' lexicographic order, so
    each pair's cells come largest first."""
    for combo in itertools.combinations_with_replacement(ref_cells(n), n):
        yield IntervalSequencePair(tuple(c[0] for c in combo), tuple(c[1] for c in combo))


def ref_unrank_cells(cells, n, rank):
    """The rank-th size-n multiset of ``cells`` in lexicographic order, as a
    list of cells: at each position, walk the cells one by one and skip the
    multisets that start with each."""
    combo = []
    c = 0
    for pos in range(n):
        remaining = n - pos - 1
        while True:
            # tails: multisets of size `remaining` drawn from cells c..end
            tails = math.comb(len(cells) - c + remaining - 1, remaining)
            if rank < tails:
                break
            rank -= tails
            c += 1
        combo.append(cells[c])
    return combo


@lru_cache(maxsize=None)
def _ref_degree_vectors(n):
    """Degree vector of every edge subset of K_n, one entry per subset."""
    edges = list(itertools.combinations(range(n), 2))
    vectors = []
    for chosen in itertools.product((0, 1), repeat=len(edges)):
        deg = [0] * n
        for (u, v), bit in zip(edges, chosen):
            deg[u] += bit
            deg[v] += bit
        vectors.append(deg)
    return vectors


def ref_witness_count(pair):
    """Number of edge subsets of K_n whose degree vector lies in the box."""
    return sum(
        all(lo <= d <= hi for lo, d, hi in zip(pair.a, deg, pair.b))
        for deg in _ref_degree_vectors(pair.n)
    )


def random_box(rng, n):
    """A seeded box (a, b) on n vertices, in input order, for tests past the oracle.

    Three families, so both verdicts and the parity cases all occur at any
    n: uniform narrow cells; boxes around the degree vector of a random
    graph, each cell either forced (a = b) or widened by up to 3 on each
    side; and the same with one degree moved by one first, which usually
    breaks realizability when the cells around it are forced.
    """
    if rng.random() < 0.25:
        a = [rng.randrange(n) for _ in range(n)]
        return a, [min(n - 1, x + rng.randint(0, 2)) for x in a]
    p = rng.random()
    deg = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            deg[u] += 1
            deg[v] += 1
    if n > 1 and rng.random() < 0.5:
        i = rng.randrange(n)
        deg[i] += 1 if deg[i] < n - 1 else -1
    forced = rng.random()
    a, b = [], []
    for d in deg:
        if rng.random() < forced:
            a.append(d)
            b.append(d)
        else:
            a.append(max(0, d - rng.randint(0, 3)))
            b.append(min(n - 1, d + rng.randint(0, 3)))
    return a, b


class _Dinic:
    """Plain max-flow, for small feasibility networks."""

    def __init__(self, n):
        self.n = n
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v, cap):
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(idx + 1)
        return idx

    def max_flow(self, s, t):
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

            def push(u, limit):
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


def _feasible_flow(n_nodes, arcs, source, sink):
    """Flow meeting [lower, upper] on every arc (u, v, lower, upper), or None.

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
    flows = [hi - net.cap[idx] for (_, _, _, hi), idx in zip(all_arcs, arc_idx)]
    return flows[: len(arcs)]


def ref_interval_bipartite_flow(left, right):
    """Edge set (i, j) of a bipartite graph with every degree in its interval, or None.

    Max-flow with lower bounds: source->left and right->sink arcs carry the
    degree intervals, left-right arcs have capacity one.
    """
    ln, rn = len(left), len(right)
    source, sink = 0, 1 + ln + rn
    arcs = [(source, 1 + i, lo, hi) for i, (lo, hi) in enumerate(left)]
    cells = [(i, j) for i in range(ln) for j in range(rn)]
    arcs += [(1 + i, 1 + ln + j, 0, 1) for i, j in cells]
    arcs += [(1 + ln + j, sink, lo, hi) for j, (lo, hi) in enumerate(right)]
    flows = _feasible_flow(sink + 1, arcs, source, sink)
    if flows is None:
        return None
    return frozenset(cell for cell, f in zip(cells, flows[ln:]) if f)
