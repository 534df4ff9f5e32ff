"""Independent reference evaluations used to cross-check the checkers.

Everything here is written directly from the inequality definitions with
plain comprehensions, deliberately avoiding the package's prefix-sum
bookkeeping, so a bug in the implementation cannot hide in the tests.
"""

import itertools
from functools import lru_cache


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


def ref_conj(d):
    return tuple(sum(1 for x in d if x >= j + 1) for j in range(len(d)))


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
