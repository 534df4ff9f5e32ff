import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ref_impl
from degreebox.cli import main
from degreebox.criteria import (
    CriterionVerdict,
    _lifted,
    check_cdz,
    check_erdos_gallai_fixed,
    check_ryser_interval,
)
from degreebox.errors import LengthMismatch
from degreebox.oracle import enumerate_instances, sample_instances
from degreebox import realize
from degreebox.realize import (
    SimpleGraph,
    _havel_hakimi,
    graphic_vector_in_box,
    realize_pair,
    verify_witness,
)
from degreebox.sequences import IntervalSequencePair, normalize_good_order

CE = normalize_good_order((5, 4, 3, 3, 3, 1), (5, 5, 3, 3, 3, 1)).pair


def non_increasing_sequences(n, max_entry):
    yield from itertools.combinations_with_replacement(range(max_entry, -1, -1), n)


class TestHavelHakimi:
    """``_havel_hakimi`` on identity labels: edge columns, or None if not graphic."""

    def test_triangle(self):
        assert SimpleGraph(3, *_havel_hakimi((2, 2, 2), range(3))).edges == frozenset(
            {(0, 1), (0, 2), (1, 2)})

    def test_non_graphic(self):
        assert _havel_hakimi((3, 3, 1, 1), range(4)) is None

    def test_single_edge(self):
        assert SimpleGraph(2, *_havel_hakimi((1, 1), range(2))).edges == frozenset({(0, 1)})

    def test_degrees_are_exact(self):
        for d in [(4, 3, 2, 2, 1), (3, 3, 2, 2, 2), (5, 5, 4, 4, 3, 3)]:
            columns = _havel_hakimi(d, range(len(d)))
            assert columns is not None
            assert SimpleGraph(len(d), *columns).degrees() == d

    def test_agrees_with_erdos_gallai_small(self):
        for n in range(1, 7):
            for d in non_increasing_sequences(n, n - 1):
                columns = _havel_hakimi(d, range(n))
                assert (columns is not None) == check_erdos_gallai_fixed(d).holds, d
                if columns is not None:
                    u, v = columns
                    assert set(zip(u.tolist(), v.tolist())) == ref_impl.ref_havel_hakimi(
                        enumerate(d)), d
                    assert SimpleGraph(n, u, v).degrees() == d

    def test_oversized_entry_fails_cleanly(self):
        assert _havel_hakimi((5, 1, 1, 1), range(4)) is None


@pytest.mark.parametrize("width", [*range(1, 65), 400, 1024])
def test_largest_two_ended_search(width):
    """Every threshold in every bracket: the right answer, few probes, each new and inside."""
    for good in (0, 7):
        bad = good + width
        for threshold in range(good, bad):
            probes = []
            found = realize._largest(good, bad, lambda x: probes.append(x) or x <= threshold)
            assert found == threshold, (good, bad, threshold, probes)
            assert all(good < x < bad for x in probes), (good, bad, threshold, probes)
            assert len(set(probes)) == len(probes), (good, bad, threshold, probes)
            assert len(probes) <= 3 * math.ceil(math.log2(width)), (good, bad, threshold, probes)
            if threshold in (good, bad - 1):
                assert len(probes) <= 2, (good, bad, threshold, probes)


class TestGraphicVectorSearch:
    def test_counterexample_box_has_no_graphic_vector(self):
        assert graphic_vector_in_box(CE) is None

    def test_slack_box_takes_upper_bounds(self):
        pair = normalize_good_order((1, 1, 1), (2, 2, 2)).pair
        assert graphic_vector_in_box(pair) == (2, 2, 2)

    def test_point_box(self):
        pair = normalize_good_order((2, 2, 2), (2, 2, 2)).pair
        assert graphic_vector_in_box(pair) == (2, 2, 2)

    def test_complete_against_brute_force(self):
        """Search result matches direct enumeration of every in-box vector."""
        for n in range(0, 5):
            for pair in enumerate_instances(n):
                vec = graphic_vector_in_box(pair)
                expect = any(
                    ref_impl.ref_erdos_gallai(tuple(sorted(x, reverse=True)))
                    for x in itertools.product(
                        *(range(lo, hi + 1) for lo, hi in zip(pair.a, pair.b))
                    )
                )
                assert (vec is not None) == expect, pair
                if vec is not None:
                    assert all(
                        lo <= v <= hi for v, lo, hi in zip(vec, pair.a, pair.b)
                    )
                    assert ref_impl.ref_erdos_gallai(tuple(sorted(vec, reverse=True)))

    def test_long_cycle_box_realizes_through_cli(self, capsys):
        """A = B = (2,)*1000 once overflowed the recursion of a per-vertex search."""
        a = b = (2,) * 1000
        text = ",".join(map(str, a)) + "/" + ",".join(map(str, b))
        assert main(["--json", "realize", text]) == 0
        payload = json.loads(capsys.readouterr().out)
        u, v = np.array(payload["edges"], dtype=np.int64).T - 1
        assert verify_witness(SimpleGraph(1000, u, v), a, b)

    def test_planted_box_n600_realizes(self):
        """A box around a random graph's degrees is realizable by construction."""
        rng = random.Random(600)
        n = 600
        deg = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                deg[u] += 1
                deg[v] += 1
        a = [max(0, d - rng.randint(0, 3)) for d in deg]
        b = [min(n - 1, d + rng.randint(0, 3)) for d in deg]
        norm = normalize_good_order(a, b)
        g = realize_pair(norm.pair, norm.perm)
        assert g is not None
        assert verify_witness(g, a, b)


class TestRealizePair:
    def test_triangle(self):
        g = realize_pair(normalize_good_order((2, 2, 2), (2, 2, 2)).pair)
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_counterexample_not_realizable(self):
        assert realize_pair(CE) is None

    def test_empty_lower_bounds(self):
        pair = normalize_good_order((0, 0, 0), (2, 2, 2)).pair
        g = realize_pair(pair)
        assert g is not None
        assert verify_witness(g, pair.a, pair.b)

    def test_relabeling_through_permutation(self):
        a, b = (0, 2, 1, 2), (1, 3, 1, 2)
        norm = normalize_good_order(a, b)
        g = realize_pair(norm.pair, norm.perm)
        assert g is not None
        assert verify_witness(g, a, b)

    def test_returns_iff_cdz_holds_small(self):
        for n in range(0, 4):
            for pair in enumerate_instances(n):
                assert (realize_pair(pair) is not None) == check_cdz(pair).holds

    def test_equal_witnesses_compare_and_hash_equal(self):
        """Graphs compare and hash by n and edge set; edges are Python ints."""
        pair = normalize_good_order(*ref_impl.random_box(random.Random(5), 30)).pair
        g, h = realize_pair(pair), realize_pair(pair)
        assert g is not h and g == h and hash(g) == hash(h)
        assert g.u.dtype == g.v.dtype == np.int64
        assert all(type(u) is int and type(v) is int for u, v in g.edges)
        same_edges = SimpleGraph(g.n, g.u[::-1], g.v[::-1])
        assert same_edges == g and hash(same_edges) == hash(g)
        assert SimpleGraph(g.n + 1, g.u, g.v) != g
        assert SimpleGraph(2, [0], [1]) != (2, frozenset({(0, 1)}))
        assert repr(SimpleGraph(3, [0], [1])) == "SimpleGraph(n=3, edges=1)"


class TestVerifyWitness:
    def test_triangle_in_point_box(self):
        g = SimpleGraph(3, [0, 0, 1], [1, 2, 2])
        assert verify_witness(g, (2, 2, 2), (2, 2, 2))

    def test_empty_graph_misses_lower_bounds(self):
        g = SimpleGraph(3, [], [])
        assert not verify_witness(g, (1, 1, 1), (2, 2, 2))

    def test_single_edge_in_slack_box(self):
        g = SimpleGraph(2, [0], [1])
        assert verify_witness(g, (0, 0), (1, 1))

    def test_length_mismatch(self):
        g = SimpleGraph(2, [], [])
        with pytest.raises(LengthMismatch):
            verify_witness(g, (0, 0), (0,))

    def test_graph_size_must_match_bounds(self):
        with pytest.raises(LengthMismatch):
            verify_witness(SimpleGraph(3, [], []), (0, 0), (1, 1))

    # each rejected graph has every degree inside the box, so only its shape fails
    def test_rejects_reversed_pair(self):
        assert not verify_witness(SimpleGraph(2, [1], [0]), (0, 0), (1, 1))

    def test_rejects_loop(self):
        assert not verify_witness(SimpleGraph(2, [1], [1]), (0, 0), (2, 2))

    def test_rejects_vertex_past_n(self):
        assert not verify_witness(SimpleGraph(2, [1], [2]), (0, 0), (1, 1))

    def test_rejects_negative_vertex(self):
        assert not verify_witness(SimpleGraph(2, [-1], [0]), (0, 0), (1, 1))

    def test_rejects_repeated_edge(self):
        assert verify_witness(SimpleGraph(3, [0, 0], [1, 2]), (1, 0, 0), (2, 1, 1))
        g = SimpleGraph(3, [0, 0], [1, 1])
        assert not verify_witness(g, (1, 0, 0), (2, 2, 1))

    def test_rejects_rows_out_of_order(self):
        assert not verify_witness(SimpleGraph(3, [0, 0], [2, 1]), (1, 0, 0), (2, 1, 1))


class TestSerialization:
    def test_edge_list_is_one_based_and_sorted(self):
        g = SimpleGraph(3, [0, 1], [1, 2])
        assert g.to_edge_list() == "1 2\n2 3\n"

    def test_empty_edge_list(self):
        assert SimpleGraph(2, [], []).to_edge_list() == ""

    def test_dot_lists_isolated_vertices(self):
        g = SimpleGraph(3, [0], [1])
        assert g.to_dot() == "graph witness {\n  3;\n  1 -- 2;\n}\n"


class TestRyserInterval:
    def test_counterexample_holds_despite_unrealizability(self):
        assert check_ryser_interval(CE).holds

    def test_triangle(self):
        pair = normalize_good_order((2, 2, 2), (2, 2, 2)).pair
        assert _lifted(np.array([pair.a])).tolist() == [[3, 3, 2]]
        assert check_ryser_interval(pair).holds

    def test_empty(self):
        assert check_ryser_interval(normalize_good_order((), ()).pair).holds

    def test_fixed_sequence_equivalence_with_havel_hakimi(self):
        """Degenerate intervals reproduce the classical bipartite lift test.

        The equivalence is a statement about even-sum sequences; parity is
        not preserved by the lift (e.g. (1,1,1) is not graphic but lifts
        to the feasible system (2,1,1)).
        """
        for n in range(1, 7):
            for d in non_increasing_sequences(n, n - 1):
                lifted = check_ryser_interval(normalize_good_order(d, d).pair).holds
                hh = _havel_hakimi(d, range(n))
                if sum(d) % 2 == 0:
                    assert lifted == (hh is not None), d
                else:
                    assert hh is None, d

    def test_odd_sum_lift_can_be_feasible(self):
        assert _havel_hakimi((1, 1, 1), range(3)) is None
        assert check_ryser_interval(normalize_good_order((1, 1, 1), (1, 1, 1)).pair).holds

    def test_matches_reference_flow(self):
        """Every instance with n <= 4, samples at n = 5 and 6, random boxes to n = 60."""
        pairs = [pair for n in range(5) for pair in enumerate_instances(n)]
        pairs += sample_instances(5, 1000, seed=11) + sample_instances(6, 1000, seed=12)
        rng = random.Random(20261018)
        pairs += [normalize_good_order(*ref_impl.random_box(rng, rng.randint(1, 60))).pair
                  for _ in range(100)]
        verdicts = set()
        for pair in pairs:
            system = list(zip(*_lifted(np.array([pair.a, pair.b])).tolist()))
            expect = ref_impl.ref_interval_bipartite_flow(system, system) is not None
            assert check_ryser_interval(pair) == CriterionVerdict(expect), pair
            verdicts.add(expect)
        assert verdicts == {True, False}


# --- properties past the oracle -------------------------------------------

# A seeded ref_impl.random_box on up to 300 vertices; hypothesis shrinks the
# size and the seed.
large_boxes = st.builds(
    lambda n, seed: ref_impl.random_box(random.Random(seed), n),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)


def _realizable(a, b):
    return check_cdz(normalize_good_order(a, b).pair).holds


@settings(max_examples=60, deadline=None)
@given(large_boxes)
def test_complement_symmetry(box):
    """G realizes (A; B) iff its complement realizes (n-1-B; n-1-A)."""
    a, b = box
    n = len(a)
    assert _realizable(a, b) == _realizable([n - 1 - x for x in b], [n - 1 - x for x in a])


@settings(max_examples=60, deadline=None)
@given(large_boxes, st.data())
def test_widening_keeps_realizable(box, data):
    a, b = box
    n = len(a)
    grow = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    down, up = data.draw(grow), data.draw(grow)
    wide_a = [max(0, x - d) for x, d in zip(a, down)]
    wide_b = [min(n - 1, x + u) for x, u in zip(b, up)]
    if _realizable(a, b):
        assert _realizable(wide_a, wide_b)


@settings(max_examples=60, deadline=None)
@given(large_boxes)
def test_ryser_interval_is_necessary(box):
    """Sizes the max-flow reference could not reach in tier-1 time."""
    pair = normalize_good_order(*box).pair
    if check_cdz(pair).holds:
        assert check_ryser_interval(pair).holds


@settings(max_examples=30, deadline=None)
@given(large_boxes)
def test_every_witness_verifies(box):
    a, b = box
    norm = normalize_good_order(a, b)
    g = realize_pair(norm.pair, norm.perm)
    assert (g is not None) == check_cdz(norm.pair).holds
    if g is not None:
        assert verify_witness(g, a, b)


# --- the witness path against its per-cell and re-sorting references -------


def _gnp_degrees(rng, n, p):
    deg = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            deg[u] += 1
            deg[v] += 1
    return deg


def _widened(rng, deg):
    n = len(deg)
    return ([max(0, d - rng.randint(0, 3)) for d in deg],
            [min(n - 1, d + rng.randint(0, 3)) for d in deg])


def _reference_box(rng, k):
    """Box k of a seeded set: four families in turn, every fifth one at n <= 200.

    Family 0 is ref_impl.random_box (narrow, widened-planted and perturbed
    boxes); 1 a box up to 3 wide around a random graph's degrees
    (realizable); 2 a point box, with one degree moved by one in half of
    them; 3 a planted box with a forced degree-(n-1) vertex beside a
    forced isolated one (unrealizable).
    """
    n = rng.randint(2, 200 if k % 5 == 0 else 60)
    if k % 4 == 0:
        return ref_impl.random_box(rng, n)
    deg = _gnp_degrees(rng, n, rng.random())
    if k % 4 == 2:
        if rng.random() < 0.5:
            i = rng.randrange(n)
            deg[i] += 1 if deg[i] < n - 1 else -1
        return deg, list(deg)
    a, b = _widened(rng, deg)
    if k % 4 == 3:
        i, j = rng.sample(range(n), 2)
        a[i], b[i], a[j], b[j] = n - 1, n - 1, 0, 0
    return a, b


def _count_kernel_calls(monkeypatch):
    """Count the witness probes: each opens one scalar CDZ stream."""
    calls = [0]
    kernel = realize._cdz_terms

    def counting(a, b):
        calls[0] += 1
        return kernel(a, b)

    monkeypatch.setattr(realize, "_cdz_terms", counting)
    return calls


def test_vector_and_probe_count_match_per_cell_reference(monkeypatch):
    """Galloping finds the per-cell search's vector, at most one probe more per loose cell."""
    calls = _count_kernel_calls(monkeypatch)
    ref_calls = [0]

    def decide(a, b):
        ref_calls[0] += 1
        return check_cdz(IntervalSequencePair(tuple(a), tuple(b))).holds

    rng = random.Random(4004)
    outcomes = set()
    for k in range(320):
        a, b = _reference_box(rng, k)
        pair = normalize_good_order(a, b).pair
        calls[0] = ref_calls[0] = 0
        vec = graphic_vector_in_box(pair)
        assert vec == ref_impl.ref_graphic_vector_in_box(pair, decide), (a, b)
        loose = sum(lo < hi for lo, hi in zip(pair.a, pair.b))
        assert calls[0] <= ref_calls[0] + loose, (a, b)
        outcomes.add((k % 4, vec is not None))
    assert outcomes >= {(0, True), (0, False), (1, True), (2, True), (2, False), (3, False)}


def test_edges_match_resorting_reference():
    """Bucketed Havel-Hakimi gives the re-sorting loop's edges, through perm too."""
    rng = random.Random(4005)
    for k in range(320):
        a, b = _reference_box(rng, k)
        norm = normalize_good_order(a, b)
        vec = graphic_vector_in_box(norm.pair)
        g = realize_pair(norm.pair, norm.perm)
        if vec is None:
            assert g is None
        else:
            p = norm.perm
            expected = ref_impl.ref_havel_hakimi(enumerate(vec))
            assert g.edges == {(min(p[u], p[v]), max(p[u], p[v])) for u, v in expected}, (a, b)
        # the lower bounds as a degree sequence: often not graphic
        got = realize._havel_hakimi(a, range(len(a)))
        expected = ref_impl.ref_havel_hakimi(enumerate(a))
        assert (got is None) == (expected is None), a
        if got is not None:  # the same edge set, as rows u < v in (u, v) order
            u, v = got
            assert list(zip(u.tolist(), v.tolist())) == sorted(expected), a


def test_planted_n400_needs_few_kernel_probes(monkeypatch):
    """One probe per loose cell would be about 840 kernel calls here."""
    rng = random.Random(400)
    a, b = _widened(rng, _gnp_degrees(rng, 400, 0.3))
    pair = normalize_good_order(a, b).pair
    calls = _count_kernel_calls(monkeypatch)
    assert graphic_vector_in_box(pair) is not None
    assert calls[0] <= 8


def test_havel_hakimi_agrees_with_networkx():
    """Graphicality and exact degrees, checked by an independent library."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(4006)
    verdicts = set()
    for k in range(400):
        n = rng.randint(0, 60)
        if k % 3 == 0:
            d = [rng.randint(0, n) for _ in range(n)]
        else:
            d = _gnp_degrees(rng, n, rng.random())
            if k % 3 == 2 and n >= 2:
                for i in rng.sample(range(n), 2):
                    d[i] += 1
        d = tuple(sorted(d, reverse=True))
        columns = _havel_hakimi(d, range(n))
        assert (columns is not None) == nx.is_graphical(d), d
        if columns is not None:
            edges = SimpleGraph(n, *columns).edges
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges)
            assert h.number_of_edges() == len(edges) and nx.number_of_selfloops(h) == 0
            assert tuple(deg for _, deg in sorted(h.degree())) == d, d
        verdicts.add(columns is not None)
    assert verdicts == {True, False}
