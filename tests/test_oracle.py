import collections
import itertools
import json
import random

import numpy as np
import pytest

import ref_impl
from degreebox.criteria import (
    CHECKERS,
    CRITERIA,
    EXACT,
    Criterion,
    Verdicts,
    check_bollobas,
    check_cdz,
    check_cdz_reduced,
    check_grunbaum,
    criteria_report,
)
from degreebox.errors import (
    InputError,
    LengthMismatch,
    LowerExceedsMaxDegree,
    LowerExceedsUpper,
    NegativeEntry,
    TooLarge,
    UpperExceedsMaxDegree,
)
from degreebox.oracle import (
    MAX_EXHAUSTIVE_N,
    MAX_SAMPLE_CELLS,
    SWEEP_CHUNK,
    _box_counts,
    _cell_bounds,
    _chunks,
    _count_grid,
    _draw_cells,
    _sample_cells,
    _sample_ranks,
    _unrank_rows,
    cross_validate,
    enumerate_instances,
    implication_matrix,
    instance_space_size,
    oracle_realizable,
    sample_instances,
)
from degreebox.realize import graphic_vector_in_box, realize_pair
from degreebox.sequences import IntervalSequencePair, _good_order_rows, normalize_good_order
from ref_impl import ref_cells, ref_instances, ref_unrank_cells, ref_witness_count

CE = normalize_good_order((5, 4, 3, 3, 3, 1), (5, 5, 3, 3, 3, 1)).pair


def _rows(chunks) -> list[IntervalSequencePair]:
    """The pairs in the rows of (lows, highs) chunks, in order."""
    return [IntervalSequencePair(tuple(a), tuple(b))
            for lows, highs in chunks for a, b in zip(lows.tolist(), highs.tolist())]


def _corner_sum(pair) -> int:
    """A box's witness count as an inclusion-exclusion sum over its corners,
    one summed-area lookup each, skipping corners below zero."""
    n = pair.n
    grid = _count_grid(n)[0].reshape((n,) * n)
    total = 0
    for lower in itertools.product((False, True), repeat=n):
        corner = tuple(lo - 1 if side else hi for side, lo, hi in zip(lower, pair.a, pair.b))
        if min(corner, default=0) >= 0:
            total += (-1) ** sum(lower) * int(grid[corner])
    return total


class TestOracle:
    def test_counterexample_has_no_witness(self):
        result = oracle_realizable(CE)
        assert result == (False, 0)

    def test_triangle_unique_witness(self):
        result = oracle_realizable(normalize_good_order((2, 2, 2), (2, 2, 2)).pair)
        assert result == (True, 1)

    def test_slack_two_vertex_box(self):
        result = oracle_realizable(normalize_good_order((0, 0), (1, 1)).pair)
        assert result == (True, 2)

    def test_empty_instance(self):
        assert oracle_realizable(normalize_good_order((), ()).pair) == (True, 1)

    def test_too_large(self):
        pair = normalize_good_order((0,) * 9, (0,) * 9).pair
        with pytest.raises(TooLarge):
            oracle_realizable(pair)

    @pytest.mark.parametrize("n", range(8))
    def test_table_matches_every_edge_subset(self, n):
        """The summed-area table, differenced back along every axis, is the
        count of every edge subset of K_n by degree vector, cell by cell.
        The n = 8 table (about 10 s and 620 MB for the reference) is
        checked the same way in CI's sweep gate."""
        raw = _count_grid(n)[0].reshape((n,) * n)
        for axis in range(n):
            raw = np.diff(raw, axis=axis, prepend=0)
        assert np.array_equal(raw, ref_impl.ref_degree_table(n))

    @pytest.mark.parametrize("n", range(8))
    def test_table_is_int32_and_counts_every_subset(self, n):
        """The table is int32, and its last cell, the subsets with every
        degree <= n-1, counts all 2^(n(n-1)/2) edge subsets of K_n."""
        cumulative = _count_grid(n)[0]
        assert cumulative.dtype == np.int32
        assert int(cumulative[-1]) == 2 ** (n * (n - 1) // 2)

    def test_table_past_the_bound_is_refused_before_allocating(self, monkeypatch):
        """At n = 9 a cell could reach 2^36, past int32: the 9^9-cell grid is
        refused before any array is made."""
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the bound")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(TooLarge, match="up to n = 8"):
            _count_grid(MAX_EXHAUSTIVE_N + 1)

    def test_count_matches_reference_exhaustively(self):
        for n in range(0, 5):
            for pair in enumerate_instances(n):
                count = ref_witness_count(pair)
                assert oracle_realizable(pair) == (count > 0, count), pair

    @pytest.mark.parametrize("n, size", [(5, 400), (6, 40)])
    def test_count_matches_reference_sampled(self, n, size):
        for pair in sample_instances(n, size, seed=5):
            count = ref_witness_count(pair)
            assert oracle_realizable(pair) == (count > 0, count), pair

    @pytest.mark.parametrize("n", range(8))
    def test_batched_counts_match_per_box_queries(self, n):
        """A sample's chunks hold at most SWEEP_CHUNK rows each, and their
        rows are sample_instances' pairs, in order, which are its ranks
        unranked at once; past n = 3 the 2 * SWEEP_CHUNK + 37 ranks
        are not a whole number of chunks.  One gather per chunk equals per-box
        oracle_realizable and a corner-by-corner sum over the table, boxes
        with some a_i = 0 (lower corners outside the table) included."""
        size = 2 * SWEEP_CHUNK + 37
        ranks = _sample_ranks(n, size, seed=n)
        pairs = sample_instances(n, size, seed=n)
        assert pairs == _rows([_unrank_rows(n, ranks)])
        assert n == 0 or any(0 in pair.a for pair in pairs)
        chunks = list(_chunks(n, size, seed=n))
        assert all(0 < len(lows) <= SWEEP_CHUNK for lows, _ in chunks)
        assert _rows(chunks) == pairs
        expected = [oracle_realizable(pair).witness_count for pair in pairs]
        assert expected == [_corner_sum(pair) for pair in pairs]
        chunked = [_box_counts(n, lows, highs).tolist() for lows, highs in chunks]
        assert sum(chunked, []) == expected

    def test_permutation_invariance(self):
        rng = random.Random(99)
        for pair in sample_instances(5, 60, seed=3):
            cells = list(zip(pair.a, pair.b))
            rng.shuffle(cells)
            shuffled = IntervalSequencePair(
                tuple(c[0] for c in cells), tuple(c[1] for c in cells)
            )
            assert oracle_realizable(shuffled) == oracle_realizable(pair)

    def test_box_monotonicity(self):
        rng = random.Random(4)
        for pair in sample_instances(5, 60, seed=8):
            if not oracle_realizable(pair).realizable:
                continue
            wider_a = tuple(max(0, x - rng.randint(0, 1)) for x in pair.a)
            wider_b = tuple(min(4, x + rng.randint(0, 1)) for x in pair.b)
            wider = normalize_good_order(wider_a, wider_b).pair
            assert oracle_realizable(wider).realizable, (pair, wider)


# Pairs built directly, past normalize_good_order, with the error each raises
INVALID_PAIRS = [
    (((5,), (5,)), LowerExceedsMaxDegree),
    (((-1,), (0,)), NegativeEntry),
    (((1,), (2, 3)), LengthMismatch),
    (((1, 0), (0, 0)), LowerExceedsUpper),
    (((0, 0), (1, 2)), UpperExceedsMaxDegree),
]


@pytest.mark.parametrize("bounds, error", INVALID_PAIRS)
@pytest.mark.parametrize(
    "call", [check_cdz, criteria_report, realize_pair, graphic_vector_in_box, oracle_realizable])
def test_directly_built_invalid_pairs_are_input_errors(bounds, error, call):
    """Each reader of a pair checks its bounds once, as normalize_good_order
    would, which clamps an upper bound above n-1 and rejects the rest; a
    failed check caches nothing."""
    pair = IntervalSequencePair(*bounds)
    for _ in range(2):
        with pytest.raises(error):
            call(pair)
    if error is UpperExceedsMaxDegree:
        assert normalize_good_order(*bounds).pair == IntervalSequencePair((0, 0), (1, 1))
    else:
        with pytest.raises(error):
            normalize_good_order(*bounds)


class TestInstanceSpace:
    def test_single_vertex(self):
        assert list(enumerate_instances(1)) == [IntervalSequencePair((0,), (0,))]

    def test_counts_match_multiset_formula(self):
        assert instance_space_size(2) == 6
        assert instance_space_size(3) == 56
        assert instance_space_size(4) == 715
        assert instance_space_size(5) == 11628
        for n in range(0, 5):
            assert len(list(enumerate_instances(n))) == instance_space_size(n)

    def test_instances_unique_good_ordered_and_clamped(self):
        for n in range(1, 5):
            seen = set()
            for pair in enumerate_instances(n):
                assert _good_order_rows([pair.a], [pair.b])[0]
                assert all(0 <= lo <= hi <= n - 1 for lo, hi in zip(pair.a, pair.b))
                seen.add((pair.a, pair.b))
            assert len(seen) == instance_space_size(n)

    @pytest.mark.parametrize("n", range(7))
    def test_enumeration_matches_reference(self, n):
        """The stream's exhaustive pairs are the itertools reference's, in
        order: 230,230 of them at n = 6."""
        assert list(enumerate_instances(n)) == list(ref_instances(n))

    def test_exhaustive_chunks_are_full_but_the_last(self):
        sizes = [len(lows) for lows, _ in _chunks(6)]
        assert sum(sizes) == instance_space_size(6)
        assert set(sizes[:-1]) == {SWEEP_CHUNK} and 0 < sizes[-1] <= SWEEP_CHUNK

    def test_enumeration_past_the_oracle_is_too_large(self):
        with pytest.raises(TooLarge, match="sample"):
            next(enumerate_instances(9))

    def test_unrank_matches_enumeration(self):
        assert _rows([_unrank_rows(3, range(56))]) == list(ref_instances(3))

    def test_unrank_spot_checks_at_n5(self):
        instances = list(ref_instances(5))
        ranks = (0, 1, 777, 11627)
        assert _rows([_unrank_rows(5, ranks)]) == [instances[rank] for rank in ranks]

    def test_unrank_bisection_matches_linear_walk(self):
        """The batch unranker against the cell-by-cell walk of the reference:
        every rank with n <= 5, and 196 seeded ranks plus ranks 0, 1,
        total - 2 and total - 1 at n = 7, 9 and 14, whose int64 table
        entries come nearest to overflow."""
        assert instance_space_size(14) <= 1 << 62 < instance_space_size(15)
        rng = random.Random(20261018)
        ranks = {n: list(range(instance_space_size(n))) for n in range(6)}
        for n in (7, 9, 14):
            total = instance_space_size(n)
            ranks[n] = [rng.randrange(total) for _ in range(196)] + [0, 1, total - 2, total - 1]
        for n, some in ranks.items():
            expected = []
            for rank in some:
                cells = ref_unrank_cells(ref_cells(n), n, rank)
                expected.append(IntervalSequencePair(tuple(c[0] for c in cells),
                                                     tuple(c[1] for c in cells)))
            assert _rows([_unrank_rows(n, some)]) == expected, n

    def test_cell_decode_matches_cells(self):
        """_cell_bounds lists ref_cells(n) for n <= 14, and at n = 2000 the
        cells built run by run: lower bound a = n-1, n-2, ..., 0, each with
        upper bounds b = n-1 down to a."""
        for n in range(1, 15):
            lows, highs = _cell_bounds(n, np.arange(n * (n + 1) // 2))
            assert list(zip(lows.tolist(), highs.tolist())) == ref_cells(n), n
        n = 2000
        lows, highs = _cell_bounds(n, np.arange(n * (n + 1) // 2))
        runs = range(n - 1, -1, -1)
        assert np.array_equal(lows, np.concatenate([np.full(n - a, a) for a in runs]))
        assert np.array_equal(highs, np.concatenate([np.arange(n - 1, a - 1, -1) for a in runs]))

    def test_draws_are_uniform_at_n3(self):
        """56,000 seeded draws hit all 56 instances, with a chi-square
        below 93.2, its 0.999 quantile on 55 degrees of freedom."""
        index = {cells: rank for rank, cells in
                 enumerate(itertools.combinations_with_replacement(range(6), 3))}
        rng = random.Random(20261019)
        hits = collections.Counter(index[_draw_cells(rng, 3)] for _ in range(56_000))
        assert sorted(hits) == list(range(56))
        assert sum((hit - 1000) ** 2 / 1000 for hit in hits.values()) < 93.2

    @pytest.mark.parametrize("n", range(2, 6))
    def test_drawn_samples_are_distinct_in_rank_order(self, n):
        """The draws that sample spaces past 2^62 instances, here at n <= 5,
        where draws often repeat one already taken (a sample of 5 of the 6
        instances at n = 2): distinct instances in increasing enumeration index."""
        index = {pair: rank for rank, pair in enumerate(enumerate_instances(n))}
        count = min(instance_space_size(n) - 1, 300)
        pairs = _rows([_cell_bounds(n, _sample_cells(n, count, seed=n))])
        ranks = [index[pair] for pair in pairs]
        assert len(ranks) == count and all(x < y for x, y in zip(ranks, ranks[1:]))

    @pytest.mark.parametrize("n", [15, 20])
    def test_sample_chunks_past_2_to_62_are_drawn_in_rank_order(self, n):
        """Past 2^62 instances the sample's chunk stream is drawn, not
        unranked: SWEEP_CHUNK + 3 draws come in chunks of SWEEP_CHUNK and 3,
        good-ordered, clamped and distinct, reproducible by seed, and in
        rank order, which lists each pair's cells (a, b) largest first."""
        assert instance_space_size(n) > 1 << 62
        chunks = list(_chunks(n, SWEEP_CHUNK + 3, seed=n))
        assert [len(lows) for lows, _ in chunks] == [SWEEP_CHUNK, 3]
        lows, highs = np.vstack([c[0] for c in chunks]), np.vstack([c[1] for c in chunks])
        assert _good_order_rows(lows, highs).all()
        assert (0 <= lows).all() and (lows <= highs).all() and (highs <= n - 1).all()
        keys = [[(-a, -b) for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(lows.tolist(), highs.tolist())]
        assert all(x < y for x, y in zip(keys, keys[1:]))
        assert _rows(chunks) == _rows(_chunks(n, SWEEP_CHUNK + 3, seed=n))
        assert _rows(chunks) != _rows(_chunks(n, SWEEP_CHUNK + 3, seed=n + 1))

    def test_draw_at_n10000_gives_a_valid_pair(self):
        n = 10**4
        lows, highs = _cell_bounds(n, np.array([_draw_cells(random.Random(1), n)]))
        assert lows.shape == highs.shape == (1, n)
        assert _good_order_rows(lows, highs)[0]
        assert (0 <= lows).all() and (lows <= highs).all() and (highs <= n - 1).all()

    def test_sampling_is_seeded_and_uniform_without_replacement(self):
        first = sample_instances(6, 100, seed=42)
        second = sample_instances(6, 100, seed=42)
        assert first == second
        assert len({(p.a, p.b) for p in first}) == 100
        other = sample_instances(6, 100, seed=43)
        assert other != first

    def test_sampling_past_2_to_62_instances(self):
        """Spaces too large for the rank route are drawn by stars and bars, still seeded."""
        assert instance_space_size(20) > 1 << 62
        first = sample_instances(20, 30, seed=5)
        assert first == sample_instances(20, 30, seed=5)
        assert len({(p.a, p.b) for p in first}) == 30
        assert _good_order_rows([p.a for p in first], [p.b for p in first]).all()
        assert all(p.n == 20 for p in first)

    def test_sampling_more_than_space_returns_everything(self):
        assert len(sample_instances(2, 10_000, seed=0)) == 6

    @pytest.mark.parametrize("n, count", [(15, 10**8), (14, MAX_SAMPLE_CELLS // 14 + 1),
                                          (8, 10**12), (2000, MAX_SAMPLE_CELLS // 2000 + 1)])
    def test_sample_past_the_cell_bound_is_refused_before_drawing(self, n, count):
        """Over MAX_SAMPLE_CELLS cells (instances times n) a sample is an
        input error, raised before any rank or cell is drawn."""
        with pytest.raises(InputError, match="holds at most"):
            sample_instances(n, count, seed=1)

    @pytest.mark.parametrize("n", [5, 20])
    def test_negative_sample_size_is_an_input_error(self, n):
        """One check on both sides of 2^62 instances; a zero count draws nothing."""
        with pytest.raises(InputError):
            sample_instances(n, -1, seed=1)
        assert sample_instances(n, 0, seed=1) == []

    def test_random_instances_deterministic(self):
        """Seeded ref_impl.random_box draws, normalized, are reproducible and in good order."""
        def draw(seed):
            rng = random.Random(seed)
            return [normalize_good_order(*ref_impl.random_box(rng, rng.randint(1, 9))).pair
                    for _ in range(50)]

        a, b = draw(11), draw(11)
        assert a == b
        assert all(_good_order_rows([p.a], [p.b])[0] for p in a)


class TestCrossValidate:
    def test_exhaustive_n3_gates(self):
        report = cross_validate(3)
        assert report.instance_count == 56
        assert report.cdz_oracle_disagreements == 0
        assert report.cdz_reduced_disagreements == 0
        assert report.violations == []
        cdz = report.cells["cdz"]
        assert cdz["oracle_yes_fails"] == 0 and cdz["oracle_no_holds"] == 0
        total = sum(cdz.values())
        assert total == 56
        assert report.oracle_yes == cdz["oracle_yes_holds"]

    def test_anomalous_criteria_tallied_not_gated(self):
        report = cross_validate(3)
        # bollobas holds on some non-realizable instances; that cell is
        # recorded but produces no violation entries
        assert report.cells["bollobas"]["oracle_no_holds"] > 0
        assert report.violations == []

    def test_json_round_trip_is_byte_identical(self):
        a = cross_validate(3).to_json()
        b = cross_validate(3).to_json()
        assert a == b

    def test_sampled_mode_deterministic(self):
        a = cross_validate(6, sample=120, seed=9)
        b = cross_validate(6, sample=120, seed=9)
        assert a.to_json() == b.to_json()
        assert a.cdz_oracle_disagreements == 0

    def test_too_large_without_sample(self):
        with pytest.raises(TooLarge):
            cross_validate(9)

    @pytest.mark.parametrize("n", [5, 6, 8, 9])
    def test_chunked_tallies_match_per_pair_checks(self, n):
        """A sample of 2 * SWEEP_CHUNK + 37 instances, not a whole number of
        chunks, tallied as the per-pair checkers and oracle queries say; at
        n = 8, the oracle's largest size, each box is also its own query.
        Past the oracle, at n = 9, every cell stays zero, the holds counts
        are still the checkers', and the JSON's oracle_yes is null."""
        size = 2 * SWEEP_CHUNK + 37
        report = cross_validate(n, sample=size, seed=n)
        cells = {name: dict.fromkeys(("oracle_yes_holds", "oracle_yes_fails",
                                      "oracle_no_holds", "oracle_no_fails"), 0)
                 for name in CHECKERS}
        holds_counts = dict.fromkeys(CHECKERS, 0)
        oracle_used = n <= MAX_EXHAUSTIVE_N
        oracle_yes = 0
        for pair in sample_instances(n, size, seed=n):
            realizable = oracle_used and oracle_realizable(pair).realizable
            oracle_yes += realizable
            for name, check in CHECKERS.items():
                holds = check(pair).holds
                holds_counts[name] += holds
                if oracle_used:
                    side = "oracle_yes" if realizable else "oracle_no"
                    cells[name][f"{side}_{'holds' if holds else 'fails'}"] += 1
        assert report.instance_count == size and report.oracle_used == oracle_used
        assert report.cells == cells and report.holds_counts == holds_counts
        assert 0 < holds_counts["cdz"] < size
        assert report.oracle_yes == (oracle_yes if oracle_used else None)
        assert json.loads(report.to_json())["oracle_yes"] == report.oracle_yes
        assert report.violations == [] and report.cdz_reduced_disagreements == 0

    def test_violations_come_in_instance_then_row_order(self, monkeypatch):
        """Planted faults break every gated arrow and cdz_reduced: the
        violations match a per-pair scan of the same rows in enumeration
        order, cdz_reduced against cdz first, then each criterion in turn."""
        monkeypatch.setitem(CRITERIA, "cdz_reduced", CRITERIA["hasselbarth"]._replace(gated=EXACT))
        monkeypatch.setitem(CRITERIA, "grunbaum", Criterion(
            lambda kernel: Verdicts(kernel.s % 3 == 0, kernel.s, None, kernel.lhs[:, 0],
                                    kernel.rhs[:, 0]), "Grunbaum", EXACT))
        names = tuple(CRITERIA)
        expected = []
        for index, pair in enumerate(enumerate_instances(4)):
            realizable = oracle_realizable(pair).realizable
            verdicts = {name: CRITERIA[name].check(pair.kernel).verdict(0) for name in names}
            rows = [("cdz_reduced", "reduced-vs-full", verdicts["cdz"] != verdicts["cdz_reduced"])]
            arrow = "necessity" if realizable else "sufficiency"
            rows += [(name, arrow, verdicts[name].holds != realizable
                      and arrow in CRITERIA[name].gated) for name in names]
            expected += [(index, name, arrow, verdicts[name].witness_t)
                         for name, arrow, broken in rows if broken]
        report = cross_validate(4)
        assert report.instance_count > SWEEP_CHUNK
        got = [(v["instance_index"], v["criterion"], v["direction"], v["witness_t"])
               for v in report.violations]
        assert got == expected
        assert {(name, arrow) for _, name, arrow, _ in got} == {
            ("cdz_reduced", "reduced-vs-full"), ("cdz_reduced", "sufficiency"),
            ("grunbaum", "necessity"), ("grunbaum", "sufficiency")}
        # the count is of reduced-vs-full flags, not of every violation
        # named cdz_reduced: its own gated arrows carry that name too
        reduced = [name for _, name, arrow, _ in got if arrow == "reduced-vs-full"]
        assert report.cdz_reduced_disagreements == len(reduced)
        assert len(reduced) < sum(name == "cdz_reduced" for _, name, _, _ in got)

    def test_every_reader_reads_the_table_at_the_call(self, monkeypatch):
        """With Hasselbarth's row planted as cdz_reduced, the report flags
        exactly the instances the sweep flags reduced-vs-full, and the
        per-pair checker gives the report's verdict."""
        monkeypatch.setitem(CRITERIA, "cdz_reduced", CRITERIA["hasselbarth"]._replace(gated=EXACT))
        flagged = [v["instance_index"] for v in cross_validate(4).violations
                   if v["direction"] == "reduced-vs-full"]
        inconsistent = []
        for index, pair in enumerate(enumerate_instances(4)):
            report = criteria_report(pair)
            assert check_cdz_reduced(pair) == report.verdicts["cdz_reduced"], pair
            if not report.cdz_consistent:
                inconsistent.append(index)
        assert len(flagged) == 35 and inconsistent == flagged

    def test_large_n_sampled_runs_without_oracle(self):
        report = cross_validate(9, sample=40, seed=1)
        assert not report.oracle_used
        assert report.instance_count == 40
        assert report.cdz_oracle_disagreements is None
        assert report.cdz_reduced_disagreements == 0

    def test_exhaustive_n4_cdz_tallies(self):
        """cdz holds on exactly the 604 realizable instances of the 715 at
        n = 4."""
        report = cross_validate(4)
        assert report.criteria == tuple(CRITERIA)
        assert report.instance_count == 715 and report.holds_counts["cdz"] == 604
        assert report.cells["cdz"]["oracle_no_fails"] == 111

    def test_rejects_negative_size(self):
        with pytest.raises(InputError):
            list(enumerate_instances(-1))
        with pytest.raises(InputError):
            cross_validate(-1, sample=5)


class TestImplicationMatrix:
    def test_n3_realizability_arrows_are_zero(self):
        matrix = implication_matrix(3)
        assert matrix.instance_count == 56
        for other in matrix.criteria:
            if other != "cdz":
                assert matrix.cell("cdz", other) == 0, other

    def test_n3_records_sufficiency_anomaly(self):
        matrix = implication_matrix(3)
        assert matrix.cell("bollobas", "cdz") > 0
        example = matrix.example("bollobas", "cdz")
        assert example is not None
        assert check_bollobas(example).holds
        assert not check_cdz(example).holds

    def test_explicit_pairs(self):
        """The anomaly pairs CE and (1,1,1) through the per-pair checkers:
        each counts in the bollobas->cdz and grunbaum->cdz cells of its size."""
        ones = normalize_good_order((1, 1, 1), (1, 1, 1)).pair
        for pair in (CE, ones):
            assert check_bollobas(pair).holds and check_grunbaum(pair).holds
            assert not check_cdz(pair).holds
        assert implication_matrix(3).cell("grunbaum", "cdz") > 0

    def test_json_deterministic(self):
        assert implication_matrix(3).to_json() == implication_matrix(3).to_json()

    def test_too_large(self):
        """Bounded like every exhaustive reader, with no advice to sample."""
        with pytest.raises(TooLarge, match="exhaustive sweep supports n <= 8") as refusal:
            implication_matrix(9)
        assert "sample" not in str(refusal.value)

    def test_rejects_negative_size(self):
        with pytest.raises(InputError):
            implication_matrix(-1)

    def test_cells_and_examples_match_per_pair_checks_over_many_chunks(self, monkeypatch):
        """In chunks of 64 the 715 instances at n = 4 span 12 chunks.  Each
        cell counts the instances where the per-pair checkers say x holds
        and y fails; each nonzero cell's example is the first of them in
        enumeration order, some past the first chunk, and a zero cell has
        none."""
        monkeypatch.setattr("degreebox.oracle.SWEEP_CHUNK", 64)
        assert len(list(_chunks(4))) == 12
        names = tuple(CRITERIA)
        counts = {(x, y): 0 for x in names for y in names if x != y}
        first = {}
        pairs = list(enumerate_instances(4))
        for index, pair in enumerate(pairs):
            holds = {name: check(pair).holds for name, check in CHECKERS.items()}
            for x, y in counts:
                if holds[x] and not holds[y]:
                    counts[(x, y)] += 1
                    first.setdefault((x, y), index)
        matrix = implication_matrix(4)
        assert matrix.instance_count == len(pairs) == 715
        assert matrix.counts == counts
        assert matrix.examples == {cell: pairs[index] for cell, index in first.items()}
        assert max(first.values()) >= 64
        for x, y in counts:
            assert (matrix.example(x, y) is None) == (matrix.cell(x, y) == 0)

    def test_text_has_a_row_per_criterion(self):
        """A header of every CRITERIA row, then one line per row, its own
        column a dash and every other column that cell's count."""
        matrix = implication_matrix(3)
        names = tuple(CRITERIA)
        assert matrix.criteria == names
        lines = matrix.to_text().splitlines()
        assert lines[2].split() == list(names)
        assert len(lines) == 3 + len(names)
        for x, line in zip(names, lines[3:]):
            assert line.split() == [x] + ["-" if x == y else str(matrix.cell(x, y)) for y in names]
