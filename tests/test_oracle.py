import random

import pytest

from degreebox.criteria import check_cdz
from degreebox.errors import InputError, TooLarge, UnknownCriterion
from degreebox.oracle import (
    SWEEP_CHUNK,
    _box_counts,
    _oracle_decisions,
    cross_validate,
    enumerate_instances,
    implication_matrix,
    instance_space_size,
    oracle_decide,
    oracle_realizable,
    random_instances,
    sample_instances,
    unrank_instance,
)
from degreebox.sequences import (
    IntervalSequencePair,
    is_good_order,
    normalize_good_order,
    validate_and_clamp,
)
from ref_impl import ref_witness_count

CE = validate_and_clamp((5, 4, 3, 3, 3, 1), (5, 5, 3, 3, 3, 1))


class TestOracle:
    def test_counterexample_has_no_witness(self):
        result = oracle_realizable(CE)
        assert result == (False, 0)

    def test_triangle_unique_witness(self):
        result = oracle_realizable(validate_and_clamp((2, 2, 2), (2, 2, 2)))
        assert result == (True, 1)

    def test_slack_two_vertex_box(self):
        result = oracle_realizable(validate_and_clamp((0, 0), (1, 1)))
        assert result == (True, 2)

    def test_empty_instance(self):
        assert oracle_realizable(validate_and_clamp((), ())) == (True, 1)

    def test_too_large(self):
        pair = validate_and_clamp((0,) * 8, (0,) * 8)
        with pytest.raises(TooLarge):
            oracle_realizable(pair)
        with pytest.raises(TooLarge):
            oracle_decide(pair)

    def test_count_matches_reference_exhaustively(self):
        for n in range(0, 5):
            for pair in enumerate_instances(n):
                count = ref_witness_count(pair)
                assert oracle_realizable(pair) == (count > 0, count), pair
                assert oracle_decide(pair) == (count > 0)

    @pytest.mark.parametrize("n, size", [(5, 400), (6, 40)])
    def test_count_matches_reference_sampled(self, n, size):
        for pair in sample_instances(n, size, seed=5):
            count = ref_witness_count(pair)
            assert oracle_realizable(pair) == (count > 0, count), pair

    @pytest.mark.parametrize("n", range(8))
    def test_batched_counts_match_per_box_queries(self, n):
        """One gather over many boxes, and a sweep's chunked decisions, equal
        per-box oracle_realizable; past n = 3 the batch of 2 * SWEEP_CHUNK + 37
        boxes is not a whole number of chunks."""
        pairs = sample_instances(n, 2 * SWEEP_CHUNK + 37, seed=n)
        expected = [oracle_realizable(pair) for pair in pairs]
        counts = _box_counts(n, [p.a for p in pairs], [p.b for p in pairs])
        assert counts.tolist() == [r.witness_count for r in expected]
        decided = list(_oracle_decisions(n, pairs))
        assert decided == [(p, r.realizable) for p, r in zip(pairs, expected)]

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
            if not oracle_decide(pair):
                continue
            wider_a = tuple(max(0, x - rng.randint(0, 1)) for x in pair.a)
            wider_b = tuple(min(4, x + rng.randint(0, 1)) for x in pair.b)
            wider = normalize_good_order(wider_a, wider_b).pair
            assert oracle_decide(wider), (pair, wider)


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
                assert is_good_order(pair)
                assert all(0 <= lo <= hi <= n - 1 for lo, hi in zip(pair.a, pair.b))
                seen.add((pair.a, pair.b))
            assert len(seen) == instance_space_size(n)

    def test_unrank_matches_enumeration(self):
        instances = list(enumerate_instances(3))
        for rank, pair in enumerate(instances):
            assert unrank_instance(3, rank) == pair

    def test_unrank_spot_checks_at_n5(self):
        instances = list(enumerate_instances(5))
        for rank in (0, 1, 777, 11627):
            assert unrank_instance(5, rank) == instances[rank]

    def test_sampling_is_seeded_and_uniform_without_replacement(self):
        first = sample_instances(6, 100, seed=42)
        second = sample_instances(6, 100, seed=42)
        assert first == second
        assert len({(p.a, p.b) for p in first}) == 100
        other = sample_instances(6, 100, seed=43)
        assert other != first

    def test_sampling_past_2_to_62_instances(self):
        """Spaces too large for range() are sampled by rejection, still seeded."""
        assert instance_space_size(20) > 1 << 62
        first = sample_instances(20, 30, seed=5)
        assert first == sample_instances(20, 30, seed=5)
        assert len({(p.a, p.b) for p in first}) == 30
        assert all(is_good_order(p) and p.n == 20 for p in first)

    def test_sampling_more_than_space_returns_everything(self):
        assert len(sample_instances(2, 10_000, seed=0)) == 6

    def test_random_instances_deterministic(self):
        a = list(random_instances(50, 9, seed=11))
        b = list(random_instances(50, 9, seed=11))
        assert a == b
        assert all(is_good_order(p) for p in a)


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
        a = cross_validate(6, criteria=["cdz", "cdz_reduced"], sample=120, seed=9)
        b = cross_validate(6, criteria=["cdz", "cdz_reduced"], sample=120, seed=9)
        assert a.to_json() == b.to_json()
        assert a.cdz_oracle_disagreements == 0

    def test_too_large_without_sample(self):
        with pytest.raises(TooLarge):
            cross_validate(8)

    def test_large_n_sampled_runs_without_oracle(self):
        report = cross_validate(9, criteria=["cdz", "cdz_reduced"], sample=40, seed=1)
        assert not report.oracle_used
        assert report.instance_count == 40
        assert report.cdz_oracle_disagreements is None
        assert report.cdz_reduced_disagreements == 0

    def test_unknown_criterion(self):
        with pytest.raises(UnknownCriterion):
            cross_validate(3, criteria=["nonsense"])

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
        from degreebox.criteria import check_bollobas

        assert check_bollobas(example).holds
        assert not check_cdz(example).holds

    def test_explicit_pairs(self):
        ones = validate_and_clamp((1, 1, 1), (1, 1, 1))
        matrix = implication_matrix(pairs=[CE, ones])
        assert matrix.instance_count == 2
        assert matrix.cell("bollobas", "cdz") == 2
        assert matrix.cell("grunbaum", "cdz") == 2
        assert matrix.example("bollobas", "cdz") == CE

    def test_json_deterministic(self):
        assert implication_matrix(3).to_json() == implication_matrix(3).to_json()

    def test_too_large(self):
        with pytest.raises(TooLarge):
            implication_matrix(7)
