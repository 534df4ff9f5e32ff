import random

import pytest
from hypothesis import given, strategies as st

import ref_impl

from degreebox.errors import (
    EntryTooLarge,
    IndexOutOfRange,
    LengthMismatch,
    LowerExceedsMaxDegree,
    LowerExceedsUpper,
    NotNonIncreasing,
)
from degreebox.sequences import (
    IntervalSequencePair,
    berge_sequence,
    conjugate_sequence,
    crossing_index,
    crossing_indices,
    is_good_order,
    max_sum_identities_hold,
    normalize_good_order,
    parity_correction,
    parity_support,
    tilde_sequence,
    validate_and_clamp,
)

CE_A = (5, 4, 3, 3, 3, 1)
CE_B = (5, 5, 3, 3, 3, 1)


def ref_parity_correction(pair, t):
    """Independent evaluation straight from the definition."""
    support = [j for j in range(pair.n) if j >= t and pair.b[j] >= t + 1]
    if any(pair.a[j] != pair.b[j] for j in support):
        return 0
    return (sum(pair.b[j] for j in support) + t * len(support)) % 2


class TestValidateAndClamp:
    def test_counterexample_accepted_unchanged(self):
        pair = validate_and_clamp(CE_A, CE_B)
        assert pair.a == CE_A
        assert pair.b == CE_B
        assert pair.n == 6

    def test_upper_bounds_clamped(self):
        pair = validate_and_clamp((0, 0), (9, 9))
        assert pair.b == (1, 1)

    def test_lower_bound_above_max_degree_rejected(self):
        with pytest.raises(LowerExceedsMaxDegree):
            validate_and_clamp((3, 0), (3, 3))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_and_clamp((1, 2), (1,))

    def test_lower_exceeds_upper(self):
        with pytest.raises(LowerExceedsUpper):
            validate_and_clamp((2, 0, 0), (1, 0, 0))

    def test_empty_pair(self):
        pair = validate_and_clamp((), ())
        assert pair.n == 0


class TestGoodOrder:
    def test_counterexample_is_good(self):
        assert is_good_order(validate_and_clamp(CE_A, CE_B))

    def test_increasing_lower_is_not_good(self):
        assert not is_good_order(IntervalSequencePair((3, 4), (4, 4)))

    def test_equal_lower_increasing_upper_is_not_good(self):
        assert not is_good_order(IntervalSequencePair((3, 3), (3, 4)))


class TestNormalize:
    def test_single_swap(self):
        norm = normalize_good_order((1, 3, 0, 0), (2, 3, 0, 0))
        assert norm.pair.a == (3, 1, 0, 0)
        assert norm.pair.b == (3, 2, 0, 0)
        assert norm.perm == (1, 0, 2, 3)

    def test_already_ordered_identity_perm(self):
        norm = normalize_good_order(CE_A, CE_B)
        assert norm.pair.a == CE_A
        assert norm.perm == tuple(range(6))

    def test_upper_bound_breaks_tie(self):
        # cells with equal lower bounds sort by upper bound, descending
        norm = normalize_good_order((3, 3, 0, 0, 0), (3, 4, 1, 1, 1))
        assert norm.pair.a == (3, 3, 0, 0, 0)
        assert norm.pair.b == (4, 3, 1, 1, 1)
        assert norm.perm == (1, 0, 2, 3, 4)

    def test_rejects_what_validation_rejects(self):
        # lower bounds above n-1 cannot be met by any simple graph
        with pytest.raises(LowerExceedsMaxDegree):
            normalize_good_order((3, 3), (3, 4))
        with pytest.raises(LowerExceedsMaxDegree):
            normalize_good_order((1, 3), (2, 3))


class TestBergeSequence:
    def test_five_vertex_example(self):
        assert berge_sequence((4, 2, 2, 2, 1)) == (4, 3, 2, 1, 1)

    def test_counterexample_upper(self):
        assert berge_sequence(CE_B) == (5, 4, 4, 3, 2, 2)

    def test_zero_sequence(self):
        assert berge_sequence((0, 0, 0)) == (0, 0, 0)

    def test_entry_too_large(self):
        with pytest.raises(EntryTooLarge):
            berge_sequence((3, 0, 0))


def test_berge_sequence_matches_constructed_matrix():
    """Unsorted seeded sequences, n in 0..60, against the literal 0-1 matrix.

    Entry caps vary per sequence, so both sparse rows (d[k] < k, no
    diagonal skip) and dense ones (d[k] > k) occur at every size.
    """
    rng = random.Random(20261019)
    for _ in range(600):
        n = rng.randint(0, 60)
        top = rng.randrange(n) if n else 0
        d = [rng.randint(0, top) for _ in range(n)]
        assert berge_sequence(d) == ref_impl.ref_berge(d), d


class TestConjugateSequence:
    def test_counterexample_upper(self):
        assert conjugate_sequence(CE_B) == (6, 5, 5, 2, 2, 0)

    def test_five_vertex_example(self):
        assert conjugate_sequence((4, 2, 2, 2, 1)) == (5, 4, 1, 1, 0)

    def test_zero_sequence(self):
        assert conjugate_sequence((0, 0)) == (0, 0)


class TestTildeSequence:
    def test_counterexample_lower(self):
        assert tilde_sequence(CE_A) == (6, 5, 4, 3, 3, 1)

    def test_counterexample_upper(self):
        assert tilde_sequence(CE_B) == (6, 6, 4, 3, 3, 1)

    def test_all_zero(self):
        assert tilde_sequence((0, 0, 0)) == (0, 0, 0)

    def test_requires_non_increasing(self):
        with pytest.raises(NotNonIncreasing):
            tilde_sequence((1, 2))


class TestParitySupport:
    def test_counterexample_t2(self):
        pair = validate_and_clamp(CE_A, CE_B)
        assert parity_support(pair, 2) == frozenset({2, 3, 4})

    def test_t_equals_n_is_empty(self):
        pair = validate_and_clamp(CE_A, CE_B)
        assert parity_support(pair, 6) == frozenset()

    def test_triangle_t1(self):
        pair = validate_and_clamp((2, 2, 2), (2, 2, 2))
        assert parity_support(pair, 1) == frozenset({1, 2})

    def test_out_of_range(self):
        pair = validate_and_clamp((0,), (0,))
        with pytest.raises(IndexOutOfRange):
            parity_support(pair, 2)


class TestParityCorrection:
    def test_counterexample_t2_is_one(self):
        pair = validate_and_clamp(CE_A, CE_B)
        assert parity_correction(pair, 2) == 1

    def test_triangle_t0_even_sum(self):
        pair = validate_and_clamp((2, 2, 2), (2, 2, 2))
        assert parity_correction(pair, 0) == 0

    def test_slack_bound_gives_zero(self):
        pair = validate_and_clamp((0,), (1,))
        assert parity_correction(pair, 0) == 0

    def test_odd_forced_sum(self):
        pair = validate_and_clamp((1, 1, 1), (1, 1, 1))
        assert parity_correction(pair, 0) == 1


class TestCrossingIndices:
    def test_counterexample(self):
        pair = validate_and_clamp(CE_A, CE_B)
        profile = crossing_indices(pair)
        assert profile.s == 4
        assert profile.g_a == 3
        assert profile.g_b == 3

    def test_single_zero_vertex(self):
        profile = crossing_indices(validate_and_clamp((0,), (0,)))
        assert profile.s == 1
        assert profile.g_a == 0


class TestMaxSumIdentities:
    def test_small_example(self):
        assert max_sum_identities_hold((5, 4, 3), 3)

    def test_zero_sequence(self):
        for t in range(1, 5):
            assert max_sum_identities_hold((0, 0, 0, 0), t)

    def test_base_case(self):
        assert max_sum_identities_hold((1,), 1)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            max_sum_identities_hold((1, 2), 3)


# --- randomized invariants -------------------------------------------------

bounded_degrees = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
)


@given(bounded_degrees)
def test_berge_and_conjugate_preserve_sum(d):
    assert sum(berge_sequence(d)) == sum(d)
    assert sum(conjugate_sequence(d)) == sum(d)


@given(bounded_degrees.map(lambda d: sorted(d, reverse=True)))
def test_conjugate_involution(d):
    twice = conjugate_sequence(conjugate_sequence(d))
    def strip(seq):
        out = list(seq)
        while out and out[-1] == 0:
            out.pop()
        return out
    assert strip(twice) == strip(d)


@given(bounded_degrees.map(lambda d: sorted(d, reverse=True)))
def test_berge_conjugate_prefix_identity(d):
    bar = berge_sequence(d)
    conj = conjugate_sequence(d)
    f = crossing_index(d)
    for k in range(1, f + 1):
        assert sum(bar[:k]) == sum(conj[:k]) - k


def test_prefix_identity_documented_case():
    d = (4, 2, 2, 2, 1)
    bar = berge_sequence(d)
    conj = conjugate_sequence(d)
    assert crossing_index(d) == 2
    assert (sum(bar[:1]), sum(bar[:2])) == (4, 7)
    assert (sum(conj[:1]) - 1, sum(conj[:2]) - 2) == (4, 7)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=12), st.data())
def test_max_sum_identities_always_hold(p, data):
    t = data.draw(st.integers(1, len(p)))
    assert max_sum_identities_hold(p, t)


interval_pairs = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda c: (min(c), max(c))
        ),
        min_size=n,
        max_size=n,
    )
)


@given(interval_pairs, st.data())
def test_parity_correction_matches_reference(cells, data):
    cells.sort(key=lambda c: (-c[0], -c[1]))
    pair = IntervalSequencePair(
        tuple(c[0] for c in cells), tuple(c[1] for c in cells)
    )
    t = data.draw(st.integers(0, pair.n))
    eps = parity_correction(pair, t)
    assert eps in (0, 1)
    assert eps == ref_parity_correction(pair, t)
    if any(pair.a[j] != pair.b[j] for j in parity_support(pair, t)):
        assert eps == 0


@given(interval_pairs)
def test_normalize_round_trip(cells):
    a = [c[0] for c in cells]
    b = [c[1] for c in cells]
    norm = normalize_good_order(a, b)
    assert is_good_order(norm.pair)
    assert sorted(norm.perm) == list(range(len(a)))
    for i, p in enumerate(norm.perm):
        assert a[p] == norm.pair.a[i]
        assert b[p] == norm.pair.b[i]
