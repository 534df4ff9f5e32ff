import hashlib
import itertools
import random

import pytest

import ref_impl
from degreebox.criteria import (
    CHECKERS,
    check_berge_necessary,
    check_berge_sufficient,
    check_bollobas,
    check_cdz,
    check_cdz_reduced,
    check_erdos_gallai_fixed,
    check_fulkerson,
    check_fulkerson_exists,
    check_grunbaum,
    check_hasselbarth,
    check_ryser_interval,
    criteria_report,
)
from degreebox.errors import NegativeEntry, NotGoodOrder, NotNonIncreasing
from degreebox.oracle import ALL_CRITERIA, enumerate_instances, random_instances
from degreebox.sequences import (
    IntervalSequencePair,
    normalize_good_order,
    parity_corrections,
    validate_and_clamp,
)

CE = validate_and_clamp((5, 4, 3, 3, 3, 1), (5, 5, 3, 3, 3, 1))
TRIANGLE = validate_and_clamp((2, 2, 2), (2, 2, 2))
ODD_ONES = validate_and_clamp((1, 1, 1), (1, 1, 1))


def fixed(d):
    return validate_and_clamp(d, d)


class TestCdz:
    def test_counterexample_fails_at_two(self):
        v = check_cdz(CE)
        assert not v.holds
        assert (v.witness_t, v.lhs, v.rhs) == (2, 9, 8)

    def test_triangle_holds(self):
        assert check_cdz(TRIANGLE).holds

    def test_parity_obstruction_at_zero(self):
        v = check_cdz(ODD_ONES)
        assert not v.holds
        assert (v.witness_t, v.lhs, v.rhs) == (0, 0, -1)

    def test_rejects_unordered_input(self):
        with pytest.raises(NotGoodOrder):
            check_cdz(IntervalSequencePair((0, 1), (1, 1)))


class TestCdzReduced:
    def test_counterexample_fails_at_two(self):
        v = check_cdz_reduced(CE)
        assert (v.holds, v.witness_t) == (False, 2)

    def test_triangle_holds(self):
        assert check_cdz_reduced(TRIANGLE).holds

    def test_empty_bounds_hold(self):
        assert check_cdz_reduced(fixed((0, 0))).holds


class TestBergeNecessary:
    def test_counterexample_holds_everywhere(self):
        assert check_berge_necessary(CE).holds

    def test_known_failure(self):
        v = check_berge_necessary(fixed((3, 3, 1, 1)))
        assert (v.witness_t, v.lhs, v.rhs) == (2, 6, 4)

    def test_zeros_hold(self):
        assert check_berge_necessary(fixed((0, 0, 0))).holds


class TestBergeSufficient:
    def test_counterexample_fails_at_two(self):
        v = check_berge_sufficient(CE)
        assert (v.witness_t, v.lhs, v.rhs) == (2, 9, 8)

    def test_loose_box_holds(self):
        assert check_berge_sufficient(validate_and_clamp((0, 0, 0), (2, 2, 2))).holds

    def test_triangle_holds(self):
        assert check_berge_sufficient(TRIANGLE).holds


class TestFulkerson:
    def test_counterexample_smallest_witness(self):
        v = check_fulkerson(CE)
        assert (v.witness_t, v.witness_m, v.lhs, v.rhs) == (2, 1, 9, 8)

    def test_triangle_holds(self):
        assert check_fulkerson(TRIANGLE).holds

    def test_single_vertex_holds(self):
        assert check_fulkerson(fixed((0,))).holds


class TestBollobas:
    def test_odd_ones_anomaly_holds(self):
        # not realizable, yet the inequality family is satisfied everywhere
        assert check_bollobas(ODD_ONES).holds

    def test_counterexample_anomaly_holds(self):
        assert check_bollobas(CE).holds

    def test_known_failure(self):
        v = check_bollobas(fixed((3, 3, 1, 1)))
        assert (v.witness_t, v.lhs, v.rhs) == (2, 6, 4)


class TestGrunbaum:
    def test_known_failure_smallest_witness(self):
        # the parity correction is already 1 at t=2, which fails before t=3
        v = check_grunbaum(fixed((3, 3, 3, 1)))
        assert (v.witness_t, v.lhs, v.rhs) == (2, 6, 5)
        lhs3, rhs3 = ref_impl.eval_at("grunbaum", fixed((3, 3, 3, 1)), 3)
        assert (lhs3, rhs3) == (9, 7)  # t=3 fails as well, just not first

    def test_odd_ones_anomaly_holds(self):
        assert check_grunbaum(ODD_ONES).holds

    def test_triangle_holds(self):
        assert check_grunbaum(TRIANGLE).holds


class TestHasselbarth:
    def test_counterexample_fails_at_two(self):
        v = check_hasselbarth(CE)
        assert (v.witness_t, v.lhs, v.rhs) == (2, 9, 8)

    def test_odd_ones_fail_at_zero(self):
        v = check_hasselbarth(ODD_ONES)
        assert (v.witness_t, v.lhs, v.rhs) == (0, 0, -1)

    def test_triangle_holds(self):
        assert check_hasselbarth(TRIANGLE).holds


class TestErdosGallaiFixed:
    def test_counterexample_upper_not_graphic(self):
        v = check_erdos_gallai_fixed((5, 5, 3, 3, 3, 1))
        assert (v.witness_t, v.lhs, v.rhs) == (2, 10, 9)

    def test_odd_sum(self):
        v = check_erdos_gallai_fixed((4, 2, 2, 2, 1))
        assert (v.witness_t, v.lhs, v.rhs) == (0, 0, -1)

    def test_triangle(self):
        assert check_erdos_gallai_fixed((2, 2, 2)).holds

    def test_rejects_unsorted(self):
        with pytest.raises(NotNonIncreasing):
            check_erdos_gallai_fixed((1, 2))

    def test_rejects_negative_entry(self):
        with pytest.raises(NegativeEntry):
            check_erdos_gallai_fixed((1, 0, -1))

    def test_oversized_entry_fails_at_one(self):
        v = check_erdos_gallai_fixed((5, 1, 1, 1))
        assert (v.witness_t, v.lhs, v.rhs) == (1, 5, 3)


class TestCriteriaReport:
    def test_counterexample_verdict_table(self):
        report = criteria_report(CE)
        outcome = {
            name: (v.holds, v.witness_t, v.witness_m)
            for name, v in report.verdicts.items()
        }
        assert outcome == {
            "cdz": (False, 2, None),
            "cdz_reduced": (False, 2, None),
            "berge_necessary": (True, None, None),
            "berge_sufficient": (False, 2, None),
            "fulkerson": (False, 2, 1),
            "bollobas": (True, None, None),
            "grunbaum": (True, None, None),
            "hasselbarth": (False, 2, None),
        }
        assert report.cdz_consistent

    def test_triangle_all_hold(self):
        report = criteria_report(TRIANGLE)
        assert all(v.holds for v in report.verdicts.values())

    def test_empty_pair_all_hold(self):
        report = criteria_report(validate_and_clamp((), ()))
        assert all(v.holds for v in report.verdicts.values())
        assert report.cdz_consistent


def _all_small_pairs():
    for n in range(0, 5):
        yield from enumerate_instances(n)


@pytest.mark.parametrize("check", [
    check_cdz, check_cdz_reduced, check_berge_necessary, check_berge_sufficient,
    check_fulkerson, check_fulkerson_exists, check_bollobas, check_grunbaum,
    check_hasselbarth, check_ryser_interval, criteria_report,
], ids=lambda f: f.__name__)
def test_public_checkers_reject_unordered_input(check):
    pair = IntervalSequencePair((0, 1), (1, 1))
    for _ in range(2):  # a failed good-order check leaves nothing cached
        with pytest.raises(NotGoodOrder):
            check(pair)


def test_one_pass_rows_match_per_checker_verdicts():
    """Every ALL_CRITERIA row evaluated as a sweep does it, all on one pair
    object and so all off one kernel pass, against a pinned digest.

    The digest covers holds, witness t and m, lhs and rhs of every row on
    every good-ordered pair with n <= 4 and on 60 seeded boxes (every
    fourth up to n = 300, the rest up to 60, every third the point box
    (b; b)).  It was pinned when each checker ran its own kernel and
    head-deficit passes.  The streaming check_cdz must agree with the
    cdz row read off the pass.
    """
    rng = random.Random(20261021)
    boxes = []
    for k in range(60):
        a, b = ref_impl.random_box(rng, rng.randint(1, 300 if k % 4 == 0 else 60))
        boxes.append(normalize_good_order(b if k % 3 == 1 else a, b).pair)
    out = hashlib.sha256()
    for pair in itertools.chain(_all_small_pairs(), boxes):
        for name, check in ALL_CRITERIA.items():
            v = check(pair)
            out.update(repr((name, v.holds, v.witness_t, v.witness_m, v.lhs, v.rhs)).encode())
        assert check_cdz(pair) == ALL_CRITERIA["cdz"](pair), pair
    assert out.hexdigest() == "3419c7646664a682c1f56bca4ab5f6c91c5dd960ff058ebdc46459bb3e20d8a6"


def test_checkers_match_reference_scan_exhaustively():
    """Every verdict equals an independent plain-scan evaluation, n <= 4."""
    for pair in _all_small_pairs():
        for name, checker in CHECKERS.items():
            verdict = checker(pair)
            expected = ref_impl.smallest_failure(name, pair)
            if expected is None:
                assert verdict.holds, (name, pair)
            else:
                t, m, lhs, rhs = expected
                assert (verdict.witness_t, verdict.witness_m) == (t, m), (name, pair)
                assert (verdict.lhs, verdict.rhs) == (lhs, rhs), (name, pair)


def test_checkers_match_reference_on_random_instances():
    for pair in random_instances(400, 10, seed=7):
        for name in CHECKERS:
            verdict = CHECKERS[name](pair)
            expected = ref_impl.smallest_failure(name, pair)
            if expected is None:
                assert verdict.holds, (name, pair)
            else:
                assert (verdict.witness_t, verdict.witness_m) == expected[:2], (name, pair)


def test_failure_witnesses_reverify():
    for pair in itertools.islice(random_instances(300, 9, seed=13), 300):
        for name, checker in CHECKERS.items():
            v = checker(pair)
            if v.holds:
                continue
            lhs, rhs = ref_impl.eval_at(name, pair, v.witness_t, v.witness_m)
            assert lhs > rhs
            assert (lhs, rhs) == (v.lhs, v.rhs)


def test_cdz_with_degenerate_box_matches_erdos_gallai():
    """Fixed-sequence realizability: the parity mechanism covers the even sum."""
    for n in range(1, 7):
        for d in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
            assert check_cdz(fixed(d)).holds == check_erdos_gallai_fixed(d).holds, d


def test_fulkerson_exists_variant_is_strictly_weaker():
    """Per-t existential tail choice passes instances the universal form rejects."""
    assert not check_fulkerson(CE).holds
    assert check_fulkerson_exists(CE).holds  # m=0 satisfies every t here
    for pair in _all_small_pairs():
        if check_fulkerson(pair).holds:
            assert check_fulkerson_exists(pair).holds, pair


def _ref_fulkerson_exists(pair):
    """First t whose every tail length m fails, with the first m of largest rhs."""
    for t in range(pair.n + 1):
        rows = [ref_impl.eval_at("fulkerson", pair, t, m) for m in range(pair.n - t + 1)]
        if all(lhs > rhs for lhs, rhs in rows):
            lhs, rhs = max(rows, key=lambda row: row[1])
            return t, rows.index((lhs, rhs)), lhs, rhs
    return None


def test_fulkerson_exists_matches_plain_scan():
    """Witness (t, m) and both sides against the definition, n <= 4 and up to 40."""
    rng = random.Random(20261018)
    boxes = [normalize_good_order(*ref_impl.random_box(rng, rng.randint(1, 40))).pair
             for _ in range(100)]
    failures = 0
    for pair in itertools.chain(_all_small_pairs(), boxes):
        v = check_fulkerson_exists(pair)
        expected = _ref_fulkerson_exists(pair)
        if expected is None:
            assert v.holds, pair
        else:
            failures += 1
            assert (v.witness_t, v.witness_m, v.lhs, v.rhs) == expected, pair
    assert failures


def test_bollobas_and_grunbaum_are_the_same_family():
    """The two families are linked by the truncation identities.

    Each t-inequality of one is the other's shifted by the same amount on
    both sides, so verdicts and witnesses coincide (margins differ).
    """
    for pair in _all_small_pairs():
        vb = check_bollobas(pair)
        vg = check_grunbaum(pair)
        assert vb.holds == vg.holds
        assert vb.witness_t == vg.witness_t
        if not vb.holds:
            assert vb.lhs - vb.rhs == vg.lhs - vg.rhs


def test_cdz_kernel_matches_reference_scan_past_the_oracle():
    """Every checker's verdict and witness against plain scans past n = 10.

    At these sizes the kernel's threshold histograms hold many cells per
    value, which the exhaustive n <= 4 sweep above cannot reach.  The CDZ
    families and eps run up to n = 60; the others up to n = 40, where
    the O(n^3) reference Berge and Fulkerson scans stay fast.
    """
    rng = random.Random(20261018)
    verdicts = {name: set() for name in CHECKERS}
    for _ in range(300):
        a, b = ref_impl.random_box(rng, rng.randint(1, 60))
        pair = normalize_good_order(a, b).pair
        assert parity_corrections(pair) == tuple(
            ref_impl.ref_eps(pair, t) for t in range(pair.n + 1)
        ), pair
        names = CHECKERS if pair.n <= 40 else ("cdz", "cdz_reduced")
        for name in names:
            verdict = CHECKERS[name](pair)
            expected = ref_impl.smallest_failure(name, pair)
            if expected is None:
                assert verdict.holds, (name, pair)
            else:
                got = (verdict.witness_t, verdict.witness_m, verdict.lhs, verdict.rhs)
                assert got == expected, (name, pair)
            verdicts[name].add(verdict.holds)
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts


def test_head_deficit_families_match_plain_scan_to_n_300():
    """Berge, Hasselbarth, Bollobas and Grunbaum against plain scans, n <= 300.

    ref_impl.eval_at rebuilds the Berge matrix for every t; here berge(b),
    conj(b) and eps are built once per pair and every rhs is summed from
    its definition, so the reference stays O(n^2) and reaches the sizes
    where the head histogram of ``_head_deficits`` holds many entries per
    value.  Every third pair is the point box (b; b), where every cell is
    forced and eps(t) decides more often.  Witness t, lhs and rhs must
    all match.
    """
    rng = random.Random(20261019)
    names = ("berge_necessary", "berge_sufficient", "bollobas", "grunbaum", "hasselbarth")
    verdicts = {name: set() for name in names}
    for k, n in enumerate([300] + [rng.randint(1, 300) for _ in range(79)]):
        a, b = ref_impl.random_box(rng, n)
        pair = normalize_good_order(b if k % 3 == 1 else a, b).pair
        a, b = pair.a, pair.b
        berge, conj = ref_impl.ref_berge(b), ref_impl.ref_conj(b)
        rows = {name: [] for name in names}
        for t in range(n + 1):
            lhs, eps, tail = sum(a[:t]), ref_impl.ref_eps(pair, t), sum(b[t:])
            clip = sum(min(x, t - 1) for x in a[:t])
            rows["berge_necessary"].append((lhs, sum(berge[:t])))
            rows["berge_sufficient"].append((lhs, sum(berge[:t]) - eps))
            rows["bollobas"].append((lhs, tail + clip - eps))
            rows["grunbaum"].append(
                (sum(max(t - 1, x) for x in a[:t]), t * (t - 1) + tail - eps))
            rows["hasselbarth"].append((lhs, sum(conj[:t]) - t - eps))
        del rows["hasselbarth"][ref_impl.ref_s(pair):]
        for name, row in rows.items():
            expected = next(((t, l, r) for t, (l, r) in enumerate(row) if l > r), None)
            verdict = CHECKERS[name](pair)
            got = None if verdict.holds else (verdict.witness_t, verdict.lhs, verdict.rhs)
            assert got == expected, (name, pair)
            verdicts[name].add(verdict.holds)
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts


def test_erdos_gallai_linear_scan_matches_reference():
    """Verdicts and smallest witnesses against the plain scan, n up to 300.

    Sequences are G(n, p) degree vectors (graphic), the same with two
    entries raised by one (even total, often not graphic), and uniform
    draws in 0..n that include entries no simple graph has.
    """
    rng = random.Random(20261018)
    witnesses = set()
    for k in range(300):
        n = rng.randint(0, 300)
        if k % 3 == 0:
            d = [rng.randint(0, n) for _ in range(n)]
        else:
            d = [0] * n
            p = rng.random()
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    d[u] += 1
                    d[v] += 1
            if k % 3 == 2 and n >= 2:
                for i in rng.sample(range(n), 2):
                    d[i] += 1
        d = tuple(sorted(d, reverse=True))
        verdict = check_erdos_gallai_fixed(d)
        expected = ref_impl.ref_erdos_gallai_failure(d)
        if expected is None:
            assert verdict.holds, d
        else:
            assert (verdict.holds, verdict.witness_t, verdict.lhs, verdict.rhs) == (
                False, *expected), d
        witnesses.add(None if verdict.holds else min(verdict.witness_t, 2))
    assert witnesses == {None, 0, 1, 2}
