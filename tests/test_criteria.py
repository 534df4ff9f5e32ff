import hashlib
import itertools
import random

import numpy as np
import pytest

import ref_impl
from degreebox import criteria
from degreebox.criteria import (
    CHECKERS,
    CRITERIA,
    CriterionVerdict,
    check_berge_necessary,
    check_berge_sufficient,
    check_bollobas,
    check_cdz,
    check_cdz_reduced,
    check_fulkerson,
    check_grunbaum,
    check_hasselbarth,
    check_ryser_interval,
    criteria_report,
)
from degreebox.errors import LowerExceedsMaxDegree, NotGoodOrder
from degreebox.oracle import _chunks, enumerate_instances
from degreebox.realize import _cdz_holds
from degreebox.sequences import IntervalSequencePair, kernel_pass, normalize_good_order

CE = normalize_good_order((5, 4, 3, 3, 3, 1), (5, 5, 3, 3, 3, 1)).pair
TRIANGLE = normalize_good_order((2, 2, 2), (2, 2, 2)).pair
ODD_ONES = normalize_good_order((1, 1, 1), (1, 1, 1)).pair
# the rows with a witness t, which the plain scans of ref_impl reproduce;
# ryser_interval reports none, and tests/test_realization.py checks it
SCANNED = tuple(name for name in CHECKERS if name != "ryser_interval")


def fixed(d):
    return normalize_good_order(d, d).pair


def random_pairs(count, max_n, seed):
    """count seeded ref_impl.random_box pairs in good order, 1 <= n <= max_n."""
    rng = random.Random(seed)
    return [normalize_good_order(*ref_impl.random_box(rng, rng.randint(1, max_n))).pair
            for _ in range(count)]


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
        assert check_berge_sufficient(normalize_good_order((0, 0, 0), (2, 2, 2)).pair).holds

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
    """Fixed-sequence graphicality is check_cdz on the point box (d; d)."""

    def test_counterexample_upper_not_graphic(self):
        v = check_cdz(fixed((5, 5, 3, 3, 3, 1)))
        assert (v.witness_t, v.lhs, v.rhs) == (2, 10, 8)

    def test_odd_sum(self):
        v = check_cdz(fixed((4, 2, 2, 2, 1)))
        assert (v.witness_t, v.lhs, v.rhs) == (0, 0, -1)

    def test_triangle(self):
        assert check_cdz(fixed((2, 2, 2))).holds


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
            "ryser_interval": (True, None, None),
        }
        assert list(report.verdicts) == list(CRITERIA)
        assert report.cdz_consistent

    def test_triangle_all_hold(self):
        report = criteria_report(TRIANGLE)
        assert all(v.holds for v in report.verdicts.values())

    def test_empty_pair_all_hold(self):
        report = criteria_report(normalize_good_order((), ()).pair)
        assert all(v.holds for v in report.verdicts.values())
        assert report.cdz_consistent


def _all_small_pairs():
    for n in range(0, 5):
        yield from enumerate_instances(n)


@pytest.mark.parametrize("check", [
    check_cdz, check_cdz_reduced, check_berge_necessary, check_berge_sufficient,
    check_fulkerson, check_bollobas, check_grunbaum,
    check_hasselbarth, check_ryser_interval, criteria_report,
], ids=lambda f: f.__name__)
def test_public_checkers_reject_unordered_input(check):
    pair = IntervalSequencePair((0, 1), (1, 1))
    for _ in range(2):  # a failed good-order check leaves nothing cached
        with pytest.raises(NotGoodOrder):
            check(pair)


PINNED_VERDICTS = "3419c7646664a682c1f56bca4ab5f6c91c5dd960ff058ebdc46459bb3e20d8a6"


def _batch_verdicts(pairs):
    """Every CRITERIA row over pairs, each equal-n group as one batch:
    out[i][name] is pair i's verdict."""
    out = [{} for _ in pairs]
    for n in sorted({pair.n for pair in pairs}):
        group = [i for i, pair in enumerate(pairs) if pair.n == n]
        kernel = kernel_pass([pairs[i].a for i in group], [pairs[i].b for i in group])
        for name, row in CRITERIA.items():
            verdicts = row.check(kernel)
            for j, i in enumerate(group):
                out[i][name] = verdicts.verdict(j)
    return out


def test_one_pass_rows_match_per_checker_verdicts():
    """Every CHECKERS checker, all on one pair object and so all off one
    kernel pass, and every CRITERIA row over batches, against a pinned digest.

    The digest covers holds, witness t and m, lhs and rhs of every row on
    every good-ordered pair with n <= 4 and on 60 seeded boxes (every
    fourth up to n = 300, the rest up to 60, every third the point box
    (b; b)).  It was pinned when each checker ran its own kernel and
    head-deficit passes, and when the table had a tenth row,
    fulkerson_exists, whose entries now come from ``_ref_fulkerson_exists``.
    The batch digest evaluates each equal-n group of those pairs as one
    batch.  The scalar CDZ stream must agree with the cdz row read off
    the pass.
    """
    rng = random.Random(20261021)
    boxes = []
    for k in range(60):
        a, b = ref_impl.random_box(rng, rng.randint(1, 300 if k % 4 == 0 else 60))
        boxes.append(normalize_good_order(b if k % 3 == 1 else a, b).pair)
    pairs = list(itertools.chain(_all_small_pairs(), boxes))
    batched = _batch_verdicts(pairs)
    per_pair, batch = hashlib.sha256(), hashlib.sha256()
    for pair, row_verdicts in zip(pairs, batched):
        exists = _ref_fulkerson_exists(pair)
        exists = CriterionVerdict(True) if exists is None else CriterionVerdict(False, *exists)
        entries = [(name, check(pair), row_verdicts[name]) for name, check in CHECKERS.items()]
        for name, *verdicts in entries + [("fulkerson_exists", exists, exists)]:
            for out, v in zip((per_pair, batch), verdicts):
                out.update(repr((name, v.holds, v.witness_t, v.witness_m, v.lhs, v.rhs)).encode())
        assert ref_impl.ref_cdz_stream(pair) == check_cdz(pair), pair
    assert per_pair.hexdigest() == PINNED_VERDICTS
    assert batch.hexdigest() == PINNED_VERDICTS


@pytest.mark.parametrize("n", [0, 1, 2])
def test_rows_on_tiny_and_empty_batches(n):
    """Batches of repeated pairs at n <= 2, and a batch of no pairs, against
    the per-pair checkers."""
    pairs = list(enumerate_instances(n)) * 3
    for i, verdicts in enumerate(_batch_verdicts(pairs)):
        assert verdicts == {name: check(pairs[i]) for name, check in CHECKERS.items()}
    empty = kernel_pass(np.zeros((0, n), dtype=np.int64), np.zeros((0, n), dtype=np.int64))
    for row in CRITERIA.values():
        assert row.check(empty).holds.shape == (0,)


def _full_head_box(rng, n):
    """A random_box with its first h cells pinned to degree n-1 and every
    other upper bound capped below h, in input order: no vertex past the
    head reaches every head vertex, so the Fulkerson family fails, at a t
    near h unless parity fails it earlier."""
    h = rng.randint(1, n - 1)
    a, b = ref_impl.random_box(rng, n)
    b = [n - 1] * h + [min(x, h - 1) for x in b[h:]]
    a = [n - 1] * h + [min(x, y) for x, y in zip(a[h:], b[h:])]
    return a, b


def test_fulkerson_blocks_match_per_t_scan():
    """The blocked triangle scan against the per-t batch scan
    ``ref_impl.batch_fulkerson``: every column on every failing row, on
    batches whose scan takes several blocks, where a 256-row chunk up to
    n = 31, and the per-pair checks of the other tests, take one.  At
    n = 100 and k = 256 a block is ten t high, at n = 2000 and k = 8
    sixteen, and one n = 700 pair takes two blocks; half of each batch are
    full-head boxes, and each batch has failures past its first block.  A
    batch of no pairs holds nothing."""
    rng = random.Random(20261019)
    batches = [[_full_head_box(rng, 100) if i % 2 else ref_impl.random_box(rng, 100)
                for i in range(256)],
               [_full_head_box(rng, 2000) if i % 2 else ref_impl.random_box(rng, 2000)
                for i in range(8)],
               # 500 cells (699, 699), 200 loose (0, 499): the first failure is past t = 373
               [([699] * 500 + [0] * 200, [699] * 500 + [499] * 200)]]
    for boxes in batches:
        rows = [normalize_good_order(a, b).pair._rows for a, b in boxes]
        kernel = kernel_pass(*(np.concatenate(column) for column in zip(*rows)))
        k, width = kernel.lhs.shape
        verdicts = CRITERIA["fulkerson"].check(kernel)
        holds, *columns = ref_impl.batch_fulkerson(kernel)
        assert np.array_equal(verdicts.holds, holds)
        for got, expected in zip(verdicts[1:], columns):
            assert np.array_equal(got[~holds], expected[~holds])
        first_block = criteria._FULKERSON_BLOCK_CELLS // (k * width)
        assert (verdicts.t[~holds] >= first_block).any(), (k, width)
        assert holds.any() or k == 1
    empty = kernel_pass(np.zeros((0, 9), dtype=np.int64), np.zeros((0, 9), dtype=np.int64))
    assert all(column.shape == (0,) for column in CRITERIA["fulkerson"].check(empty))


def _masked_scan(lhs, rhs, stop=None):
    """(holds, t, lhs, rhs) of each row's smallest t (below stop, if given)
    with lhs > rhs, scanned directly."""
    fails = lhs > rhs
    if stop is not None:
        fails &= np.arange(lhs.shape[1]) < stop[:, None]
    rows = np.arange(len(fails))
    t = fails.argmax(axis=1)
    return ~fails[rows, t], t, lhs[rows, t], rhs[rows, t]


def test_derived_rows_match_direct_scans():
    """cdz_reduced and hasselbarth, read off cdz's scan, and grunbaum, read
    off bollobas's, against their own masked scans of the kernel columns:
    every instance with n <= 5 and seeded samples at n = 7 to 60.  The
    shared scans are left as a fresh pass makes them."""
    kernels = [kernel_pass(*chunk) for n in range(6) for chunk in _chunks(n)]
    kernels += [kernel_pass(*chunk) for n in (7, 9, 12, 20, 35, 60)
                for chunk in _chunks(n, 512, n)]
    seen = {name: set() for name in ("cdz_reduced", "hasselbarth", "grunbaum")}
    for kernel in kernels:
        t = np.arange(kernel.lhs.shape[1])
        bollobas_rhs = t * (t - 1) + kernel.tail - kernel.deficit_a - kernel.eps
        direct = {
            "cdz_reduced": _masked_scan(kernel.lhs, kernel.rhs, kernel.s + 1),
            "hasselbarth": _masked_scan(kernel.lhs, kernel.rhs, kernel.s),
            "grunbaum": _masked_scan(kernel.lhs + kernel.deficit_a,
                                     bollobas_rhs + kernel.deficit_a),
        }
        verdicts = {name: CRITERIA[name].check(kernel) for name in CRITERIA}
        for name, (holds, *columns) in direct.items():
            got = verdicts[name]
            assert np.array_equal(got.holds, holds), name
            for column, expected in zip((got.t, got.lhs, got.rhs), columns):
                assert np.array_equal(column[~holds], expected[~holds]), name
            seen[name] |= set(holds.tolist())
        fresh = kernel_pass(kernel.a, kernel.b)
        for name in ("cdz", "bollobas"):
            again = CRITERIA[name].check(fresh)
            assert all(np.array_equal(x, y) for x, y in zip(verdicts[name], again)
                       if x is not None), name
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


def test_direct_pair_matches_normalized_pair():
    """A pair built directly from a normalized pair's tuples checks and
    builds its own rows, and its kernel columns and criteria_report equal
    those of the normalized pair, whose rows normalize_good_order sorted."""
    pairs = random_pairs(40, 60, 20261103) + [normalize_good_order((), ()).pair]
    for pair in pairs:
        direct = IntervalSequencePair(pair.a, pair.b)
        assert direct == pair and direct._rows[0] is not pair._rows[0]
        for name in ("a", "b", "lhs", "rhs", "eps", "tail", "deficit_a", "deficit_b", "s"):
            assert np.array_equal(getattr(direct.kernel, name), getattr(pair.kernel, name)), name
        assert criteria_report(direct) == criteria_report(pair)


def test_checkers_match_reference_scan_exhaustively():
    """Every verdict equals an independent plain-scan evaluation, n <= 4."""
    for pair in _all_small_pairs():
        for name in SCANNED:
            verdict = CHECKERS[name](pair)
            expected = ref_impl.smallest_failure(name, pair)
            if expected is None:
                assert verdict.holds, (name, pair)
            else:
                t, m, lhs, rhs = expected
                assert (verdict.witness_t, verdict.witness_m) == (t, m), (name, pair)
                assert (verdict.lhs, verdict.rhs) == (lhs, rhs), (name, pair)


def test_checkers_match_reference_on_random_instances():
    for pair in random_pairs(400, 10, seed=7):
        for name in SCANNED:
            verdict = CHECKERS[name](pair)
            expected = ref_impl.smallest_failure(name, pair)
            if expected is None:
                assert verdict.holds, (name, pair)
            else:
                assert (verdict.witness_t, verdict.witness_m) == expected[:2], (name, pair)


def test_failure_witnesses_reverify():
    for pair in random_pairs(300, 9, seed=13):
        for name in SCANNED:
            v = CHECKERS[name](pair)
            if v.holds:
                continue
            lhs, rhs = ref_impl.eval_at(name, pair, v.witness_t, v.witness_m)
            assert lhs > rhs
            assert (lhs, rhs) == (v.lhs, v.rhs)


def point_box_verdict(d):
    """check_cdz on the point box (d; d), checked against the plain
    Erdos-Gallai scan of d sorted; None when an entry exceeds n-1.

    The verdicts agree, and a failing witness re-evaluates as CDZ's own
    inequality; it need not be the scan's, whose rhs lacks eps(t).  An
    entry past n-1 is rejected as a lower bound, and the scan calls d not
    graphic.
    """
    graphic = ref_impl.ref_erdos_gallai(sorted(d, reverse=True))
    if any(x > len(d) - 1 for x in d):
        assert not graphic, d
        with pytest.raises(LowerExceedsMaxDegree):
            fixed(d)
        return None
    pair = fixed(d)
    verdict = check_cdz(pair)
    assert verdict.holds == graphic, d
    if not verdict.holds:
        lhs, rhs = ref_impl.eval_at("cdz", pair, verdict.witness_t)
        assert (lhs, rhs) == (verdict.lhs, verdict.rhs) and lhs > rhs, d
    return verdict


def test_cdz_with_degenerate_box_matches_erdos_gallai():
    """Fixed-sequence realizability: the parity mechanism covers the even
    sum.  Every d in range(n)^n, in any order, up to n = 5, so the point
    box is normalized too, and the non-increasing d at n = 6."""
    for n in range(1, 7):
        if n <= 5:
            sequences = itertools.product(range(n), repeat=n)
        else:
            sequences = itertools.combinations_with_replacement(range(n - 1, -1, -1), n)
        for d in sequences:
            point_box_verdict(d)


def _ref_fulkerson_exists(pair):
    """The weaker tail-sum variant, in which each t needs only one admissible
    m to hold: the first t whose every tail length m fails the Fulkerson
    inequality, with the first m of largest right-hand side, as
    (t, m, lhs, rhs); None when it holds."""
    a, b, n = pair.a, pair.b, pair.n
    for t in range(n + 1):
        lhs, eps = sum(a[:t]), ref_impl.ref_eps(pair, t)
        rhs = [t * (n - m - 1) + sum(b[n - m:]) - eps for m in range(n - t + 1)]
        if all(lhs > r for r in rhs):
            return t, rhs.index(max(rhs)), lhs, max(rhs)
    return None


def test_fulkerson_exists_variant_is_strictly_weaker():
    """Per-t existential tail choice passes instances the universal form rejects."""
    assert not check_fulkerson(CE).holds
    assert _ref_fulkerson_exists(CE) is None  # m=0 satisfies every t here
    for pair in _all_small_pairs():
        if check_fulkerson(pair).holds:
            assert _ref_fulkerson_exists(pair) is None, pair


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
    verdicts = {name: set() for name in SCANNED}
    for _ in range(300):
        a, b = ref_impl.random_box(rng, rng.randint(1, 60))
        pair = normalize_good_order(a, b).pair
        assert pair.kernel.eps[0].tolist() == [
            ref_impl.ref_eps(pair, t) for t in range(pair.n + 1)
        ], pair
        names = SCANNED if pair.n <= 40 else ("cdz", "cdz_reduced")
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


def _decide_box(rng, kind, n):
    """A seeded box around the degrees of a G(n, p) sample, in input order.

    "planted" widens each cell by up to 3 on each side (realizable);
    "parity" is the point box with one degree moved by one (odd sum);
    "clash" is a planted box with a forced degree-(n-1) vertex beside a
    forced isolated one; "narrow" has uniform cells of width 0 to 2 and
    no planted answer.
    """
    if kind == "narrow":
        a = rng.integers(0, n, n)
        return a.tolist(), np.minimum(n - 1, a + rng.integers(0, 3, n)).tolist()
    deg = np.zeros(n, dtype=np.int64)
    p = rng.uniform(0.05, 0.6)
    for i in range(n - 1):
        row = rng.random(n - i - 1) < p
        deg[i] += row.sum()
        deg[i + 1:] += row
    if kind == "parity":
        i = rng.integers(n)
        deg[i] += 1 if deg[i] < n - 1 else -1
        return deg.tolist(), deg.tolist()
    a = np.maximum(0, deg - rng.integers(0, 4, n))
    b = np.minimum(n - 1, deg + rng.integers(0, 4, n))
    if kind == "clash":
        i, j = rng.choice(n, 2, replace=False)
        a[i] = b[i] = n - 1
        a[j] = b[j] = 0
    return a.tolist(), b.tolist()


def test_check_cdz_matches_scalar_stream_to_n_2000():
    """check_cdz, read off the kernel pass, against the scalar stream
    ``ref_impl.ref_cdz_stream``: holds, witness t, lhs and rhs, on seeded planted,
    parity and clash boxes from n = 60 to 2000."""
    rng = np.random.default_rng(20261102)
    outcomes = set()
    for k, n in enumerate([2000] * 3 + rng.integers(60, 2001, 27).tolist()):
        kind = ("planted", "parity", "clash")[k % 3]
        pair = normalize_good_order(*_decide_box(rng, kind, n)).pair
        verdict = check_cdz(pair)
        assert verdict == ref_impl.ref_cdz_stream(pair), (kind, n)
        outcomes.add((kind, verdict.witness_t if verdict.witness_t in (None, 0) else "t > 0"))
    assert outcomes == {("planted", None), ("parity", 0), ("clash", "t > 0")}


def test_witness_probe_matches_check_cdz():
    """The witness probe ``realize._cdz_holds``, which stops after t = s,
    against check_cdz on every instance with n <= 5, all in good order,
    and on seeded planted, parity, clash and narrow boxes to n = 2000."""
    for n in range(6):
        for pair in enumerate_instances(n):
            assert _cdz_holds(pair.a, pair.b) == check_cdz(pair).holds, pair
    rng = np.random.default_rng(20261019)
    outcomes = set()
    for k, n in enumerate([2000] * 4 + rng.integers(60, 2001, 28).tolist()):
        kind = ("planted", "parity", "clash", "narrow")[k % 4]
        pair = normalize_good_order(*_decide_box(rng, kind, n)).pair
        holds = check_cdz(pair).holds
        assert _cdz_holds(pair.a, pair.b) == holds, (kind, n)
        outcomes.add((kind, holds))
    assert outcomes == {("planted", True), ("parity", False), ("clash", False), ("narrow", False)}


def test_head_deficit_families_match_plain_scan_to_n_300():
    """Berge, Hasselbarth, Bollobas and Grunbaum against plain scans, n <= 300.

    ref_impl.eval_at rebuilds the Berge matrix for every t; here berge(b),
    conj(b) and eps are built once per pair and every rhs is summed from
    its definition, so the reference stays O(n^2) and reaches the sizes
    where the head histogram of ``KernelPass._deficits`` holds many entries
    per value.  Every third pair is the point box (b; b), where every cell is
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
    """check_cdz on point boxes against the plain scan, n up to 300.

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
        verdict = point_box_verdict(d)
        if verdict is None:
            witnesses.add("past n-1")
        else:
            witnesses.add(None if verdict.holds else min(verdict.witness_t, 2))
    assert witnesses == {None, 0, 1, 2, "past n-1"}
