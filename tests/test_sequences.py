import json
import operator
import random
import warnings
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ref_impl

from degreebox import sequences
from degreebox.criteria import _lifted, check_cdz
from degreebox.errors import (
    InputError,
    LengthMismatch,
    LowerExceedsMaxDegree,
    LowerExceedsUpper,
    NegativeEntry,
    NonIntegerEntry,
)
from degreebox.sequences import (
    IntervalSequencePair,
    NormalizedInstance,
    _good_order_rows,
    kernel_pass,
    normalize_good_order,
)

CE_A = (5, 4, 3, 3, 3, 1)
CE_B = (5, 5, 3, 3, 3, 1)
CE = normalize_good_order(CE_A, CE_B).pair
TRIANGLE = normalize_good_order((2, 2, 2), (2, 2, 2)).pair
ODD_ONES = normalize_good_order((1, 1, 1), (1, 1, 1)).pair


class _Index:
    """An integer by ``__index__`` alone: not an int, nor a numbers.Integral."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


_INTEGER_ENTRIES = st.one_of(
    st.integers(-2**65, 2**65),
    st.integers(-3, 3),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.sampled_from([np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64]).flatmap(
        lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)),
    st.integers(-3, 3).map(np.array),
    st.integers(-3, 3).map(_Index),
)
_OTHER_ENTRIES = st.one_of(
    st.floats(), st.text(max_size=2), st.none(), st.fractions(max_denominator=4))


def _container(kind, entries):
    if kind == "array":
        column = np.empty(len(entries), dtype=object)
        for i, x in enumerate(entries):
            column[i] = x
        return column
    return kind(entries)


@settings(max_examples=300, deadline=None)
@given(st.lists(_INTEGER_ENTRIES, max_size=8),
       st.lists(st.tuples(st.integers(0, 8), _OTHER_ENTRIES), max_size=2),
       st.sampled_from([list, tuple, "array"]))
def test_int64_column_matches_reference(entries, others, kind):
    """_int64_column against a plain loop over the entries: the same int64
    array, or the same error type and message, on lists, tuples and object
    arrays mixing every kind of integer, some past int64 on either side,
    with floats, strs, None and Fractions."""
    for at, x in others:
        entries.insert(at, x)
    seq = _container(kind, entries)
    outcomes = []
    for convert in (sequences._int64_column, ref_impl.ref_int64_column):
        try:
            column = convert(seq, "a")
            assert column.dtype == np.int64 and column.shape == (len(entries),)
            outcomes.append(column.tolist())
        except NonIntegerEntry as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]


class TestValidateAndClamp:
    """Validation and clamping, which normalize_good_order runs before sorting."""

    def test_counterexample_accepted_unchanged(self):
        norm = normalize_good_order(CE_A, CE_B)
        assert norm.pair.a == CE_A
        assert norm.pair.b == CE_B
        assert norm.pair.n == 6

    def test_upper_bounds_clamped(self):
        assert normalize_good_order((0, 0), (9, 9)).pair.b == (1, 1)

    def test_lower_bound_above_max_degree_rejected(self):
        with pytest.raises(LowerExceedsMaxDegree):
            normalize_good_order((3, 0), (3, 3))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            normalize_good_order((1, 2), (1,))

    def test_lower_exceeds_upper(self):
        with pytest.raises(LowerExceedsUpper):
            normalize_good_order((2, 0, 0), (1, 0, 0))

    def test_empty_pair(self):
        assert normalize_good_order((), ()).pair.n == 0

    def test_first_offending_entry_is_named(self):
        # a[2] = 9 also exceeds n-1, but a[1] comes first
        message = r"^a\[1\] = 2 exceeds b\[1\] = 1 after clamping$"
        with pytest.raises(LowerExceedsUpper, match=message):
            normalize_good_order((0, 2, 9), (0, 1, 9))
        with pytest.raises(LowerExceedsMaxDegree, match=r"^a\[0\] = 9 exceeds n-1 = 2$"):
            normalize_good_order((9, 2, 0), (9, 1, 0))
        # negative entries are found before any bound comparison, lower bounds first
        with pytest.raises(NegativeEntry, match="^lower bounds contains negative entry -3$"):
            normalize_good_order((0, -3, -1), (-5, 1, 1))
        with pytest.raises(NegativeEntry, match="^upper bounds contains negative entry -5$"):
            normalize_good_order((0, 3, 1), (1, -5, -1))

    @pytest.mark.parametrize("h", [2**63, 2**64, 10**20])
    def test_entries_past_int64(self, h):
        norm = normalize_good_order((1, 0), (h, h))
        assert norm.pair == IntervalSequencePair((1, 0), (1, 1)) and norm.perm == (0, 1)
        with pytest.raises(LowerExceedsMaxDegree, match=rf"^a\[1\] = {h} exceeds n-1 = 1$"):
            normalize_good_order((0, h), (1, h))
        with pytest.raises(NegativeEntry, match=rf"^upper bounds contains negative entry -{h}$"):
            normalize_good_order((0, 0), (1, -h))

    def test_non_integer_entries_rejected(self):
        """Before any other bound check, naming the first such entry; a
        float, a string or a Fraction would otherwise truncate or convert."""
        with pytest.raises(NonIntegerEntry, match=r"^a\[0\] = 1\.5 is not an integer$"):
            normalize_good_order((1.5, 1), (1.9, 1))
        with pytest.raises(NonIntegerEntry, match=r"^a\[1\] = '3' is not an integer$"):
            normalize_good_order((0, "3", 9), (1, 1, 1))
        with pytest.raises(NonIntegerEntry, match=r"^b\[2\] = 1\.0 is not an integer$"):
            normalize_good_order((-1, 0, 0), (1, 1, 1.0))
        with pytest.raises(NonIntegerEntry, match=r"^b\[0\] = Fraction\(1, 1\) is not an integer$"):
            normalize_good_order((0,), (Fraction(1),))
        with pytest.raises(NonIntegerEntry, match=r"^a\[1\] = None is not an integer$"):
            normalize_good_order((np.True_, None), (1, 1))
        # each entry of a 2-D integer array is a row, not an integer
        grid = np.zeros((2, 2), dtype=int)
        with pytest.raises(NonIntegerEntry, match=r"^a\[0\] = array\(\[0, 0\]\) is not an integer$"):
            normalize_good_order(grid, grid)
        # a pair built directly raises the same on its row check
        pair = IntervalSequencePair((1.5, 1), (1.9, 1))
        with pytest.raises(NonIntegerEntry):
            pair.kernel
        with pytest.raises(NonIntegerEntry):
            check_cdz(pair)

    def test_integer_kinds_accepted(self):
        """bool, numpy integers, Python ints past int64, 0-d integer arrays
        and any object with ``__index__`` are integers."""
        norm = normalize_good_order((True, np.int64(0), np.True_), (2**64, np.uint8(1), 1))
        assert (norm.pair.a, norm.pair.b, norm.perm) == ((1, 1, 0), (2, 1, 1), (0, 2, 1))
        norm = normalize_good_order((np.array(1), _Index(0), 2), (np.array(2), 1, _Index(2)))
        assert (norm.pair.a, norm.pair.b, norm.perm) == ((2, 1, 0), (2, 2, 1), (2, 0, 1))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.bool_, np.uint64])
    def test_integer_arrays_match_their_lists(self, dtype):
        """A 1-D bool or integer array gives what its ``tolist()`` gives:
        the same normalized pair, or the same error; a uint64 entry past
        int64 saturates as the Python int does, and the column is a fresh
        buffer, not a view of the caller's array."""
        top = np.iinfo(dtype).max if dtype is not np.bool_ else 1
        boxes = [([0, 1, 1, 0], [1, 3, top, 1]), ([1, 0, 1], [top, 1, 1]), ([top, 0], [top, 1])]
        for a, b in boxes:
            arrays = np.array(a, dtype=dtype), np.array(b, dtype=dtype)
            outcomes = []
            for args in (arrays, [x.tolist() for x in arrays]):
                try:
                    outcomes.append(normalize_good_order(*args))
                except InputError as error:
                    outcomes.append((type(error), str(error)))
            assert outcomes[0] == outcomes[1], (a, b)
        column = np.array([2**64 - 1, 5], dtype=np.uint64)
        assert sequences._int64_column(column, "b").tolist() == [2**63 - 1, 5]
        column = np.arange(3)
        assert not np.shares_memory(sequences._int64_column(column, "a"), column)

    def test_numpy_bools_where_warnings_are_not_errors(self):
        """Outside a warnings-as-errors run, a numpy bool entry still
        converts to 0 or 1.  Where numpy refuses its ``__index__`` (numpy
        >= 2), the scan converts it and nothing warns; where numpy accepts
        it with a DeprecationWarning (numpy < 2), the pack keeps its value
        and the caller sees one warning per numpy bool entry."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                operator.index(np.True_)
                warns = 2
            except TypeError:
                warns = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            column = sequences._int64_column([np.True_, 2, np.False_], "a")
        assert column.tolist() == [1, 2, 0]
        assert [w.category for w in caught] == [DeprecationWarning] * warns

    @pytest.mark.parametrize("wrap", [np.asarray, list])
    def test_numpy_integers_whose_sum_overflows(self, wrap):
        """An int64 array, or a list of numpy integers, whose total passes
        int64 gets the bound checks' verdict, with no overflow warning."""
        big = wrap(np.full(3, 2**62))
        with pytest.raises(LowerExceedsMaxDegree, match=rf"^a\[0\] = {2**62} exceeds n-1 = 2$"):
            normalize_good_order(big, big)
        assert normalize_good_order([0, 0, 0], big).pair.b == (2, 2, 2)
        small = wrap(np.full(3, 100, dtype=np.int8))
        assert normalize_good_order([0, 0, 0], small).pair.b == (2, 2, 2)
        # a Python int first, then the numpy integers
        assert normalize_good_order([0, 0, 0], [0, *big[1:]]).pair.b == (2, 2, 0)


class TestGoodOrder:
    """The good-order row mask, on one row at a time."""

    def test_counterexample_is_good(self):
        assert _good_order_rows([CE_A], [CE_B])[0]

    def test_increasing_lower_is_not_good(self):
        assert not _good_order_rows([(3, 4)], [(4, 4)])[0]

    def test_equal_lower_increasing_upper_is_not_good(self):
        assert not _good_order_rows([(3, 3)], [(3, 4)])[0]


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

    def test_matches_stable_sort_reference_on_tied_boxes(self):
        """Pair and perm against Python's stable sort, n up to 2000.

        Each box draws its lower bounds from a few values, and its upper
        bounds are a[i] plus 0, 1, 2, n or 2^64, so most cells tie on a
        and many on b only after clamping.
        """
        rng = random.Random(20261101)
        for k in range(40):
            n = 2000 if k < 2 else rng.randint(0, 2000)
            values = rng.sample(range(n), min(n, rng.randint(1, 5)))
            a = [rng.choice(values) for _ in range(n)]
            b = [x + rng.choice((0, 0, 1, 2, n, 2**64)) for x in a]
            norm = normalize_good_order(a, b)
            assert (norm.pair.a, norm.pair.b, norm.perm) == ref_impl.ref_normalize(a, b), n

    def test_rejects_what_validation_rejects(self):
        # lower bounds above n-1 cannot be met by any simple graph
        with pytest.raises(LowerExceedsMaxDegree):
            normalize_good_order((3, 3), (3, 4))
        with pytest.raises(LowerExceedsMaxDegree):
            normalize_good_order((1, 3), (2, 3))


class TestBergeSequence:
    """The Berge sequence, a row of ``kernel_berge_rows``, read off the kernel pass."""

    def test_five_vertex_example(self):
        assert ref_impl.kernel_berge_rows([(4, 2, 2, 2, 1)]).tolist() == [[4, 3, 2, 1, 1]]

    def test_counterexample_upper(self):
        assert ref_impl.kernel_berge_rows([CE_B]).tolist() == [[5, 4, 4, 3, 2, 2]]

    def test_zero_sequence(self):
        assert ref_impl.kernel_berge_rows([(0, 0, 0)]).tolist() == [[0, 0, 0]]


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
        assert tuple(ref_impl.kernel_berge_rows([d])[0].tolist()) == ref_impl.ref_berge(d), d


class TestConjugateSequence:
    """The Ferrers conjugate, ``ref_conj``."""

    def test_counterexample_upper(self):
        assert ref_impl.ref_conj(CE_B) == (6, 5, 5, 2, 2, 0)

    def test_five_vertex_example(self):
        assert ref_impl.ref_conj((4, 2, 2, 2, 1)) == (5, 4, 1, 1, 0)

    def test_zero_sequence(self):
        assert ref_impl.ref_conj((0, 0)) == (0, 0)


class TestTildeSequence:
    """The tilde lift, a row of ``criteria._lifted``: 1 added to the first
    ref_impl.ref_crossing_index(d) entries."""

    def test_counterexample_lower(self):
        assert _lifted(np.array([CE_A])).tolist() == [[6, 5, 4, 3, 3, 1]]

    def test_counterexample_upper(self):
        assert _lifted(np.array([CE_B])).tolist() == [[6, 6, 4, 3, 3, 1]]

    def test_all_zero(self):
        assert _lifted(np.array([(0, 0, 0)])).tolist() == [[0, 0, 0]]


def cleared_by_loosening(pair, t):
    """The cells j for which lowering a[j] by one clears eps(t) = 1: the
    support S(t) = {j >= t : b[j] >= t+1}, all forced and nonzero there.
    The kernel pass takes the cells in any order."""
    assert pair.kernel.eps[0, t] == 1
    return {j for j in range(pair.n) if pair.a[j] and kernel_pass(
        [pair.a[:j] + (pair.a[j] - 1,) + pair.a[j + 1:]], [pair.b]).eps[0, t] == 0}


class TestParitySupport:
    """The support S(t) over which eps(t) is evaluated, seen through the eps column."""

    def test_counterexample_t2(self):
        assert cleared_by_loosening(CE, 2) == {2, 3, 4}

    def test_t_equals_n_is_empty(self):
        for pair in (CE, ODD_ONES, TRIANGLE):
            assert pair.kernel.eps[0, pair.n] == ref_impl.ref_eps(pair, pair.n) == 0

    def test_triangle_t1(self):
        # S(1) = {1, 2} on the triangle, with even sum 2 + 2 + 1 * 2; with
        # b[2] = 1 below t + 1 it is {1}, with odd sum 2 + 1 * 1
        assert TRIANGLE.kernel.eps[0, 1] == ref_impl.ref_eps(TRIANGLE, 1) == 0
        assert cleared_by_loosening(IntervalSequencePair((2, 2, 1), (2, 2, 1)), 1) == {1}


class TestParityCorrection:
    """eps(t), the kernel pass's eps column."""

    def test_counterexample_t2_is_one(self):
        assert CE.kernel.eps[0, 2] == 1

    def test_triangle_t0_even_sum(self):
        assert TRIANGLE.kernel.eps[0, 0] == 0

    def test_slack_bound_gives_zero(self):
        assert normalize_good_order((0,), (1,)).pair.kernel.eps[0, 0] == 0

    def test_odd_forced_sum(self):
        assert ODD_ONES.kernel.eps[0, 0] == 1


class TestCrossingIndices:
    """s from the kernel pass, g_a and g_b from ref_crossing_index."""

    def test_counterexample(self):
        assert CE.kernel.s.tolist() == [4] == [ref_impl.ref_s(CE)]
        assert ref_impl.ref_crossing_index(CE.a) == 3
        assert ref_impl.ref_crossing_index(CE.b) == 3

    def test_single_zero_vertex(self):
        pair = normalize_good_order((0,), (0,)).pair
        assert pair.kernel.s.tolist() == [1] == [ref_impl.ref_s(pair)]
        assert ref_impl.ref_crossing_index(pair.a) == 0


class TestMaxSumIdentities:
    """The two truncation identities, ``ref_max_sum_identities_hold``."""

    def test_small_example(self):
        assert ref_impl.ref_max_sum_identities_hold((5, 4, 3), 3)

    def test_zero_sequence(self):
        for t in range(1, 5):
            assert ref_impl.ref_max_sum_identities_hold((0, 0, 0, 0), t)

    def test_base_case(self):
        assert ref_impl.ref_max_sum_identities_hold((1,), 1)


# --- randomized invariants -------------------------------------------------

bounded_degrees = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
)


@given(bounded_degrees)
def test_berge_and_conjugate_preserve_sum(d):
    assert ref_impl.kernel_berge_rows([d]).sum() == sum(d)
    assert sum(ref_impl.ref_conj(d)) == sum(d)


@given(bounded_degrees.map(lambda d: sorted(d, reverse=True)))
def test_conjugate_involution(d):
    twice = ref_impl.ref_conj(ref_impl.ref_conj(d))
    def strip(seq):
        out = list(seq)
        while out and out[-1] == 0:
            out.pop()
        return out
    assert strip(twice) == strip(d)


@given(bounded_degrees.map(lambda d: sorted(d, reverse=True)))
def test_berge_conjugate_prefix_identity(d):
    bar = ref_impl.kernel_berge_rows([d])[0].tolist()
    conj = ref_impl.ref_conj(d)
    f = ref_impl.ref_crossing_index(d)
    for k in range(1, f + 1):
        assert sum(bar[:k]) == sum(conj[:k]) - k


def test_prefix_identity_documented_case():
    d = (4, 2, 2, 2, 1)
    bar = ref_impl.kernel_berge_rows([d])[0].tolist()
    conj = ref_impl.ref_conj(d)
    assert ref_impl.ref_crossing_index(d) == 2
    assert (sum(bar[:1]), sum(bar[:2])) == (4, 7)
    assert (sum(conj[:1]) - 1, sum(conj[:2]) - 2) == (4, 7)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=12), st.data())
def test_max_sum_identities_always_hold(p, data):
    t = data.draw(st.integers(1, len(p)))
    assert ref_impl.ref_max_sum_identities_hold(p, t)


interval_pairs = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda c: (min(c), max(c))
        ),
        min_size=n,
        max_size=n,
    )
)


@given(interval_pairs)
def test_parity_correction_matches_reference(cells):
    """The eps column against ref_impl.ref_eps at every t in 0..n."""
    cells.sort(key=lambda c: (-c[0], -c[1]))
    pair = IntervalSequencePair(
        tuple(c[0] for c in cells), tuple(c[1] for c in cells)
    )
    eps = pair.kernel.eps[0].tolist()
    assert eps == [ref_impl.ref_eps(pair, t) for t in range(pair.n + 1)]
    assert set(eps) <= {0, 1}


@given(interval_pairs)
def test_normalize_round_trip(cells):
    a = [c[0] for c in cells]
    b = [c[1] for c in cells]
    norm = normalize_good_order(a, b)
    assert _good_order_rows([norm.pair.a], [norm.pair.b])[0]
    assert sorted(norm.perm) == list(range(len(a)))
    for i, p in enumerate(norm.perm):
        assert a[p] == norm.pair.a[i]
        assert b[p] == norm.pair.b[i]


@given(interval_pairs, st.data())
def test_good_order_matches_reference(cells, data):
    """The row mask against tuple comparison, on sorted cells with at most
    one adjacent swap."""
    cells.sort(key=lambda c: (-c[0], -c[1]))
    if len(cells) > 1 and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(cells) - 2))
        cells[i], cells[i + 1] = cells[i + 1], cells[i]
    pair = IntervalSequencePair(tuple(c[0] for c in cells), tuple(c[1] for c in cells))
    assert _good_order_rows([pair.a], [pair.b])[0] == ref_impl.ref_good_order(pair)


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 30])
def test_kernel_columns_match_plain_scans(k, n):
    """Every column of ``kernel_pass`` over a batch of k seeded boxes, cells
    in input order, against sums written from the definitions in the
    ``KernelPass`` docstring.  Every second box is a point box (b; b) with
    its last cell loosened, so eps(t) turns on whether that cell lies in
    S(t), which it leaves as t reaches its b."""
    rng = random.Random(100 * k + n)
    boxes = []
    for i in range(k):
        lo, hi = ref_impl.random_box(rng, n) if n else ([], [])
        if i % 2 and n:
            lo = list(hi)
            lo[-1] = max(0, hi[-1] - 1)
        boxes.append((lo, hi))
    a = np.array([lo for lo, _ in boxes], dtype=np.int64).reshape(k, n)
    b = np.array([hi for _, hi in boxes], dtype=np.int64).reshape(k, n)
    kernel = kernel_pass(a, b)
    names = ("lhs", "rhs", "eps", "tail", "deficit_a", "deficit_b")
    assert all(getattr(kernel, name).shape == (k, n + 1) for name in names)
    assert kernel.s.shape == (k,)
    for i, (lo, hi) in enumerate(boxes):
        pair = IntervalSequencePair(tuple(lo), tuple(hi))
        eps = [ref_impl.ref_eps(pair, t) for t in range(n + 1)]
        expected = {
            "lhs": [sum(lo[:t]) for t in range(n + 1)],
            "rhs": [t * (t - 1) + sum(min(t, x) for x in hi[t:]) - eps[t] for t in range(n + 1)],
            "eps": eps,
            "tail": [sum(hi[t:]) for t in range(n + 1)],
            "deficit_a": [sum(max(0, t - 1 - x) for x in lo[:t]) for t in range(n + 1)],
            "deficit_b": [sum(max(0, t - 1 - x) for x in hi[:t]) for t in range(n + 1)],
        }
        for name, column in expected.items():
            assert getattr(kernel, name)[i].tolist() == column, (name, lo, hi)
        assert kernel.s[i] == sum(x >= j for j, x in enumerate(lo)), (lo, hi)


def test_bounds_are_read_not_written():
    """normalize_good_order and kernel_pass build their buffers in place,
    and kernel_pass keeps int64 bounds without a copy: on read-only int64
    inputs each gives what it gives on writable copies, every column of
    the pass included, and leaves its inputs as they were."""
    rng = np.random.default_rng(20261020)
    n = 40
    hi = rng.integers(0, n, (3, n))
    lo = rng.integers(0, hi + 1)
    frozen = [lo.copy(), hi.copy()]
    for x in frozen:
        x.flags.writeable = False
    assert normalize_good_order(frozen[0][0], frozen[1][0]) == normalize_good_order(
        lo[0].copy(), hi[0].copy())
    kernel = kernel_pass(*frozen)
    assert kernel.a is frozen[0] and kernel.b is frozen[1]
    fresh = kernel_pass(lo.copy(), hi.copy())
    for name in ("lhs", "rhs", "eps", "tail", "deficit_a", "deficit_b", "s"):
        assert np.array_equal(getattr(kernel, name), getattr(fresh, name)), name
    assert np.array_equal(frozen[0], lo) and np.array_equal(frozen[1], hi)


def test_decision_reads_normalized_rows_and_builds_no_deficits(monkeypatch):
    """check_cdz on a normalized pair reads the rows normalize_good_order
    sorted, rebuilding none from the pair's tuples, and builds neither the
    deficit histogram nor s; the first read of one deficit builds both."""
    norm = normalize_good_order(*ref_impl.random_box(random.Random(20261019), 40))

    def rebuilt(*args):
        raise AssertionError("an array was rebuilt from a tuple")

    monkeypatch.setattr(sequences, "_int64_column", rebuilt)
    check_cdz(norm.pair)
    kernel = norm.pair.kernel
    assert kernel.a is norm.pair._rows[0] and kernel.b is norm.pair._rows[1]
    assert not {"_deficits", "s"} & vars(kernel).keys()
    kernel.deficit_b
    assert "_deficits" in vars(kernel) and "s" not in vars(kernel)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 4), st.randoms(use_true_random=False))
def test_normalized_order_matches_reference(n, distinct, rnd):
    """perm and the sorted rows against the reference: input positions
    sorted by (-a, -b), ties by position.  The cells tie heavily: the lower
    bounds take at most four values and each upper bound is a[i] plus 0,
    1 or n, clamped to n-1."""
    values = rnd.sample(range(n), min(n, distinct))
    a = [rnd.choice(values) for _ in range(n)]
    b = [x + rnd.choice((0, 0, 1, n)) for x in a]
    norm = normalize_good_order(a, b)
    ref_a, ref_b, ref_perm = ref_impl.ref_normalize(a, b)
    assert norm.perm == ref_perm
    lo, hi = norm.pair._rows
    assert lo.shape == hi.shape == (1, n)
    assert (lo[0].tolist(), hi[0].tolist()) == (list(ref_a), list(ref_b))


def test_normalized_order_past_the_key_sort(monkeypatch):
    """Past n = 2,097,151 the keys ((n-1-a)*n + (n-1-b))*n + i would pass
    int64, so normalization falls back to a stable argsort: the order then
    equals two stable passes, by upper and then by lower bound."""
    n = 2_097_152
    rng = np.random.default_rng(20261019)
    lo = rng.integers(0, 4, n)
    hi = lo + rng.integers(0, 3, n)

    def unused(*args, **kwargs):
        raise AssertionError("the key sort ran past its bound")

    monkeypatch.setattr(sequences.np, "sort", unused)
    norm = normalize_good_order(lo.tolist(), hi.tolist())
    monkeypatch.undo()
    by_b = np.argsort(-hi, kind="stable")
    order = by_b[np.argsort(-lo[by_b], kind="stable")]
    assert np.array_equal(norm._order, order)
    assert np.array_equal(norm.pair._rows[0][0], lo[order])
    assert np.array_equal(norm.pair._rows[1][0], hi[order])


def test_normalized_pair_builds_tuples_on_demand():
    """A normalized pair equals the pair built directly from its tuples, by
    ==, hash, repr and n; its tuples and perm are tuples of Python ints,
    built once, on first read, which a decision never makes."""
    a, b = ref_impl.random_box(random.Random(20261021), 60)
    norm = normalize_good_order(a, b)
    check_cdz(norm.pair)
    assert not {"a", "b"} & vars(norm.pair).keys() and "perm" not in vars(norm)
    ref_a, ref_b, ref_perm = ref_impl.ref_normalize(a, b)
    direct = IntervalSequencePair(ref_a, ref_b)
    assert norm.pair == direct and direct == norm.pair
    assert hash(norm.pair) == hash(direct)
    assert repr(norm.pair) == repr(direct) == f"IntervalSequencePair(a={ref_a!r}, b={ref_b!r})"
    assert norm.pair.n == direct.n == 60
    assert norm == NormalizedInstance(direct, ref_perm)
    for value in (norm.pair.a, norm.pair.b, norm.perm):
        assert type(value) is tuple and all(type(x) is int for x in value)
    assert norm.pair.a is norm.pair.a and norm.pair.b is norm.pair.b and norm.perm is norm.perm
    assert json.dumps([norm.pair.a, norm.perm]) == json.dumps([ref_a, ref_perm])
    assert norm.pair != IntervalSequencePair(ref_a, ref_a) and norm.pair != (ref_a, ref_b)
    with pytest.raises(FrozenInstanceError):
        norm.pair.a = ref_a
    with pytest.raises(FrozenInstanceError):
        norm.perm = ref_perm


def test_direct_instance_holds_perm_as_a_tuple():
    """An instance built from a list or array perm compares, hashes and
    shows as the normalized instance with the same perm."""
    norm = normalize_good_order((1, 0), (1, 1))
    for perm in ([0, 1], (0, 1), np.array([0, 1])):
        instance = NormalizedInstance(norm.pair, perm)
        assert instance == norm and norm == instance and hash(instance) == hash(norm)
        assert type(instance.perm) is tuple and all(type(i) is int for i in instance.perm)
        assert repr(instance) == repr(norm)
    assert NormalizedInstance(norm.pair, [1, 0]) != norm


def test_direct_instance_keeps_its_perm():
    """An instance built from a list or array perm keeps a copy: mutating
    the caller's perm afterwards changes neither its perm, its equality
    with the normalized instance nor its hash."""
    norm = normalize_good_order((1, 0, 0), (1, 1, 2))
    for perm in (list(norm.perm), np.array(norm.perm)):
        instance = NormalizedInstance(norm.pair, perm)
        perm[0], perm[1] = perm[1], perm[0]
        assert instance.perm == norm.perm and instance == norm and hash(instance) == hash(norm)
        perm[:] = perm[::-1]
        assert instance.perm == norm.perm and instance == norm and hash(instance) == hash(norm)


def test_direct_pair_holds_tuples_of_python_ints():
    """A pair built from lists or arrays compares, hashes and shows as the
    normalized pair; its entry checks still wait for first use."""
    norm = normalize_good_order((1, 1), (1, 1)).pair
    for a, b in (([1, 1], [1, 1]), (np.array([1, 1]), np.array([1, 1]))):
        pair = IntervalSequencePair(a, b)
        assert pair == norm and norm == pair and hash(pair) == hash(norm)
        assert repr(pair) == repr(norm) == "IntervalSequencePair(a=(1, 1), b=(1, 1))"
        assert all(type(x) is int for x in pair.a + pair.b)
    pair = IntervalSequencePair(np.array([1.5, 1.0]), [1, 1])
    with pytest.raises(NonIntegerEntry, match=r"^a\[0\] = 1\.5 is not an integer$"):
        pair.kernel
