"""Acceptance suite: one test per release gate, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The heavy shared artifact is a single exhaustive sweep of every
good-ordered instance with n <= 5, evaluated against the oracle, every
criterion, and the witness constructor; gate 9 sweeps all of n = 6
against the oracle on its own.
"""

import itertools
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

import ref_impl
from degreebox.criteria import (
    CHECKERS,
    CRITERIA,
    _lifted,
    check_cdz,
)
from degreebox.errors import LowerExceedsMaxDegree
from degreebox.oracle import (
    cross_validate,
    enumerate_instances,
    implication_matrix,
    oracle_realizable,
)
from degreebox.realize import (
    SimpleGraph,
    _havel_hakimi,
    realize_pair,
    verify_witness,
)
from degreebox.sequences import IntervalSequencePair, kernel_pass, normalize_good_order

CE = normalize_good_order((5, 4, 3, 3, 3, 1), (5, 5, 3, 3, 3, 1)).pair
ODD_ONES = normalize_good_order((1, 1, 1), (1, 1, 1)).pair

NECESSITY_GATED = (
    "berge_necessary",
    "fulkerson",
    "bollobas",
    "grunbaum",
    "hasselbarth",
    "ryser_interval",
)


def announce(label: str) -> None:
    print(f"ACCEPTANCE {label}: PASS")


@dataclass
class Record:
    pair: object
    realizable: bool
    holds: dict
    graph: Optional[SimpleGraph]
    witness_ok: bool


def _batch_verdicts(pairs, name):
    """The named criterion's row check over pairs of one size, as one batch."""
    kernel = kernel_pass([p.a for p in pairs], [p.b for p in pairs])
    return CRITERIA[name].check(kernel)


@pytest.fixture(scope="module")
def sweep():
    """Exhaustive n <= 5 sweep: oracle, all criteria, witness construction.

    The criteria run as sweeps run them, one batch per n."""
    start = time.perf_counter()
    records = []
    for n in range(0, 6):
        pairs = list(enumerate_instances(n))
        verdicts = {name: _batch_verdicts(pairs, name).holds.tolist()
                    for name in CRITERIA}
        for i, pair in enumerate(pairs):
            realizable = oracle_realizable(pair).realizable
            holds = {name: verdicts[name][i] for name in CRITERIA}
            graph = realize_pair(pair)
            witness_ok = graph is None or verify_witness(graph, pair.a, pair.b)
            records.append(Record(pair, realizable, holds, graph, witness_ok))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_a1_paper_counterexample_golden():
    start = time.perf_counter()
    cdz = check_cdz(CE)
    assert not cdz.holds and cdz.witness_t == 2

    assert CHECKERS["berge_necessary"](CE).holds

    system = list(zip(*_lifted(np.array([CE.a, CE.b])).tolist()))
    witness = ref_impl.ref_interval_bipartite_flow(system, system)
    assert witness is not None
    for side in (0, 1):
        degrees = np.bincount([e[side] for e in witness], minlength=CE.n)
        assert tuple(degrees.tolist()) == (6, 5, 4, 3, 3, 1)
    assert CHECKERS["ryser_interval"](CE).holds

    subsets = 1 << (CE.n * (CE.n - 1) // 2)
    assert subsets == 32768
    result = oracle_realizable(CE)
    assert result == (False, 0)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden test took {elapsed:.2f}s"
    announce("1 (paper counterexample golden test)")


def test_a2_oracle_equivalence(sweep):
    records, elapsed = sweep
    assert len(records) == 1 + 1 + 6 + 56 + 715 + 11628
    disagreements = [r for r in records if r.holds["cdz"] != r.realizable]
    assert disagreements == []
    assert elapsed < 60.0, f"n<=5 sweep took {elapsed:.1f}s"

    for n in (6, 7):
        report = cross_validate(n, sample=10_000, seed=20260809)
        assert report.instance_count == 10_000
        assert report.cdz_oracle_disagreements == 0, f"n={n}"
    announce("2 (cdz = oracle: exhaustive n<=5, sampled n=6,7)")


def test_a3_reduced_range_equivalence(sweep):
    """cdz_reduced over batches against the scalar CDZ stream, the one
    implementation of the family that shares no code with the rows."""
    records, _ = sweep
    for r in records:
        assert r.holds["cdz"] == r.holds["cdz_reduced"]
    rng = random.Random(42)
    pairs = []
    for _ in range(100_000):
        a, b, _ = ref_impl.ref_normalize(*ref_impl.random_box(rng, rng.randint(1, 12)))
        pairs.append(IntervalSequencePair(a, b))
    checked = 0
    for n in range(1, 13):
        group = [pair for pair in pairs if pair.n == n]
        reduced = _batch_verdicts(group, "cdz_reduced")
        for i, pair in enumerate(group):
            assert ref_impl.ref_cdz_stream(pair) == reduced.verdict(i), pair
            checked += 1
    assert checked == 100_000
    announce("3 (reduced check range equivalent on n<=5 and 10^5 random n<=12)")


def test_a4_identity_suites():
    failures = ref_impl.identity_failures(100_000, seed=77)
    assert failures == []
    announce("4 (10^5 seeded rounds of truncation/prefix/sum/involution identities)")


def test_a5_witness_soundness_and_completeness(sweep):
    records, _ = sweep
    for r in records:
        assert (r.graph is not None) == r.realizable, r.pair
        assert r.witness_ok, r.pair

    checked = 0
    for n in range(1, 9):
        for d in itertools.combinations_with_replacement(range(7, -1, -1), n):
            columns = _havel_hakimi(d, range(n))
            graphic = ref_impl.ref_erdos_gallai(d)
            assert (columns is not None) == graphic, d
            if d[0] > n - 1:
                assert not graphic, d
                with pytest.raises(LowerExceedsMaxDegree):
                    normalize_good_order(d, d)
            else:
                assert check_cdz(normalize_good_order(d, d).pair).holds == graphic, d
            if columns is not None:
                assert SimpleGraph(n, *columns).degrees() == d
            checked += 1
    assert checked == 12869
    announce("5 (realize iff oracle on n<=5; Havel-Hakimi = Erdos-Gallai = point-box CDZ, n<=8)")


def test_a6_necessity_arrows(sweep):
    records, _ = sweep
    for name in NECESSITY_GATED:
        violations = [
            r for r in records if r.realizable and not r.holds[name]
        ]
        assert violations == [], name
        # same arrows through the implication matrix, with cdz standing in
        # for realizability (their equivalence is gate 2)
        cell_count = sum(
            1 for r in records if r.holds["cdz"] and not r.holds[name]
        )
        assert cell_count == 0, name
    matrix = implication_matrix(3)
    for name in NECESSITY_GATED:
        assert matrix.cell("cdz", name) == 0, name
    announce("6 (necessity arrows all zero over the full n<=5 sweep)")


def test_a7_sufficiency_arrows_and_recorded_anomalies(sweep):
    records, _ = sweep
    bad = [r for r in records if r.holds["berge_sufficient"] and not r.realizable]
    assert bad == []

    # the two equivalence claims that do NOT survive: both anomaly
    # instances satisfy the inequality families yet are unrealizable
    for pair in (ODD_ONES, CE):
        assert CHECKERS["bollobas"](pair).holds
        assert CHECKERS["grunbaum"](pair).holds
        assert not CHECKERS["cdz"](pair).holds
        assert not oracle_realizable(pair).realizable

    anomalies = [r for r in records if r.holds["bollobas"] and not r.realizable]
    assert any(r.pair == ODD_ONES for r in anomalies)
    assert len(anomalies) > 0

    exhaustive = implication_matrix(3)
    assert exhaustive.cell("bollobas", "cdz") > 0
    assert exhaustive.cell("grunbaum", "cdz") > 0
    assert exhaustive.example("bollobas", "cdz") is not None
    announce("7 (sufficient direction clean; bollobas/grunbaum anomalies reproduced)")


def test_a8_deterministic_reports():
    assert cross_validate(4).to_json() == cross_validate(4).to_json()
    sampled = lambda: cross_validate(6, sample=300, seed=11).to_json()  # noqa: E731
    assert sampled() == sampled()
    assert implication_matrix(3).to_json() == implication_matrix(3).to_json()
    announce("8 (seeded sweeps and reports serialize byte-identically)")


def test_a9_exhaustive_n6_oracle_equivalence():
    """Every criterion against the oracle on all of n = 6."""
    report = cross_validate(6)
    assert report.criteria == tuple(CRITERIA)
    assert report.instance_count == 230_230
    assert report.cdz_oracle_disagreements == 0
    assert report.cdz_reduced_disagreements == 0
    assert report.violations == []
    announce("9 (cdz = oracle and every gated arrow on all 230,230 instances with n=6)")
