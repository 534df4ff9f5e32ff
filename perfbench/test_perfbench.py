"""Self-tests of the benchmark: seeded inputs, planted answers, output checks,
span bookkeeping, and the metric names of both kinds of run.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import gzip
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import clock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from degreebox import criteria, oracle, sequences  # noqa: E402


def _inputs_digest(workload: str, seed: int) -> str:
    ops = [workloads.warmup_op(workload, seed)]
    ops += [op for r in range(3) for op in workloads.make_round(workload, seed, r)]
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import test_perfbench as t; "
            f"print(t._inputs_digest({workload!r}, 5))")
    fresh = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                           capture_output=True, text=True, check=True).stdout.strip()
    assert fresh == _inputs_digest(workload, 5)
    assert _inputs_digest(workload, 5) != _inputs_digest(workload, 6)


@pytest.mark.parametrize("n", range(2, oracle.MAX_EXHAUSTIVE_N + 1))
def test_planted_answers_agree_with_the_oracle(n):
    rng = np.random.default_rng([n])
    for trial in range(12):
        p = 0.1 + 0.8 * trial / 11
        for kind in ("planted", "parity", "clash", "narrow"):
            op = workloads.instance(kind, rng, n, p)
            pair = sequences.normalize_good_order(op["a"], op["b"]).pair
            assert oracle.oracle_realizable(pair).realizable == op["expect"], op
            if kind != "narrow":
                assert op["expect"] == (kind == "planted")


def _realize_op(a, b, expect=True):
    return {"id": "t", "kind": "planted", "n": len(a), "a": a, "b": b, "expect": expect}


def _realize_out(edges, realizable=True):
    return json.dumps({"schema": "degreebox.realize/1", "realizable": realizable,
                       "n": 3, "edges": edges})


def test_realize_check_accepts_a_valid_witness():
    op = _realize_op([1, 1, 0], [1, 1, 2])
    assert workloads.check("witness", op, (0, _realize_out([[1, 2]]))) is None


@pytest.mark.parametrize("code, edges, realizable, expect", [
    (0, [[1, 2], [2, 1]], True, True),    # duplicate edge
    (0, [[1, 1]], True, True),            # loop
    (0, [[1, 3]], True, True),            # vertex 2 below its lower bound
    (0, [[1, 4]], True, True),            # vertex outside 1..n
    (0, None, True, True),                # realizable without an edge list
    (1, None, False, True),               # wrong verdict
    (3, None, False, False),              # exit code outside {0, 1}
    (1, [[1, 2]], False, False),          # unrealizable report with edges
])
def test_realize_check_rejects_bad_output(code, edges, realizable, expect):
    op = _realize_op([1, 1, 0], [1, 1, 2], expect)
    assert workloads.check("witness", op, (code, _realize_out(edges, realizable)))


def test_sweep_check_rejects_disagreement_and_violations():
    op = {"id": "t", "kind": "crossval", "n": 5, "sample": 2, "seed": 0}
    good = {"schema": "degreebox.sweep/1", "n": 5, "instance_count": 2,
            "cdz_oracle_disagreements": 0, "cdz_reduced_disagreements": 0, "violations": []}
    assert workloads.check("sweep_small", op, (0, json.dumps(good))) is None
    for change in ({"cdz_oracle_disagreements": 1}, {"violations": [{}]},
                   {"instance_count": 1}):
        assert workloads.check("sweep_small", op, (0, json.dumps(dict(good, **change))))


def test_tracer_records_nested_spans_and_restores_originals(tmp_path):
    originals = (criteria.check_cdz, criteria.parity_corrections, criteria.CHECKERS["cdz"],
                 oracle.ALL_CRITERIA["cdz"], sequences.parity_corrections)
    pair = sequences.normalize_good_order([2, 2, 2], [2, 2, 2]).pair
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert criteria.CHECKERS["cdz"] is not originals[2]
        assert oracle.ALL_CRITERIA["cdz"] is criteria.check_cdz
        criteria.check_cdz(pair)
    finally:
        tracer.uninstall()
    assert (criteria.check_cdz, criteria.parity_corrections, criteria.CHECKERS["cdz"],
            oracle.ALL_CRITERIA["cdz"], sequences.parity_corrections) == originals
    names = [tracer.names[k] for k, *_ in tracer.spans]
    assert names == ["criteria.check_cdz", "sequences.parity_corrections"]
    (_, s0, e0, p0), (_, s1, e1, p1) = tracer.spans
    assert (p0, p1) == (-1, 0) and s0 <= s1 <= e1 <= e0
    total = e0 - s0
    assert tracer.self_s["criteria.check_cdz"] == pytest.approx(total - (e1 - s1))
    tracer.write(tmp_path / "spans.jsonl.gz", s0)
    with gzip.open(tmp_path / "spans.jsonl.gz", "rt") as fh:
        header, *lines = [json.loads(line) for line in fh]
    assert header["names"] == tracer.names
    assert [(k, p) for k, _, _, p in lines] == [(k, p) for k, _, _, p in tracer.spans]


def test_reference_times_scale_out_host_speed():
    phase = run.Phase(workloads, "decide_large", "python")
    ref = clock.REF_S["python"]
    phase.durations = [0.2, 0.2, 0.2, 0.2]
    phase.pass_s = [2 * ref, 2 * ref, 2 * ref, 9 * ref]  # one outlying pass
    assert phase.ref_durations() == pytest.approx([0.1, 0.1, 0.1, 0.1])
    phase.durations = [0.2] * 3 + [0.6] * 3  # the host slows down mid-phase
    phase.pass_s = [ref] * 3 + [3 * ref] * 3
    assert phase.ref_durations() == pytest.approx([0.2] * 6)


def test_calibration_loops_run_near_their_reference_time():
    for loop in clock.LOOPS:
        passes = [clock.time_pass(loop) for _ in range(15)]
        assert 0.2 < clock.factor(loop, passes[5:]) < 5, loop


def _benchmark_lists():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc, {m["name"]: m["unit"] for m in doc["end_to_end"]}, \
        {m["name"]: m["unit"] for m in doc["per_layer"]}


def test_benchmark_json_names_this_benchmark():
    doc, end_to_end, per_layer = _benchmark_lists()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units(spans.span_names())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_reported(workload, trace):
    _, end_to_end, per_layer = _benchmark_lists()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    wanted = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
