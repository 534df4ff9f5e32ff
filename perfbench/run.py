"""Fixed-seed benchmark of degreebox: four closed-loop workloads, one client.

Run from the repository root:

    python3 perfbench/run.py --workload decide_large --seed 1 --seconds 25 --trace 0

Workloads: decide_large, witness, sweep_oracle, sweep_small (see README.md).
The program is imported from ``src/`` of the same checkout; nothing is
installed.  Each call into degreebox is made in this process, one at a
time, and the next starts when the previous returns.

``--trace 0`` times unwrapped code and reports the end-to-end metrics.
Their times are reference-host times: each wall time is scaled by
calibration passes run between the calls (see clock.py), so that the
shared host's changes of speed do not show as changes of degreebox.  The
wall figures are in the provenance.
``--trace 1`` runs each round twice, first plain and then with span
wrappers installed, and reports per-layer metrics and the difference
between the two as the tracing overhead.

Output: a provenance line, one line per metric (name, value, unit), one
line per failed call, and as the last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same record,
with provenance and failures, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units(span_names) -> dict[str, str]:
    units = {f"{name}.self_s": "s/op" for name in span_names}
    units.update({
        "oracle.oracle_decide.calls": "1/op",
        "oracle.table_build_s": "s",
        "realize.search_failures": "count",
        "cli.stdout_bytes": "B/op",
        "trace.ops": "count",
        "trace.overhead_pct": "%",
    })
    return units


# Calibration loop per workload (clock.LOOPS); the oracle sweep is numpy-bound.
CLOCK_LOOP = {"decide_large": "python", "witness": "python",
              "sweep_oracle": "numpy", "sweep_small": "python"}


class Phase:
    """Calls made in one phase: their times, outcomes and failures.

    With a calibration loop, one pass of it runs before each call, so the
    call's wall time can be scaled to reference-host time (clock.py)."""

    def __init__(self, workloads, workload: str, loop: str | None = None):
        self.workloads = workloads
        self.workload = workload
        self.loop = loop
        self.durations: list[float] = []
        self.pass_s: list[float] = []
        self.counts: list[int] = []
        self.crossval_seeds: list[int] = []
        self.stdout_bytes = 0
        self.failures: list[dict] = []
        self.wrong = 0

    def run(self, op: dict) -> float:
        """Make one timed call, then check its output untimed; returns the call's
        wall seconds."""
        if self.loop:
            self.pass_s.append(clock.time_pass(self.loop))
        start = perf_counter()
        try:
            result = self.workloads.execute(self.workload, op)
        except Exception as exc:  # any raise is a failed call; the run goes on
            seconds = perf_counter() - start
            self._fail(op, type(exc).__name__, str(exc)[:200], wrong=False)
        else:
            seconds = perf_counter() - start
            try:
                problem = self.workloads.check(self.workload, op, result)
            except (TypeError, ValueError, KeyError, AttributeError) as exc:
                problem = f"malformed output ({type(exc).__name__}: {exc})"
            if problem:
                self._fail(op, "WrongOutput", problem, wrong=True)
            if isinstance(result, tuple) and isinstance(result[-1], str):
                self.stdout_bytes += len(result[-1].encode())
        self.durations.append(seconds)
        self.counts.append(self.workloads.op_count(op))
        if op["kind"] == "crossval":
            self.crossval_seeds.append(op["seed"])
        return seconds

    def ref_durations(self) -> list[float]:
        """Each call's reference-host seconds: its wall seconds scaled by the
        clock.WINDOW passes centred on the one made just before it."""
        h = clock.WINDOW // 2
        return [s * clock.factor(self.loop, self.pass_s[max(0, i - h):i + h + 1])
                for i, s in enumerate(self.durations)]

    def _fail(self, op: dict, error: str, detail: str, wrong: bool) -> None:
        self.wrong += wrong
        self.failures.append({"id": op["id"], "kind": op["kind"], "n": op["n"],
                              "error": error, "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def instances(self) -> int:
        return sum(self.counts)


def closed_loop(workloads, workload: str, seed: int, budget_s: float,
                loop: str) -> tuple[Phase, list[range]]:
    """Run rounds until budget_s wall seconds have passed; returns the phase and
    the call indices of each complete round (of the partial one if none is)."""
    phase = Phase(workloads, workload, loop)
    rounds: list[range] = []
    start = perf_counter()
    r = 0
    while perf_counter() - start < budget_s or not phase.attempted:
        first = phase.attempted
        for op in workloads.make_round(workload, seed, r):
            if phase.attempted and perf_counter() - start >= budget_s:
                break
            phase.run(op)
        else:
            rounds.append(range(first, phase.attempted))
        r += 1
    return phase, rounds or [range(phase.attempted)]


def measure_setup(workload: str, op: dict) -> tuple[list[float], list[float]]:
    """Seconds to import degreebox and make the warm-up call, in fresh
    interpreters: (reference-host seconds, wall seconds) of each.  Each is
    scaled by calibration passes the same interpreter makes right after."""
    loop = CLOCK_LOOP[workload]
    request = json.dumps({"workload": workload, "op": op, "loop": loop})
    ref_times, wall_times = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], input=request,
            capture_output=True, text=True, cwd=ROOT, timeout=30, check=True,
        )
        seconds, pass_s = map(float, proc.stdout.split()[-2:])
        wall_times.append(seconds)
        ref_times.append(seconds * clock.factor(loop, [pass_s]))
    return ref_times, wall_times


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "degreebox").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(workloads, wl: str, seed: int, seconds: float):
    """End-to-end metrics of unwrapped calls (all but setup_s), and the wall
    figures behind the scaled ones."""
    loop = CLOCK_LOOP[wl]
    for _ in range(clock.WINDOW):  # warm the calibration loop
        clock.time_pass(loop)
    timed, rounds = closed_loop(workloads, wl, seed, seconds, loop)
    ref = timed.ref_durations()
    round_rates = [sum(timed.counts[i] for i in rnd) / sum(ref[i] for i in rnd)
                   for rnd in rounds]
    values = {
        "ops_per_s": statistics.median(round_rates),
        "call_p50_ms": 1e3 * statistics.median(ref),
        "call_p90_ms": 1e3 * p90(ref),
        "success_rate": 1 - len(timed.failures) / timed.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "ops_per_s_overall": timed.instances / sum(timed.durations),
        "call_p50_ms": 1e3 * statistics.median(timed.durations),
        "call_p90_ms": 1e3 * p90(timed.durations),
        "median_pass_s": statistics.median(timed.pass_s),
    }
    return (timed,), values, wall, {"call_latency": timed.attempted,
                                    "rounds": len(round_rates)}


def traced_run(workloads, tracer, wl: str, seed: int, seconds: float, table_build_s: float):
    """Per-layer metrics.  Each round runs plain and then again traced, so the
    two timings of a call are close in time, until `seconds` have passed."""
    plain, traced = Phase(workloads, wl), Phase(workloads, wl)
    t0 = perf_counter()
    r = 0
    while perf_counter() - t0 < seconds:
        ops = workloads.make_round(wl, seed, r)
        for op in ops:
            plain.run(op)
        tracer.install()
        try:
            for op in ops:
                traced.run(op)
        finally:
            tracer.uninstall()
        r += 1
    tracer.write(OUT / f"{wl}-seed{seed}.spans.jsonl.gz", t0)
    per_op = 1 / traced.instances
    values = {f"{name}.self_s": tracer.self_s[name] * per_op for name in tracer.names}
    values.update({
        "oracle.oracle_decide.calls": tracer.calls["oracle.oracle_decide"] * per_op,
        "oracle.table_build_s": table_build_s,
        "realize.search_failures": len(traced.failures) if wl == "witness" else 0,
        "cli.stdout_bytes": traced.stdout_bytes * per_op,
        "trace.ops": traced.instances,
        "trace.overhead_pct": 100 * (statistics.median(
            t / p for t, p in zip(traced.durations, plain.durations)) - 1),
    })
    return (plain, traced), values, {}, {"plain_calls": plain.attempted,
                                         "traced_calls": traced.attempted}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# Also workloads.WORKLOADS; repeated here because that module needs src/ on the path.
WORKLOAD_NAMES = ("decide_large", "witness", "sweep_oracle", "sweep_small")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "degreebox" / "__init__.py").is_file():
        print(f"error: no degreebox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy

    import spans
    import workloads

    wl, seed = args.workload, args.seed

    OUT.mkdir(exist_ok=True)
    warm = Phase(workloads, wl)
    warm_op = workloads.warmup_op(wl, seed)
    setup_runs, setup_wall = measure_setup(wl, warm_op)
    table_build_s = warm.run(warm_op) - warm.run(warm_op)
    if args.trace:
        phases, values, wall, samples = traced_run(workloads, spans.Tracer(), wl, seed,
                                                   args.seconds, table_build_s)
        units = per_layer_units(spans.span_names())
    else:
        phases, values, wall, samples = timed_run(workloads, wl, seed, args.seconds)
        values["setup_s"] = statistics.median(setup_runs)
        wall["setup_s"] = statistics.median(setup_wall)
        units = END_TO_END
    phases = (warm,) + phases
    samples["setup_s"] = len(setup_runs)

    measured = phases[1:]
    failures = [f for phase in phases for f in phase.failures]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    provenance = {
        "workload": wl,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seeds": {
            "benchmark": seed,
            "inputs": "numpy.random.default_rng([seed, workload index, 0]) for the "
                      "warm-up, [seed, workload index, 1, round] for each round",
            "crossval": phases[1].crossval_seeds,
        },
        "samples": samples,
        "clock": {"loop": CLOCK_LOOP[wl], "ref_pass_s": clock.REF_S[CLOCK_LOOP[wl]],
                  "window": clock.WINDOW},
        "wall": wall,
        "setup_s_runs": setup_runs,
        "setup_s_wall_runs": setup_wall,
        "table_build_s": table_build_s,
    }
    result = {
        "correct": all(phase.wrong == 0 for phase in phases),
        "attempted": sum(phase.attempted for phase in measured),
        "failed": sum(len(phase.failures) for phase in measured),
        "metrics": metrics,
    }
    record = dict(result, provenance=provenance, failures=failures)
    (OUT / f"{wl}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}")
    for f in failures:
        print(f"failed {f['id']} kind={f['kind']} n={f['n']} {f['error']}: {f['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
