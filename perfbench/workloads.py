"""Seeded inputs, calls into degreebox, and output checks for each workload.

An *op* is one call into the program: a JSON-serialisable dict made only
from the benchmark seed.  ``execute`` makes the call and ``check`` judges
what came back, so the caller can time the first and not the second.

Every workload is a stream of *rounds*.  A round is a fixed pattern of
calls filled in from the seed, so each round asks for about the same
amount of work and per-round throughput is comparable across rounds and
seeds.  See README.md for why each workload exists and which layer it
loads.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from degreebox import cli, criteria, sequences

WORKLOADS = ("decide_large", "witness", "sweep_oracle", "sweep_small")

# Instances per crossval call: about 0.1 s per call on the seed code.
SWEEP_SAMPLE = {"sweep_oracle": (7, 20), "sweep_small": (5, 200)}
SWEEP_CALLS_PER_ROUND = 4

# A round of decide_large or witness is one call per slot, (kind, n range).
# Each slot's cost sits in its own band, and with five slots the median
# call is the middle slot and the 90th percentile the costliest one, so
# both are medians of one slot's calls rather than edges between slots.
#   decide_large: the median is clash at n = 1000 (parity corrections plus
#   an early exit); the 90th percentile is a full O(n^2) scan at n = 1400.
#   The largest n is kept at 1400 so a 25 s run makes 100+ calls even when
#   the machine runs 2.5 times slower than when quiet.
DECIDE_SLOTS = (("parity", 500, 500), ("planted", 300, 300), ("clash", 1000, 1000),
                ("planted", 700, 700), ("planted", 1400, 1400))
#   witness: the median is a planted box at n = 150 and the 90th percentile
#   one at n = 400; the narrow random boxes carry the DFS tail.
WITNESS_SLOTS = (("narrow", 30, 39), ("narrow", 40, 50), ("planted", 150, 150),
                 ("parity", 250, 250), ("planted", 400, 400))

# Planted boxes reach MAX_WIDTH below and above the planted degree; slot k
# of a round samples G(n, p) at the k-th point of a fixed grid over P_RANGE.
MAX_WIDTH = 3
P_RANGE = (0.1, 0.5)


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def gnp_degrees(rng: np.random.Generator, n: int, p: float) -> list[int]:
    """Degree vector of one G(n, p) sample, drawn row by row to keep memory O(n)."""
    deg = np.zeros(n, dtype=np.int64)
    for i in range(n - 1):
        row = rng.random(n - i - 1) < p
        deg[i] += int(row.sum())
        deg[i + 1:] += row
    return deg.tolist()


def planted_box(rng, n: int, p: float, max_width: int) -> tuple[list[int], list[int]]:
    """A box around a G(n, p) degree vector: realizable by construction."""
    deg = gnp_degrees(rng, n, p)
    lo = rng.integers(0, max_width + 1, n).tolist()
    hi = rng.integers(0, max_width + 1, n).tolist()
    a = [max(0, d - w) for d, w in zip(deg, lo)]
    b = [min(n - 1, d + w) for d, w in zip(deg, hi)]
    return a, b


def parity_pair(rng, n: int, p: float) -> tuple[list[int], list[int]]:
    """A = B = a G(n, p) degree vector with one entry moved by one: odd sum, unrealizable."""
    deg = gnp_degrees(rng, n, p)
    i = int(rng.integers(0, n))
    deg[i] += 1 if deg[i] < n - 1 else -1
    return deg, list(deg)


def clash_pair(rng, n: int, p: float, max_width: int) -> tuple[list[int], list[int]]:
    """A planted box with a forced degree-(n-1) vertex beside a forced isolated one.

    The first must be adjacent to the second, so no graph fits.
    """
    a, b = planted_box(rng, n, p, max_width)
    i, j = (int(x) for x in rng.choice(n, 2, replace=False))
    a[i] = b[i] = n - 1
    a[j] = b[j] = 0
    return a, b


def narrow_box(rng, n: int) -> tuple[list[int], list[int]]:
    """Uniform random cells of width 0 to 2, with no planted answer."""
    a = rng.integers(0, n, n).tolist()
    width = rng.integers(0, 3, n).tolist()
    return a, [min(n - 1, x + w) for x, w in zip(a, width)]


def reference_verdict(a, b) -> bool:
    """check_cdz, the exact decision, as the reference where nothing is planted."""
    return criteria.check_cdz(sequences.normalize_good_order(a, b).pair).holds


def instance(kind: str, rng, n: int, p: float = 0.0) -> dict:
    """One decide or realize op without an id; p is unused for narrow boxes."""
    if kind == "planted":
        a, b = planted_box(rng, n, p, MAX_WIDTH)
        expect = True
    elif kind == "parity":
        a, b = parity_pair(rng, n, p)
        expect = False
    elif kind == "clash":
        a, b = clash_pair(rng, n, p, MAX_WIDTH)
        expect = False
    else:
        a, b = narrow_box(rng, n)
        expect = reference_verdict(a, b)
    return {"kind": kind, "n": n, "a": a, "b": b, "expect": expect}


def _edge_density(k: int, slots: int) -> float:
    return P_RANGE[0] + (P_RANGE[1] - P_RANGE[0]) * (k + 0.5) / slots


def _sweep_op(workload: str, rng) -> dict:
    n, sample = SWEEP_SAMPLE[workload]
    return {"kind": "crossval", "n": n, "sample": sample,
            "seed": int(rng.integers(0, 2**31))}


def make_round(workload: str, seed: int, r: int) -> list[dict]:
    """The r-th round of a workload; the same (seed, r) always gives the same ops."""
    rng = _rng(seed, WORKLOADS.index(workload), 1, r)
    if workload in SWEEP_SAMPLE:
        ops = [_sweep_op(workload, rng) for _ in range(SWEEP_CALLS_PER_ROUND)]
    else:
        slots = DECIDE_SLOTS if workload == "decide_large" else WITNESS_SLOTS
        ops = [instance(kind, rng, int(rng.integers(lo, hi + 1)), _edge_density(k, len(slots)))
               for k, (kind, lo, hi) in enumerate(slots)]
        ops = [ops[i] for i in rng.permutation(len(ops))]
    for i, op in enumerate(ops):
        op["id"] = f"r{r}.{i}"
    return ops


def warmup_op(workload: str, seed: int) -> dict:
    """The one call made before timing; sized the same for every seed."""
    rng = _rng(seed, WORKLOADS.index(workload), 0)
    if workload in SWEEP_SAMPLE:
        op = _sweep_op(workload, rng)
    else:
        op = instance("planted", rng, 300 if workload == "decide_large" else 150, 0.3)
    op["id"] = "warmup"
    return op


def op_count(op: dict) -> int:
    """Instances one op decides, realizes or sweeps."""
    return op["sample"] if op["kind"] == "crossval" else 1


def _instance_text(op: dict) -> str:
    return ",".join(map(str, op["a"])) + "/" + ",".join(map(str, op["b"]))


def cli_argv(op: dict) -> list[str]:
    if op["kind"] == "crossval":
        return ["--json", "crossval", str(op["n"]), "--sample", str(op["sample"]),
                "--seed", str(op["seed"])]
    return ["--json", "realize", _instance_text(op)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """degreebox.cli.main in this process, stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def execute(workload: str, op: dict):
    """Make the op's call.  Names are looked up on the modules at call time,
    so tracing wrappers installed there are seen."""
    if workload == "decide_large":
        norm = sequences.normalize_good_order(op["a"], op["b"])
        return norm, criteria.check_cdz(norm.pair)
    return run_cli(cli_argv(op))


def check(workload: str, op: dict, result) -> str | None:
    """None if the result is right for the op, else what is wrong with it."""
    if workload == "decide_large":
        norm, verdict = result
        if sorted(norm.perm) != list(range(op["n"])):
            return "normalize: perm is not a permutation"
        if verdict.holds != op["expect"]:
            return f"wrong verdict: holds={verdict.holds}, expected {op['expect']}"
        return None
    code, out = result
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if op["kind"] == "crossval":
        return _check_sweep(op, code, doc)
    return _check_realize(op, code, doc)


def _check_sweep(op: dict, code: int, doc: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if doc.get("schema") != "degreebox.sweep/1" or doc.get("n") != op["n"]:
        return "not a degreebox.sweep/1 report for this n"
    if doc.get("instance_count") != op["sample"]:
        return f"swept {doc.get('instance_count')} instances, asked for {op['sample']}"
    if doc.get("cdz_oracle_disagreements") != 0 or doc.get("cdz_reduced_disagreements") != 0:
        return "cdz disagrees with the oracle or with cdz_reduced"
    if doc.get("violations"):
        return f"{len(doc['violations'])} gated violations"
    return None


def _check_realize(op: dict, code: int, doc: dict) -> str | None:
    if code != (0 if op["expect"] else 1):
        return f"wrong verdict: exit {code}, expected realizable={op['expect']}"
    if doc.get("schema") != "degreebox.realize/1" or doc.get("realizable") != op["expect"]:
        return "report does not state the expected verdict"
    edges = doc.get("edges")
    if not op["expect"]:
        return None if edges is None else "unrealizable report carries edges"
    if not isinstance(edges, list):
        return "realizable report carries no edge list"
    n, seen, deg = op["n"], set(), [0] * op["n"]
    for edge in edges:
        u, v = edge
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            return f"bad edge {edge}"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge {edge}"
        seen.add(key)
        deg[u - 1] += 1
        deg[v - 1] += 1
    for i, (lo, hi) in enumerate(zip(op["a"], op["b"])):
        if not lo <= deg[i] <= hi:
            return f"vertex {i + 1} has degree {deg[i]} outside [{lo}, {hi}]"
    return None
