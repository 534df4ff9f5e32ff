"""Command-line front end: check, realize, crossval, identities.

Exit codes are uniform across subcommands: 0 for an affirmative verdict,
1 for a negative one, 2 for usage or input errors, 3 for an internal
error (a bug, never a verdict), reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from dataclasses import dataclass

from . import criteria as _criteria
from . import oracle as _oracle
from . import realize as _realize
from . import sequences as _sequences
from .errors import InputError, LengthMismatch

class InstanceSyntaxError(InputError):
    """The instance text is not 'a1,a2,.../b1,b2,...' or a readable @file."""


@dataclass(frozen=True)
class InstanceSpec:
    """Parsed bound vectors, before validation and clamping."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def canonical_json(self) -> str:
        return json.dumps({"a": list(self.a), "b": list(self.b)},
                          sort_keys=True, separators=(",", ":"))


def _parse_vector(text: str) -> tuple[int, ...]:
    # int() alone would take '1_0', '+2' and non-ASCII digits; '-1' parses and fails validation
    if re.fullmatch(r"\s*-?[0-9]+\s*(?:,\s*-?[0-9]+\s*)*", text):
        try:
            return tuple(map(int, text.split(",")))
        except ValueError:  # more digits than int() converts
            pass
    raise InstanceSyntaxError(f"cannot parse integer vector from {text!r}")


def parse_instance(text: str) -> InstanceSpec:
    """Parse 'a1,a2,.../b1,b2,...' or '@path' to a JSON file with keys a, b."""
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise InstanceSyntaxError(f"cannot read instance file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InstanceSyntaxError(f"instance file is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "a" not in payload or "b" not in payload:
            raise InstanceSyntaxError('instance file must be {"a": [...], "b": [...]}')
        fields = payload["a"], payload["b"]
        # bool is an int subclass, but true/false are not bounds
        if not all(isinstance(v, list) and all(type(x) is int for x in v) for v in fields):
            raise InstanceSyntaxError("instance file fields must be integer arrays")
        a, b = map(tuple, fields)
    else:
        if text.count("/") != 1:
            raise InstanceSyntaxError(
                "expected exactly one '/' separating lower and upper bounds"
            )
        left, right = text.split("/")
        a = _parse_vector(left)
        b = _parse_vector(right)
    if len(a) != len(b):
        raise LengthMismatch(f"lower has {len(a)} entries, upper has {len(b)}")
    return InstanceSpec(a, b)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _verdict_json(v: _criteria.CriterionVerdict) -> dict:
    return {
        "holds": v.holds,
        "witness_t": v.witness_t,
        "witness_m": v.witness_m,
        "lhs": v.lhs,
        "rhs": v.rhs,
    }


def _verdict_text(v: _criteria.CriterionVerdict) -> str:
    if v.holds:
        return "holds"
    where = f"t={v.witness_t}"
    if v.witness_m is not None:
        where += f", m={v.witness_m}"
    return f"fails  @ {where} ({v.lhs} > {v.rhs})"


def cmd_check(args: argparse.Namespace) -> int:
    spec = parse_instance(args.instance)
    norm = _sequences.normalize_good_order(spec.a, spec.b)
    pair = norm.pair
    # raises TooLarge past the oracle's size instead of skipping the cross-check
    oracle_result = _oracle.oracle_realizable(pair) if args.oracle else None
    report = _criteria.criteria_report(pair)
    verdicts = dict(report.verdicts)
    verdicts["ryser_interval"] = _criteria.check_ryser_interval(pair)
    if args.json:
        _emit_json({
            "schema": "degreebox.check/1",
            "a": list(spec.a),
            "b": list(spec.b),
            "normalized": {
                "a": list(pair.a),
                "b": list(pair.b),
                "perm": [p + 1 for p in norm.perm],
            },
            "criteria": {name: _verdict_json(v) for name, v in verdicts.items()},
            "cdz_consistent": report.cdz_consistent,
            "oracle": None if oracle_result is None else {
                "realizable": oracle_result.realizable,
                "witness_count": oracle_result.witness_count,
            },
        })
    elif not args.quiet:
        if norm.perm != tuple(range(pair.n)):
            print(f"normalized to good order; permutation (1-based): "
                  f"{[p + 1 for p in norm.perm]}")
        for name, v in verdicts.items():
            print(f"{_criteria.CRITERIA[name].display:<18} {_verdict_text(v)}")
        if not report.cdz_consistent:
            print("WARNING: cdz and cdz_reduced disagree (internal inconsistency)")
        if oracle_result is not None:
            print(f"{'oracle':<18} {'realizable' if oracle_result.realizable else 'not realizable'}"
                  f" ({oracle_result.witness_count} witnessing edge subsets)")
    return 0 if verdicts["cdz"].holds else 1


def cmd_realize(args: argparse.Namespace) -> int:
    spec = parse_instance(args.instance)
    norm = _sequences.normalize_good_order(spec.a, spec.b)
    graph = _realize.realize_pair(norm.pair, norm.perm)
    if graph is not None and not _realize.verify_witness(graph, spec.a, spec.b):
        raise AssertionError("constructed witness violates the input bounds")
    if args.json:
        report = json.dumps({
            "schema": "degreebox.realize/1",
            "realizable": graph is not None,
            "n": len(spec.a),
            "edges": None,
        }, sort_keys=True, separators=(",", ":"))
        if graph is not None:  # "edges" sorts first, so the first match is its value
            report = report.replace('"edges":null', '"edges":' + graph.to_json_edges(), 1)
        print(report)
    elif graph is None:
        if not args.quiet:
            print("not realizable")
    elif not args.quiet:
        sys.stdout.write(graph.to_dot() if args.dot else graph.to_edge_list())
    return 0 if graph is not None else 1


def cmd_crossval(args: argparse.Namespace) -> int:
    if args.matrix:
        if args.sample is not None or args.seed is not None:
            raise InputError("--matrix sweeps every instance; --sample and --seed do not apply")
        matrix = _oracle.implication_matrix(n=args.n)
        if args.json:
            print(matrix.to_json())
        elif not args.quiet:
            sys.stdout.write(matrix.to_text())
        return 0
    report = _oracle.cross_validate(args.n, sample=args.sample, seed=args.seed or 0)
    if args.json:
        print(report.to_json())
    elif not args.quiet:
        sys.stdout.write(report.to_text())
    return 1 if report.violations else 0


def run_identity_suite(count: int, seed: int) -> list[dict]:
    """Randomized identity checks; returns the (expected-empty) failure list.

    Per round: the two max-sum truncation identities on a random prefix,
    sum preservation of both matrix transforms, prefix agreement between
    the zero-diagonal column sums and the shifted conjugate, and the
    conjugate involution.
    """
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    failures: list[dict] = []

    def record(kind, **data):
        failures.append({"kind": kind, **data})

    for _ in range(count):
        n = rng.randint(1, 12)
        p = [rng.randint(0, 12) for _ in range(n)]
        t = rng.randint(1, n)
        if not _sequences.max_sum_identities_hold(p, t):
            record("max_sum_identities", p=p, t=t)

        d = sorted((rng.randint(0, n - 1) for _ in range(n)), reverse=True)
        berge = _sequences.berge_sequence(d)
        conj = _sequences.conjugate_sequence(d)
        if sum(berge) != sum(d) or sum(conj) != sum(d):
            record("sum_preservation", d=d, berge=list(berge), conjugate=list(conj))
        f = _sequences.crossing_index(d)
        bp = cp = 0
        for k in range(f):
            bp += berge[k]
            cp += conj[k] - 1
            if bp != cp:
                record("berge_conjugate_prefix", d=d, k=k + 1, berge_prefix=bp,
                       conjugate_prefix=cp)
                break

        twice = _sequences.conjugate_sequence(conj)
        if _strip_zeros(twice) != _strip_zeros(d):
            record("conjugate_involution", d=d, twice=list(twice))
    return failures


def _strip_zeros(seq) -> tuple[int, ...]:
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def cmd_identities(args: argparse.Namespace) -> int:
    failures = run_identity_suite(args.count, args.seed)
    if args.json:
        _emit_json({
            "schema": "degreebox.identities/1",
            "count": args.count,
            "seed": args.seed,
            "failures": failures,
        })
    elif not args.quiet:
        if failures:
            for f in failures[:20]:
                print(f"FAIL {f}")
        print(f"{args.count} rounds, {len(failures)} failures")
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="degreebox",
        description="Check, realize and cross-validate degree-interval realizability.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--quiet", action="store_true", help="suppress normal output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate all criteria on an instance")
    p.add_argument("instance", help='"a1,a2,.../b1,b2,..." or @file.json')
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle (n <= 7)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="construct a witness graph")
    p.add_argument("instance", help='"a1,a2,.../b1,b2,..." or @file.json')
    p.add_argument("--dot", action="store_true", help="emit DOT instead of an edge list")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("crossval", help="sweep instances against the oracle")
    p.add_argument("n", type=int)
    p.add_argument("--sample", type=int, default=None,
                   help="sample this many instances instead of exhausting")
    p.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")
    p.add_argument("--matrix", action="store_true",
                   help="print the pairwise implication matrix instead")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("identities", help="randomized sequence-identity checks")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_identities)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes an instance such as "-1,1/1,1" for an option; a leading space does not
    argv = [" " + arg if re.match(r"-[0-9].*/", arg) else arg
            for arg in (sys.argv[1:] if argv is None else argv)]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
