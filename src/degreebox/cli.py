"""Command-line front end: check, realize, crossval.

Exit codes are uniform across subcommands: 0 for an affirmative verdict,
1 for a negative one, 2 for usage or input errors, 3 for an internal
error (a bug, never a verdict), reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict

from . import criteria as _criteria
from . import oracle as _oracle
from . import realize as _realize
from . import sequences as _sequences
from .errors import InputError

class InstanceSyntaxError(InputError):
    """The instance text is not 'a1,a2,.../b1,b2,...' or a readable @file."""


def _parse_vector(text: str) -> tuple[int, ...]:
    # int() alone would take '1_0', '+2' and non-ASCII digits, so only ASCII digits, '-',
    # ',' and spaces get to it; it refuses the rest ('- 1', '1 2', an empty entry).
    # '-1' parses and fails validation
    if re.fullmatch(r"[\s0-9,-]*", text):
        try:
            return tuple(map(int, text.split(",")))
        except ValueError:  # a malformed entry, or more digits than int() converts
            pass
    raise InstanceSyntaxError(f"cannot parse integer vector from {text!r}")


def parse_instance(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse 'a1,a2,.../b1,b2,...' or '@path' to a JSON file with keys a, b,
    to the bound vectors (a, b), before validation and clamping: vectors of
    different lengths are returned as they are, for
    ``sequences.normalize_good_order`` to refuse."""
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise InstanceSyntaxError(f"cannot read instance file: {exc}") from exc
        # malformed UTF-8, JSON and over-long integer literals are ValueErrors;
        # arrays nested past the parser's recursion limit raise RecursionError
        except (ValueError, RecursionError) as exc:
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
    return a, b


def _write(text: str) -> None:
    """Write text to stdout and flush it; a reader that closed the pipe ends the output.

    On a broken pipe, fd 1 is pointed at os.devnull, so later writes and the
    flush at exit cannot raise again, and the command still returns its verdict.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(payload: dict) -> None:
    _write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _verdict_text(v: _criteria.CriterionVerdict) -> str:
    if v.holds:
        return "holds"
    where = f"t={v.witness_t}"
    if v.witness_m is not None:
        where += f", m={v.witness_m}"
    return f"fails  @ {where} ({v.lhs} > {v.rhs})"


def cmd_check(args: argparse.Namespace) -> int:
    a, b = parse_instance(args.instance)
    norm = _sequences.normalize_good_order(a, b)
    pair = norm.pair
    # raises TooLarge past the oracle's size instead of skipping the cross-check
    oracle_result = _oracle.oracle_realizable(pair) if args.oracle else None
    report = _criteria.criteria_report(pair)
    verdicts = report.verdicts
    if args.json:
        _emit_json({
            "schema": "degreebox.check/1",
            "a": list(a),
            "b": list(b),
            "normalized": {
                "a": list(pair.a),
                "b": list(pair.b),
                "perm": [p + 1 for p in norm.perm],
            },
            "criteria": {name: asdict(v) for name, v in verdicts.items()},
            "cdz_consistent": report.cdz_consistent,
            "oracle": None if oracle_result is None else oracle_result._asdict(),
        })
    else:
        if norm.perm != tuple(range(pair.n)):
            _write(f"normalized to good order; permutation (1-based): "
                   f"{[p + 1 for p in norm.perm]}\n")
        for name, v in verdicts.items():
            _write(f"{_criteria.CRITERIA[name].display:<18} {_verdict_text(v)}\n")
        if not report.cdz_consistent:
            _write("WARNING: cdz and cdz_reduced disagree (internal inconsistency)\n")
        if oracle_result is not None:
            _write(f"{'oracle':<18} {'realizable' if oracle_result.realizable else 'not realizable'}"
                   f" ({oracle_result.witness_count} witnessing edge subsets)\n")
    return 0 if verdicts["cdz"].holds else 1


def cmd_realize(args: argparse.Namespace) -> int:
    if args.json and args.dot:
        raise InputError("--json reports the edges itself; --dot does not apply")
    a, b = parse_instance(args.instance)
    norm = _sequences.normalize_good_order(a, b)
    graph = _realize.realize_pair(norm.pair, norm.perm)
    if graph is not None and not _realize.verify_witness(graph, a, b):
        raise AssertionError("constructed witness violates the input bounds")
    if args.json:
        report = json.dumps({
            "schema": "degreebox.realize/1",
            "realizable": graph is not None,
            "n": len(a),
            "edges": None,
        }, sort_keys=True, separators=(",", ":"))
        if graph is not None:  # "edges" sorts first, so the first match is its value
            report = report.replace('"edges":null', '"edges":' + graph.to_json_edges(), 1)
        _write(report + "\n")
    elif graph is None:
        _write("not realizable\n")
    else:
        _write(graph.to_dot() if args.dot else graph.to_edge_list())
    return 0 if graph is not None else 1


def cmd_crossval(args: argparse.Namespace) -> int:
    if args.matrix and (args.sample is not None or args.seed is not None):
        raise InputError("--matrix sweeps every instance; --sample and --seed do not apply")
    if args.seed is not None and args.sample is None:
        raise InputError("--seed is the sampling seed; it applies only with --sample")
    if args.matrix:
        matrix = _oracle.implication_matrix(n=args.n)
        if args.json:
            _write(matrix.to_json() + "\n")
        else:
            _write(matrix.to_text())
        return 0
    report = _oracle.cross_validate(args.n, sample=args.sample, seed=args.seed or 0)
    if args.json:
        _write(report.to_json() + "\n")
    else:
        _write(report.to_text())
    return 1 if report.violations else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="degreebox",
        description="Check, realize and cross-validate degree-interval realizability.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate all criteria on an instance")
    p.add_argument("instance", help='"a1,a2,.../b1,b2,..." or @file.json')
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle (n <= 8)")
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
