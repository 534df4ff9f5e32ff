import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import degreebox
import ref_impl
from degreebox.cli import (
    InstanceSpec,
    InstanceSyntaxError,
    main,
    parse_instance,
)
from degreebox import criteria
from degreebox.errors import LengthMismatch
from degreebox.oracle import enumerate_instances
from degreebox.sequences import normalize_good_order

CE_TEXT = "5,4,3,3,3,1/5,5,3,3,3,1"
README = Path(__file__).resolve().parents[1] / "README.md"


def _exit_code(argv):
    """main's exit code, or the one argparse exits with on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParseInstance:
    def test_counterexample_inline(self):
        spec = parse_instance(CE_TEXT)
        assert spec.a == (5, 4, 3, 3, 3, 1)
        assert spec.b == (5, 5, 3, 3, 3, 1)

    def test_degenerate_box(self):
        spec = parse_instance("2,2,2/2,2,2")
        assert spec.a == spec.b == (2, 2, 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            parse_instance("1,2/1")

    def test_whitespace_tolerated(self):
        spec = parse_instance("  5 ,4 / 5,  5 ")
        assert spec == InstanceSpec((5, 4), (5, 5))

    @pytest.mark.parametrize("bad", ["abc", "1,2", "1/2/3", "1,x/1,2"])
    def test_syntax_errors(self, bad):
        with pytest.raises(InstanceSyntaxError):
            parse_instance(bad)

    def test_json_file_input(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"a": [2, 2, 2], "b": [2, 2, 2]}))
        spec = parse_instance(f"@{path}")
        assert spec.a == (2, 2, 2)

    @pytest.mark.parametrize("payload", [
        b'{"a": [1.9, 1, "1"], "b": [2, true, 2]}',
        b'{"a": "111", "b": "222"}',
        b'{"a": [1, 1, 1], "b": [2, true, 2]}',
        b'{"a": [1.0, 1, 1], "b": [2, 2, 2]}',
        b'{"a": null, "b": [1]}',
        b'{"a": {"0": 1}, "b": [1]}',
        # not JSON text at all: bytes that are not UTF-8, arrays nested past
        # the parser's recursion limit, an integer past int()'s digit limit
        pytest.param(b"\xff\xfe", id="non-utf-8"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-200000-deep"),
        pytest.param(b'{"a": [' + b"1" * 5000 + b'], "b": [1]}', id="int-past-digit-limit"),
    ])
    def test_json_file_rejects_non_integer_arrays(self, payload, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_bytes(payload)
        with pytest.raises(InstanceSyntaxError):
            parse_instance(f"@{path}")
        assert main(["check", f"@{path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    # int() takes '1_0' as 10, '+1' as 1 and the Arabic-Indic digit one as 1
    @pytest.mark.parametrize("text", ["0,0/1_0,1", "+1,1/1,1", "\u0661,1/1,1", "1_0,+2/1_0,2"])
    def test_only_ascii_decimal_entries(self, text, capsys):
        with pytest.raises(InstanceSyntaxError):
            parse_instance(text)
        assert main(["check", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_entry_past_int_digit_limit_is_a_syntax_error(self, capsys):
        text = "1" * 5000 + ",1/1,1"
        with pytest.raises(InstanceSyntaxError):
            parse_instance(text)
        assert main(["check", text]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_entry_reaches_validation(self, capsys):
        assert parse_instance(" -1 ,1/1,1").a == (-1, 1)
        assert main(["check", "1,-1/1,1"]) == 2
        assert "negative" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("@/no/such/file.json")


class TestExitCodes:
    def test_check_failing_instance(self, capsys):
        assert main(["check", CE_TEXT]) == 1
        out = capsys.readouterr().out
        assert "CDZ" in out and "t=2" in out

    def test_check_passing_instance(self):
        assert main(["check", "2,2,2/2,2,2"]) == 0

    def test_check_bad_input(self, capsys):
        assert main(["check", "1,2/1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_realize_triangle_edges(self, capsys):
        assert main(["realize", "2,2,2/2,2,2"]) == 0
        assert capsys.readouterr().out == "1 2\n1 3\n2 3\n"

    def test_realize_unrealizable(self, capsys):
        assert main(["realize", CE_TEXT]) == 1
        assert "not realizable" in capsys.readouterr().out

    def test_realize_slack_box(self):
        assert main(["realize", "0,0/1,1"]) == 0

    def test_realize_dot_output(self, capsys):
        assert main(["realize", "--dot", "1,1/1,1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph witness {") and "1 -- 2;" in out

    def test_crossval_small(self, capsys):
        assert main(["crossval", "4"]) == 0
        out = capsys.readouterr().out
        assert "instances: 715" in out
        assert "cdz vs oracle disagreements: 0" in out

    def test_crossval_too_large_without_sample(self, capsys):
        assert main(["crossval", "9"]) == 2
        assert "sample" in capsys.readouterr().err

    def test_crossval_large_with_sample(self):
        assert main(["--quiet", "crossval", "9", "--sample", "30"]) == 0

    def test_crossval_sample_larger_than_the_space_sweeps_it_all(self, capsys):
        assert main(["--json", "crossval", "5", "--sample", "1000000000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "sample" and report["instance_count"] == 11628

    def test_crossval_samples_past_2_to_62_instances(self, capsys):
        # 2.75e28 instances at n = 20, so the sample is drawn by stars and bars, not unranked
        assert main(["--json", "crossval", "20", "--sample", "3", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_used"] is False and report["instance_count"] == 3

    @pytest.mark.parametrize("patches", [
        {"cdz_reduced": True},
        {"hasselbarth": False},
        {"cdz_reduced": True, "hasselbarth": False},
    ])
    def test_crossval_fails_on_every_gated_violation(self, patches, monkeypatch, capsys):
        """Exit 1 when any gated arrow breaks, not only when cdz disagrees with the oracle.

        The patched rows are the batch checks that sweeps and the matrix read."""
        for name, holds in patches.items():
            row = criteria.CRITERIA[name]._replace(
                check=lambda kernel, h=holds: criteria.Verdicts(np.full(len(kernel.s), h)))
            monkeypatch.setitem(criteria.CRITERIA, name, row)
        assert main(["--json", "crossval", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["cdz_oracle_disagreements"] == 0
        assert {v["criterion"] for v in report["violations"]} == set(patches)
        # each violation's pair, rebuilt from its chunk row, is its instance's
        instances = list(enumerate_instances(3))
        for v in report["violations"]:
            pair = instances[v["instance_index"]]
            assert (v["a"], v["b"]) == (list(pair.a), list(pair.b)), v
        assert main(["--json", "crossval", "--matrix", "3"]) == 0
        matrix = json.loads(capsys.readouterr().out)
        # every nonzero cell x->y, with the first instance in enumeration
        # order on which the (patched) row x holds and y fails
        holds = [{name: bool(criteria.CRITERIA[name].check(pair.kernel).holds[0])
                  for name in criteria.CRITERIA} for pair in instances]
        cells, examples = {}, {}
        for x in criteria.CRITERIA:
            for y in criteria.CRITERIA:
                cases = [i for i, h in enumerate(holds) if h[x] and not h[y]]
                if x != y and cases:
                    cells[f"{x}->{y}"] = len(cases)
                    first = instances[cases[0]]
                    examples[f"{x}->{y}"] = {"a": list(first.a), "b": list(first.b)}
        assert any(name in cell.split("->") for name in patches for cell in cells)
        assert matrix["cells"] == cells and matrix["examples"] == examples

    def test_identities(self, capsys):
        """The identities subcommand is gone (its checks are a test, gate a4):
        argparse refuses it as a usage error, exit 2, not an internal error."""
        assert _exit_code(["identities", "--count", "500", "--seed", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'identities'" in captured.err
        proc = _run_module("degreebox", ["identities"])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "internal error" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        "crossval -1",
        "crossval --matrix -1",
        "crossval 7 --sample 0",
        "crossval 9 --sample 0",
        "--json check --oracle 1,1,1,1,1,1,1,1/1,1,1,1,1,1,1,1",
        # an instance opening with a negative entry is not an option
        "check -1,1/1,1",
        "realize -1,1/1,1",
        "--json check --oracle -2,1/1,1",
        # the matrix covers every instance, so a sample size or seed is an error
        "crossval 3 --matrix --sample 2",
        "--json crossval --matrix 3 --seed 0",
        # an exhaustive sweep draws nothing, so a seed alone is an error too
        "crossval 3 --seed 5",
        # a sweep's chunk at n = 2000 takes seconds and over 200 MB, so sampled sizes are bounded
        "crossval 100000 --sample 1",
        "crossval 2001 --sample 1",
        # a sample holds at most 10^7 cells (instances times n), checked before drawing
        "crossval 14 --sample 100000000000",
        "crossval 15 --sample 100000000",
        # --json reports the edges itself, so a DOT request is an error
        "--json realize --dot 2,2,2/2,2,2",
    ])
    def test_invalid_sizes_and_counts_are_usage_errors(self, argv, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_internal_failure_is_not_a_verdict(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("degreebox.realize.realize_pair", crash)
        assert main(["realize", "2,2,2/2,2,2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: "), lines
        assert "RuntimeError" in lines[0] and "boom" in lines[0]


HUGE = [2**63, 2**64, 10**20]


class TestInputEdges:
    """Entries past int64 and the empty instance: exit 0, 1 or 2, never 3."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code, captured.err)
        assert "Traceback" not in captured.err
        return code, captured.out, captured.err

    @pytest.mark.parametrize("h", HUGE)
    def test_huge_upper_bound_is_clamped(self, h, capsys):
        code, out, _ = self._run(["--json", "check", f"1,1,1/{h},{h},1"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["b"] == [h, h, 1]
        assert payload["normalized"] == {"a": [1, 1, 1], "b": [2, 2, 1], "perm": [1, 2, 3]}
        code, out, _ = self._run(["realize", f"1,1,1/{h},{h},1"], capsys)
        assert code == 0 and out == "1 2\n1 3\n"
        for command in ("check", "realize"):
            assert self._run([command, f"2,0,0/{h},0,0"], capsys)[0] == 1

    @pytest.mark.parametrize("h", HUGE)
    @pytest.mark.parametrize("command", ["check", "realize"])
    def test_huge_or_inverted_lower_bound_is_rejected(self, h, command, capsys):
        for text, message in [
            (f"{h},0/1,1", f"error: a[0] = {h} exceeds n-1 = 1"),
            (f"0,-{h}/1,1", f"error: lower bounds contains negative entry -{h}"),
            (f"0,0/-{h},1", f"error: upper bounds contains negative entry -{h}"),
            (f"2,2,1/{h},1,{h}", "error: a[1] = 2 exceeds b[1] = 1 after clamping"),
        ]:
            code, out, err = self._run([command, text], capsys)
            assert (code, out, err) == (2, "", message + "\n"), text

    def test_empty_instance_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"a": [], "b": []}))
        code, out, _ = self._run(["--json", "check", f"@{path}"], capsys)
        payload = json.loads(out)
        assert code == 0 and payload["criteria"]["cdz"]["holds"] is True
        assert payload["normalized"] == {"a": [], "b": [], "perm": []}
        code, out, _ = self._run(["--json", "realize", f"@{path}"], capsys)
        assert code == 0
        assert json.loads(out) == {"edges": [], "n": 0, "realizable": True,
                                   "schema": "degreebox.realize/1"}


class TestJsonOutput:
    def test_check_json_shape(self, capsys):
        assert main(["--json", "check", "--oracle", CE_TEXT]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "degreebox.check/1"
        assert payload["criteria"]["cdz"] == {
            "holds": False, "witness_t": 2, "witness_m": None, "lhs": 9, "rhs": 8,
        }
        assert payload["criteria"]["ryser_interval"]["holds"] is True
        assert payload["oracle"] == {"realizable": False, "witness_count": 0}
        assert payload["normalized"]["perm"] == [1, 2, 3, 4, 5, 6]

    def test_check_json_byte_identical(self, capsys):
        main(["--json", "check", CE_TEXT])
        first = capsys.readouterr().out
        main(["--json", "check", CE_TEXT])
        assert capsys.readouterr().out == first

    def test_crossval_json_byte_identical(self, capsys):
        argv = ["--json", "crossval", "5", "--sample", "200", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["schema"] == "degreebox.sweep/1"
        assert payload["cdz_oracle_disagreements"] == 0

    def test_crossval_matrix_json(self, capsys):
        assert main(["--json", "crossval", "3", "--matrix"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "degreebox.matrix/1"
        assert payload["instance_count"] == 56
        assert "bollobas->cdz" in payload["cells"]

    def test_realize_json(self, capsys):
        assert main(["--json", "realize", "2,2,2/2,2,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edges"] == [[1, 2], [1, 3], [2, 3]]


def test_one_registry_reaches_every_report(capsys):
    """check --json, criteria_report and crossval --json each report every
    CRITERIA row, once."""
    rows = sorted(criteria.CRITERIA)
    assert main(["--json", "check", CE_TEXT]) == 1
    assert sorted(json.loads(capsys.readouterr().out)["criteria"]) == rows
    spec = parse_instance(CE_TEXT)
    pair = normalize_good_order(spec.a, spec.b).pair
    assert sorted(criteria.criteria_report(pair).verdicts) == rows
    assert main(["--json", "crossval", "3"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)["criteria"]) == rows


def _readme_cli_lines():
    """The lines of the README's CLI block, each a degreebox command."""
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)
    return block.group(1).splitlines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(line, capsys):
    """Each README example runs through cli.main to a verdict, exit 0 or 1,
    and to the exit code its comment states, if it states one."""
    words = shlex.split(line, comments=True)
    assert "degreebox" in words, line
    code = _exit_code(words[words.index("degreebox") + 1:])
    assert code in (0, 1), (line, capsys.readouterr().err)
    stated = re.search(r"#.*\bexit (\d)", line)
    if stated:
        assert code == int(stated.group(1)), line


PUBLIC_NAMES = (
    "CriteriaReport", "CriterionVerdict", "check_berge_necessary", "check_berge_sufficient",
    "check_bollobas", "check_cdz", "check_cdz_reduced", "check_erdos_gallai_fixed",
    "check_fulkerson", "check_grunbaum", "check_hasselbarth", "check_ryser_interval",
    "criteria_report",
    "InputError", "LengthMismatch", "LowerExceedsMaxDegree", "LowerExceedsUpper",
    "NegativeEntry", "NonIntegerEntry", "NotGoodOrder", "NotNonIncreasing", "TooLarge",
    "UnknownCriterion", "UpperExceedsMaxDegree",
    "cross_validate", "enumerate_instances", "implication_matrix", "instance_space_size",
    "oracle_realizable", "sample_instances",
    "SimpleGraph", "graphic_vector_in_box", "realize_pair", "verify_witness",
    "IntervalSequencePair", "NormalizedInstance", "normalize_good_order",
)


def test_public_surface_is_pinned_and_documented():
    """The package root exports exactly PUBLIC_NAMES, and README's "The
    package root exports" paragraph names exactly those, each in backticks."""
    exported = {name for name, value in vars(degreebox).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set(PUBLIC_NAMES)
    paragraph = re.search(r"^The package root exports .*?(?=\n\n)",
                          README.read_text(encoding="utf-8"), re.S | re.M).group(0)
    assert set(re.findall(r"`([A-Za-z_]\w*)`", paragraph)) == set(PUBLIC_NAMES)


def test_identity_suite_clean_run():
    assert ref_impl.identity_failures(2000, seed=123) == []


def _module_env():
    # the child imports the same degreebox as this process, installed or not
    src = str(Path(degreebox.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_module(module, argv):
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=_module_env(),
    )


def test_module_entry_point_runs():
    proc = _run_module("degreebox.cli", ["check", "2,2,2/2,2,2"])
    assert proc.returncode == 0
    assert "CDZ" in proc.stdout


@pytest.mark.parametrize("argv, code", [
    (["check", "2,2,2/2,2,2"], 0),
    (["--json", "realize", CE_TEXT], 1),
    (["realize", "1,2/1"], 2),
])
def test_package_runs_as_module_like_cli(argv, code):
    """python -m degreebox gives what python -m degreebox.cli gives."""
    pkg, cli = _run_module("degreebox", argv), _run_module("degreebox.cli", argv)
    assert pkg.returncode == cli.returncode == code
    assert pkg.stdout == cli.stdout


def test_reader_closing_stdout_early_is_not_a_crash(tmp_path):
    """A reader that takes 100 bytes of a megabytes-long witness and closes the
    pipe ends the output, not the run: the verdict's exit code, nothing on stderr."""
    rng = np.random.default_rng(1500)
    upper = np.triu(rng.random((1500, 1500)) < 0.3, 1)  # G(1500, 0.3)
    deg = (upper.sum(axis=0) + upper.sum(axis=1)).tolist()
    instance = tmp_path / "dense.json"
    instance.write_text(json.dumps({"a": deg, "b": deg}))
    # buffered stdout, as a shell pipeline has it: unbuffered, a write the
    # reader cuts short is truncated without an error
    env = {k: v for k, v in _module_env().items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "degreebox", "--json", "realize", f"@{instance}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b'{"edges":[[1,')
    assert (proc.returncode, err) == (0, b"")


def test_stdout_closed_before_the_first_write_keeps_the_verdict():
    """Output small enough to sit in the buffer fails only at the flush; the
    flush at exit must not fail again."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in _module_env().items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "degreebox", "check", CE_TEXT],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


# --- a fuzz of the exit-code contract ---------------------------------------

_entries = st.one_of(st.integers(-2, 9), st.sampled_from([2**63, 10**20, -(2**64)]))


@st.composite
def _instance_lists(draw):
    n = draw(st.integers(0, 8))
    a = draw(st.lists(_entries, min_size=n, max_size=n))
    # now and then a length mismatch
    b = draw(st.lists(_entries, min_size=n, max_size=n + draw(st.integers(0, 1))))
    return a, b


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["a", "b", "c"]), inner, max_size=3),
    max_leaves=12,
)
_file_payloads = st.one_of(
    st.binary(max_size=40),
    _instance_lists().map(lambda ab: json.dumps({"a": ab[0], "b": ab[1]}).encode()),
    _json_values.map(lambda v: json.dumps(v).encode()),
)
# inline text that does not name a file: an @ prefix is drawn as a payload
_inline = st.one_of(
    _instance_lists().map(lambda ab: ",".join(map(str, ab[0])) + "/" + ",".join(map(str, ab[1]))),
    st.text(max_size=20).filter(lambda text: not text.strip().startswith("@")),
)


@st.composite
def _argvs(draw):
    """argv across the three subcommands and the global flags, plus an @file
    payload (None when the argv names no file)."""
    argv = [flag for flag in ("--json", "--quiet") if draw(st.booleans())]
    command = draw(st.sampled_from(["check", "realize", "crossval"]))
    argv.append(command)
    payload = None
    if command in ("check", "realize"):
        if draw(st.booleans()):
            payload = draw(_file_payloads)
            argv.append("@{file}")
        else:
            argv.append(draw(_inline))
        flag = "--oracle" if command == "check" else "--dot"
        argv += [flag] if draw(st.booleans()) else []
    else:
        matrix = draw(st.booleans())
        sample = draw(st.none() | st.integers(-2, 50) | st.integers(10**7, 10**12))
        if sample is not None and sample >= 10**7:
            # past the sample bound at every such n, so refused before drawing
            n = draw(st.integers(8, 40))
        else:
            # sizes whose sweep is quick or rejected at once: sampled sweeps
            # to n = 9 and drawn ones at n = 15 to 40, exhaustive ones and
            # the matrix to n = 5, larger ones refused
            sampled = sample is not None and not matrix
            quick = [*range(-3, 10), *range(15, 41)] if sampled else range(-3, 6)
            refused = range(7 if matrix else 8, 10)
            n = draw(st.sampled_from(list(quick) + list(refused)) | st.integers(2001, 10**30))
        argv.append(str(n))
        argv += ["--matrix"] if matrix else []
        argv += [] if sample is None else ["--sample", str(sample)]
        argv += ["--seed", str(draw(st.integers()))] if draw(st.booleans()) else []
    return argv, payload


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example((["--json", "check", "@{file}"], b"\xff\xfe"))
def test_cli_exit_codes_hold_on_fuzzed_argv(fuzz_file, case):
    """Every run exits 0, 1 or 2, and no run reports an internal error; a
    sample of 10^7 or more at n = 8 to 40 exits 2."""
    argv, payload = case
    if payload is not None:
        fuzz_file.write_bytes(payload)
        argv = [arg.replace("{file}", str(fuzz_file)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if "--sample" in argv and int(argv[argv.index("--sample") + 1]) >= 10**7:
        assert code == 2, (argv, code)
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
