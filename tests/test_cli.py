import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degreebox
from degreebox.cli import (
    InstanceSpec,
    InstanceSyntaxError,
    main,
    parse_instance,
    run_identity_suite,
)
from degreebox import oracle
from degreebox.criteria import CriterionVerdict
from degreebox.errors import LengthMismatch

CE_TEXT = "5,4,3,3,3,1/5,5,3,3,3,1"


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
        '{"a": [1.9, 1, "1"], "b": [2, true, 2]}',
        '{"a": "111", "b": "222"}',
        '{"a": [1, 1, 1], "b": [2, true, 2]}',
        '{"a": [1.0, 1, 1], "b": [2, 2, 2]}',
        '{"a": null, "b": [1]}',
        '{"a": {"0": 1}, "b": [1]}',
    ])
    def test_json_file_rejects_non_integer_arrays(self, payload, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(payload)
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

    def test_canonical_json_round_trips(self):
        spec = parse_instance("5,4/5,5")
        blob = spec.canonical_json()
        payload = json.loads(blob)
        again = InstanceSpec(tuple(payload["a"]), tuple(payload["b"]))
        assert again.canonical_json() == blob


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

    def test_crossval_past_rejection_sampling_threshold(self, capsys):
        # 2.75e28 instances at n = 20, so the sample is drawn by rejection
        assert main(["--json", "crossval", "20", "--sample", "3", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_used"] is False and report["instance_count"] == 3

    @pytest.mark.parametrize("patches", [
        {"cdz_reduced": True},
        {"hasselbarth": False},
        {"cdz_reduced": True, "hasselbarth": False},
    ])
    def test_crossval_fails_on_every_gated_violation(self, patches, monkeypatch, capsys):
        """Exit 1 when any gated arrow breaks, not only when cdz disagrees with the oracle."""
        for name, holds in patches.items():
            monkeypatch.setitem(oracle.ALL_CRITERIA, name, lambda pair, v=CriterionVerdict(holds): v)
        assert main(["--json", "crossval", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["cdz_oracle_disagreements"] == 0
        assert {v["criterion"] for v in report["violations"]} == set(patches)
        assert main(["--json", "crossval", "--matrix", "3"]) == 0

    def test_identities(self, capsys):
        assert main(["identities", "--count", "500", "--seed", "7"]) == 0
        assert "0 failures" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        "crossval -1",
        "crossval --matrix -1",
        "crossval 7 --sample 0",
        "crossval 9 --sample 0",
        "identities --count -5",
        "identities --count 0",
        "--json check --oracle 1,1,1,1,1,1,1,1/1,1,1,1,1,1,1,1",
        # an instance opening with a negative entry is not an option
        "check -1,1/1,1",
        "realize -1,1/1,1",
        "--json check --oracle -2,1/1,1",
        # the matrix covers every instance, so a sample size or seed is an error
        "crossval 3 --matrix --sample 2",
        "--json crossval --matrix 3 --seed 0",
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


def test_identity_suite_clean_run():
    assert run_identity_suite(2000, seed=123) == []


def _run_module(module, argv):
    # the child imports the same degreebox as this process, installed or not
    src = str(Path(degreebox.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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
