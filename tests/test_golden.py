"""Golden digests of the JSON reports, so any change to a verdict shows.

Each digest is the sha256 of the concatenated ``--json`` stdout of a
fixed list of CLI runs.  ``check --json`` is the only report that
carries every criterion's witness together with its ``lhs`` and ``rhs``,
so a seeded list of boxes past the oracle's sizes pins those as well.
A change that alters no verdict, witness or report format keeps every
digest; one that does must say so and re-pin it.
"""

import hashlib
import random

import pytest

import ref_impl
from degreebox.cli import main


def _check_argvs():
    rng = random.Random(20261018)
    for _ in range(120):
        a, b = ref_impl.random_box(rng, rng.randint(1, 40))
        yield ["--json", "check", f"{','.join(map(str, a))}/{','.join(map(str, b))}"]


GOLDEN = {
    "crossval 4": (
        [["--json", "crossval", "4"]],
        "ae41ad5455c2d9471ff284815370739d252ec2d3878c5906c16ce0f2a3cbb629",
    ),
    "crossval --matrix 4": (
        [["--json", "crossval", "--matrix", "4"]],
        "2f9bf82199946565cc08a143ca8f5a027a12384f5542c6a575acbba62fc153a3",
    ),
    "crossval 7 --sample 200 --seed 1": (
        [["--json", "crossval", "7", "--sample", "200", "--seed", "1"]],
        "31691c50c6e058cd7e7419e847eb8833a3c00a34a527acaf47e600cb989823b7",
    ),
    "check on seeded boxes": (
        list(_check_argvs()),
        "859c78022c33b41265daedad85de5f218efb8b5ed5ae65ac5e7dca75543aec43",
    ),
}


@pytest.mark.parametrize("label", GOLDEN)
def test_json_reports_match_golden_digest(label, capsys):
    argvs, digest = GOLDEN[label]
    out = hashlib.sha256()
    for argv in argvs:
        assert main(argv) in (0, 1), argv
        out.update(capsys.readouterr().out.encode())
    assert out.hexdigest() == digest
