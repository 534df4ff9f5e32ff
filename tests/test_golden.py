"""Golden digests of the CLI reports, so any change to a verdict or witness shows.

Each digest is the sha256 of the concatenated stdout of a fixed list of
CLI runs.  ``check --json`` is the only report that carries every
criterion's witness together with its ``lhs`` and ``rhs``, so a seeded
list of boxes past the oracle's sizes pins those as well.  The three
``realize`` formats pin the witness graph itself, edge for edge, on a
seeded list of boxes from n = 0 to about 300.  A change that alters no
verdict, witness or report format keeps every digest; one that does must
say so and re-pin it.
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
        yield ["--json", "check", _instance(a, b)]


def _instance(a, b):
    return f"{','.join(map(str, a))}/{','.join(map(str, b))}"


def _gnp_degrees(rng, n, p):
    deg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                deg[u] += 1
                deg[v] += 1
    return deg


def _realize_boxes():
    """Boxes for the realize digests: edge cases, then four seeded families in turn.

    The families are ref_impl.random_box, a box up to 3 wide around a
    random graph's degrees (realizable), that graph's point box, and the
    point box with one degree moved by one (odd sum, unrealizable).
    Every seventh box has n up to 300, the rest n up to 60.
    """
    yield (5, 4, 3, 3, 3, 1), (5, 5, 3, 3, 3, 1)  # the paper's counterexample
    yield (0,), (0,)
    yield (0,) * 6, (0,) * 6
    yield (0,) * 4, (3,) * 4
    yield (2,) * 40, (2,) * 40
    rng = random.Random(20261019)
    for k in range(56):
        n = rng.randint(1, 300 if k % 7 == 0 else 60)
        if k % 4 == 0:
            yield ref_impl.random_box(rng, n)
            continue
        deg = _gnp_degrees(rng, n, rng.random())
        if k % 4 == 1:
            yield ([max(0, d - rng.randint(0, 3)) for d in deg],
                   [min(n - 1, d + rng.randint(0, 3)) for d in deg])
        else:
            if k % 4 == 3:
                i = rng.randrange(n)
                deg[i] += 1 if deg[i] < n - 1 else -1
            yield deg, list(deg)


REALIZE_BOXES = list(_realize_boxes())


GOLDEN = {
    "crossval 4": (
        [["--json", "crossval", "4"]],
        "ae41ad5455c2d9471ff284815370739d252ec2d3878c5906c16ce0f2a3cbb629"),
    "crossval --matrix 4": (
        [["--json", "crossval", "--matrix", "4"]],
        "2f9bf82199946565cc08a143ca8f5a027a12384f5542c6a575acbba62fc153a3"),
    "crossval 7 --sample 200 --seed 1": (
        [["--json", "crossval", "7", "--sample", "200", "--seed", "1"]],
        "31691c50c6e058cd7e7419e847eb8833a3c00a34a527acaf47e600cb989823b7"),
    "crossval 5 --sample 200 --seed 3": (
        [["--json", "crossval", "5", "--sample", "200", "--seed", "3"]],
        "ece14f2a969a54e36cb30ce596f00cc9b73f1d96c541eaae1c993211c2621650"),
    "crossval 9 --sample 40 --seed 3": (
        [["--json", "crossval", "9", "--sample", "40", "--seed", "3"]],
        "40392b1fabce9d0b661f8cf43ba04980fcbf1c66edc9d514cebbf9f24b6a9930"),
    "crossval 0": (
        [["--json", "crossval", "0"]],
        "7b5bf4d0a8ad5fc4fa3197080e4c816380d33527ada2af54ae92c4994d11be70"),
    "crossval 1": (
        [["--json", "crossval", "1"]],
        "54401baa6d7c282003e5435128db52c4efb819220d8eb5041f322b9ff3d032d3"),
    "check on seeded boxes": (
        list(_check_argvs()),
        "859c78022c33b41265daedad85de5f218efb8b5ed5ae65ac5e7dca75543aec43"),
}


@pytest.mark.parametrize("label", GOLDEN)
def test_json_reports_match_golden_digest(label, capsys):
    argvs, digest = GOLDEN[label]
    assert _stdout_digest(argvs, capsys) == digest


# The realize argv before the instance, and the digest over REALIZE_BOXES
# with the empty instance (n = 0, given as an @file) run first.
REALIZE_GOLDEN = {
    "--json realize": (
        ["--json", "realize"],
        "919305a0bbbcff4facc41e22d78af1c891afa6ce2c1298b1d270197e5dc2d499",
    ),
    "realize": (
        ["realize"],
        "fdbb8df6f64b85bf4d8c4538c33a46a90313619331e73680511c726d2c018a6c",
    ),
    "realize --dot": (
        ["realize", "--dot"],
        "41b3b1a15e8e5a6f9a0230cfa653821707c9a7b5c62e6e102f25f724004aae8a",
    ),
}


@pytest.mark.parametrize("label", REALIZE_GOLDEN)
def test_realize_reports_match_golden_digest(label, tmp_path, capsys):
    prefix, digest = REALIZE_GOLDEN[label]
    empty = tmp_path / "empty.json"
    empty.write_text('{"a": [], "b": []}', encoding="utf-8")
    instances = [f"@{empty}"] + [_instance(a, b) for a, b in REALIZE_BOXES]
    assert _stdout_digest([prefix + [text] for text in instances], capsys) == digest


def _stdout_digest(argvs, capsys):
    out = hashlib.sha256()
    for argv in argvs:
        assert main(argv) in (0, 1), argv
        out.update(capsys.readouterr().out.encode())
    return out.hexdigest()
