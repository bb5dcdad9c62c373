"""Byte-for-byte CLI output on preset knots.

``tests/data/cli_golden.json`` maps each command line below to its exit
code and stdout: JSON for every command, and ``--format text`` as well
for a few ``klein`` and ``cable`` runs, one ``invariants`` run, one
``homology`` run and one short ``verify`` run, which pins the battery's
seeded draws. ``tests/data/verify_sha256.json``
holds the sha256 of the JSON stdout of ``verify --seed S --trials 100``
for S = 0, 1, 2, the full battery, which takes about a second a seed. A
change that is meant to alter CLI output rewrites both files with

    PYTHONPATH=src python tests/test_cli_golden.py --record

which prints the commands it adds, changes and removes.

The figure-eight preset is left out of ``klein`` and ``cable``: it has no
core route, and those commands fall back to the unknot core for it, so a
golden would only pin that fallback.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import sys

import pytest

from knotbands.cli import run

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.json"
VERIFY_SHA256 = GOLDEN.with_name("verify_sha256.json")

ROUTED = ("unknot", "trefoil", "t25")
ALL_PRESETS = ("unknot", "trefoil", "figure-eight", "t25")
PS = (3, -7, 401)
TEXT_KNOTS = ("trefoil", "t25")


def _commands() -> list[tuple[str, ...]]:
    cmds = []
    for k, j, p in itertools.product(ROUTED, ROUTED, PS):
        cmds.append(("klein", "--presetK", k, "--presetJ", j, "-p", str(p)))
    for k, p in itertools.product(ROUTED, PS):
        cmds.append(("cable", "--preset", k, "-p", str(p)))
    for k, j, p in itertools.product(ALL_PRESETS, ALL_PRESETS, PS):
        cmds.append(("obstruct-cable", "--presetK", k, "--presetJ", j, "-p", str(p)))
    for k, kind in itertools.product(ALL_PRESETS, ("orientable", "nonorientable")):
        cmds.append(("band", "--preset", k, "--kind", kind))
    text = ("--format", "text")
    for k, j, p in itertools.product(TEXT_KNOTS, TEXT_KNOTS, (3, -7)):
        cmds.append(text + ("klein", "--presetK", k, "--presetJ", j, "-p", str(p)))
    cmds.append(text + ("cable", "--preset", "trefoil", "-p", "401"))
    for k in ALL_PRESETS:
        cmds.append(("invariants", "--preset", k))
    cmds.append(text + ("invariants", "--preset", "t25"))
    samples = '[{"s":"1/7"},{"omega":-1}]'
    cmds.append(("invariants", "--seifert", "[[-1,1],[0,-1]]", "--samples", samples))
    homology = ("homology", "--presentation", '{"generators":2,"relations":[[-2,1],[0,1]]}')
    cmds += [homology, text + homology]
    verify = ("verify", "--seed", "0", "--trials", "3")
    cmds += [verify, text + verify]
    return cmds


COMMANDS = _commands()
FULL_VERIFY = [("verify", "--seed", str(s), "--trials", "100") for s in (0, 1, 2)]


def _capture(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def _sha256(argv) -> str:
    captured = _capture(argv)
    assert captured["exit"] == 0
    return hashlib.sha256(captured["stdout"].encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(c) for c in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_byte_identical(golden, argv):
    assert _capture(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", FULL_VERIFY, ids=" ".join)
def test_full_verify_output_is_byte_identical(argv):
    pins = json.loads(VERIFY_SHA256.read_text())
    assert sorted(pins) == sorted(" ".join(c) for c in FULL_VERIFY)
    assert _sha256(argv) == pins[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_cli_golden.py --record")
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data = {" ".join(c): _capture(c) for c in COMMANDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for verb, keys in (
        ("added", data.keys() - old.keys()),
        ("changed", {k for k in data.keys() & old.keys() if data[k] != old[k]}),
        ("removed", old.keys() - data.keys()),
    ):
        print(f"{len(keys)} {verb}")
        for key in sorted(keys):
            print(f"  {key}")
    print(f"wrote {len(data)} commands to {GOLDEN}")
    pins = {" ".join(c): _sha256(c) for c in FULL_VERIFY}
    VERIFY_SHA256.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} digests to {VERIFY_SHA256}")
