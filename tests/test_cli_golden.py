"""Byte-for-byte CLI output on preset knots.

``tests/data/cli_golden.json`` maps each command line below to its exit
code and JSON stdout. A change that is meant to alter CLI output rewrites
the file with

    PYTHONPATH=src python tests/test_cli_golden.py --record

The figure-eight preset is left out of ``klein`` and ``cable``: it has no
core route, and those commands fall back to the unknot core for it, so a
golden would only pin that fallback.
"""

import contextlib
import io
import itertools
import json
import pathlib
import sys

import pytest

from knotbands.cli import run

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.json"

ROUTED = ("unknot", "trefoil", "t25")
ALL_PRESETS = ("unknot", "trefoil", "figure-eight", "t25")
PS = (3, -7, 401)


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
    return cmds


COMMANDS = _commands()


def _capture(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(c) for c in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_byte_identical(golden, argv):
    assert _capture(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_cli_golden.py --record")
    data = {" ".join(c): _capture(c) for c in COMMANDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} commands to {GOLDEN}")
