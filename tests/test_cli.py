import json
import os
import pathlib
import subprocess
import sys

import pytest

from knotbands import BandSurface, framing
from knotbands.cli import run

TREFOIL_CORE_JSON = "[[0,3,1],[4,1,1],[2,5,1]]"
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def call(capsys, *args):
    code = run(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def call_json(capsys, *args):
    code, out, err = call(capsys, *args)
    assert err == ""
    return code, json.loads(out)


class TestInvariants:
    def test_preset_trefoil(self, capsys):
        code, data = call_json(capsys, "invariants", "--preset", "trefoil")
        assert code == 0
        assert data["alexander"] == "t^-1 - 1 + t"
        assert data["signature"] == -2
        assert data["determinant"] == 3
        assert data["arf"] == 1
        assert data["levine_tristram"][0] == {
            "omega": {"omega": -1},
            "signature": -2,
            "singular": False,
        }

    def test_matrix_argument_text_format(self, capsys):
        code, out, _ = call(
            capsys, "--format", "text", "invariants", "--seifert", "[[-1,1],[0,-1]]"
        )
        assert code == 0
        assert "alexander:   t^-1 - 1 + t" in out
        assert "omega=-1" in out

    def test_custom_samples(self, capsys):
        code, data = call_json(
            capsys,
            "invariants",
            "--preset",
            "unknot",
            "--samples",
            '[{"omega":-1},{"s":"1/2"}]',
        )
        assert code == 0
        assert len(data["levine_tristram"]) == 2

    def test_output_is_byte_stable(self, capsys):
        _, first, _ = call(capsys, "invariants", "--preset", "t25")
        _, second, _ = call(capsys, "invariants", "--preset", "t25")
        assert first == second

    def test_seifert_from_file(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("[[-1,1],[0,1]]")
        code, data = call_json(capsys, "invariants", "--seifert", str(path))
        assert code == 0 and data["determinant"] == 5


class TestBand:
    def test_preset_nonorientable(self, capsys):
        code, data = call_json(capsys, "band", "--preset", "figure-eight")
        assert code == 0
        assert data["framing"] == 4
        assert data["gl_form"] == [[3, 1], [1, 2]]
        assert data["gamma_self_linking"] == 1
        assert data["shape"]["genus"] == 2
        assert data["shape"]["orientable"] is False

    def test_preset_orientable(self, capsys):
        code, data = call_json(
            capsys, "band", "--preset", "trefoil", "--kind", "orientable"
        )
        assert code == 0
        assert data["framing"] == 0
        assert data["shape"]["orientable"] is True
        assert data["gamma_self_linking"] is None  # not a normal form

    def test_surface_json_text(self, capsys):
        surf = json.dumps(
            {
                "bands": [{"half_twists": 1}],
                "attach": [[0, "A"], [0, "B"]],
                "route": [],
            }
        )
        code, out, _ = call(capsys, "--format", "text", "band", "--surface", surf)
        assert code == 0
        assert "framing: 2" in out
        assert "non-orientable genus 1" in out


class TestCable:
    def test_trefoil_p3(self, capsys):
        code, data = call_json(capsys, "cable", "--preset", "trefoil", "-p", "3")
        assert code == 0
        assert data["p"] == 3
        assert data["framing"] == 6
        assert data["gl_form"] == [[3]]
        assert data["determinant"] == 3
        assert framing(BandSurface.from_json(data["surface"])) == 6

    def test_even_p_is_input_error(self, capsys):
        code, _, err = call(capsys, "cable", "--preset", "trefoil", "-p", "2")
        assert code == 1
        assert "p must be odd" in err


class TestKlein:
    def test_presets(self, capsys):
        code, data = call_json(
            capsys, "klein", "--presetK", "trefoil", "--presetJ", "unknot", "-p", "3"
        )
        assert code == 0
        assert data["framing"] == 0
        assert data["gl_form"] == [[3, 0], [0, -3]]
        assert data["shape"]["genus"] == 2
        assert data["slice_screen"]["verdict"] == "consistent"
        assert framing(BandSurface.from_json(data["surface"])) == 0

    def test_explicit_cores_text(self, capsys):
        code, out, _ = call(
            capsys,
            "--format",
            "text",
            "klein",
            "--coreK",
            TREFOIL_CORE_JSON,
            "--coreJ",
            "[]",
            "-p",
            "1",
        )
        assert code == 0
        assert "framing: 0" in out


class TestObstructCable:
    def test_obstructed_pair_exits_2(self, capsys):
        code, out, _ = call(
            capsys,
            "obstruct-cable",
            "--presetK",
            "trefoil",
            "--presetJ",
            "unknot",
            "-p",
            "3",
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "obstructed"

    def test_self_pair_consistent(self, capsys):
        code, data = call_json(
            capsys,
            "obstruct-cable",
            "--presetK",
            "trefoil",
            "--presetJ",
            "trefoil",
            "-p",
            "3",
        )
        assert code == 0
        assert data["verdict"] == "consistent"

    def test_knot_records(self, capsys):
        rec = json.dumps(
            {
                "seifert": [[-1, 1], [0, -1]],
                "core_route": [[0, 3, 1], [4, 1, 1], [2, 5, 1]],
            }
        )
        code, data = call_json(
            capsys, "obstruct-cable", "--K", rec, "--J", rec, "-p", "5"
        )
        assert code == 0
        assert data["verdict"] == "consistent"


class TestHomology:
    def test_z2_text(self, capsys):
        code, out, _ = call(
            capsys,
            "--format",
            "text",
            "homology",
            "--presentation",
            '{"generators":2,"relations":[[-2,1],[0,1]]}',
        )
        assert code == 0
        assert out.strip() == "Z/2"

    def test_json(self, capsys):
        code, data = call_json(
            capsys,
            "homology",
            "--presentation",
            '{"generators":3,"relations":[[2,0,0]]}',
        )
        assert code == 0
        assert data["group"] == "Z^2 x Z/2"
        assert data["free_rank"] == 2
        assert data["torsion"] == [2]


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, data = call_json(capsys, "verify", "--seed", "1", "--trials", "5")
        assert code == 0
        assert data["all_passed"] is True
        assert len(data["properties"]) == 11

    def test_text_format(self, capsys):
        code, out, _ = call(capsys, "--format", "text", "verify", "--trials", "1")
        assert code == 0
        assert "all properties hold" in out

    def test_zero_trials_input_error(self, capsys):
        code, _, err = call(capsys, "verify", "--trials", "0")
        assert code == 1
        assert "at least 1" in err


class TestErrorPaths:
    def test_unknown_preset(self, capsys):
        code, _, err = call(capsys, "invariants", "--preset", "nope")
        assert code == 1 and "unknown preset" in err

    def test_nonsquare_matrix(self, capsys):
        code, _, err = call(capsys, "invariants", "--seifert", "[[0,1]]")
        assert code == 1 and "square" in err

    def test_missing_input_group(self, capsys):
        assert call(capsys, "invariants")[0] == 1

    def test_exclusive_input_group(self, capsys):
        code = call(
            capsys, "invariants", "--seifert", "[[1]]", "--preset", "trefoil"
        )[0]
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = call(capsys)
        assert code == 1 and "command is required" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = call(capsys, "--help")
        assert code == 0 and "invariants" in out

    def test_missing_file(self, capsys):
        assert call(capsys, "band", "--surface", "/no/such/file.json")[0] == 1

    def test_malformed_json(self, capsys):
        assert call(capsys, "invariants", "--seifert", "[[degenerate")[0] == 1

    def test_degenerate_matrix(self, capsys):
        code, _, err = call(capsys, "invariants", "--seifert", "[[0,0],[0,1]]")
        assert code == 1 and "degenerate presentation" in err


SURFACE_1_9 = '{"bands":[{"half_twists":1.9}],"attach":[[0,"A"],[0,"B"]],"route":[]}'
SURFACE_TRUE = '{"bands":[{"half_twists":true}],"attach":[[0,"A"],[0,"B"]],"route":[]}'


class TestRejectsNonIntegers:
    """Floats and booleans are input errors, never truncated to integers."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "--seifert", "[[-1.7,1],[0,-1]]"),
            ("invariants", "--seifert", "[[true,1],[0,-1]]"),
            ("band", "--surface", SURFACE_1_9),
            ("band", "--surface", SURFACE_TRUE),
            ("cable", "--knot", '{"seifert":[[-1,1],[0,-1]],"core_route":[[0,3,true]]}', "-p", "3"),
            ("cable", "--knot", '{"seifert":[[-1,1.0],[0,-1]]}', "-p", "3"),
            ("klein", "--coreK", "[[0,1.5,1]]", "--presetJ", "unknot", "-p", "3"),
            ("obstruct-cable", "--K", '{"seifert":[[-1,1],[0,false]]}', "--presetJ", "unknot", "-p", "3"),
            ("homology", "--presentation", '{"generators":2,"relations":[[-2.0,1],[0,1]]}'),
            ("homology", "--presentation", '{"generators":true,"relations":[[2]]}'),
        ],
        ids=[
            "float-matrix", "bool-matrix", "float-twists", "bool-twists",
            "bool-route-sign", "float-knot-matrix", "float-core-slot",
            "bool-obstruct-matrix", "float-relation", "bool-generators",
        ],
    )
    def test_exit_1(self, capsys, argv):
        code, out, err = call(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be an integer" in err or "must be integers" in err

    def test_integer_inputs_still_work(self, capsys):
        surface = SURFACE_1_9.replace("1.9", "1")
        code, data = call_json(capsys, "band", "--surface", surface)
        assert code == 0 and data["framing"] == 2


class TestProcessSmoke:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "knotbands.cli", "invariants", "--preset", "unknot"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["alexander"] == "1"

    @pytest.mark.skipif(not PYPROJECT.is_file(), reason="no pyproject.toml in this tree")
    def test_console_script(self):
        # Resolve the [project.scripts] entry from pyproject.toml and run it
        # through the wrapper pip writes for a console script, so the test
        # checks the declared entry point without needing an installed one.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["knotbands"]
        module, attr = target.split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "homology", "--presentation",
             '{"generators":2,"relations":[[-2,1],[0,1]]}'],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["group"] == "Z/2"

    def test_closed_stdout_is_not_an_input_error(self):
        # the reading end is closed before the child starts, so every
        # write to stdout fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "knotbands.cli", "band", "--preset", "t25"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert "error:" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert proc.stderr == ""
