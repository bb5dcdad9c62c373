import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from knotbands import BandSurface, bandform, cli, framing, obstruct
from knotbands.cli import run
from test_algebra import PINNED

TREFOIL_CORE_JSON = "[[0,3,1],[4,1,1],[2,5,1]]"
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


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

    def test_samples_file_is_parsed_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text('[{"omega":-1},{"s":"1/2"}]')
        loaded = []
        original = cli._load_json_arg

        def counted(text):
            loaded.append(text)
            return original(text)

        monkeypatch.setattr(cli, "_load_json_arg", counted)
        code, out, _ = call(
            capsys, "--format", "text", "invariants", "--preset", "trefoil",
            "--samples", str(path),
        )
        assert code == 0 and "s=1/2" in out
        assert loaded == [str(path)]


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

    @staticmethod
    def count_surface_reads(monkeypatch, capsys, *argv):
        calls = {"_validate_surface": 0, "_boundary": 0, "compile_curves": 0}
        for name in calls:
            original = getattr(bandform, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(bandform, name, counted)
        code, _, _ = call(capsys, *argv)
        assert code == 0
        return calls

    def test_surface_is_checked_once_and_compiled_once(self, capsys, monkeypatch):
        # the Klein bottle is checked once, when it is built; framing walks
        # its boundary once more, and only the GL form compiles
        calls = self.count_surface_reads(
            monkeypatch, capsys, "klein", "--presetK", "trefoil", "--presetJ", "t25", "-p", "3"
        )
        assert calls == {"_validate_surface": 1, "_boundary": 2, "compile_curves": 1}

    def test_band_compiles_once(self, capsys, monkeypatch):
        # a preset surface was checked at import, so no reader checks it;
        # framing walks it and gamma_self_linking neither walks nor compiles
        calls = self.count_surface_reads(
            monkeypatch, capsys, "band", "--preset", "figure-eight"
        )
        assert calls == {"_validate_surface": 0, "_boundary": 1, "compile_curves": 1}

    def test_a_reused_slot_exits_1(self, capsys):
        # slot 0 is over in one crossing of K's core and under in the other
        code, out, err = call(
            capsys, "klein", "--coreK", "[[0,1,1],[1,0,1]]", "--coreJ", "[]", "-p", "3"
        )
        assert code == 1 and out == ""
        assert err.startswith(
            "error: invalid surface: band 0 slot 1 used twice: as under in event 0 "
            "and as over in event 1; band 0 slot 0 used twice"
        )


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

    @pytest.mark.parametrize(
        "rec",
        [
            {"seifert": [[-1, 1], [0, -1]], "core_route": [[0, 3, 1], [4, 1, 1], [2, 5, 1]]},
            # the screen reads only the matrix, so the route may be left out
            {"seifert": [[-1, 1], [0, -1]]},
        ],
        ids=["with-route", "without-route"],
    )
    def test_knot_records(self, capsys, rec):
        rec = json.dumps(rec)
        code, data = call_json(
            capsys, "obstruct-cable", "--K", rec, "--J", rec, "-p", "5"
        )
        assert code == 0
        assert data["verdict"] == "consistent"

    def test_duplicate_sample_names_its_leg(self, capsys):
        code, out, err = call(
            capsys,
            "obstruct-cable", "--presetK", "trefoil", "--presetJ", "unknot", "-p", "3",
            "--samples", '[{"omega":-1},{"omega":-1}]',
        )
        assert code == 1
        assert out == ""
        assert err == "error: duplicate test name in report: sigma-match omega=-1\n"


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

    @pytest.mark.parametrize(
        "relations, group",
        [(m, group) for m, _, group in PINNED],
        ids=["zero-row", "sum-row", "zero-column"],
    )
    def test_singular_and_non_square(self, capsys, relations, group):
        # each hung while such matrices were reduced over Z
        presentation = json.dumps({"generators": len(relations[0]), "relations": relations})
        start = time.perf_counter()
        code, out, _ = call(capsys, "--format", "text", "homology", "--presentation", presentation)
        assert time.perf_counter() - start < 1
        assert code == 0 and out == f"{group}\n"


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

    def test_battery_loads_only_for_verify(self):
        # a fresh interpreter without site: importing the package, importing
        # the CLI and running a screen leave knotbands.battery unloaded
        script = (
            "import contextlib, io, sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "def loaded():\n"
            "    return 'knotbands.battery' in sys.modules\n"
            "import knotbands\n"
            "seen = [loaded()]\n"
            "import knotbands.cli\n"
            "seen.append(loaded())\n"
            "klein = ['klein', '--presetK', 'trefoil', '--presetJ', 'unknot', '-p', '3']\n"
            "for argv in (klein, ['verify', '--trials', '1']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        seen.append(knotbands.cli.run(argv))\n"
            "    seen.append(loaded())\n"
            "print(seen)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[False, False, 0, False, 0, True]"


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
        code, _, err = call(capsys, "band", "--surface", "/no/such/file.json")
        assert code == 1 and "No such file or directory" in err

    def test_file_named_like_json_is_read(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "5").write_text("[[-1,1],[0,1]]")
        monkeypatch.chdir(tmp_path)
        code, data = call_json(capsys, "invariants", "--seifert", "5")
        assert code == 0 and data["determinant"] == 5

    def test_malformed_json(self, capsys):
        assert call(capsys, "invariants", "--seifert", "[[degenerate")[0] == 1

    def test_degenerate_matrix(self, capsys):
        code, _, err = call(capsys, "invariants", "--seifert", "[[0,0],[0,1]]")
        assert code == 1 and "degenerate presentation" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "--seifert", "[[0,0],[0,1]]"),
            ("obstruct-cable", "--K", '{"seifert":[[0,0],[0,1]]}', "--presetJ", "trefoil", "-p", "1"),
            ("obstruct-cable", "--presetK", "trefoil", "--J", '{"seifert":[[0,0],[0,1]]}', "-p", "1"),
        ],
        ids=["invariants", "obstruct-cable-K", "obstruct-cable-J"],
    )
    def test_degenerate_matrix_fails_before_any_signature(self, capsys, monkeypatch, argv):
        def no_signatures(*args):
            raise AssertionError("levine_tristram ran on a degenerate matrix")

        monkeypatch.setattr(cli, "levine_tristram", no_signatures)
        monkeypatch.setattr(obstruct, "levine_tristram", no_signatures)
        code, out, err = call(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: degenerate presentation: zero Alexander determinant\n"


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


class TestMalformedSamples:
    """Each --samples entry must be an object naming omega = -1 by the
    integer -1 or a nonzero rational s; anything else is one error line."""

    @pytest.mark.parametrize(
        "samples", ['[{"omega":-1.0}]', '[{"s":"1/0"}]', "[1]"],
        ids=["float-omega", "zero-denominator", "non-object"],
    )
    @pytest.mark.parametrize(
        "verb",
        [
            ("invariants", "--preset", "trefoil"),
            ("obstruct-cable", "--presetK", "trefoil", "--presetJ", "unknot", "-p", "3"),
        ],
        ids=["invariants", "obstruct-cable"],
    )
    def test_exit_1(self, capsys, verb, samples):
        code, out, err = call(capsys, *verb, "--samples", samples)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "samples, shown",
        [('[{"s":0.5}]', "0.5"), ('[{"s":true}]', "True"), ('[{"s":null}]', "None")],
        ids=["float-s", "bool-s", "null-s"],
    )
    @pytest.mark.parametrize(
        "verb",
        [
            ("invariants", "--preset", "trefoil"),
            ("obstruct-cable", "--presetK", "trefoil", "--presetJ", "unknot", "-p", "3"),
        ],
        ids=["invariants", "obstruct-cable"],
    )
    def test_s_is_an_integer_or_a_string(self, capsys, verb, samples, shown):
        # {"s": 0.5} was read as s = 1/2, and {"s": true} failed inside Fraction
        code, out, err = call(capsys, *verb, "--samples", samples)
        assert code == 1
        assert out == ""
        assert err == f"error: s must be a JSON integer or a string, got {shown}\n"

    @pytest.mark.parametrize(
        "verb",
        [
            ("invariants", "--preset", "trefoil"),
            ("obstruct-cable", "--presetK", "trefoil", "--presetJ", "unknot", "-p", "3"),
        ],
        ids=["invariants", "obstruct-cable"],
    )
    def test_s_in_exponent_notation(self, capsys, verb):
        # "1e200000" was read as a 200001-digit s: the legs were computed,
        # and then printing s exceeded CPython's integer string limit
        code, out, err = call(capsys, *verb, "--samples", '[{"s":"1e200000"}]')
        assert code == 1
        assert out == ""
        assert err == "error: s must be written without an exponent, got '1e200000'\n"

    @pytest.mark.parametrize(
        "verb",
        [
            ("invariants", "--preset", "trefoil"),
            ("obstruct-cable", "--presetK", "trefoil", "--presetJ", "unknot", "-p", "3"),
        ],
        ids=["invariants", "obstruct-cable"],
    )
    def test_omega_and_s_together(self, capsys, verb):
        # {"omega": -1, "s": "1/2"} was evaluated at omega = -1
        code, out, err = call(capsys, *verb, "--samples", '[{"omega":-1,"s":"1/2"}]')
        assert code == 1
        assert out == ""
        assert err == (
            "error: sample point names both omega and s: {'omega': -1, 's': '1/2'}\n"
        )


class TestUnknownKeys:
    """A presentation, a knot record, a sample point, a band surface and
    each of its bands and route events take only their own keys. A
    misspelt key was ignored, and the answer changed: a "relation" gave
    no relations, a "core_rout" the unknot core, a "halftwists" next to
    "half_twists" was dropped."""

    TREFOIL = '"seifert":[[-1,1],[0,-1]]'
    RECORD = 'expected "seifert" and "core_route"'
    SAMPLE = 'expected "omega" and "s"'
    OBSTRUCT = ["obstruct-cable", "-p", "3"]
    MALFORMED = "malformed band surface JSON"
    ATTACH = '"attach":[[0,"A"],[0,"B"]]'

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["homology", "--presentation", '{"generators":2,"relation":[[2,0]]}'],
                "presentation has an unknown key 'relation'; "
                'expected "generators" and "relations"',
            ),
            (
                ["cable", "-p", "3", "--knot", f'{{{TREFOIL},"core_rout":{TREFOIL_CORE_JSON}}}'],
                f"knot record has an unknown key 'core_rout'; {RECORD}",
            ),
            (
                OBSTRUCT + ["--K", f'{{{TREFOIL},"name":"3_1"}}', "--presetJ", "unknot"],
                f"knot record has an unknown key 'name'; {RECORD}",
            ),
            (
                OBSTRUCT + ["--presetK", "unknot", "--J", '{"Seifert":[[-1,1],[0,-1]]}'],
                f"knot record has an unknown key 'Seifert'; {RECORD}",
            ),
            (
                ["invariants", "--preset", "trefoil", "--samples", '[{"s":"1/2","x":0}]'],
                f"sample point has an unknown key 'x'; {SAMPLE}",
            ),
            (
                OBSTRUCT
                + ["--presetK", "trefoil", "--presetJ", "unknot"]
                + ["--samples", '[{"omega":-1},{"S":"1/2"}]'],
                f"sample point has an unknown key 'S'; {SAMPLE}",
            ),
            (
                ["band", "--surface", f'{{"bands":[{{"half_twists":1}}],{ATTACH},"route":[],"routes":[]}}'],
                f"{MALFORMED}: band surface has an unknown key 'routes'; "
                'expected "bands", "attach" and "route"',
            ),
            (
                ["band", "--surface", f'{{"bands":[{{"half_twists":1,"halftwists":3}}],{ATTACH},"route":[]}}'],
                f"{MALFORMED}: band has an unknown key 'halftwists'; "
                'expected "half_twists"',
            ),
            (
                [
                    "band", "--surface",
                    f'{{"bands":[{{"half_twists":1}}],{ATTACH},'
                    '"route":[{"over":[0,0],"under":[0,1],"sign":1,"sgn":-1}]}',
                ],
                f"{MALFORMED}: route event has an unknown key 'sgn'; "
                'expected "over", "under" and "sign"',
            ),
        ],
        ids=[
            "presentation", "cable-knot", "obstruct-K", "obstruct-J",
            "invariants-sample", "obstruct-sample",
            "band-surface", "band", "route-event",
        ],
    )
    def test_exit_1(self, capsys, argv, message):
        code, out, err = call(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


def _surface(attach, route="[]") -> str:
    return f'{{"bands":[{{"half_twists":1}}],"attach":{attach},"route":{route}}}'


class TestMalformedSurface:
    """Attach entries are [i, e] or ["band", i, "end", e] and route
    passages are [band, slot]; anything longer or shorter is one error
    line, not truncated."""

    @pytest.mark.parametrize(
        "surface",
        [
            _surface('[["x",0,"y","A"],[0,"B"]]'),
            _surface('[[0,"A",99],[0,"B"]]'),
            _surface('[[0,"A"],[0,"B"]]', '[{"over":[0,0,7],"under":[0,1],"sign":1}]'),
        ],
        ids=["unkeyed-attach", "long-attach", "long-passage"],
    )
    def test_exit_1(self, capsys, surface):
        code, out, err = call(capsys, "band", "--surface", surface)
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed band surface JSON: ")
        assert err.count("\n") == 1

    def test_both_attach_forms_still_work(self, capsys):
        for attach in ('[[0,"A"],[0,"B"]]', '[["band",0,"end","A"],[0,"B"]]'):
            code, data = call_json(capsys, "band", "--surface", _surface(attach))
            assert code == 0 and data["framing"] == 2


class TestInvalidSurface:
    """Data that reads but is no one-boundary surface is refused when the
    surface is built, with the line the first surface reader printed
    before: not as malformed JSON, and with each event placed in the
    whole surface (J's band is band 1 of the Klein bottle)."""

    UNBALANCED = '[[0,"A"],[1,"A"],[0,"B"],[1,"B"]]'
    SEPARATED = '[[0,"A"],[0,"B"],[1,"A"],[1,"B"]]'

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["band", "--surface", f'{{"bands":[{{"half_twists":1}},{{"half_twists":0}}],'
                 f'"attach":{UNBALANCED},"route":[]}}'],
                "invalid surface: route crossings between bands 0 and 1 are unbalanced: "
                "net 0 over-minus-under, expected -1; no classical surface realizes this",
            ),
            (
                ["band", "--surface", f'{{"bands":[{{"half_twists":1}},{{"half_twists":0}}],'
                 f'"attach":{SEPARATED},"route":[]}}'],
                "multiple boundary components: boundary walk found 2",
            ),
            (
                ["cable", "-p", "3", "--knot",
                 '{"seifert":[[-1,1],[0,-1]],"core_route":[[0,1,1],[1,0,1]]}'],
                "invalid surface: band 0 slot 1 used twice: as under in event 0 and as over "
                "in event 1; band 0 slot 0 used twice: as over in event 0 and as under in event 1",
            ),
            (
                ["klein", "--coreK", "[]", "--coreJ", "[[0,1,1],[1,0,1]]", "-p", "3"],
                "invalid surface: band 1 slot 0 used twice: as under in event 0 and as over "
                "in event 1; band 1 slot 1 used twice: as over in event 0 and as under in event 1",
            ),
        ],
        ids=["band-unbalanced", "band-two-boundaries", "cable-reused-slot", "klein-J-reused-slot"],
    )
    def test_exit_1(self, capsys, argv, message):
        code, out, err = call(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestMalformedRelations:
    """The relations and each relation must be JSON lists; a string or an
    object is not read as a list of its characters or keys, and a false
    value is not read as no relations."""

    @pytest.mark.parametrize(
        "relations, message",
        [
            ('{"ab":1}', "relations must be a JSON list of rows, got {'ab': 1}"),
            ('"12"', "relations must be a JSON list of rows, got '12'"),
            ("false", "relations must be a JSON list of rows, got False"),
            ("5", "relations must be a JSON list of rows, got 5"),
            ('["12"]', "each relation must be a list of integers, got '12'"),
            ('[{"a":1,"b":2}]', "each relation must be a list of integers, got {'a': 1, 'b': 2}"),
        ],
        ids=["object", "string", "false", "number", "string-row", "object-row"],
    )
    def test_exit_1(self, capsys, relations, message):
        presentation = f'{{"generators":2,"relations":{relations}}}'
        code, out, err = call(capsys, "homology", "--presentation", presentation)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestMalformedMatricesAndRoutes:
    """A matrix and each of its rows must be JSON lists of integers, and a
    core route a JSON list of triples; anything else is one error line,
    not a traceback, and an object is not read as a row of its keys.
    ``cable`` needs the route: without one it printed the unknot's band
    next to the cable's Alexander polynomial."""

    TREFOIL = '"seifert":[[-1,1],[0,-1]]'
    NO_ROUTE = 'cable needs the knot record\'s "core_route"'

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["invariants", "--seifert", "[5]"], "each matrix row must be a list"),
            (["invariants", "--seifert", '{"a":1}'], "matrix must be a list of rows"),
            (["cable", "--knot", '{"seifert":5}', "-p", "3"], "matrix must be a list of rows"),
            (
                ["cable", "--knot", f'{{{TREFOIL},"core_route":5}}', "-p", "3"],
                "a core route must be a JSON list",
            ),
            (
                ["cable", "--knot", f'{{{TREFOIL},"core_route":[5]}}', "-p", "3"],
                "a core route event must be an (over_slot, under_slot, sign) triple",
            ),
            (["cable", "--knot", f"{{{TREFOIL}}}", "-p", "3"], NO_ROUTE),
            (["cable", "--knot", f'{{{TREFOIL},"core_route":null}}', "-p", "3"], NO_ROUTE),
            (
                ["klein", "--coreK", "[5]", "--presetJ", "unknot", "-p", "3"],
                "a core route event must be an (over_slot, under_slot, sign) triple",
            ),
            # JSON of the wrong type, not a missing file named "5"
            (["invariants", "--seifert", "5"], "expected a JSON object or list, got 5"),
            (
                ["klein", "--coreK", "5", "--coreJ", "[]", "-p", "3"],
                "expected a JSON object or list, got 5",
            ),
            (["invariants", "--seifert", "true"], "expected a JSON object or list, got true"),
        ],
        ids=[
            "int-row", "object-matrix", "int-seifert", "int-route", "int-event",
            "no-route", "null-route", "klein-int-event", "int-argument", "klein-int-argument", "bool-argument",
        ],
    )
    def test_exit_1(self, capsys, argv, message):
        code, out, err = call(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err


class TestProcessSmoke:
    @staticmethod
    def env():
        """The environment with src first on PYTHONPATH, so the child
        imports this tree's knotbands whether or not it is installed."""
        path = str(SRC)
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        return {**os.environ, "PYTHONPATH": path}

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "knotbands.cli", "invariants", "--preset", "unknot"],
            capture_output=True,
            text=True,
            env=self.env(),
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
            env=self.env(),
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
                env=self.env(),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert "error:" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert proc.stderr == ""
