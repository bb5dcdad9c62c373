import random
from fractions import Fraction

import pytest

from knotbands import obstruct
from knotbands.bandform import (
    BandSurface,
    SurfaceAnalysis,
    SurfaceShape,
    analyze_surface,
    klein_bottle_for_cables,
    shape,
)
from knotbands.battery import random_core
from knotbands.invariants import DEFAULT_SAMPLES, Omega, alexander, levine_tristram
from knotbands.obstruct import (
    ObstructionReport,
    TestResult as CheckResult,
    cable_concordance_check,
    slice_obstruction_report,
)
from knotbands.presets import get_preset

TREFOIL = get_preset("trefoil").seifert
T25 = get_preset("t25").seifert
UNKNOT = get_preset("unknot").seifert


class TestReports:
    def test_status_vocabulary(self):
        with pytest.raises(ValueError, match="unknown test status"):
            CheckResult("x", "maybe", "")
        # no sigma leg can be singular once alexander accepts both sides
        with pytest.raises(ValueError, match="unknown test status"):
            CheckResult("x", "skipped-singular", "")

    def test_duplicate_names_rejected(self):
        t = CheckResult("same", "pass", "")
        with pytest.raises(ValueError, match="duplicate test name in report: same$"):
            ObstructionReport((CheckResult("other", "pass", ""), t, t))

    def test_verdict(self):
        ok = ObstructionReport((CheckResult("a", "pass", ""),))
        assert ok.verdict == "consistent"
        bad = ObstructionReport(
            (CheckResult("a", "pass", ""), CheckResult("b", "fail", ""))
        )
        assert bad.verdict == "obstructed"

    def test_serialization(self):
        rep = ObstructionReport((CheckResult("a", "pass", "fine"),))
        assert rep.to_json() == {
            "tests": [{"name": "a", "status": "pass", "details": "fine"}],
            "verdict": "consistent",
        }
        text = rep.to_text()
        assert "pass  a: fine" in text
        assert text.rstrip().endswith("verdict: consistent")


class TestSliceReport:
    def test_baseline_klein_bottle(self):
        F = klein_bottle_for_cables((), (), 1)
        rep = slice_obstruction_report(analyze_surface(F))
        assert [t.name for t in rep.tests] == [
            "determinant-mod-8",
            "ordinary-signature",
        ]
        assert rep.verdict == "consistent"

    def test_both_legs_fail_on_a_nonslice_form(self):
        # klein_bottle_for_cables always gives |det GL| = p^2 = 1 mod 8, so
        # a failing determinant leg needs a hand-built analysis
        bad = SurfaceAnalysis(SurfaceShape(False, 2, -1, 1), 0, ((3, 0), (0, 1)))
        rep = slice_obstruction_report(bad)
        assert rep.to_json()["tests"] == [
            {
                "name": "determinant-mod-8",
                "status": "fail",
                "details": "|det GL| = 3 = 3 mod 8",
            },
            {
                "name": "ordinary-signature",
                "status": "fail",
                "details": "sign(GL) - framing/2 = 2, slice boundary needs 0",
            },
        ]
        assert rep.verdict == "obstructed"

    def test_shape_contract(self):
        with pytest.raises(ValueError, match="not a punctured Klein bottle"):
            slice_obstruction_report(
                analyze_surface(BandSurface.build([1], [(0, "A"), (0, "B")]))
            )
        with pytest.raises(ValueError, match="not a punctured Klein bottle"):
            slice_obstruction_report(
                analyze_surface(get_preset("trefoil").orientable_surface)
            )

    def test_framing_contract(self):
        twisted = BandSurface.build(
            [1, 1], [(0, "A"), (0, "B"), (1, "A"), (1, "B")]
        )
        assert shape(twisted).genus == 2 and not shape(twisted).orientable
        with pytest.raises(ValueError, match="framing must be 0, got 4"):
            slice_obstruction_report(analyze_surface(twisted))

    def test_nontrivial_cores_still_screen(self):
        core, _ = random_core(random.Random(11))
        F = klein_bottle_for_cables(core, (), 3)
        rep = slice_obstruction_report(analyze_surface(F))
        assert rep.verdict == "consistent"


class TestCableCheck:
    def test_trefoil_vs_unknot_obstructed(self):
        rep = cable_concordance_check(TREFOIL, UNKNOT, 3)
        statuses = {t.name: t.status for t in rep.tests}
        assert statuses["sigma-match omega=-1"] == "fail"
        assert statuses["cable-determinant"] == "pass"  # identity, never obstructs
        assert rep.verdict == "obstructed"
        fails = [n for n, s in statuses.items() if s == "fail"]
        assert fails == [
            "sigma-match omega=-1",
            "sigma-match s=2/3",
            "sigma-match s=3/5",
        ]

    def test_self_comparison_consistent(self):
        for v in (UNKNOT, TREFOIL, T25):
            for p in (-3, -1, 1, 3, 5):
                assert cable_concordance_check(v, v, p).verdict == "consistent"

    def test_degenerate_matrix_rejected(self):
        # the determinant leg needs a genuine Alexander polynomial
        with pytest.raises(ValueError, match="degenerate presentation"):
            cable_concordance_check(((0, 0), (0, 1)), TREFOIL, 1)

    def test_degenerate_matrix_rejected_before_any_signature(self, monkeypatch):
        # both Alexander polynomials come first, on either side
        def no_signatures(*args):
            raise AssertionError("levine_tristram ran on a degenerate matrix")

        monkeypatch.setattr(obstruct, "levine_tristram", no_signatures)
        degenerate = ((0, 0), (0, 1))
        for v_k, v_j in ((degenerate, TREFOIL), (TREFOIL, degenerate)):
            with pytest.raises(ValueError, match="degenerate presentation"):
                cable_concordance_check(v_k, v_j, 1)

    def test_no_sigma_leg_is_singular(self):
        # whenever alexander accepts V (|Delta(1)| = 1), no rational
        # sample is a root of Delta, so no sigma leg needs a skip
        rng = random.Random(5)
        samples = list(DEFAULT_SAMPLES) + [
            Omega(rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for _ in range(12)
        ]
        accepted = 0
        while accepted < 40:
            n = rng.choice((2, 4))
            v = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            try:
                alexander(v)
            except ValueError:
                continue
            accepted += 1
            for w in samples:
                assert not levine_tristram(v, w).singular, (v, w)

    def test_rejects_even_p(self):
        with pytest.raises(ValueError, match="p must be odd"):
            cable_concordance_check(TREFOIL, TREFOIL, 2)

    @pytest.mark.parametrize("p", [True, 3.0])
    def test_rejects_non_integer_p(self, p):
        # True is not p = 1, and 3.0 is not p = 3
        with pytest.raises(ValueError, match="p must be an integer"):
            cable_concordance_check(TREFOIL, TREFOIL, p)
