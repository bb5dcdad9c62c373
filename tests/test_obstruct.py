import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotbands.algebra import LaurentPoly, det_int
from knotbands.bandform import (
    BandSurface,
    analyze_surface,
    framing,
    gl_form,
    klein_bottle_for_cables,
    mobius_band,
    shape,
    validate_surface,
)
from knotbands.invariants import Omega, determinant_knot
from knotbands.obstruct import (
    PROPERTIES,
    ObstructionReport,
    TestResult as CheckResult,
    cable_concordance_check,
    determinant_mod8_check,
    genus_framing_check,
    random_core,
    random_normal_form,
    random_unimodular,
    sigma_squared_check,
    slice_obstruction_report,
    verify_paper,
)
from knotbands.presets import get_preset

TREFOIL = get_preset("trefoil").seifert
T25 = get_preset("t25").seifert
UNKNOT = get_preset("unknot").seifert

# every Hermitian evaluation of this matrix is singular: the first
# generator pairs to zero against everything
ALWAYS_SINGULAR = ((0, 0), (0, 1))

BATTERY_NAMES = [
    "framing-fixtures",
    "genus-framing-lemma",
    "gamma-law",
    "signature-bridge",
    "invariant-table",
    "klein-slice-obstruction",
    "satellite-formulas",
    "homology-z2",
    "cable-screen",
    "algebra-oracles",
    "surgery-and-stabilization",
]

# the first rng.random() of each property's stream at seed 0
FIRST_DRAWS_SEED_0 = {
    "framing-fixtures": 0.43227934803863644,
    "genus-framing-lemma": 0.6017707486969518,
    "gamma-law": 0.1275506278924845,
    "signature-bridge": 0.6973236498617499,
    "invariant-table": 0.5536587420773006,
    "klein-slice-obstruction": 0.3948221283749609,
    "satellite-formulas": 0.6105700913376431,
    "homology-z2": 0.9230594390109512,
    "cable-screen": 0.41572507692925476,
    "algebra-oracles": 0.08438915820013371,
    "surgery-and-stabilization": 0.08577800331589924,
}


class TestReports:
    def test_status_vocabulary(self):
        with pytest.raises(ValueError, match="unknown test status"):
            CheckResult("x", "maybe", "")
        CheckResult("x", "skipped-singular", "")

    def test_duplicate_names_rejected(self):
        t = CheckResult("same", "pass", "")
        with pytest.raises(ValueError, match="duplicate test name"):
            ObstructionReport((t, t))

    def test_verdict(self):
        ok = ObstructionReport((CheckResult("a", "pass", ""),))
        assert ok.verdict == "consistent"
        skipped = ObstructionReport((CheckResult("a", "skipped-singular", ""),))
        assert skipped.verdict == "consistent"
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


class TestGenusFraming:
    def test_trefoil_mobius(self):
        F = get_preset("trefoil").nonorientable_surface
        rep = genus_framing_check(analyze_surface(F))
        assert [t.name for t in rep.tests] == ["genus-framing"]
        assert rep.verdict == "consistent"

    def test_with_signature_bridge(self):
        F = get_preset("trefoil").nonorientable_surface
        rep = genus_framing_check(analyze_surface(F), v_orientable=TREFOIL)
        assert [t.name for t in rep.tests] == ["genus-framing", "signature-bridge"]
        assert rep.verdict == "consistent"

    def test_mismatched_bridge_obstructs(self):
        F = get_preset("trefoil").nonorientable_surface
        rep = genus_framing_check(analyze_surface(F), v_orientable=T25)
        assert {t.name: t.status for t in rep.tests}["signature-bridge"] == "fail"
        assert rep.verdict == "obstructed"

    def test_rejects_orientable(self):
        with pytest.raises(ValueError, match="orientable input"):
            genus_framing_check(analyze_surface(get_preset("trefoil").orientable_surface))


class TestDeterminantMod8:
    def test_hyperbolic_form_passes(self):
        rep = determinant_mod8_check(((1, 0), (0, -1)))
        assert rep.verdict == "consistent"

    def test_trefoil_form_fails(self):
        rep = determinant_mod8_check(((3,),))
        assert rep.tests[0].status == "fail"
        assert "3 mod 8" in rep.tests[0].details
        assert rep.verdict == "obstructed"


class TestSliceReport:
    def test_baseline_klein_bottle(self):
        F = klein_bottle_for_cables((), (), 1)
        rep = slice_obstruction_report(analyze_surface(F))
        assert [t.name for t in rep.tests] == [
            "determinant-mod-8",
            "ordinary-signature",
        ]
        assert rep.verdict == "consistent"

    def test_companion_alone_adds_nothing(self):
        F = klein_bottle_for_cables((), (), 1)
        rep = slice_obstruction_report(analyze_surface(F), v_j=TREFOIL)
        assert len(rep.tests) == 2

    def test_full_report_names_and_verdict(self):
        F = klein_bottle_for_cables((), (), 1)
        rep = slice_obstruction_report(analyze_surface(F), v_j=TREFOIL, v_boundary=TREFOIL)
        assert [(t.name, t.status) for t in rep.tests] == [
            ("determinant-mod-8", "pass"),
            ("ordinary-signature", "pass"),
            ("boundary-signature", "fail"),
            ("sigma-squared omega=-1", "skipped-singular"),
            ("sigma-squared s=1/2", "fail"),
            ("sigma-squared s=1/3", "fail"),
            ("sigma-squared s=2/3", "pass"),
            ("sigma-squared s=1/5", "pass"),
            ("sigma-squared s=3/5", "pass"),
        ]
        assert rep.verdict == "obstructed"

    def test_slice_boundary_matrix_consistent(self):
        F = klein_bottle_for_cables((), (), 1)
        rep = slice_obstruction_report(analyze_surface(F), v_j=UNKNOT, v_boundary=UNKNOT)
        assert rep.verdict == "consistent"

    def test_custom_samples(self):
        F = klein_bottle_for_cables((), (), 1)
        rep = slice_obstruction_report(
            analyze_surface(F),
            v_j=UNKNOT,
            v_boundary=UNKNOT,
            samples=[Omega.from_s(1)],
        )
        assert [t.name for t in rep.tests][-1] == "sigma-squared s=1"

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


class TestSigmaSquared:
    def test_trefoil_against_itself_fails(self):
        rep = sigma_squared_check(TREFOIL, TREFOIL)
        assert [t.status for t in rep.tests] == [
            "skipped-singular", "fail", "fail", "pass", "pass", "pass",
        ]
        assert rep.verdict == "obstructed"

    def test_unknot_self_comparison_passes(self):
        rep = sigma_squared_check(UNKNOT, UNKNOT)
        assert rep.verdict == "consistent"
        assert [t.status for t in rep.tests] == ["skipped-singular"] + ["pass"] * 5

    def test_custom_samples(self):
        rep = sigma_squared_check(
            TREFOIL, TREFOIL, samples=[Omega.from_s(Fraction(2, 3))]
        )
        assert rep.to_json()["tests"] == [
            {
                "name": "sigma-squared s=2/3",
                "status": "pass",
                "details": "sigma_K = -2, sigma_J(omega^2) = -2",
            }
        ]

    def test_singular_side_skips(self):
        rep = sigma_squared_check(ALWAYS_SINGULAR, TREFOIL)
        assert all(t.status == "skipped-singular" for t in rep.tests)
        assert rep.tests[1].details == "sigma_K = None, sigma_J(omega^2) = -2"
        assert rep.verdict == "consistent"  # skips never obstruct
        rep = sigma_squared_check(TREFOIL, ALWAYS_SINGULAR)
        assert all(t.status == "skipped-singular" for t in rep.tests)
        assert rep.tests[1].details == "sigma_K = 0, sigma_J(omega^2) = None"

    def test_malformed_matrix_rejected_when_every_sample_skips(self):
        only_minus_one = [Omega.minus_one()]
        with pytest.raises(ValueError, match="matrix must be square"):
            sigma_squared_check(((1, 0),), TREFOIL, samples=only_minus_one)
        with pytest.raises(ValueError, match="must be integers"):
            sigma_squared_check(TREFOIL, ((1.0,),), samples=only_minus_one)

    def test_square_root_of_one_is_skipped(self):
        assert sigma_squared_check(UNKNOT, UNKNOT).to_json()["tests"][0] == {
            "name": "sigma-squared omega=-1",
            "status": "skipped-singular",
            "details": "sigma_K = None, sigma_J(omega^2) = None",
        }


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

    def test_rejects_even_p(self):
        with pytest.raises(ValueError, match="p must be odd"):
            cable_concordance_check(TREFOIL, TREFOIL, 2)


class TestGenerators:
    def test_random_core_factors(self):
        rng = random.Random(0)
        seen = set()
        for _ in range(40):
            route, delta = random_core(rng)
            assert isinstance(delta, LaurentPoly)
            F = mobius_band(route, 1)
            assert validate_surface(F) == []
            seen.add(str(delta))
        assert len(seen) > 3  # the factor pool actually varies

    def test_random_core_delta_is_normalized(self):
        rng = random.Random(4)
        for _ in range(20):
            _, delta = random_core(rng)
            assert delta.evaluate_int(1) == 1
            assert delta == delta.substitute(-1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_normal_form_zero_framing(self, seed):
        F = random_normal_form(random.Random(seed), force_zero_framing=True)
        assert framing(F) == 0
        assert validate_surface(F) == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    def test_random_unimodular_is_unimodular(self, seed, n):
        p = random_unimodular(random.Random(seed), n)
        assert det_int(p) in (1, -1)

    def test_klein_for_cables_boundary_is_cable_shaped(self):
        # the construction exists so its boundary has cable-type invariants
        core, _ = random_core(random.Random(2))
        F = klein_bottle_for_cables(core, core, 5)
        assert framing(F) == 0
        assert determinant_knot(gl=gl_form(F)) == 25


class TestVerifyPaper:
    def test_property_names_and_success(self):
        summary = verify_paper(seed=0, trials=20)
        assert [p.name for p in summary.properties] == BATTERY_NAMES
        assert summary.all_passed
        assert all(p.failures == 0 for p in summary.properties)
        assert all(p.cases > 0 for p in summary.properties)

    def test_deterministic(self):
        a = verify_paper(seed=7, trials=5).to_json()
        b = verify_paper(seed=7, trials=5).to_json()
        assert a == b

    def test_seed_changes_cases(self):
        a = verify_paper(seed=1, trials=8)
        b = verify_paper(seed=2, trials=8)
        assert a.to_json() != b.to_json()
        assert a.all_passed and b.all_passed

    def test_trials_contract(self):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify_paper(trials=0)

    def test_serialization(self):
        summary = verify_paper(seed=0, trials=2)
        data = summary.to_json()
        assert set(data) == {"seed", "trials", "all_passed", "properties"}
        assert data["seed"] == 0 and data["trials"] == 2
        text = summary.to_text()
        assert text.count("pass") >= len(BATTERY_NAMES)

    def test_first_draw_of_every_stream(self, monkeypatch):
        first = {}
        for name, (key, _prop) in list(PROPERTIES.items()):

            def record(t, rng, trials, name=name):
                first[name] = rng.random()

            monkeypatch.setitem(PROPERTIES, name, (key, record))
        verify_paper(seed=0, trials=1)
        assert first == FIRST_DRAWS_SEED_0

    def test_renaming_a_property_function_keeps_the_output(self, monkeypatch):
        before = verify_paper(seed=3, trials=3).to_json()
        for name, (key, prop) in list(PROPERTIES.items()):

            def renamed(t, rng, trials, prop=prop):
                prop(t, rng, trials)

            monkeypatch.setitem(PROPERTIES, name, (key, renamed))
        assert verify_paper(seed=3, trials=3).to_json() == before
