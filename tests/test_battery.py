"""The seeded generators and the ``verify`` battery in ``knotbands.battery``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotbands.algebra import LaurentPoly, det_int
from knotbands.bandform import (
    framing,
    gl_form,
    klein_bottle_for_cables,
    mobius_band,
)
from knotbands.battery import (
    PROPERTIES,
    random_core,
    random_normal_form,
    random_unimodular,
    verify_paper,
)
from oracles import surface_problems

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


class TestGenerators:
    def test_random_core_factors(self):
        rng = random.Random(0)
        seen = set()
        for _ in range(40):
            route, delta = random_core(rng)
            assert isinstance(delta, LaurentPoly)
            F = mobius_band(route, 1)
            assert surface_problems(F.half_twists, F.attach, F.route) is None
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
        assert surface_problems(F.half_twists, F.attach, F.route) is None

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
        assert abs(det_int(gl_form(F))) == 25


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
