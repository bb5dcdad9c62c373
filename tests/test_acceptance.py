"""The ten go/no-go checks, one test each, timed and summarized.

Each criterion runs one property of the ``knotbands verify`` battery
(``knotbands.battery.PROPERTIES``) with its own seed and trial count, so
every law is written once, in the library. Only the comparisons against
``tests/oracles.py``, which the library must not import, are written here.

Every test appends a PASS/FAIL line to the terminal summary (see
conftest.py) before asserting, so the scoreboard prints even on red.
"""

import random
import time

import oracles
from conftest import record_acceptance
from knotbands.battery import run_property, verify_paper
from knotbands.invariants import alexander, arf, determinant_knot, signature
from knotbands.presets import get_preset

CRITERION_PROPERTY = {
    1: "framing-fixtures",
    2: "genus-framing-lemma",
    3: "gamma-law",
    4: "signature-bridge",
    5: "invariant-table",
    6: "klein-slice-obstruction",
    7: "satellite-formulas",
    8: "homology-z2",
    9: "cable-screen",
    10: "algebra-oracles",
}


class Criterion:
    """Runs the criterion's property, collects failures, then emits one
    scoreboard line. A criterion that makes fewer than ``min_checks``
    checks fails, so a property cannot silently drop cases."""

    def __init__(self, number, description, budget, min_checks):
        self.number = number
        self.description = description
        self.budget = budget
        self.min_checks = min_checks
        self.failures = []
        self.cases = 0
        self.start = time.perf_counter()

    def run(self, seed=0, trials=1):
        name = CRITERION_PROPERTY[self.number]
        result = run_property(name, random.Random(seed), trials)
        self.cases += result.cases
        if result.failures:
            self.failures.append(
                f"{name}: {result.failures} failures, first: {result.detail}"
            )

    def check(self, condition, detail=""):
        self.cases += 1
        if not condition:
            self.failures.append(detail or f"case {self.cases}")

    def finish(self):
        elapsed = time.perf_counter() - self.start
        if elapsed >= self.budget:
            self.failures.append(f"took {elapsed:.2f}s, budget {self.budget}s")
        if self.cases < self.min_checks:
            self.failures.append(
                f"{self.cases} checks, at least {self.min_checks} expected"
            )
        ok = not self.failures
        record_acceptance(
            f"ACCEPTANCE {self.number}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s, {self.cases} checks) - {self.description}"
        )
        assert ok, f"criterion {self.number}: " + "; ".join(self.failures[:5])


def test_criteria_run_battery_properties():
    battery = [p.name for p in verify_paper(seed=0, trials=1).properties]
    assert sorted(CRITERION_PROPERTY) == list(range(1, 11))
    assert set(CRITERION_PROPERTY.values()) <= set(battery)


def test_acceptance_1_framing_fixtures():
    c = Criterion(1, "boundary framing fixtures on twisted bands", 1.0, 15)
    c.run(seed=1, trials=25)
    c.finish()


def test_acceptance_2_genus_framing_lemma():
    c = Criterion(2, "framing mod 4 tracks genus parity on random surfaces", 10.0, 700)
    c.run(seed=20252, trials=500)
    c.finish()


def test_acceptance_3_gamma_law():
    c = Criterion(3, "framing equals four times the gamma self-linking", 10.0, 400)
    c.run(seed=333, trials=200)
    c.finish()


def test_acceptance_4_signature_bridge():
    c = Criterion(4, "signature equals sign(GL form) minus half framing", 1.0, 6)
    c.run()
    c.finish()


def test_acceptance_5_invariant_table():
    c = Criterion(5, "classical invariant table against the braid oracle", 1.0, 28)
    c.run()
    table = {
        "unknot": ((1,), "1", 0, 1, 0),
        "trefoil": (oracles.RIGHT_TREFOIL_WORD, "t^-1 - 1 + t", -2, 3, 1),
        "figure-eight": (oracles.FIGURE_EIGHT_WORD, "-t^-1 + 3 - t", 0, 5, 1),
    }
    for name, (word, delta, sig, det, arf_bit) in table.items():
        pk = get_preset(name)
        row = (pk.delta, pk.sigma, pk.det, pk.arf)
        c.check(row == (delta, sig, det, arf_bit), f"{name} stored row {row}")
        v_ora = oracles.seifert_from_braid(word)
        c.check(str(alexander(v_ora)) == delta, f"{name} oracle alexander")
        c.check(signature(v_ora) == sig, f"{name} oracle signature")
        c.check(determinant_knot(seifert=v_ora) == det, f"{name} oracle det")
        c.check(arf(v_ora) == arf_bit, f"{name} oracle arf")
        for tag, v in (("library", pk.seifert), ("oracle", v_ora)):
            if v:
                c.check(oracles.arf_symplectic(v) == arf_bit, f"{name} {tag} arf2")
    c.finish()


def test_acceptance_6_klein_bottle_obstructions():
    c = Criterion(6, "zero-framed Klein bottles satisfy the slice screens", 30.0, 306)
    c.run(seed=66, trials=102)
    c.finish()


def test_acceptance_7_satellite_formulas():
    c = Criterion(7, "satellite Alexander and signature formulas on preset pairs", 5.0, 128)
    c.run()
    c.finish()


def test_acceptance_8_homology_z2():
    c = Criterion(8, "presented homology group reduces to Z/2", 1.0, 2)
    c.run()
    c.finish()


def test_acceptance_9_cable_screen():
    c = Criterion(9, "cable concordance screen separates trefoil from unknot", 1.0, 19)
    c.run()
    c.finish()


def test_acceptance_10_algebra_oracles():
    c = Criterion(10, "exact linear algebra against independent oracles", 10.0, 600)
    c.run(seed=1010, trials=200)
    c.finish()
