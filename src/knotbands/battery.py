"""The randomized verification battery behind ``knotbands verify``.

Each property checks one law of the paper's constructions on fixed inputs
plus ``trials`` inputs drawn from seeded generators of band surfaces,
knot cores and unimodular matrices. Within the package only the
``verify`` command's handler imports this module, so ``import knotbands``
and the screens do not load it (or ``random``).
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .algebra import (
    LaurentPoly,
    det_int,
    det_pencil,
    fp_abelian_invariants,
    signature_exact,
    smith_normal_form,
    transpose,
)
from .bandform import (
    BandSurface,
    RouteEvent,
    _boundary,
    _chords,
    analyze_surface,
    boundary_connect_sum,
    core_route,
    core_writhe,
    framing,
    gamma_self_linking,
    gl_form,
    klein_bottle_for_cables,
    mirror_core,
    mobius_band,
    seifert_matrix,
    shape,
    surgery_shape,
    zero_framing_stabilize,
)
from .invariants import (
    DEFAULT_SAMPLES,
    alexander,
    alexander_cable2,
    alexander_satellite,
    arf,
    determinant_knot,
    levine_tristram,
    sigma_satellite,
    signature,
)
from .obstruct import cable_concordance_check, slice_obstruction_report
from .presets import get_preset, preset_names
from .record import Record


# ---------------------------------------------------------------------------
# seeded generators


def _preset_factor(name: str) -> tuple:
    pk = get_preset(name)
    return pk.core_route, alexander(pk.seifert)


# (knot route, its Alexander polynomial)
_CORE_FACTORS = (
    ((), LaurentPoly.one()),
    _preset_factor("trefoil"),
    _preset_factor("t25"),
    (core_route([(0, 1, 1)]), LaurentPoly.one()),  # positive kink
    (core_route([(0, 1, -1)]), LaurentPoly.one()),  # negative kink
)


def random_core(rng: random.Random):
    """A knot route for a band core, as a connected sum of small factors;
    returns (route, its Alexander polynomial)."""
    route: list[RouteEvent] = []
    delta = LaurentPoly.one()
    offset = 0
    for _ in range(rng.randint(0, 2)):
        factor, factor_delta = _CORE_FACTORS[rng.randrange(len(_CORE_FACTORS))]
        if rng.random() < 0.5:
            factor = mirror_core(factor)
        for ev in factor:
            route.append(
                RouteEvent(
                    (0, ev.over[1] + offset), (0, ev.under[1] + offset), ev.sign
                )
            )
        offset += 2 * len(factor)
        delta = delta * factor_delta
    return tuple(route), delta


# every generated band has at most this many half twists either way, and a
# normal form at most this many two-band pieces
_MAX_TWIST = 5
_MAX_PIECES = 3


def _balancing_events(rng: random.Random, chords: dict) -> tuple[list[tuple], Callable]:
    """One route event per interleaved band pair, cancelling its disk
    crossing, with one draw choosing the over band; and ``slot(b)``, which
    hands out band b's next slot, to route further events with."""
    counters: dict[int, int] = {}

    def slot(b: int) -> int:
        counters[b] = counters.get(b, -1) + 1
        return counters[b]

    events = []
    for (i, j), d in chords.items():
        if rng.random() < 0.5:
            events.append(((i, slot(i)), (j, slot(j)), -d))
        else:
            events.append(((j, slot(j)), (i, slot(i)), d))
    return events, slot


def _extra_events(rng: random.Random, n: int, slot: Callable, kind: str) -> list[tuple]:
    """The events of one extra draw on n bands: a cancelling "pair" (i over
    j twice, opposite signs), a "clasp" (i over j, then j over i, one sign)
    or a "self" event of one band."""
    if kind == "self":
        i = rng.randrange(n)
        return [((i, slot(i)), (i, slot(i)), rng.choice((1, -1)))]
    i, j = rng.sample(range(n), 2)
    s = rng.choice((1, -1))
    if kind == "clasp":
        return [((i, slot(i)), (j, slot(j)), s), ((j, slot(j)), (i, slot(i)), s)]
    return [((i, slot(i)), (j, slot(j)), s), ((i, slot(i)), (j, slot(j)), -s)]


def random_band_surface(
    rng: random.Random,
    max_bands: int = 6,
    max_events: int = 10,
    orientable: bool = False,
) -> BandSurface:
    """Seeded single-boundary surface with crossing data an embedded
    surface could actually have (interleaved band pairs get the one
    disk-forced crossing compensated in the route)."""
    while True:
        if orientable:
            n = 2 * rng.randint(1, max(1, max_bands // 2))
            twists = [2 * rng.randint(-(_MAX_TWIST // 2), _MAX_TWIST // 2) for _ in range(n)]
        else:
            n = rng.randint(1, max_bands)
            twists = [rng.randint(-_MAX_TWIST, _MAX_TWIST) for _ in range(n)]
            k = rng.randrange(n)
            if twists[k] % 2 == 0:
                twists[k] += 1 if twists[k] < _MAX_TWIST else -1
        tokens = [(i, e) for i in range(n) for e in ("A", "B")]
        rng.shuffle(tokens)
        if _boundary(twists, tokens)[0] != 1:
            continue
        chords = _chords(tokens)
        if len(chords) > max_events:
            continue
        events, slot = _balancing_events(rng, chords)
        budget = max_events - len(events)
        while budget > 0 and rng.random() < 0.6:
            roll = rng.random()
            if roll < 0.7 and n >= 2 and budget >= 2:
                kind = "pair" if roll < 0.4 else "clasp"
            else:
                kind = "self"
            extra = _extra_events(rng, n, slot, kind)
            events += extra
            budget -= len(extra)
        return BandSurface.build(twists, tokens, events)


def random_normal_form(
    rng: random.Random,
    force_zero_framing: bool = False,
) -> BandSurface:
    """Ordered boundary connect sum of two-band pieces, each with exactly
    one odd-twisted band; optionally re-twisted to framing zero."""
    k = rng.randint(1, _MAX_PIECES)
    odd_choices = [h for h in range(-_MAX_TWIST, _MAX_TWIST + 1) if h % 2]
    even_choices = [h for h in range(-_MAX_TWIST, _MAX_TWIST + 1) if h % 2 == 0]
    twists: list[int] = []
    attach: list[tuple[int, str]] = []
    even_bands: list[int] = []
    for piece in range(k):
        x, y = 2 * piece, 2 * piece + 1
        h_odd = rng.choice(odd_choices)
        h_even = rng.choice(even_choices)
        if rng.random() < 0.5:
            twists += [h_odd, h_even]
            even_bands.append(y)
        else:
            twists += [h_even, h_odd]
            even_bands.append(x)
        attach += [(x, "A"), (y, "A"), (x, "B"), (y, "B")]

    events, slot = _balancing_events(rng, _chords(attach))
    n = 2 * k
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        kind = "clasp" if roll < 0.4 and k >= 2 else "pair" if roll < 0.7 else "self"
        events += _extra_events(rng, n, slot, kind)
    F = BandSurface.build(twists, attach, events)
    if force_zero_framing:
        f = framing(F)
        # framing of an even-genus surface is 0 mod 4, so the adjustment
        # keeps the adjusted band even-twisted
        adjust = even_bands[0]
        new_twists = list(twists)
        new_twists[adjust] -= f // 2
        F = BandSurface.build(new_twists, attach, events)
    return F


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Determinant +-1 integer matrix built from elementary operations."""
    A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 0:
        return A
    for _ in range(2 * n + rng.randint(0, 3)):
        roll = rng.random()
        if n >= 2 and roll < 0.6:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((1, -1, 2, -2))
            for col in range(n):
                A[i][col] += c * A[j][col]
        elif n >= 2 and roll < 0.8:
            i, j = rng.sample(range(n), 2)
            A[i], A[j] = A[j], A[i]
        else:
            i = rng.randrange(n)
            A[i] = [-x for x in A[i]]
    return A


# ---------------------------------------------------------------------------
# the randomized verification battery


class VerifyProperty(Record):
    __slots__ = ("name", "cases", "failures", "detail")
    name: str
    cases: int
    failures: int
    detail: str

    @property
    def passed(self) -> bool:
        return self.failures == 0


class VerifySummary(Record):
    __slots__ = ("seed", "trials", "properties")
    seed: int
    trials: int
    properties: tuple[VerifyProperty, ...]

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "all_passed": self.all_passed,
            "properties": [
                {
                    "name": p.name,
                    "cases": p.cases,
                    "failures": p.failures,
                    "detail": p.detail,
                }
                for p in self.properties
            ],
        }

    def to_text(self) -> str:
        lines = []
        for p in self.properties:
            tag = "pass" if p.passed else "FAIL"
            extra = f" ({p.detail})" if p.detail else ""
            lines.append(f"{tag}  {p.name}: {p.cases} cases, {p.failures} failures{extra}")
        lines.append(
            f"battery: {'all properties hold' if self.all_passed else 'FAILURES PRESENT'}"
        )
        return "\n".join(lines)


class _Tally:
    def __init__(self):
        self.cases = 0
        self.failures = 0
        self.detail = ""

    def check(self, condition: bool, detail: str = ""):
        self.cases += 1
        if not condition:
            self.failures += 1
            if not self.detail:
                self.detail = detail


# Each property checks one law on fixed inputs plus ``trials`` inputs drawn
# from ``rng``. ``verify_paper`` runs them all; the acceptance tests run
# each one with their own seed and trial count.


def _prop_framing_fixtures(t: _Tally, rng: random.Random, trials: int) -> None:
    plus = mobius_band((), 1)
    minus = mobius_band((), -1)
    t.check(framing(plus) == 2, "Möbius +1")
    t.check(framing(minus) == -2, "Möbius -1")
    t.check(framing(boundary_connect_sum(plus, minus)) == 0, "sum 2-2")
    for p in (-7, -5, -3, -1, 1, 3, 5, 7):
        t.check(framing(mobius_band((), p)) == 2 * p, f"Möbius h={p}")
    for p in (-5, -3, -1, 1, 3, 5):
        t.check(
            framing(mobius_band(get_preset("trefoil").core_route, p)) == 2 * p,
            f"trefoil-core Möbius h={p}",
        )
    for _ in range(min(trials, 25)):
        core, _delta = random_core(rng)
        p = rng.choice((-5, -3, -1, 1, 3, 5))
        t.check(
            framing(mobius_band(core, p)) == 2 * p,
            f"mobius_band core w={core_writhe(core)} p={p}",
        )


def _prop_genus_framing(t: _Tally, rng: random.Random, trials: int) -> None:
    for _ in range(trials):
        F = random_band_surface(rng, orientable=False)
        sh = shape(F)
        f = framing(F)
        want = 2 if sh.genus % 2 else 0
        t.check(f % 4 == want, f"nonorientable framing {f}, genus {sh.genus}")
        t.check(f % 2 == 0, "framing parity")
    for _ in range(max(1, trials // 2)):
        F = random_band_surface(rng, orientable=True)
        t.check(framing(F) == 0, "orientable framing nonzero")


def _prop_gamma_law(t: _Tally, rng: random.Random, trials: int) -> None:
    for i in range(trials):
        F = random_normal_form(rng, force_zero_framing=(i % 3 == 0))
        f = framing(F)
        sl = gamma_self_linking(F)
        t.check(f == 4 * sl, f"framing {f} != 4*{sl}")
        t.check((f == 0) == (sl == 0), "zero framing iff zero self-linking")


def _prop_signature_bridge(t: _Tally, rng: random.Random, trials: int) -> None:
    for name in preset_names():
        pk = get_preset(name)
        surface = analyze_surface(pk.nonorientable_surface)
        lhs = signature(pk.seifert)
        rhs = signature_exact(surface.gl_form) - surface.framing // 2
        t.check(lhs == rhs, f"{name}: {lhs} != {rhs}")
        sym = signature_exact(gl_form(pk.orientable_surface))
        t.check(lhs == sym, f"{name} orientable GL: {lhs} != {sym}")
        f, genus = surface.framing, surface.shape.genus
        t.check(f % 4 == 2 * (genus % 2), f"{name}: framing {f}, genus {genus}")


def _prop_invariant_table(t: _Tally, rng: random.Random, trials: int) -> None:
    for name in preset_names():
        pk = get_preset(name)
        t.check(alexander(pk.seifert).to_string() == pk.delta, f"{name} delta")
        t.check(signature(pk.seifert) == pk.sigma, f"{name} sigma")
        t.check(determinant_knot(seifert=pk.seifert) == pk.det, f"{name} det (V)")
        t.check(abs(det_int(pk.gl_nonorientable)) == pk.det, f"{name} det (GL)")
        t.check(arf(pk.seifert) == pk.arf, f"{name} arf")
        t.check(
            seifert_matrix(pk.orientable_surface) == pk.seifert,
            f"{name} stored orientable surface",
        )
        t.check(
            gl_form(pk.nonorientable_surface) == pk.gl_nonorientable,
            f"{name} stored GL form",
        )
        t.check(
            framing(pk.nonorientable_surface) == pk.framing_nonorientable,
            f"{name} stored framing",
        )


def _prop_klein_obstructions(t: _Tally, rng: random.Random, trials: int) -> None:
    # trials counts bottles: each core pair is built at all six p
    built = 0
    while built < trials:
        core_k, delta_k = random_core(rng)
        core_j, _delta_j = random_core(rng)
        for p in (-5, -3, -1, 1, 3, 5):
            surface = analyze_surface(klein_bottle_for_cables(core_k, core_j, p))
            t.check(surface.framing == 0, f"framing p={p}")
            d = abs(det_int(surface.gl_form))
            t.check(d == p * p, f"det GL {d} != p^2")
            t.check(d % 8 in (1, 7), f"det mod 8: {d}")
            t.check(
                abs(alexander_cable2(delta_k, p).evaluate_int(-1)) == abs(p),
                "cable determinant",
            )
            rep = slice_obstruction_report(surface)
            t.check(rep.verdict == "consistent", "slice screen on honest bottle")
            built += 1


def _prop_satellite(t: _Tally, rng: random.Random, trials: int) -> None:
    names = preset_names()
    for rn in names:
        for jn in names:
            v_r = get_preset(rn).seifert
            v_j = get_preset(jn).seifert
            dr = alexander(v_r)
            dj = alexander(v_j)
            sat = alexander_satellite(dr, dj)
            t.check(sat == dr * dj.substitute(2), f"{rn},{jn} Δ_R(t) Δ_J(t^2)")
            t.check(sat.evaluate_int(1) == 1, f"{rn},{jn} value at 1")
            t.check(sat == sat.substitute(-1), f"{rn},{jn} palindromic")
            t.check(
                abs(sat.evaluate_int(-1)) == abs(dr.evaluate_int(-1)),
                f"{rn},{jn} det at -1",
            )
            t.check(arf(sat) == arf(dr), f"{rn},{jn} arf preserved")
            for omega in DEFAULT_SAMPLES:
                got = sigma_satellite(v_r, v_j, omega)
                squared = omega.squared()
                if squared is None:
                    t.check(got.singular, "omega^2=1 must be singular")
                    continue
                a = levine_tristram(v_r, omega)
                b = levine_tristram(v_j, squared)
                if a.singular or b.singular:
                    t.check(got.singular, "singular propagation")
                else:
                    t.check(
                        got.value == a.value + b.value,
                        f"{rn},{jn} pointwise sum at {omega.label()}",
                    )


def _prop_homology(t: _Tally, rng: random.Random, trials: int) -> None:
    inv = fp_abelian_invariants(2, [[-2, 1], [0, 1]])
    t.check(str(inv) == "Z/2", f"double cover homology gave {inv}")
    t.check(inv.free_rank == 0 and inv.torsion == (2,), "double cover structure")
    inv = fp_abelian_invariants(1, [])
    t.check(inv.free_rank == 1 and inv.torsion == (), "free group")
    inv = fp_abelian_invariants(2, [[1, 1], [1, -1]])
    t.check(inv.free_rank == 0 and inv.torsion == (2,), "Z/2 from pairing")


def _prop_cable_screen(t: _Tally, rng: random.Random, trials: int) -> None:
    tref = get_preset("trefoil").seifert
    unknot = get_preset("unknot").seifert
    fig8 = get_preset("figure-eight").seifert
    rep = cable_concordance_check(tref, unknot, 3)
    t.check(rep.verdict == "obstructed", "trefoil vs unknot must obstruct")
    leg = next((x for x in rep.tests if x.name == "sigma-match omega=-1"), None)
    t.check(leg is not None and leg.status == "fail", "obstruction at -1")
    t.check(
        leg is not None and "sigma_K = -2, sigma_J = 0" in leg.details,
        "signatures at -1",
    )
    for name in preset_names():
        v = get_preset(name).seifert
        for p in (-3, 1, 3, 5):
            t.check(
                cable_concordance_check(v, v, p).verdict == "consistent",
                f"{name} vs itself, p={p}",
            )
    t.check(
        cable_concordance_check(fig8, unknot, 1).verdict == "consistent",
        "figure-eight signature screen is blind",
    )


def _det_cofactor(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_cofactor(minor)
    return total


def _matmul(a, b) -> list[list[int]]:
    k = len(b)
    return [[sum(r[i] * b[i][j] for i in range(k)) for j in range(len(b[0]))] for r in a]


def _prop_algebra_oracles(t: _Tally, rng: random.Random, trials: int) -> None:
    """det_pencil(A, B) must match the cofactor expansion of A + xB at
    x = -1..-(n+1). det_pencil reads its values at x = 0..n-1, so these
    points are new to it, and a polynomial whose exponents lie in [0, n]
    is fixed by its values at n + 1 points."""
    for _ in range(trials):
        n = rng.randint(0, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        p = det_pencil(A, B)
        ok = p.is_zero or (p.min_exp >= 0 and p.max_exp <= n)
        for x in range(-1, -n - 2, -1):
            at_x = [[u + x * v for u, v in zip(ra, rb)] for ra, rb in zip(A, B)]
            ok = ok and p.evaluate_int(x) == _det_cofactor(at_x)
        t.check(ok, f"det mismatch at n={n}")
    for _ in range(trials):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        S = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        A = random_unimodular(rng, n)
        congr = _matmul(_matmul(A, S), transpose(A))
        t.check(
            signature_exact(congr) == signature_exact(S),
            "signature congruence invariance",
        )
    for _ in range(trials):
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(cols_n)] for _ in range(rows_n)]
        P = random_unimodular(rng, rows_n)
        Q = random_unimodular(rng, cols_n)
        t.check(
            smith_normal_form(_matmul(_matmul(P, M), Q)) == smith_normal_form(M),
            "SNF unimodular invariance",
        )


def _prop_surgery(t: _Tally, rng: random.Random, trials: int) -> None:
    for _ in range(trials):
        F = random_normal_form(rng, force_zero_framing=True)
        sh = shape(F)
        t.check(framing(F) == 0, "stabilized framing")
        if sh.genus == 2:
            after = surgery_shape(sh, True)
            t.check(
                after.orientable and after.genus == 0 and after.euler == 1,
                "genus-2 surgery must give a disk",
            )
        else:
            after = surgery_shape(sh, True)
            t.check(after.genus == (sh.genus - 2) // 2, "orientable surgery genus")
            after = surgery_shape(sh, False)
            t.check(after.genus == sh.genus - 2, "non-orientable surgery genus")
        Fz = zero_framing_stabilize(
            random_band_surface(rng, max_bands=4, max_events=6)
        )
        t.check(framing(Fz) == 0, "zero_framing_stabilize")


# name -> (stream key, property). ``verify_paper`` draws each property's
# inputs from Random(f"{seed}:{stream key}"); the keys are fixed strings, so
# renaming a property function moves no draw.
PROPERTIES = {
    "framing-fixtures": ("_prop_framing_fixtures", _prop_framing_fixtures),
    "genus-framing-lemma": ("_prop_genus_framing", _prop_genus_framing),
    "gamma-law": ("_prop_gamma_law", _prop_gamma_law),
    "signature-bridge": ("_prop_signature_bridge", _prop_signature_bridge),
    "invariant-table": ("_prop_invariant_table", _prop_invariant_table),
    "klein-slice-obstruction": ("_prop_klein_obstructions", _prop_klein_obstructions),
    "satellite-formulas": ("_prop_satellite", _prop_satellite),
    "homology-z2": ("_prop_homology", _prop_homology),
    "cable-screen": ("_prop_cable_screen", _prop_cable_screen),
    "algebra-oracles": ("_prop_algebra_oracles", _prop_algebra_oracles),
    "surgery-and-stabilization": ("_prop_surgery", _prop_surgery),
}


def run_property(name: str, rng: random.Random, trials: int) -> VerifyProperty:
    """Check the named battery property on its fixed inputs and on
    ``trials`` inputs drawn from rng."""
    t = _Tally()
    _key, prop = PROPERTIES[name]
    prop(t, rng, trials)
    return VerifyProperty(name, t.cases, t.failures, t.detail)


def verify_paper(seed: int = 0, trials: int = 100) -> VerifySummary:
    """Run the whole randomized battery; deterministic in (seed, trials)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return VerifySummary(
        seed,
        trials,
        tuple(
            run_property(name, random.Random(f"{seed}:{key}"), trials)
            for name, (key, _prop) in PROPERTIES.items()
        ),
    )
