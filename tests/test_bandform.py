import functools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotbands.bandform import (
    BandSurface,
    MultipleBoundaryError,
    NormalFormError,
    NotOrientableError,
    RouteEvent,
    SurfaceAnalysis,
    _boundary,
    _chords,
    _validate_surface,
    analyze_surface,
    boundary_connect_sum,
    compile_curves,
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
from knotbands.battery import random_band_surface, random_core, random_normal_form
from knotbands.presets import get_preset
import oracles
from oracles import validate_diagram
from test_bench_contract import BENCH, _load

TREFOIL_CORE = core_route([(0, 3, 1), (4, 1, 1), (2, 5, 1)])
ENDS = ((0, "A"), (0, "B"))
INTERLEAVED = ((0, "A"), (1, "A"), (0, "B"), (1, "B"))
SEPARATED = ENDS + ((1, "A"), (1, "B"))


def mobius(h):
    return BandSurface.build([h], ENDS)


def two_bands(h0, h1, interleaved, events=()):
    return BandSurface.build([h0, h1], INTERLEAVED if interleaved else SEPARATED, events)


def problems_of(F):
    """The reader-side verdict of ``oracles.surface_problems`` on F's data."""
    return oracles.surface_problems(F.half_twists, F.attach, F.route)


# the standard punctured Klein bottle piece: one odd and one even band,
# interleaved, with the single disk-forced crossing compensated
def klein_piece(h_odd=1, h_even=0):
    return two_bands(h_odd, h_even, True, [((1, 0), (0, 0), 1)])


# gamma_self_linking(random_normal_form(Random(s), force_zero_framing=s % 2 == 0))
# for s = 0..99, recorded when it still compiled the curve gamma through the
# 2-sided cores and gamma's parallel and linked the two
GAMMA_PINNED = (
    0, -2, 0, 2, 0, 3, 0, 3, 0, -2, 0, 0, 0, -2, 0, 2, 0, 1, 0, 5,
    0, 1, 0, -1, 0, 0, 0, -2, 0, 0, 0, -2, 0, 1, 0, 1, 0, 1, 0, 1,
    0, 1, 0, -1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, -1, 0, 2, 0, 1,
    0, 4, 0, 1, 0, 0, 0, 1, 0, -1, 0, 1, 0, 3, 0, 3, 0, -1, 0, 0,
    0, 0, 0, -4, 0, 2, 0, -1, 0, 1, 0, -1, 0, 0, 0, 5, 0, 0, 0, -2,
)


# (half_twists, attach, route) of data that is no surface or has more than
# one boundary component, with the error building it raises; the data is
# built inside each test, so that a case that builds fails that test and
# not the collection of the module
BAD_SURFACES = [
    (
        ([1], ENDS, [((0, 0), (0, 0), 1)]),
        ValueError,
        "invalid surface: route event 0 crosses a slot with itself",
    ),
    (
        ([1, 0], INTERLEAVED, []),
        ValueError,
        "invalid surface: route crossings between bands 0 and 1 are "
        "unbalanced: net 0 over-minus-under, expected -1; "
        "no classical surface realizes this",
    ),
    (
        ([2], [(0, "A")], []),
        ValueError,
        "invalid surface: attach has length 1, expected 2",
    ),
    (
        ([1, 0], SEPARATED, []),
        MultipleBoundaryError,
        "multiple boundary components: boundary walk found 2",
    ),
    (
        ([0], ENDS, []),
        MultipleBoundaryError,
        "multiple boundary components: boundary walk found 2",
    ),
    (
        ([1, 1], SEPARATED, [((0, 0), (0, 0), 1)]),
        ValueError,
        "invalid surface: route event 0 crosses a slot with itself",
    ),
]


class TestBoundaryWalk:
    def test_disk(self):
        assert _boundary((), ()) == (1, [])

    def test_mobius_single_boundary(self):
        # K runs along both edges of the band, entering both at its B end
        assert _boundary((1,), ENDS) == (1, [-2])
        steps = oracles.boundary_walk((1,), ENDS)[0][0]
        assert len(steps) == 4  # two arcs, two passes over the band
        assert {s[0] for s in steps} == {"arc", "band"}

    def test_annulus_two_boundaries(self):
        assert _boundary((0,), ENDS)[0] == 2
        assert _boundary((2,), ENDS)[0] == 2

    def test_separated_bands_two_boundaries(self):
        assert _boundary((1, 0), SEPARATED)[0] == 2

    def test_interleaved_bands_single_boundary(self):
        assert _boundary((1, 0), INTERLEAVED)[0] == 1

    def test_alternates_arcs_and_bands(self):
        # the reference walk behind _boundary's c steps from arc to band edge
        for F in (mobius(3), klein_piece(), get_preset("t25").orientable_surface):
            walks, _ = oracles.boundary_walk(F.half_twists, F.attach)
            for w in walks:
                kinds = [s[0] for s in w]
                for a, b in zip(kinds, kinds[1:] + kinds[:1]):
                    assert {a, b} == {"arc", "band"}


def disk_cases():
    """(half twists, attach) of seeded raw attach orders with 0-10 bands,
    many with more than one boundary circle, then of random band surfaces
    of both orientabilities and of random normal forms."""
    rng = random.Random(2027)
    for _ in range(600):
        n = rng.randint(0, 10)
        attach = [(i, e) for i in range(n) for e in "AB"]
        rng.shuffle(attach)
        yield [rng.randint(-5, 5) for _ in range(n)], attach
    for k in range(200):
        F = random_band_surface(rng, max_bands=10, max_events=40, orientable=k % 2 == 0)
        yield F.half_twists, F.attach
    for _ in range(100):
        F = random_normal_form(rng)
        yield F.half_twists, F.attach


class TestDiskCombinatorics:
    def test_closed_forms_match_the_oracles(self):
        # chord signs as 2x2 determinants, circles by merging corners, and
        # K's class read off the step-by-step walk (up to K's orientation)
        circle_counts, chord_signs = Counter(), Counter()
        for twists, attach in disk_cases():
            chords = _chords(attach)
            assert chords == oracles._crossing_chords(attach), attach
            circles, c = _boundary(twists, attach)
            assert circles == oracles._boundary_circles(twists, attach), (twists, attach)
            ref = oracles.boundary_class(twists, attach)
            assert c in (ref, [-x for x in ref]), (twists, attach)
            circle_counts[min(circles, 3)] += 1
            chord_signs.update(chords.values())
        assert min(circle_counts[1], circle_counts[2], circle_counts[3]) >= 20
        assert min(chord_signs[1], chord_signs[-1]) >= 100


class TestShape:
    def test_fixtures(self):
        disk = shape(BandSurface.build([], []))
        assert (disk.orientable, disk.genus, disk.euler) == (True, 0, 1)
        mb = shape(mobius(1))
        assert (mb.orientable, mb.genus, mb.euler) == (False, 1, 0)
        tref = shape(get_preset("trefoil").orientable_surface)
        assert (tref.orientable, tref.genus, tref.euler) == (True, 1, -1)
        t25 = shape(get_preset("t25").orientable_surface)
        assert (t25.orientable, t25.genus, t25.euler) == (True, 2, -3)
        kb = shape(klein_piece())
        assert (kb.orientable, kb.genus, kb.euler) == (False, 2, -1)
        assert kb.boundary_components == 1


class TestValidate:
    @staticmethod
    def problems(half_twists, attach, route=()):
        """_validate_surface on raw data; building that data raises them."""
        route = [RouteEvent(*ev) for ev in route]
        problems = _validate_surface(half_twists, attach, route)
        if problems:
            message = re.escape("invalid surface: " + "; ".join(problems))
            with pytest.raises(ValueError, match=f"^{message}$"):
                BandSurface(tuple(half_twists), tuple(attach), tuple(route))
        return problems

    def test_presets_clean(self):
        for name in ("unknot", "trefoil", "figure-eight", "t25"):
            pk = get_preset(name)
            for F in (pk.orientable_surface, pk.nonorientable_surface):
                assert _validate_surface(F.half_twists, F.attach, F.route) == []
                assert problems_of(F) is None

    def test_attach_problems(self):
        assert any("attach has length" in p for p in self.problems([1], [(0, "A")]))
        assert any(
            "attached more than once" in p for p in self.problems([1], [(0, "A"), (0, "A")])
        )
        assert any("out of range" in p for p in self.problems([1], [(0, "A"), (1, "B")]))

    def test_route_problems(self):
        problems = self.problems([1], ENDS, [((0, 0), (0, 0), 1)])
        assert any("crosses a slot with itself" in p for p in problems)
        assert any("has sign" in p for p in self.problems([1], ENDS, [((0, 0), (0, 1), 2)]))
        problems = self.problems([1, 1], SEPARATED, [((0, 0), (1, 0), 1), ((0, 0), (1, 1), -1)])
        assert problems == [
            "band 0 slot 0 used twice: as over in event 0 and as over in event 1"
        ]

    def test_a_slot_is_one_passage(self):
        # slot 0 is over in one crossing and under in the other, as is slot 1
        route = [(0, 1, 1), (1, 0, 1)]
        problems = [
            "band 0 slot 1 used twice: as under in event 0 and as over in event 1",
            "band 0 slot 0 used twice: as over in event 0 and as under in event 1",
        ]
        assert _validate_surface((3,), ENDS, core_route(route)) == problems
        message = re.escape("invalid surface: " + "; ".join(problems))
        # each way of building the band refuses it, so no reader sees it
        for build in (
            lambda: mobius_band(route, 3),
            lambda: BandSurface.build([3], ENDS, core_route(route)),
            lambda: klein_bottle_for_cables(route, (), 3),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()
        # one event over and under the same slot keeps its own message
        assert _validate_surface((3,), ENDS, core_route([(0, 0, 1)])) == [
            "route event 0 crosses a slot with itself"
        ]

    def test_disk_forced_crossing_balance(self):
        # interleaved pair with no compensating event is unrealizable
        assert any("unbalanced" in p for p in self.problems([1, 0], INTERLEAVED))
        F = klein_piece()
        assert _validate_surface(F.half_twists, F.attach, F.route) == []
        # and a canceling pair keeps a separated pair balanced
        assert self.problems([1, 0], SEPARATED, [((0, 0), (1, 0), 1), ((0, 1), (1, 1), -1)]) == []

    def test_chords(self):
        # sites A0=0, B0=2 and A1=1, B1=3: (0-2)(1-3)(1+3-0-2) > 0
        assert _chords(INTERLEAVED) == {(0, 1): 1}
        assert _chords(SEPARATED) == {}


class TestRecordsCheckThemselves:
    """A BandSurface or RouteEvent built directly is checked as the
    builders check: a float twist count gave framing 6.0, and an event
    with a bool slot passed core_route, mobius_band and BandSurface.build
    and gave a GL form."""

    @pytest.mark.parametrize("h", [3.0, True])
    def test_twist_counts_are_ints(self, h):
        message = f"^half_twists must be an integer, got {h!r}$"
        with pytest.raises(ValueError, match=message):
            BandSurface((h,), ENDS, ())
        with pytest.raises(ValueError, match=message):
            BandSurface.build([h], ENDS)

    @pytest.mark.parametrize("i", [0.0, False])
    def test_band_indices_are_ints(self, i):
        with pytest.raises(ValueError, match=f"^attach band index must be an integer, got {i!r}$"):
            BandSurface((1,), ((i, "A"), (0, "B")), ())

    @pytest.mark.parametrize(
        "data, message",
        [
            (([1], [(0, "A"), (0, "B")], []), "half_twists must be a tuple, got [1]"),
            (((1,), list(ENDS), ()), "attach must be a tuple, got [(0, 'A'), (0, 'B')]"),
            (((1,), ENDS, []), "route must be a tuple, got []"),
            (
                ((1,), ((0, "A"), [0, "B"]), ()),
                "attach entry must be a (band, end) tuple, got [0, 'B']",
            ),
            (((1,), ((0, "A"), (0,)), ()), "attach entry must be a (band, end) tuple, got (0,)"),
            (
                ((1,), ENDS, (((0, 0), (0, 1), 1),)),
                "route entry must be a RouteEvent, got ((0, 0), (0, 1), 1)",
            ),
        ],
    )
    def test_fields_are_tuples_of_checked_entries(self, data, message):
        # a list field could be changed after the check: a Moebius band
        # built from a list of twists became an annulus that the readers,
        # which no longer check, took as one boundary circle
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BandSurface(*data)

    @pytest.mark.parametrize(
        "over, under, sign, message",
        [
            ((0, True), (0, 0.0), 1, "route slot must be an integer, got True"),
            ((0, 0), (0, 0.0), 1, "route slot must be an integer, got 0.0"),
            ((False, 0), (0, 1), 1, "route band must be an integer, got False"),
            ((0, 0), (0, 1), 1.0, "route sign must be an integer, got 1.0"),
            ([0, 0], (0, 1), 1, "route passage must be a (band, slot) tuple, got [0, 0]"),
            ((0, 0, 7), (0, 1), 1, "route passage must be a (band, slot) tuple, got (0, 0, 7)"),
        ],
    )
    def test_route_events_are_ints(self, over, under, sign, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RouteEvent(over, under, sign)

    def test_the_builders_refuse_them_too(self):
        with pytest.raises(ValueError, match="^route slot must be an integer, got True$"):
            core_route([(True, 1, 1)])
        with pytest.raises(ValueError, match="^route slot must be an integer, got True$"):
            mobius_band([(0, True, 1)], 1)
        with pytest.raises(ValueError, match="^route sign must be an integer, got 1.0$"):
            BandSurface.build([1], ENDS, [((0, 0), (0, 1), 1.0)])


def _mutants(F, rng):
    """(kind, half_twists, attach, route): F's data with one thing changed."""
    twists, attach, route = list(F.half_twists), list(F.attach), list(F.route)
    crossing = [k for k, ev in enumerate(route) if ev.over[0] != ev.under[0]]
    if crossing:
        k = rng.choice(crossing)
        yield "drop a balancing event", twists, attach, route[:k] + route[k + 1 :]
    if route:
        k = rng.randrange(len(route))
        ev = route[k]
        taken = [p for j, e in enumerate(route) if j != k for p in (e.over, e.under)]
        reused = RouteEvent(rng.choice(taken or [ev.under]), ev.under, ev.sign)
        yield "reuse a slot", twists, attach, route[:k] + [reused] + route[k + 1 :]
        k = rng.randrange(len(route))
        ev = RouteEvent(route[k].over, route[k].under, rng.choice((0, 2)))
        yield "sign 0 or 2", twists, attach, route[:k] + [ev] + route[k + 1 :]
    k = rng.randrange(len(attach))
    yield "drop an end", twists, attach[:k] + attach[k + 1 :], route
    k, j = rng.sample(range(len(attach)), 2)
    yield "repeat an end", twists, attach[:k] + [attach[j]] + attach[k + 1 :], route
    i = rng.randrange(len(twists))
    flipped = twists[:i] + [twists[i] + rng.choice((1, -1))] + twists[i + 1 :]
    yield "flip a twist's parity", flipped, attach, route


class TestConstructionMatchesTheReaders:
    def test_building_raises_exactly_when_the_readers_did(self):
        # oracles.surface_problems is the verdict the surface readers gave
        # before the constructor checked: the same error and message, or
        # a surface that builds
        rng = random.Random(26)
        seen: Counter = Counter()
        for k in range(120):
            if k % 3 == 2:
                F = random_normal_form(rng, force_zero_framing=k % 2 == 0)
            else:
                F = random_band_surface(rng, orientable=k % 3 == 1)
            assert problems_of(F) is None
            for kind, twists, attach, route in _mutants(F, rng):
                expected = oracles.surface_problems(twists, attach, route)
                data = tuple(twists), tuple(attach), tuple(route)
                if expected is None:
                    BandSurface(*data)
                    seen[kind, "builds"] += 1
                    continue
                error, message = expected
                with pytest.raises(error) as info:
                    BandSurface(*data)
                assert (type(info.value), str(info.value)) == expected, kind
                seen[kind, error.__name__] += 1
        # every mutation was refused somewhere, and a flipped parity both
        # split the boundary and left it whole
        for kind in ("drop a balancing event", "reuse a slot", "sign 0 or 2",
                     "drop an end", "repeat an end"):
            assert seen[kind, "ValueError"] > 0, kind
        assert seen["reuse a slot", "builds"] == 0
        assert seen["drop a balancing event", "ValueError"] > 20
        assert seen["flip a twist's parity", "MultipleBoundaryError"] > 20
        assert seen["flip a twist's parity", "builds"] > 20


class TestFraming:
    def test_mobius_twist_fixtures(self):
        for h in (-7, -5, -3, -1, 1, 3, 5, 7):
            assert framing(mobius(h)) == 2 * h

    def test_preset_fixtures(self):
        for name, f in (("unknot", 2), ("trefoil", 6), ("figure-eight", 4), ("t25", 10)):
            assert framing(get_preset(name).nonorientable_surface) == f

    def test_orientable_is_zero(self):
        for name in ("trefoil", "figure-eight", "t25"):
            assert framing(get_preset(name).orientable_surface) == 0

    def test_knotted_core_compensation(self):
        # a core with writhe w contributes 4w, so the band must give up 2w
        # half-twists to keep the same boundary framing
        raw = BandSurface.build([1], [(0, "A"), (0, "B")], TREFOIL_CORE)
        assert framing(raw) == 2 + 4 * core_writhe(TREFOIL_CORE)
        assert framing(mobius_band(TREFOIL_CORE, 1)) == 2
        assert framing(mobius_band(TREFOIL_CORE, -3)) == -6

    def test_mirror_core_negates_writhe(self):
        assert core_writhe(TREFOIL_CORE) == 3
        assert core_writhe(mirror_core(TREFOIL_CORE)) == -3
        assert framing(mobius_band(mirror_core(TREFOIL_CORE), 5)) == 10


@functools.cache
def _surfaces_workload():
    return _load("bench_workloads", BENCH / "workloads.py").Surfaces


def surfaces_items(seed):
    """One round of the benchmark's ``surfaces`` inputs: 8-24 bands and
    40-200 route events, orientable and not."""
    workload = _surfaces_workload()
    rng = random.Random(seed)
    return [BandSurface.from_json(workload.make(rng, cls)) for cls in workload.classes]


def compiler_cases():
    """(label, surface, is a normal form) on every kind of surface the
    library reads."""
    rng = random.Random(2025)
    for orientable in (False, True):
        for k in range(40):
            F = random_band_surface(rng, orientable=orientable)
            yield f"random orientable={orientable} {k}", F, False
    for k in range(40):
        F = random_normal_form(rng, force_zero_framing=k % 2 == 0)
        yield f"normal form {k}", F, True
    for p in (-2001, -7, -1, 1, 3, 401):
        core_k, _ = random_core(rng)
        core_j, _ = random_core(rng)
        yield f"klein p={p}", klein_bottle_for_cables(core_k, core_j, p), False
    for k, F in enumerate(surfaces_items(1)):
        yield f"surfaces item {k}", F, False


def _half_form(G, x) -> int:
    q = sum(x[a] * G[a][b] * x[b] for a in range(len(G)) for b in range(len(G)))
    assert q % 2 == 0
    return q // 2


class TestCompile:
    def test_framing_and_self_linking_are_half_the_compiled_gl_pairing(self):
        # the compiled GL form is the reference for both quadratic values:
        # K's class is sum c_i*core_i, J's the sum of the even bands' cores
        for label, F, normal in compiler_cases():
            G = gl_form(F)
            c = oracles.boundary_class(F.half_twists, F.attach)
            assert framing(F) == _half_form(G, c), label
            if normal:
                evens = [1 - h % 2 for h in F.half_twists]
                assert gamma_self_linking(F) == _half_form(G, evens), label

    def test_every_pair_of_components_has_matching_over_counts(self):
        # classical_linking raises unless a over b and b over a agree; this
        # checks that no compile of valid data comes near that guard
        for label, F, _ in compiler_cases():
            n = F.n_bands
            even = [i for i in range(n) if F.half_twists[i] % 2 == 0]
            keys = [("core", i) for i in range(n)] + [("tau", i) for i in range(n)]
            cc = compile_curves(F, keys + [("pushoff", i, s) for i in even for s in (1, -1)])
            assert validate_diagram(cc.diagram) == [], label
            over = Counter(cc.twist_boxes)
            for x in cc.diagram.crossings:
                over[x.over, x.under] += x.sign
            m = cc.diagram.n_components
            assert [
                (a, b) for a in range(m) for b in range(a + 1, m) if over[a, b] != over[b, a]
            ] == [], label

    def test_core_and_tau_give_gl(self):
        F = get_preset("figure-eight").nonorientable_surface
        cc = compile_curves(F, [("core", 0), ("core", 1), ("tau", 0), ("tau", 1)])
        G = gl_form(F)
        assert cc.linking(("core", 0), ("tau", 1)) == G[0][1]
        assert cc.linking(("core", 1), ("tau", 0)) == G[1][0]

    def test_error_contracts(self):
        mob = mobius(1)
        with pytest.raises(ValueError, match="does not close up"):
            compile_curves(mob, [("pushoff", 0, 1)])
        with pytest.raises(ValueError, match="pushoff side"):
            compile_curves(klein_piece(), [("pushoff", 1, 2)])
        with pytest.raises(ValueError, match="duplicate curve request"):
            compile_curves(mob, [("core", 0), ("core", 0)])
        with pytest.raises(ValueError, match="unknown curve request"):
            compile_curves(mob, ["Q"])
        with pytest.raises(ValueError, match="no band"):
            compile_curves(mob, [("core", 3)])

    @pytest.mark.parametrize("key", [("core", True), ("tau", False), ("pushoff", True, 1)])
    def test_boolean_band_index_rejected(self, key):
        # True == 1 names band 1 of the piece, but a boolean is not an index
        with pytest.raises(ValueError, match="no band"):
            compile_curves(klein_piece(), [key])


class TestSeifert:
    def test_preset_matrices(self):
        for name in ("trefoil", "figure-eight", "t25"):
            pk = get_preset(name)
            assert seifert_matrix(pk.orientable_surface) == pk.seifert

    def test_disk_is_empty(self):
        assert seifert_matrix(BandSurface.build([], [])) == ()

    def test_rejects_nonorientable(self):
        with pytest.raises(NotOrientableError, match="surface not orientable"):
            seifert_matrix(mobius(1))


class TestGlForm:
    def test_preset_matrices(self):
        for name in ("unknot", "trefoil", "figure-eight", "t25"):
            pk = get_preset(name)
            assert gl_form(pk.nonorientable_surface) == pk.gl_nonorientable

    def test_orientable_symmetrizes_seifert(self):
        for name in ("trefoil", "figure-eight", "t25"):
            pk = get_preset(name)
            v = pk.seifert
            n = len(v)
            sym = tuple(
                tuple(v[i][j] + v[j][i] for j in range(n)) for i in range(n)
            )
            assert gl_form(pk.orientable_surface) == sym

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_always_symmetric(self, seed):
        F = random_band_surface(random.Random(seed), max_bands=4, max_events=8)
        G = gl_form(F)
        assert all(G[i][j] == G[j][i] for i in range(len(G)) for j in range(len(G)))


class TestAnalyzeSurface:
    """analyze_surface against shape, framing and gl_form called one by one."""

    @staticmethod
    def one_by_one(F):
        return SurfaceAnalysis(shape(F), framing(F), gl_form(F))

    def test_random_band_surfaces(self):
        rng = random.Random(606)
        for orientable in (False, True):
            for _ in range(40):
                F = random_band_surface(rng, orientable=orientable)
                assert analyze_surface(F) == self.one_by_one(F)

    def test_random_normal_forms(self):
        rng = random.Random(607)
        for i in range(40):
            F = random_normal_form(rng, force_zero_framing=(i % 2 == 0))
            assert analyze_surface(F) == self.one_by_one(F)

    def test_klein_bottles_for_cables(self):
        t25 = get_preset("t25").core_route
        for core_k, core_j in (((), ()), (TREFOIL_CORE, ()), (TREFOIL_CORE, t25)):
            for p in (-2001, -7, -1, 1, 3, 401, 2001):
                F = klein_bottle_for_cables(core_k, core_j, p)
                got = analyze_surface(F)
                assert got == self.one_by_one(F)
                assert got.framing == 0 and got.shape.genus == 2

    @pytest.mark.parametrize("data, error, message", BAD_SURFACES)
    def test_bad_surfaces_do_not_build(self, data, error, message):
        # each raised from every surface reader before the constructor
        # checked; now no reader can be handed one
        twists, attach, route = data
        json_data = {
            "bands": [{"half_twists": h} for h in twists],
            "attach": [list(e) for e in attach],
            "route": [{"over": o, "under": u, "sign": s} for o, u, s in route],
        }
        for build in (
            lambda: BandSurface.build(twists, attach, route),
            lambda: BandSurface(
                tuple(twists), tuple(attach), tuple(RouteEvent(*ev) for ev in route)
            ),
            # not wrapped as malformed JSON: the JSON reads, the surface is bad
            lambda: BandSurface.from_json(json_data),
        ):
            with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
                build()
            assert type(info.value) is error
        assert oracles.surface_problems(
            twists, attach, [RouteEvent(*ev) for ev in route]
        ) == (error, message)


class TestGamma:
    def test_framing_is_four_times_self_linking(self):
        F = get_preset("figure-eight").nonorientable_surface
        assert gamma_self_linking(F) == 1
        assert framing(F) == 4

    def test_zero_framed_bottle(self):
        F = klein_piece()
        assert framing(F) == 0
        assert gamma_self_linking(F) == 0

    def test_rejects_non_normal_forms(self):
        with pytest.raises(NormalFormError, match="positive even number"):
            gamma_self_linking(mobius(1))
        with pytest.raises(NormalFormError, match="exactly one odd-twisted band"):
            gamma_self_linking(two_bands(0, 2, True, [((1, 0), (0, 0), 1)]))
        with pytest.raises(NormalFormError, match="must attach bands"):
            gamma_self_linking(
                BandSurface.build(
                    [1, 0],
                    [(0, "A"), (1, "B"), (0, "B"), (1, "A")],
                    [((0, 0), (1, 0), 1)],
                )
            )

    def test_pinned_values(self):
        got = tuple(
            gamma_self_linking(
                random_normal_form(random.Random(s), force_zero_framing=s % 2 == 0)
            )
            for s in range(100)
        )
        assert got == GAMMA_PINNED

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_law_on_random_normal_forms(self, seed, force_zero):
        F = random_normal_form(random.Random(seed), force_zero_framing=force_zero)
        f = framing(F)
        sl = gamma_self_linking(F)
        assert f == 4 * sl
        assert (f == 0) == (sl == 0)


class TestSums:
    def test_connect_sum_adds_framing_and_blocks(self):
        a = get_preset("trefoil").nonorientable_surface
        b = get_preset("figure-eight").nonorientable_surface
        s = boundary_connect_sum(a, b)
        assert problems_of(s) is None
        assert framing(s) == framing(a) + framing(b)
        ga, gb, gs = gl_form(a), gl_form(b), gl_form(s)
        na = len(ga)
        assert all(gs[i][j] == ga[i][j] for i in range(na) for j in range(na))
        assert all(
            gs[na + i][na + j] == gb[i][j]
            for i in range(len(gb))
            for j in range(len(gb))
        )
        assert all(gs[i][na + j] == 0 for i in range(na) for j in range(len(gb)))
        sh = shape(s)
        assert sh.genus == shape(a).genus + shape(b).genus
        assert sh.boundary_components == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_connect_sum_random(self, seed):
        rng = random.Random(seed)
        a = random_band_surface(rng, max_bands=3, max_events=6)
        b = random_band_surface(rng, max_bands=3, max_events=6)
        s = boundary_connect_sum(a, b)
        assert problems_of(s) is None
        assert framing(s) == framing(a) + framing(b)

    def test_zero_framing_stabilize(self):
        F = zero_framing_stabilize(mobius(3))
        assert framing(F) == 0
        assert problems_of(F) is None
        assert shape(F).genus == 1 + 3  # three compensating cross caps
        already = klein_piece()
        assert zero_framing_stabilize(already) == already


class TestSurgery:
    def test_klein_bottle_becomes_disk(self):
        after = surgery_shape(shape(klein_piece()), True)
        assert (after.orientable, after.genus, after.euler) == (True, 0, 1)

    def test_higher_genus(self):
        F = boundary_connect_sum(klein_piece(), klein_piece())
        sh = shape(F)  # nonorientable genus 4
        assert surgery_shape(sh, True).genus == 1
        assert surgery_shape(sh, False).genus == 2

    def test_invalid_surgeries(self):
        with pytest.raises(ValueError, match="invalid surgery"):
            surgery_shape(shape(BandSurface.build([], [])), True)
        with pytest.raises(ValueError, match="invalid surgery"):
            surgery_shape(shape(mobius(1)), True)
        with pytest.raises(ValueError, match="invalid surgery"):
            surgery_shape(shape(mobius(1)), False)


class TestMobiusAndKlein:
    def test_mobius_band_matches_target_framing(self):
        for p in (-5, -3, -1, 1, 3, 5):
            F = mobius_band(TREFOIL_CORE, p)
            assert framing(F) == 2 * p
            assert gl_form(F) == ((p,),)
            assert shape(F).genus == 1 and not shape(F).orientable

    def test_mobius_band_rejects_even(self):
        with pytest.raises(ValueError, match="p must be odd"):
            mobius_band(TREFOIL_CORE, 2)

    @pytest.mark.parametrize("p", [3.0, True, "3", None])
    def test_builders_reject_non_integer_p(self, p):
        # a float or bool p used to be taken as a twist count
        with pytest.raises(ValueError, match="p must be an integer"):
            mobius_band(TREFOIL_CORE, p)
        with pytest.raises(ValueError, match="p must be an integer"):
            klein_bottle_for_cables((), (), p)

    def test_klein_bottle_for_cables(self):
        for p in (-3, -1, 1, 3):
            F = klein_bottle_for_cables(TREFOIL_CORE, (), p)
            assert problems_of(F) is None
            assert framing(F) == 0
            assert gl_form(F) == ((p, 0), (0, -p))
            sh = shape(F)
            assert (sh.orientable, sh.genus, sh.boundary_components) == (False, 2, 1)

    def test_klein_bottle_with_two_knotted_cores(self):
        rng = random.Random(5)
        core_j, _ = random_core(rng)
        F = klein_bottle_for_cables(TREFOIL_CORE, core_j, 5)
        assert framing(F) == 0
        assert gl_form(F) == ((5, 0), (0, -5))


class TestJson:
    def test_round_trip(self):
        for F in (
            mobius(3),
            klein_piece(),
            get_preset("t25").orientable_surface,
            mobius_band(TREFOIL_CORE, 1),
        ):
            assert BandSurface.from_json(F.to_json()) == F

    def test_bands_hold_the_half_twists(self):
        F = klein_piece(h_odd=3, h_even=-2)
        assert F.half_twists == (3, -2)
        assert F.to_json()["bands"] == [{"half_twists": 3}, {"half_twists": -2}]

    def test_compact_attach_form(self):
        data = {
            "bands": [{"half_twists": 1}],
            "attach": [[0, "A"], [0, "B"]],
            "route": [],
        }
        assert BandSurface.from_json(data) == mobius(1)

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed band surface JSON"):
            BandSurface.from_json({"bands": [{"half_twists": 1}]})
        with pytest.raises(ValueError, match="malformed band surface JSON"):
            BandSurface.from_json(
                {"bands": [{}], "attach": [[0, "A"], [0, "B"]], "route": []}
            )

    @pytest.mark.parametrize(
        "attach, route",
        [
            ([["x", 0, "y", "A"], [0, "B"]], []),
            ([[0, "A", 99], [0, "B"]], []),
            ([[0], [0, "B"]], []),
            ([0, [0, "B"]], []),
            ([[0, "A"], [0, "B"]], [{"over": [0, 0, 7], "under": [0, 1], "sign": 1}]),
            ([[0, "A"], [0, "B"]], [{"over": [0, 0], "under": [0], "sign": 1}]),
            ([[0, "A"], [0, "B"]], [{"over": 0, "under": [0, 1], "sign": 1}]),
        ],
        ids=[
            "unkeyed-4", "attach-3", "attach-1", "attach-int",
            "over-3", "under-1", "over-int",
        ],
    )
    def test_malformed_entries_are_not_truncated(self, attach, route):
        # ["x", 0, "y", "A"] and [0, "A", 99] were read as [0, "A"], and
        # a passage [0, 0, 7] as (0, 0)
        data = {"bands": [{"half_twists": 1}], "attach": attach, "route": route}
        with pytest.raises(ValueError, match="malformed band surface JSON"):
            BandSurface.from_json(data)

    def test_core_route_rejects_other_bands(self):
        with pytest.raises(ValueError, match="single band"):
            core_route([RouteEvent((1, 0), (0, 0), 1)])
        assert core_route(TREFOIL_CORE) == TREFOIL_CORE
        assert core_route([(0, 1, -1)]) == (RouteEvent((0, 0), (0, 1), -1),)


class TestGeneratorContracts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_random_surfaces_are_embeddable_data(self, seed, orientable):
        F = random_band_surface(random.Random(seed), orientable=orientable)
        assert problems_of(F) is None
        sh = shape(F)
        assert sh.orientable == orientable
        assert sh.boundary_components == 1
        f = framing(F)
        if orientable:
            assert f == 0
        else:
            assert f % 4 == (2 if sh.genus % 2 else 0)
