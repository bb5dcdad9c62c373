import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from knotbands import algebra, invariants
from knotbands.algebra import LaurentPoly, inertia
from knotbands.battery import random_unimodular
from knotbands.invariants import (
    DEFAULT_SAMPLES,
    Omega,
    alexander,
    alexander_cable2,
    alexander_satellite,
    arf,
    determinant_knot,
    levine_tristram,
    sigma_satellite,
    signature,
    torus2_alexander,
)
from knotbands.presets import get_preset

TREFOIL = get_preset("trefoil").seifert
FIGURE_EIGHT = get_preset("figure-eight").seifert
T25 = get_preset("t25").seifert
UNKNOT = get_preset("unknot").seifert

# every Hermitian evaluation of this matrix is singular: the first
# generator pairs to zero against everything
ALWAYS_SINGULAR = ((0, 0), (0, 1))


def conjugate(v, p):
    n = len(v)
    pv = [[sum(p[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(sum(pv[i][k] * p[j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )


seifert_presets = st.sampled_from([TREFOIL, FIGURE_EIGHT, T25])


class TestOmega:
    def test_constructor_contracts(self):
        with pytest.raises(ValueError, match="omega = 1 is excluded"):
            Omega(Fraction(0))

    @pytest.mark.parametrize("s", [2, 0.5, True, "1/2"])
    def test_rejects_s_that_is_not_a_fraction(self, s):
        # Omega(2).squared() would otherwise compute with an int or float
        with pytest.raises(ValueError, match="s must be a Fraction or None"):
            Omega(s)

    def test_from_s(self):
        assert Omega.from_s(Fraction(1, 2)).s == Fraction(1, 2)
        assert oracles.omega_trig(Fraction(1, 2)) == (Fraction(3, 5), Fraction(4, 5))
        assert Omega.from_s(1) == Omega(Fraction(1))
        assert Omega.from_s("1/10").label() == "s=1/10"
        assert Omega.from_s("0.25") == Omega.from_s("1/4")
        assert Omega.minus_one().s is None
        with pytest.raises(ValueError, match="omega = 1 is excluded"):
            Omega.from_s(0)  # s = 0 lands on the excluded point

    @pytest.mark.parametrize("s", [0.1, 0.5, True, False, None, [1, 2]], ids=repr)
    def test_from_s_rejects_floats_and_bools(self, s):
        # Fraction(0.1) would be 3602879701896397/36028797018963968
        # and Fraction(True) would be 1
        with pytest.raises(ValueError, match="s must be an integer, a Fraction or a string"):
            Omega.from_s(s)

    @pytest.mark.parametrize("s", ["1/0", "0/0", "abc", 0], ids=repr)
    def test_from_s_rejects_malformed_s_with_value_error(self, s):
        # a zero denominator is a ValueError like any other bad s, not a
        # ZeroDivisionError
        with pytest.raises(ValueError) as got:
            Omega.from_s(s)
        assert type(got.value) is ValueError
        if "/0" in str(s):
            assert str(got.value) == f"s must be a rational number, got {s!r}"

    @pytest.mark.parametrize("s", ["1e4000", "1E3", "2.5e-1", "1e200000"], ids=repr)
    def test_from_s_rejects_exponent_notation(self, s):
        # the exponent would make s far larger than the string that names it
        with pytest.raises(ValueError) as got:
            Omega.from_s(s)
        assert str(got.value) == f"s must be written without an exponent, got {s!r}"

    def test_squared(self):
        assert Omega.minus_one().squared() is None
        assert Omega.from_s(1).squared() == Omega.minus_one()
        assert Omega.from_s(-1).squared() == Omega.minus_one()
        # (3/5 + 4/5 i)^2 = -7/25 + 24/25 i, whose s is 24/25 / (1 - 7/25)
        w = Omega.from_s(Fraction(1, 2))
        assert w.squared() == Omega(Fraction(4, 3))
        assert oracles.omega_trig(Fraction(4, 3)) == (Fraction(-7, 25), Fraction(24, 25))

    def test_labels(self):
        assert Omega.minus_one().label() == "omega=-1"
        assert Omega.from_s(Fraction(2, 3)).label() == "s=2/3"

    def test_json_round_trip(self):
        for w in DEFAULT_SAMPLES:
            assert Omega.from_json(w.to_json()) == w
        assert Omega.from_json({"omega": -1}) == Omega.minus_one()
        assert Omega.from_json({"s": "1/2"}) == Omega.from_s(Fraction(1, 2))
        assert Omega.from_json({"s": -2}) == Omega(Fraction(-2))

    def test_unknown_key_names_the_expected_keys(self):
        message = 'sample point has an unknown key \'x\'; expected "omega" and "s"'
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Omega.from_json({"s": "1/2", "x": 0})

    def test_json_errors(self):
        for data, message in [
            ({"omega": 2}, "only omega = -1"),
            ({"omega": -1.0}, "only omega = -1"),
            ({"omega": True}, "only omega = -1"),
            ({}, "'omega' or 's'"),
            # a misspelt or extra key is not ignored
            ({"s": "1/2", "x": 0}, "unknown key 'x'"),
            ({"S": "1/2"}, "unknown key 'S'"),
            ({"s": "1/0"}, "s must be a rational number"),
            ({"s": "abc"}, "Invalid literal"),
            # 0.5 is not s = 1/2, and true is not the string "True"
            ({"s": 0.5}, r"s must be a JSON integer or a string, got 0\.5"),
            ({"s": True}, "s must be a JSON integer or a string, got True"),
            ({"s": None}, "s must be a JSON integer or a string, got None"),
            ({"s": [1, 2]}, "s must be a JSON integer or a string"),
            ([1], "must be a JSON object"),
            (1, "must be a JSON object"),
        ]:
            with pytest.raises(ValueError, match=message):
                Omega.from_json(data)

    def test_default_samples(self):
        assert [w.label() for w in DEFAULT_SAMPLES] == [
            "omega=-1", "s=1/2", "s=1/3", "s=2/3", "s=1/5", "s=3/5",
        ]

    @settings(max_examples=50)
    @given(
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50)).filter(
            lambda s: s != 0
        )
    )
    def test_from_s_parametrization(self, s):
        w = Omega.from_s(s)
        cos, sin = oracles.omega_trig(w.s)
        assert cos ** 2 + sin ** 2 == 1
        assert sin / (1 + cos) == s
        assert Omega.from_json(w.to_json()) == w


class TestAlexander:
    def test_fixtures(self):
        assert str(alexander(UNKNOT)) == "1"
        assert str(alexander(TREFOIL)) == "t^-1 - 1 + t"
        assert str(alexander(FIGURE_EIGHT)) == "-t^-1 + 3 - t"
        assert str(alexander(T25)) == "t^-2 - t^-1 + 1 - t + t^2"

    def test_normalization_properties(self):
        for v in (TREFOIL, FIGURE_EIGHT, T25):
            d = alexander(v)
            assert d.evaluate_int(1) == 1
            assert d == d.substitute(-1)  # t <-> 1/t symmetry

    def test_degenerate_presentations(self):
        with pytest.raises(ValueError, match="zero Alexander determinant"):
            alexander(ALWAYS_SINGULAR)
        with pytest.raises(ValueError, match="value 0 at t=1"):
            alexander(((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="support cannot be centered"):
            alexander(((1,),))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="matrix must be square"):
            alexander(((1, 0),))

    @settings(max_examples=40, deadline=None)
    @given(seifert_presets, st.integers(0, 10 ** 6))
    def test_congruence_invariance(self, v, seed):
        p = random_unimodular(random.Random(seed), len(v))
        assert alexander(conjugate(v, p)) == alexander(v)


class TestSignature:
    def test_fixtures(self):
        assert signature(UNKNOT) == 0
        assert signature(TREFOIL) == -2
        assert signature(FIGURE_EIGHT) == 0
        assert signature(T25) == -4

    def test_mirror_negates(self):
        for v in (TREFOIL, T25):
            mirrored = tuple(tuple(-x for x in row) for row in v)
            assert signature(mirrored) == -signature(v)

    @settings(max_examples=40, deadline=None)
    @given(seifert_presets, st.integers(0, 10 ** 6))
    def test_congruence_invariance(self, v, seed):
        p = random_unimodular(random.Random(seed), len(v))
        assert signature(conjugate(v, p)) == signature(v)


class TestLevineTristram:
    def test_trefoil_table(self):
        expected = {
            "omega=-1": -2,
            "s=1/2": 0,
            "s=1/3": 0,
            "s=2/3": -2,
            "s=1/5": 0,
            "s=3/5": -2,
        }
        for w in DEFAULT_SAMPLES:
            sample = levine_tristram(TREFOIL, w)
            assert not sample.singular
            assert sample.value == expected[w.label()]

    def test_minus_one_matches_ordinary_signature(self):
        for v in (UNKNOT, TREFOIL, FIGURE_EIGHT, T25):
            assert levine_tristram(v, Omega.minus_one()).value == signature(v)

    def test_singular_detection(self):
        for w in DEFAULT_SAMPLES:
            sample = levine_tristram(ALWAYS_SINGULAR, w)
            assert sample.singular and sample.value is None

    def test_empty_matrix(self):
        sample = levine_tristram(UNKNOT, Omega.from_s(Fraction(1, 7)))
        assert (sample.value, sample.singular) == (0, False)

    def test_inertia_gets_an_integer_matrix(self, monkeypatch):
        seen = []

        def spy(rows):
            seen.append(rows)
            return inertia(rows)

        monkeypatch.setattr(invariants, "inertia", spy)
        for w in DEFAULT_SAMPLES + (Omega(Fraction(-7, 3)),):
            levine_tristram(TREFOIL, w)
        assert len(seen) == 7
        assert all(type(x) is int for rows in seen for row in rows for x in row)

    @settings(max_examples=30, deadline=None)
    @given(seifert_presets, st.integers(0, 10 ** 6), st.sampled_from(DEFAULT_SAMPLES))
    def test_congruence_invariance(self, v, seed, w):
        p = random_unimodular(random.Random(seed), len(v))
        assert levine_tristram(conjugate(v, p), w).value == levine_tristram(v, w).value


class TestTorusAndCables:
    def test_torus2_fixtures(self):
        assert str(torus2_alexander(1)) == "1"
        assert str(torus2_alexander(3)) == "t^-1 - 1 + t"
        assert str(torus2_alexander(5)) == "t^-2 - t^-1 + 1 - t + t^2"
        assert str(torus2_alexander(7)) == (
            "t^-3 - t^-2 + t^-1 - 1 + t - t^2 + t^3"
        )
        assert torus2_alexander(-3) == torus2_alexander(3)

    def test_torus2_rejects_even(self):
        with pytest.raises(ValueError, match="p must be odd"):
            torus2_alexander(4)

    @pytest.mark.parametrize("p", [True, 3.0])
    def test_torus2_rejects_non_integers(self, p):
        # True was p = 1, and 3.0 raised TypeError
        with pytest.raises(ValueError, match="p must be an integer"):
            torus2_alexander(p)

    def test_cable_fixtures(self):
        d = alexander(TREFOIL)
        assert str(alexander_cable2(d, 1)) == "t^-2 - 1 + t^2"
        assert str(alexander_cable2(d, -1)) == "t^-2 - 1 + t^2"
        assert str(alexander_cable2(d, 3)) == "t^-3 - t^-2 + 1 - t^2 + t^3"

    def test_cable_checks_p_first(self):
        # p is read before the companion's polynomial is touched
        with pytest.raises(ValueError, match="p must be odd"):
            alexander_cable2(None, 4)

    def test_satellite_fixtures(self):
        d_tref = alexander(TREFOIL)
        d_fig8 = alexander(FIGURE_EIGHT)
        assert str(alexander_satellite(d_fig8, d_tref)) == (
            "-t^-3 + 3t^-2 - 3 + 3t^2 - t^3"
        )
        assert alexander_satellite(LaurentPoly.one(), d_tref) == d_tref.substitute(2)

    def test_sigma_satellite_pointwise(self):
        expected = {
            "omega=-1": None,
            "s=1/2": -2,
            "s=1/3": -2,
            "s=2/3": -4,
            "s=1/5": 0,
            "s=3/5": -4,
        }
        for w in DEFAULT_SAMPLES:
            sample = sigma_satellite(TREFOIL, TREFOIL, w)
            assert sample.omega == w
            assert sample.value == expected[w.label()]

    def test_sigma_satellite_checks_matrices_when_skipping(self):
        # omega = -1 squares to 1 and is skipped, yet a malformed matrix
        # on either side is still rejected
        with pytest.raises(ValueError, match="matrix must be square"):
            sigma_satellite(((1, 0),), TREFOIL, Omega.minus_one())
        with pytest.raises(ValueError, match="must be integers"):
            sigma_satellite(TREFOIL, ((1.0,),), Omega.minus_one())


class TestDeterminantAndArf:
    def test_determinant_fixtures(self):
        assert determinant_knot(seifert=UNKNOT) == 1
        assert determinant_knot(seifert=TREFOIL) == 3
        assert determinant_knot(seifert=FIGURE_EIGHT) == 5
        assert determinant_knot(seifert=T25) == 5

    def test_arf_fixtures(self):
        assert arf(UNKNOT) == 0
        assert arf(TREFOIL) == 1
        assert arf(FIGURE_EIGHT) == 1
        assert arf(T25) == 1

    def test_arf_from_polynomial(self):
        assert arf(torus2_alexander(7)) == 0
        assert arf(alexander(TREFOIL)) == 1

    @settings(max_examples=40, deadline=None)
    @given(seifert_presets, st.integers(0, 10 ** 6))
    def test_det_and_arf_congruence_invariant(self, v, seed):
        p = random_unimodular(random.Random(seed), len(v))
        w = conjugate(v, p)
        assert determinant_knot(seifert=w) == determinant_knot(seifert=v)
        assert arf(w) == arf(v)

    def test_degenerate_seifert_matrices_keep_alexanders_error(self):
        # |det(V - V^T)| != 1 hands over to alexander, whose text is kept
        cases = [
            (((0, 0), (0, 0)), "zero Alexander determinant"),
            (((1, 0), (0, 1)), "value 0 at t=1"),
            (((2,),), "support cannot be centered"),
            (((0, 2), (0, 0)), "value 4 at t=1"),
        ]
        for v, text in cases:
            for call in (lambda: determinant_knot(seifert=v), lambda: arf(v)):
                with pytest.raises(ValueError, match=text):
                    call()
        with pytest.raises(ValueError, match="must be integers"):
            determinant_knot(seifert=((1.0,),))
        with pytest.raises(ValueError, match="matrix must be square"):
            arf(((1, 0),))

    def test_no_alexander_polynomial_is_built(self, monkeypatch):
        # the knot determinant and the Arf invariant are two integer
        # determinants each, det(V - V^T) and det(V + V^T); alexander or
        # det_pencil here would be the redundant Delta coming back
        def refuse(*args):
            raise AssertionError("Delta built")

        calls = []

        def counted(rows):
            calls.append(rows)
            return algebra.det_int(rows)

        monkeypatch.setattr(invariants, "alexander", refuse)
        monkeypatch.setattr(invariants, "det_int", counted)
        monkeypatch.setattr(algebra, "det_pencil", refuse)
        v = oracles.seifert_from_braid(oracles.T35_WORD)
        assert determinant_knot(seifert=v) == 1
        assert arf(v) == 0
        assert determinant_knot(seifert=FIGURE_EIGHT) == 5
        assert arf(TREFOIL) == 1
        assert len(calls) == 8
        assert algebra.det_int([[2, 1], [1, 2]]) == 3
        # a degenerate V still hands over to alexander for its error text
        with pytest.raises(AssertionError, match="Delta built"):
            arf(((1, 0), (0, 1)))


def _workload_braid_word(rng: random.Random, rank: int) -> list[int]:
    """A braid word whose closure is a knot with a rank-`rank` Seifert
    matrix, drawn as the seifert benchmark workload draws them: s strands,
    rank + s - 1 letters, every generator used."""
    while True:
        s = rng.randint(2, 5)
        word = [rng.randint(1, s - 1) * rng.choice((1, -1)) for _ in range(rank + s - 1)]
        if {abs(c) for c in word} == set(range(1, s)) and oracles.braid_closure_components(word) == 1:
            return word


def _outcome(f, v):
    """f(v), or the type and text of the exception it raised."""
    try:
        return f(v)
    except Exception as e:
        return type(e), str(e)


def _pencil(v, x: int) -> list[list[int]]:
    n = len(v)
    return [[v[i][j] - x * v[j][i] for j in range(n)] for i in range(n)]


class TestAlexanderFromNodes:
    """alexander reads Delta off g + 1 values of the palindromic
    det(V - x V^T) at x = 1, -1, 2, -2, ...; these pin it against
    Bareiss elimination over Z[t] (oracles.alexander_laurent)."""

    def test_agrees_with_laurent_bareiss_on_workload_braids(self):
        rng = random.Random(29)
        for rank in range(2, 21, 2):
            for _ in range(3):
                v = oracles.seifert_from_braid(_workload_braid_word(rng, rank))
                assert len(v) == rank
                assert alexander(v) == oracles.alexander_laurent(v), v

    @pytest.mark.parametrize("name", ["unknot", "trefoil", "figure-eight", "t25"])
    def test_agrees_with_laurent_bareiss_on_congruent_presets(self, name):
        v = get_preset(name).seifert
        rng = random.Random(name)
        for _ in range(10):
            w = conjugate(v, random_unimodular(rng, len(v)))
            assert alexander(w) == oracles.alexander_laurent(w) == alexander(v)

    @pytest.mark.parametrize(
        "v",
        [
            ALWAYS_SINGULAR,
            ((1, 0), (0, 1)),
            ((0, 0), (0, 0)),
            ((0, 2), (0, 0)),
            ((1,),),
            ((0,),),
            ((1, 1, 0), (0, 1, 0), (0, 0, 2)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
            # P(1) = 0 but P is not zero: the value error, not the zero one
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            ((0, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
        ],
    )
    def test_degenerate_v_raises_the_oracles_error(self, v):
        with pytest.raises(ValueError) as got:
            alexander(v)
        with pytest.raises(ValueError) as want:
            oracles.alexander_laurent(v)
        assert type(got.value) is type(want.value) is ValueError
        assert str(got.value) == str(want.value)

    def test_degenerate_sweep_matches_the_oracle(self):
        # small dense V of every size 0-7 reach all three degenerate
        # texts, "value 0 at t=1" (P(1) = 0 with P != 0) among them
        rng = random.Random(30)
        seen = set()
        for _ in range(1000):
            n, k = rng.randint(0, 7), rng.randint(1, 3)
            v = [[rng.randint(-k, k) for _ in range(n)] for _ in range(n)]
            got = _outcome(alexander, v)
            assert got == _outcome(oracles.alexander_laurent, v), v
            seen.add(got[1] if isinstance(got, tuple) else "valid")
        assert {
            "valid",
            "degenerate presentation: zero Alexander determinant",
            "degenerate presentation: support cannot be centered",
            "degenerate presentation: value 0 at t=1",
        } <= seen
        assert all(t == "valid" or t.startswith("degenerate presentation: ") for t in seen)

    def test_g_plus_one_determinants_and_none_at_zero(self, monkeypatch):
        seen = []

        def counted(rows):
            seen.append(rows)
            return algebra.det_int(rows)

        pencils = []

        def handed(a, b):
            pencils.append((a, b))
            return algebra.det_pencil(a, b)

        monkeypatch.setattr(invariants, "det_int", counted)
        monkeypatch.setattr(invariants, "det_pencil", handed)
        rng = random.Random(7)
        for rank in (0, 2, 4, 10, 20):
            v = oracles.seifert_from_braid(_workload_braid_word(rng, rank)) if rank else []
            seen.clear()
            alexander(v)
            nodes = [1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6][: rank // 2 + 1]
            assert seen == [_pencil(v, x) for x in nodes]
        assert pencils == []
        # odd n: P(1) = 0 always, so after P(1) the whole pencil goes to
        # det_pencil, and _normalize_alexander picks the error
        for v, text in (
            ([[0] * 5 for _ in range(5)], "zero Alexander determinant"),
            ([[1, 1, 0], [0, 1, 0], [0, 0, 2]], "support cannot be centered"),
        ):
            seen.clear()
            pencils.clear()
            with pytest.raises(ValueError, match=text):
                alexander(v)
            assert seen == [_pencil(v, 1)]
            assert pencils == [(tuple(map(tuple, v)), [[-x for x in col] for col in zip(*v)])]

    def test_solver_inverts_the_node_matrix(self):
        for g in range(13):
            R, c = invariants._palindromic_solver(g)
            nodes = [(k // 2 + 1) * (-1) ** k for k in range(g + 1)]
            m = [[x**j + x ** (2 * g - j) for j in range(g)] + [x**g] for x in nodes]
            assert c != 0
            assert [
                [sum(R[i][k] * m[k][j] for k in range(g + 1)) for j in range(g + 1)]
                for i in range(g + 1)
            ] == [[c * (i == j) for j in range(g + 1)] for i in range(g + 1)]
