"""Cross-checks against an independent Seifert-matrix construction.

The library computes everything from band data; the oracle builds
matrices straight from braid words with its own crossing bookkeeping.
Agreement on knots whose invariants are classical tables, plus a 2-cable
consistency round trip, pins both sides at once.
"""

import ast
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from knotbands.algebra import det_int, det_pencil
from knotbands.bandform import seifert_matrix
from knotbands.battery import random_band_surface
from knotbands.invariants import (
    DEFAULT_SAMPLES,
    Omega,
    alexander,
    alexander_cable2,
    arf,
    determinant_knot,
    levine_tristram,
    signature,
)

# name, braid word, Alexander polynomial, signature, determinant, arf
CALIBRATION = [
    ("right trefoil", oracles.RIGHT_TREFOIL_WORD, "t^-1 - 1 + t", -2, 3, 1),
    ("left trefoil", oracles.LEFT_TREFOIL_WORD, "t^-1 - 1 + t", 2, 3, 1),
    ("figure eight", oracles.FIGURE_EIGHT_WORD, "-t^-1 + 3 - t", 0, 5, 1),
    ("(2,5) torus", oracles.T25_WORD, "t^-2 - t^-1 + 1 - t + t^2", -4, 5, 1),
    (
        "(2,7) torus",
        oracles.T27_WORD,
        "t^-3 - t^-2 + t^-1 - 1 + t - t^2 + t^3",
        -6,
        7,
        0,
    ),
    ("granny", oracles.GRANNY_WORD, "t^-2 - 2t^-1 + 3 - 2t + t^2", -4, 9, 0),
    ("square", oracles.SQUARE_KNOT_WORD, "t^-2 - 2t^-1 + 3 - 2t + t^2", 0, 9, 0),
    ("(3,4) torus", oracles.T34_WORD, "t^-3 - t^-2 + 1 - t^2 + t^3", -6, 3, 1),
    (
        "(3,5) torus",
        oracles.T35_WORD,
        "t^-4 - t^-3 + t^-1 - 1 + t - t^3 + t^4",
        -8,
        1,
        0,
    ),
]


class TestCalibration:
    @pytest.mark.parametrize(
        "name,word,delta,sig,det,arf_bit",
        CALIBRATION,
        ids=[row[0] for row in CALIBRATION],
    )
    def test_classical_values(self, name, word, delta, sig, det, arf_bit):
        v = oracles.seifert_from_braid(word)
        assert str(alexander(v)) == delta
        assert signature(v) == sig
        assert determinant_knot(seifert=v) == det
        assert arf(v) == arf_bit
        assert oracles.arf_symplectic(v) == arf_bit

    def test_rank_matches_genus(self):
        # rank = crossings - strands + 1 for a knotted braid closure
        assert len(oracles.seifert_from_braid(oracles.RIGHT_TREFOIL_WORD)) == 2
        assert len(oracles.seifert_from_braid(oracles.T34_WORD)) == 6
        assert oracles.seifert_from_braid((1,)) == []  # unknot, empty form

    def test_mirror_pair(self):
        right = oracles.seifert_from_braid(oracles.RIGHT_TREFOIL_WORD)
        left = oracles.seifert_from_braid(oracles.LEFT_TREFOIL_WORD)
        assert signature(right) == -signature(left)
        assert alexander(right) == alexander(left)


class TestInputContracts:
    def test_rejects_links(self):
        assert oracles.braid_closure_components((1, 1)) == 2
        with pytest.raises(ValueError, match="closure is a link, not a knot"):
            oracles.seifert_from_braid((1, 1))

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError, match="non-empty"):
            oracles.seifert_from_braid(())
        with pytest.raises(ValueError, match="nonzero"):
            oracles.seifert_from_braid((1, 0, 1))

    def test_skipped_column_splits_the_closure(self):
        # a column nobody crosses separates the strands
        with pytest.raises(ValueError, match="closure is a link"):
            oracles.seifert_from_braid((2, 2, 2))

    def test_closure_component_counts(self):
        assert oracles.braid_closure_components((1,)) == 1
        assert oracles.braid_closure_components((1, 2)) == 1
        assert oracles.braid_closure_components((1, 1, 2)) == 2


class TestCableRoundTrip:
    def test_cable_word_realizes_the_formula(self):
        v_cable = oracles.seifert_from_braid(oracles.CABLE21_TREFOIL_WORD)
        assert len(v_cable) == 14
        v_tref = oracles.seifert_from_braid(oracles.RIGHT_TREFOIL_WORD)
        d_cable = alexander(v_cable)
        assert str(d_cable) == "t^-2 - 1 + t^2"
        assert d_cable == alexander_cable2(alexander(v_tref), 1)
        assert signature(v_cable) == 0
        assert determinant_knot(seifert=v_cable) == 1
        assert arf(v_cable) == 0
        assert oracles.arf_symplectic(v_cable) == 0

    def test_cable_signature_is_companion_signature_at_omega_squared(self):
        # sigma_{K_(2,1)}(omega) = sigma_K(omega^2) wherever omega^2 != 1
        v_cable = oracles.seifert_from_braid(oracles.CABLE21_TREFOIL_WORD)
        v_tref = oracles.seifert_from_braid(oracles.RIGHT_TREFOIL_WORD)
        compared = []
        for omega in DEFAULT_SAMPLES:
            squared = omega.squared()
            if squared is None:  # omega = -1: the law says nothing there
                continue
            a = levine_tristram(v_cable, omega)
            b = levine_tristram(v_tref, squared)
            assert not a.singular and not b.singular
            assert a.value == b.value, omega.label()
            compared.append(omega.label())
        assert compared == [o.label() for o in DEFAULT_SAMPLES[1:]]
        assert DEFAULT_SAMPLES[0] == Omega.minus_one()


class TestArfOracle:
    def test_contracts(self):
        with pytest.raises(ValueError, match="even rank"):
            oracles.arf_symplectic(((1,),))
        with pytest.raises(ValueError, match="degenerate"):
            oracles.arf_symplectic(((0, 0), (0, 1)))

    def test_agrees_with_determinant_rule_on_random_surfaces(self):
        hits = 0
        for seed in range(60):
            f = random_band_surface(
                random.Random(seed), max_bands=4, max_events=8, orientable=True
            )
            v = seifert_matrix(f)
            if not v:
                continue
            hits += 1
            assert oracles.arf_symplectic(v) == arf(v)
        assert hits >= 30  # the sweep must actually exercise the oracle


def _random_knot_word(rng: random.Random) -> list[int]:
    """A braid word on 2-4 strands whose closure is a knot and whose
    Seifert matrix has rank at most 4."""
    while True:
        n = rng.randint(2, 4)
        length = rng.randint(n, n + 3)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
        if sorted({abs(c) for c in word}) == list(range(1, n)) and (
            oracles.braid_closure_components(word) == 1
        ):
            return word


def _knot_word_of_rank(rng: random.Random, rank: int) -> list[int]:
    """A braid word on 2-5 strands whose closure is a knot with a Seifert
    matrix of the given rank (word length minus strands plus one)."""
    while True:
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rank + n - 1)]
        if sorted({abs(c) for c in word}) == list(range(1, n)) and (
            oracles.braid_closure_components(word) == 1
        ):
            return word


def _random_matrix(rng: random.Random) -> list[list[int]]:
    """A random 1-4 square integer matrix; every third one has a zero
    first row and column, so every Hermitian form of it is singular."""
    n = rng.randint(1, 4)
    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    if rng.random() < 1 / 3:
        for k in range(n):
            m[0][k] = m[k][0] = 0
    return m


def _random_s(rng: random.Random) -> Fraction:
    return rng.choice((1, -1)) * Fraction(rng.randint(1, 12), rng.randint(1, 12))


class TestLevineTristramOracle:
    """The integer-block Levine-Tristram signature against the rational
    cos/sin realification it replaced."""

    def test_agrees_on_braid_and_random_matrices(self):
        rng = random.Random(0)
        matrices = [oracles.seifert_from_braid(_random_knot_word(rng)) for _ in range(150)]
        matrices += [_random_matrix(rng) for _ in range(162)]
        compared = singular = 0
        for v in matrices:
            points = list(DEFAULT_SAMPLES) + [Omega(Fraction(1)), Omega(Fraction(-1))]
            points += [Omega(_random_s(rng)) for _ in range(6)]
            for w in points:
                got = levine_tristram(v, w)
                want = oracles.levine_tristram_trig(v, *oracles.omega_trig(w.s))
                assert (got.value, got.singular) == (want, want is None), (v, w)
                compared += 1
                singular += got.singular
        assert compared >= 300 * 14
        assert singular > 0

    def test_agrees_on_high_rank_braid_matrices(self):
        # the ranks the seifert benchmark runs, where the elimination order
        # of the realification decides how large the fractions grow
        rng = random.Random(17)
        points = list(DEFAULT_SAMPLES) + [Omega(Fraction(1)), Omega(Fraction(-1))]
        for rank in (6, 6, 8, 8, 10, 10, 12, 12, 14, 14, 16, 20):
            v = oracles.seifert_from_braid(_knot_word_of_rank(rng, rank))
            assert len(v) == rank
            for w in points:
                got = levine_tristram(v, w)
                want = oracles.levine_tristram_trig(v, *oracles.omega_trig(w.s))
                assert (got.value, got.singular) == (want, False), (v, w)

    def test_singular_symmetrization_at_minus_one(self):
        # V = B^T D B + K with B of k < n rows, D = diag(+-1) and K
        # skew-symmetric has V + V^T = 2 B^T D B of rank at most k
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 8)
            k = rng.randint(0, n - 1)
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            d = [rng.choice((1, -1)) for _ in range(k)]
            v = [
                [sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(n)]
                for i in range(n)
            ]
            for i in range(n):
                for j in range(i + 1, n):
                    x = rng.randint(-3, 3)
                    v[i][j] += x
                    v[j][i] -= x
            got = levine_tristram(v, Omega.minus_one())
            assert oracles.levine_tristram_trig(v, *oracles.omega_trig(None)) is None
            assert got.singular and got.value is None, v

    @settings(max_examples=100)
    @given(
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50)).filter(
            lambda s: s != 0
        )
    )
    def test_squared_is_the_double_angle(self, s):
        cos, sin = oracles.omega_trig(s)
        squared = Omega(s).squared()
        assert oracles.omega_trig(squared.s) == (cos * cos - sin * sin, 2 * cos * sin)


def _random_braid_seifert(rng: random.Random, max_rank: int = 8) -> list[list[int]]:
    """Seifert matrix of a random knotted braid closure on 2-5 strands,
    of rank at most max_rank."""
    while True:
        n = rng.randint(2, 5)
        word = [
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(n, n + max_rank - 1))
        ]
        if sorted({abs(c) for c in word}) == list(range(1, n)) and (
            oracles.braid_closure_components(word) == 1
        ):
            return oracles.seifert_from_braid(word)


def _symmetric(rng: random.Random, n: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-2, 2)
    return m


def _random_square(rng: random.Random, n: int) -> list[list[int]]:
    """A random n x n integer matrix of one of several shapes, most of
    them singular or degenerate as a Seifert matrix."""
    kind = rng.randrange(7)
    if kind == 0:  # dense
        return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    if kind == 1:  # sparse, often singular
        return [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
    if kind == 2:  # rank below n
        r = rng.randint(0, max(n - 1, 0))
        a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        return [
            [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
            for i in range(n)
        ]
    if kind == 3:  # V - V^T = 0
        return _symmetric(rng, n)
    # symmetric plus c times the standard symplectic upper half, so that
    # |det(V - V^T)| = c^(n/2): a Seifert matrix for c = 1 and even n;
    # then n random elementary congruences V -> E V E^T hide the blocks
    c = 1 if kind < 6 else rng.choice((2, 3))
    m = _symmetric(rng, n)
    for i in range(0, n - 1, 2):
        m[i][i + 1] += c
    for _ in range(n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        e = rng.choice((1, -1))
        m[i] = [x + e * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[i] += e * row[j]
    return m


# the three degenerate-presentation errors of alexander
DEGENERATE = ("zero Alexander determinant", "cannot be centered", "at t=1")


def _outcome(f, *args):
    """f's value, or the text of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def _value(c, x: int) -> int:
    """A Z[t] coefficient tuple at t = x, by Horner's rule."""
    total = 0
    for v in reversed(c):
        total = total * x + v
    return total


zts = st.lists(st.integers(-6, 6), max_size=5).map(oracles.zt)


class TestPolynomialArithmetic:
    """The references' own Z[t] arithmetic, which the library does not
    share: ring laws, and every operation read at integer points."""

    @settings(max_examples=60)
    @given(zts, zts, zts)
    def test_ring_laws(self, a, b, c):
        add, mul, sub = oracles.zt_add, oracles.zt_mul, oracles.zt_sub
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert add(a, ()) == a
        assert mul(a, (1,)) == a
        assert sub(a, a) == ()

    @settings(max_examples=60)
    @given(zts, zts, st.integers(-3, 3))
    def test_values_and_exact_division(self, a, b, x):
        assert _value(oracles.zt_add(a, b), x) == _value(a, x) + _value(b, x)
        assert _value(oracles.zt_sub(a, b), x) == _value(a, x) - _value(b, x)
        assert _value(oracles.zt_mul(a, b), x) == _value(a, x) * _value(b, x)
        if b:
            assert oracles.zt_div_exact(oracles.zt_mul(a, b), b) == a
            if len(b) > 1:  # b is not a unit times a constant
                with pytest.raises(ValueError, match="inexact"):
                    oracles.zt_div_exact(oracles.zt_add(oracles.zt_mul(a, b), (1,)), b)

    def test_trims_and_checks_coefficients(self):
        assert oracles.zt([1, 2, 0, 0]) == (1, 2) and oracles.zt(0) == ()
        with pytest.raises(ValueError, match="must be integers"):
            oracles.zt([1, True])
        assert oracles.laurent((1, -1, 1), -1) == alexander(((-1, 1), (0, -1)))


def test_oracles_import_no_private_library_name():
    """The references may use the library's public values, never its
    internals, so that they share no private code with what they check."""
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("knotbands"):
            parts = node.module.split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for a in node.names if a.name.startswith("knotbands") for p in a.name.split(".")]
        else:
            continue
        private += [p for p in parts if p.startswith("_")]
    assert private == []


class TestIntegerDeterminantOracle:
    """det_int, determinant_knot and arf on a Seifert matrix against the
    polynomial route through oracles.det_laurent and
    oracles.alexander_laurent, on the oracles' own Z[t]."""

    def test_agrees_on_braid_and_random_matrices(self):
        rng = random.Random(11)
        matrices = [_random_braid_seifert(rng) for _ in range(700)]
        # sizes 0-8, smaller ones more often: n is the least of two draws
        sizes = [min(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(1400)]
        matrices += [_random_square(rng, n) for n in sizes]
        cofactor = valid = 0
        errors = set()
        for m in matrices:
            d = det_int(m)
            assert d == oracles.det_int_laurent(m), m
            if len(m) <= 5:
                assert oracles.det_cofactor(m) == d, m
                cofactor += 1
            want = _outcome(oracles.determinant_via_alexander, m)
            assert _outcome(determinant_knot, m) == want, m
            # the Arf rule on the polynomial route's |Delta(-1)|, or its error
            if isinstance(want, int):
                want = 0 if want % 8 in (1, 7) else 1
                valid += 1
            else:
                errors.add(want)
            assert _outcome(arf, m) == want, m
        assert len(matrices) >= 2000 and cofactor >= 1000
        # both outcomes are exercised, and every degenerate-presentation error
        assert valid >= 900
        assert all(any(k in e for e in errors) for k in DEGENERATE), errors


class TestAlexanderOracle:
    """alexander and det_pencil against Bareiss elimination
    over Z[t] (oracles.det_laurent), which shares no code with det_int,
    and against cofactor expansion."""

    def test_alexander_agrees_on_braid_and_random_matrices(self):
        rng = random.Random(15)
        # a third of them up to rank 20, the rest up to rank 8: the Z[t]
        # Bareiss oracle takes about 13 ms at rank 18-20, 1 ms at 6-8
        matrices = [
            _random_braid_seifert(rng, max_rank=rng.choice((8, 8, 20)))
            for _ in range(700)
        ]
        # sizes 0-8, smaller ones more often: n is the least of two draws
        sizes = [min(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(1000)]
        matrices += [_random_square(rng, n) for n in sizes]
        valid = large = 0
        errors = set()
        for m in matrices:
            want = _outcome(oracles.alexander_laurent, m)
            assert _outcome(alexander, m) == want, m
            if isinstance(want, str):
                errors.add(want)
            else:
                valid += 1
            large += len(m) >= 14
        assert valid >= 900 and large >= 80
        assert all(any(k in e for e in errors) for k in DEGENERATE), errors

    def test_det_pencil_agrees_with_cofactor_and_laurent_bareiss(self):
        rng = random.Random(16)
        cofactor = 0
        for _ in range(400):
            n = rng.randint(0, 10)
            a, b = _random_square(rng, n), _random_square(rng, n)
            pencil = oracles.pencil(a, b)
            got = det_pencil(a, b)
            assert got == oracles.det_laurent(pencil), (a, b)
            if n <= 5:
                assert got == oracles.det_cofactor_zt(pencil), (a, b)
                cofactor += 1
        assert cofactor >= 200


def _random_symmetric(rng: random.Random, n: int) -> list:
    """A random n x n symmetric integer matrix of one of five shapes."""
    kind = rng.randrange(5)
    if kind == 3:  # low rank: a sum of r terms +-v v^T
        m = [[0] * n for _ in range(n)]
        for _ in range(rng.randint(1, max(n // 2, 1))):
            v = [rng.randint(-2, 2) for _ in range(n)]
            e = rng.choice((1, -1))
            for i in range(n):
                for j in range(n):
                    m[i][j] += e * v[i] * v[j]
    elif kind == 4:  # block diagonal, blocks of any other shape
        m = [[0] * n for _ in range(n)]
        lo = 0
        while lo < n:
            size = rng.randint(1, n - lo)
            block = _random_symmetric(rng, size)
            for i in range(size):
                m[lo + i][lo : lo + size] = block[i]
            lo += size
    else:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if kind == 0:  # dense
                    x = rng.randint(-3, 3)
                else:  # sparse, or sparse with a zero diagonal
                    x = rng.choice((0, 0, 0, 1, -1, 2))
                    if kind == 2 and i == j:
                        x = 0
                m[i][j] = m[j][i] = x
    if rng.random() < 0.3:  # x/den + (x % 2)/3 cleared of its denominators
        den = rng.randint(2, 5)
        m = [[3 * x + (x % 2) * den for x in row] for row in m]
    return m


class TestInertiaOracle:
    """The one-triangle inertia against the full-update elimination it
    replaced, with the swap and hyperbolic-repair branches both taken."""

    def test_agrees_on_random_and_realified_matrices(self, monkeypatch):
        from knotbands import algebra, invariants

        hits = {"swap": 0, "repair": 0}
        sym_swap, first_offdiag = algebra._sym_swap, algebra._first_offdiag

        def counting_swap(a, i, j):
            hits["swap"] += 1
            sym_swap(a, i, j)

        def counting_offdiag(a, k):
            pair = first_offdiag(a, k)
            hits["repair"] += pair is not None
            return pair

        monkeypatch.setattr(algebra, "_sym_swap", counting_swap)
        monkeypatch.setattr(algebra, "_first_offdiag", counting_offdiag)

        rng = random.Random(14)
        # sizes 0-12, smaller ones more often: n is the least of two draws
        sizes = [min(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(2700)]
        matrices = [_random_symmetric(rng, n) for n in sizes]
        realified = []

        def keep(rows):
            realified.append(rows)
            return algebra.inertia(rows)

        monkeypatch.setattr(invariants, "inertia", keep)
        # 67 draws reach 300 on this seed; the bound turns a hook that
        # levine_tristram no longer calls into a failure, not a hang
        for _ in range(200):
            if len(realified) >= 300:
                break
            v = _random_braid_seifert(rng)
            if len(v) <= 6:
                for w in DEFAULT_SAMPLES:
                    levine_tristram(v, w)
        assert len(realified) >= 300, "levine_tristram did not call invariants.inertia"
        matrices += realified
        for m in matrices:
            assert algebra.inertia(m) == oracles.inertia_lagrange(m), m
        assert len(matrices) >= 3000
        assert hits["swap"] >= 100 and hits["repair"] >= 100, hits
