import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotbands.algebra import (
    AbelianInvariants,
    LaurentPoly,
    _scaled_inverse,
    det_int,
    det_pencil,
    fp_abelian_invariants,
    inertia,
    signature_exact,
    smith_normal_form,
    transpose,
)
from oracles import det_cofactor, det_cofactor_zt, det_laurent, pencil, smith_over_z


class TestLaurentPoly:
    def test_constructor_drops_zeros(self):
        assert LaurentPoly({3: 0, 0: 2}) == LaurentPoly({0: 2})

    @pytest.mark.parametrize(
        "coeffs", [{True: 1}, {1.0: 1}, {0: True}, {0: 2.0}], ids=repr
    )
    def test_constructor_rejects_non_integers(self, coeffs):
        with pytest.raises(ValueError, match="must be integers"):
            LaurentPoly(coeffs)

    def test_bools_compare_unequal(self):
        # a bool is not an integer here, as in every other LaurentPoly input
        assert not LaurentPoly.one() == True  # noqa: E712
        assert LaurentPoly.one() != True  # noqa: E712
        assert LaurentPoly() != False  # noqa: E712

    def test_is_a_value_without_a_sum(self):
        # no int coercion and no ring sum: the library multiplies, negates
        # and shifts; the references add on their own Z[t] arithmetic
        assert LaurentPoly.one() != 1 and LaurentPoly() != 0
        with pytest.raises(TypeError):
            LaurentPoly.one() + LaurentPoly.one()
        with pytest.raises(TypeError):
            LaurentPoly.one() - LaurentPoly.one()
        with pytest.raises(TypeError):
            2 * LaurentPoly.one()
        p = LaurentPoly({-1: 1, 0: -1, 1: 1})
        assert p.shift(2) == LaurentPoly({1: 1, 2: -1, 3: 1})
        assert p.shift(0) == p and LaurentPoly().shift(5) == LaurentPoly()

    def test_to_string_fixtures(self):
        cases = [
            ({}, "0"),
            ({0: 1}, "1"),
            ({0: -1}, "-1"),
            ({-1: 1, 0: -1, 1: 1}, "t^-1 - 1 + t"),
            ({-1: -1, 0: 3, 1: -1}, "-t^-1 + 3 - t"),
            ({-2: 1, 2: 1}, "t^-2 + t^2"),
            ({1: 2}, "2t"),
            ({-3: -2}, "-2t^-3"),
        ]
        for coeffs, text in cases:
            p = LaurentPoly(coeffs)
            assert p.to_string() == text

    def test_evaluate_and_substitute(self):
        p = LaurentPoly({-1: 1, 0: -1, 1: 1})
        assert p.evaluate_int(-1) == -3
        assert p.substitute(2) == LaurentPoly({-2: 1, 0: -1, 2: 1})
        assert p.substitute(-1) == p

    @pytest.mark.parametrize("x", [True, 2.0, Fraction(2)])
    def test_evaluate_int_rejects_non_integers(self, x):
        # True is not 1 and 2.0 is not 2: LaurentPoly({0: 1, 1: 1}) gave 3
        with pytest.raises(ValueError, match="evaluation point must be an integer"):
            LaurentPoly({0: 1, 1: 1}).evaluate_int(x)

    @pytest.mark.parametrize("k", [True, 2.0])
    def test_substitute_rejects_non_integers(self, k):
        with pytest.raises(ValueError, match="substitution exponent must be an integer"):
            LaurentPoly({0: 1, 1: 1}).substitute(k)


class TestDeterminants:
    def test_fixtures(self):
        one = LaurentPoly.one()
        # det [[t, 1], [1, t]] = t^2 - 1
        assert det_pencil([[0, 1], [1, 0]], [[1, 0], [0, 1]]) == LaurentPoly({2: 1, 0: -1})
        assert det_pencil([], []) == one
        assert det_pencil([[0]], [[0]]) == LaurentPoly()
        assert det_pencil([[5]], [[0]]) == LaurentPoly({0: 5})
        assert det_pencil([[0]], [[-3]]) == LaurentPoly({1: -3})
        assert det_int([[2, 1], [1, 2]]) == 3
        assert det_int([[0, 1], [1, 0]]) == -1

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="matrix must be square"):
            det_pencil([[1], [1]], [[1], [1]])
        with pytest.raises(ValueError, match="matrix must be square"):
            det_pencil([[1]], [[1, 0]])
        with pytest.raises(ValueError, match="matrices must have one size"):
            det_pencil([[1]], [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="matrix must be square"):
            det_int([[1, 2]])
        with pytest.raises(ValueError, match="matrix must be square"):
            det_int([[1.0], [2.0]])

    @pytest.mark.parametrize(
        "rows",
        [[[1.0]], [[True]], [[2, 1], [1, 2.5]], [[LaurentPoly.one()]]],
        ids=repr,
    )
    def test_det_int_takes_integers_only(self, rows):
        with pytest.raises(ValueError, match="must be integers"):
            det_int(rows)

    @pytest.mark.parametrize(
        "rows",
        [[[1.0]], [[True]], [[False]], [[LaurentPoly.one()]]],
        ids=repr,
    )
    def test_det_pencil_takes_integers_only(self, rows):
        # on either side: a bool in B is not 1 even where x * True would be
        with pytest.raises(ValueError, match="must be integers"):
            det_pencil(rows, [[1]])
        with pytest.raises(ValueError, match="must be integers"):
            det_pencil([[1]], rows)

    def test_det_int_fixtures(self):
        assert det_int([]) == 1
        assert det_int([[-7]]) == -7
        # GL forms: the trefoil's and the figure-eight's stored
        # non-orientable surfaces, and diagonal forms with |det| = p^2
        assert det_int([[3]]) == 3
        assert det_int([[3, 1], [1, 2]]) == 5
        for p in (1, 3, 5):
            assert det_int([[p, 0], [0, -p]]) == -p * p
        # a zero leading entry forces a row swap, which flips the sign
        assert det_int([[0, 2, 1], [3, 0, 1], [1, 1, 0]]) == 5
        assert det_int([[0, 0], [1, 1]]) == 0
        assert det_int([[1, 2], [2, 4]]) == 0
        # a zero first column: the elimination swaps in a later column and
        # goes on, and the short rank gives 0
        assert det_int([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
        assert det_int([[0, 0, 0], [0, 1, 2], [0, 3, 5]]) == 0
        # column 1 has no pivot after step 0; row 2 = row 0 + row 1
        assert det_int([[1, 2, 3], [2, 4, 5], [3, 6, 8]]) == 0
        # a row swap at step 1, after elimination zeroed the pivot
        assert det_int([[1, 2, 3], [2, 4, 7], [1, 1, 1]]) == 1
        assert det_int([[0, 2, 1], [0, 0, 3], [4, 0, 0]]) == 24

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    def test_matches_cofactor_expansion(self, seed, n):
        import random

        rng = random.Random(seed)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert det_pencil(a, b) == det_cofactor_zt(pencil(a, b))

    def test_scaled_inverse(self):
        import random

        rng = random.Random(30)
        checked = 0
        while checked < 200:
            n = rng.randint(0, 6)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if not det_int(m):
                continue
            R, c = _scaled_inverse(m)
            # c is the last pivot, the determinant up to the sign of the swaps
            assert abs(c) == abs(det_int(m))
            assert [
                [sum(R[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)
            ] == [[c * (i == j) for j in range(n)] for i in range(n)], m
            checked += 1

    def test_row_swap_flips_sign(self):
        a, b = [[0, 1], [2, 0]], [[1, 0], [0, 1]]
        swapped = det_pencil([a[1], a[0]], [b[1], b[0]])
        assert det_pencil(a, b) == -swapped
        assert det_pencil(a, b) == det_laurent(pencil(a, b))


class TestInertia:
    def test_fixtures(self):
        assert inertia([[2]]) == (1, 0, 0)
        assert inertia([[-2, 1], [1, -2]]) == (0, 2, 0)
        assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
        assert inertia([[0]]) == (0, 0, 1)
        assert inertia([]) == (0, 0, 0)
        assert signature_exact([[-2, 1], [1, -2]]) == -2
        assert signature_exact([[3]]) == 1
        assert signature_exact([[0, 1], [1, 0]]) == 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            inertia([[0, 1], [2, 0]])

    @pytest.mark.parametrize(
        "rows", [[[0.5, 1], [1, True]], [[True]], [[1.0]], [[LaurentPoly.one()]]],
        ids=repr,
    )
    def test_rejects_floats_and_bools(self, rows):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            inertia(rows)
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            signature_exact(rows)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([5], "each matrix row must be a list"),
            ([[1], 5], "each matrix row must be a list"),
            (["ab", "cd"], "each matrix row must be a list"),
            (5, "matrix must be a list of rows"),
            ({"a": [1]}, "matrix must be a list of rows"),
            ([[1, 2]], "matrix must be square"),
        ],
        ids=repr,
    )
    def test_rejects_non_matrices(self, rows, message):
        # the shape check of int_matrix, not a TypeError from len()
        with pytest.raises(ValueError, match=message):
            inertia(rows)
        with pytest.raises(ValueError, match=message):
            signature_exact(rows)

    @pytest.mark.parametrize(
        "rows", [[[Fraction(1, 2), 1], [1, Fraction(-3, 4)]], ((Fraction(2), 1), (1, 2))],
        ids=repr,
    )
    def test_rejects_fractions(self, rows):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            inertia(rows)

    def test_large_integers_stay_exact(self):
        # det = -1; with int / int the multiplier is a float, the Schur
        # complement rounds to 0 and the answer would read (1, 0, 1)
        big = 10 ** 20
        assert inertia([[big, big + 1], [big + 1, big + 2]]) == (1, 1, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    def test_congruence_invariance(self, seed, n):
        import random

        from knotbands.battery import random_unimodular

        rng = random.Random(seed)
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = rng.randint(-5, 5)
        a = random_unimodular(rng, n)
        congr = [
            [
                sum(a[k][i] * s[k][l] * a[l][j] for k in range(n) for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert inertia(congr) == inertia(s)


class TestSmith:
    def test_fixtures(self):
        assert smith_normal_form([[1, 1], [1, -1]]) == ((1, 2), 2)
        assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)
        assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
        assert smith_normal_form([[6, 4], [4, 6]]) == ((2, 10), 2)
        assert smith_normal_form([]) == ((), 0)
        assert smith_normal_form([[], []]) == ((), 0)
        assert smith_normal_form([[0, 4, 6]]) == ((2,), 1)
        assert smith_normal_form([[2], [0], [4]]) == ((2,), 1)
        assert smith_normal_form([[2, 4], [3, 6], [0, 0]]) == ((1,), 1)
        assert smith_normal_form([[0, 0, 2], [0, 0, 4], [0, 6, 0]]) == ((2, 6), 2)

    @pytest.mark.parametrize(
        "rows", [[[2.7, 0], [0, True]], [[2, 0], [0, 1.0]], [[False]]], ids=repr
    )
    def test_rejects_non_integers(self, rows):
        # truncating [[2.7, 0], [0, True]] would give ((1, 2), 2)
        with pytest.raises(ValueError, match="must be integers"):
            smith_normal_form(rows)

    def test_divisibility_chain(self):
        factors, rank = smith_normal_form([[12, 6, 4], [6, 8, 2], [4, 2, 16]])
        assert rank == len(factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 4))
    def test_unimodular_invariance(self, seed, rows, cols):
        import random

        from knotbands.battery import random_unimodular

        rng = random.Random(seed)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        p = random_unimodular(rng, rows)
        q = random_unimodular(rng, cols)
        pmq = [
            [
                sum(p[i][k] * m[k][l] * q[l][j] for k in range(rows) for l in range(cols))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        assert smith_normal_form(m) == smith_normal_form(pmq)


SEVEN = [
    [2, -9, 7, -15, -14, 16, -12],
    [-9, 5, -15, 14, -5, -16, -13],
    [7, -15, 9, 8, -14, -3, -13],
    [-15, 14, 8, 17, 9, -15, 18],
    [-14, -5, -14, 9, -11, -4, -15],
    [16, -16, -3, -15, -4, 18, 7],
    [-12, -13, -13, 18, -15, 7, -15],
]


def _determinantal_factors(m):
    """Invariant factors from the determinantal divisors: d_k is the gcd
    of the k x k minors (by cofactor expansion), and s_k = d_k / d_(k-1).
    The rank is the last k with a nonzero k x k minor."""
    rows, cols = len(m), len(m[0])
    factors, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                d = gcd(d, det_cofactor([[m[i][j] for j in ci] for i in ri]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors), len(factors)


def _random_matrix(rng, rows, cols):
    """A random rows x cols integer matrix of rank at most r, for a random
    r: each row is one of r base rows with entries in [-6, 6], a sum or
    difference of two, a combination of all with coefficients in
    {-1, 0, 1}, or zero; then the matrix is scaled now and then. The
    entries stay small because the reduction over Z in the oracles makes
    them explode on denser input: on DENSE it reached entries of about
    12 million bits."""
    r = rng.randint(0, min(rows, cols))
    base = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(r)]
    m = []
    for _ in range(rows):
        pick = rng.random() if base else 1
        if pick < 0.35:
            row = list(rng.choice(base))
        elif pick < 0.7:
            u, v = rng.choice(base), rng.choice(base)
            e = rng.choice((1, -1))
            row = [x + e * y for x, y in zip(u, v)]
        elif pick < 0.95:
            coef = [rng.choice((-1, 0, 1)) for _ in base]
            row = [sum(c * b[j] for c, b in zip(coef, base)) for j in range(cols)]
        else:
            row = [0] * cols
        m.append(row)
    scale = rng.choice((1, 1, 1, 2, 3, 6))
    return [[scale * x for x in row] for row in m]


DENSE = [
    [102, -114, 60, -120, -42],
    [-96, 108, -192, 78, 96],
    [132, -102, 162, -84, -108],
    [-132, 42, -78, -84, 108],
]

PINNED = [
    # (matrix, smith_normal_form, homology); each hung when reduced over Z
    (SEVEN + [[0] * 7], ((1, 1, 1, 1, 1, 1, 383210848), 7), "Z/383210848"),
    (SEVEN[:6] + [[x + y for x, y in zip(SEVEN[0], SEVEN[1])]], ((1,) * 6, 6), "Z"),
    ([row + [0] for row in SEVEN], ((1, 1, 1, 1, 1, 1, 383210848), 7), "Z x Z/383210848"),
]


class TestSmithModDet:
    """Every input is reduced modulo a nonzero maximal minor; for a
    nonsingular square matrix that minor is det."""

    @pytest.mark.parametrize(
        "scale, factors",
        [(1, (1, 1, 1, 1, 1, 1, 383210848)), (6, (6, 6, 6, 6, 6, 6, 2299265088))],
    )
    def test_seven_by_seven(self, scale, factors):
        # reduced over Z, the unscaled matrix does not finish in 20 s
        m = [[scale * x for x in row] for row in SEVEN]
        start = time.perf_counter()
        assert smith_normal_form(m) == (factors, 7)
        assert time.perf_counter() - start < 1
        if scale == 1:
            assert abs(det_int(m)) == 383210848
            assert str(fp_abelian_invariants(7, m)) == "Z/383210848"

    def test_agrees_with_general_path(self):
        # the reduction over Z that the library took before is the oracle
        import random

        rng = random.Random(11)
        checked = 0
        for _ in range(1500):
            n = rng.randint(1, 5)
            scale = rng.choice((1, 1, 2, 3, 4, 6, 12))
            m = [[scale * rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if det_int(m) == 0:
                continue
            assert smith_normal_form(m) == smith_over_z(m), m
            checked += 1
        assert checked >= 1200

    def test_agrees_with_determinantal_divisors(self):
        import random

        rng = random.Random(12)
        checked = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            scale = rng.choice((1, 2, 3, 4, 6))
            m = [[scale * rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if det_int(m) == 0:
                continue
            assert smith_normal_form(m) == _determinantal_factors(m), m
            checked += 1
        assert checked >= 300
        # rectangular and singular input
        kinds = set()
        for _ in range(300):
            m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            want = _determinantal_factors(m)
            assert smith_normal_form(m) == want, m
            kinds.add((want[1] < min(len(m), len(m[0])), len(m) == len(m[0])))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}
        assert smith_normal_form(DENSE) == _determinantal_factors(DENSE) == ((6, 6, 6, 4056), 4)

    def test_dense_large_entries_agree_with_determinantal_divisors(self):
        # the reduction over Z explodes on such input (see _random_matrix);
        # the gcds of all k x k minors are the oracle instead: for every
        # shape up to 5 x 5 and every rank r, two dense matrices, entries
        # up to 10^3, drawn whole at full rank and as a product of
        # rows x r and r x cols factors below it
        import random

        rng = random.Random(22)
        for rows in range(1, 6):
            for cols in range(1, 6):
                for r in range(min(rows, cols) + 1):
                    for _ in range(2):
                        while True:
                            if r == min(rows, cols):
                                m = [[rng.randint(-1000, 1000) for _ in range(cols)] for _ in range(rows)]
                            else:
                                left = [[rng.randint(-10, 10) for _ in range(r)] for _ in range(rows)]
                                right = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(r)]
                                m = [
                                    [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(cols)]
                                    for i in range(rows)
                                ]
                            want = _determinantal_factors(m)
                            if want[1] == r:
                                break
                        assert max(abs(x) for row in m for x in row) <= 1000
                        start = time.perf_counter()
                        assert smith_normal_form(m) == want, m
                        assert time.perf_counter() - start < 0.5

    def test_agrees_with_reduction_over_z(self):
        import random

        rng = random.Random(17)
        seen = set()
        for _ in range(3000):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = _random_matrix(rng, rows, cols)
            got = smith_normal_form(m)
            assert got == smith_over_z(m), m
            seen.add((min(rows, cols), got[1]))
        # every rank 0..min(m, n) of every smaller side, the zero matrix too
        assert seen == {(k, r) for k in range(1, 6) for r in range(k + 1)}

    @pytest.mark.parametrize(
        "m, factors, group", PINNED, ids=["zero-row", "sum-row", "zero-column"]
    )
    def test_pinned_inputs_that_hung_over_z(self, m, factors, group):
        start = time.perf_counter()
        assert smith_normal_form(m) == factors
        assert str(fp_abelian_invariants(len(m[0]), m)) == group
        assert time.perf_counter() - start < 1

    def test_pinned_inputs_by_determinantal_divisors(self):
        # D_6 = 1 and D_7 = |det SEVEN| with a zero row, D_7 = 0 with a sum row
        def divisor(m, k, stop=None):
            d = 0
            for ri in combinations(range(len(m)), k):
                for ci in combinations(range(len(m[0])), k):
                    d = gcd(d, det_int([[m[i][j] for j in ci] for i in ri]))
                    if d == stop:
                        return d
            return d

        for m, factors, _ in PINNED[:2]:
            assert divisor(m, 6, stop=1) == 1
            d7 = divisor(m, 7)
            assert factors == (((1,) * 6 + (d7,), 7) if d7 else ((1,) * 6, 6))

    def test_units_and_equal_entries(self):
        # equal entries end in a subtraction step, not an endless swap
        assert smith_normal_form([[1]]) == ((1,), 1)
        assert smith_normal_form([[-4]]) == ((4,), 1)
        assert smith_normal_form([[2, 2], [2, -2]]) == ((2, 4), 2)
        assert smith_normal_form([[3, 3, 3], [3, 3, -3], [3, -3, 3]]) == ((3, 6, 6), 3)
        assert smith_normal_form([[0, 1], [1, 0]]) == ((1, 1), 2)


class TestAbelianInvariants:
    def test_str_forms(self):
        assert str(AbelianInvariants(0, ())) == "0"
        assert str(AbelianInvariants(1, ())) == "Z"
        assert str(AbelianInvariants(2, (2,))) == "Z^2 x Z/2"
        assert str(AbelianInvariants(0, (2, 4))) == "Z/2 x Z/4"

    def test_rejects_bad_torsion(self):
        with pytest.raises(ValueError):
            AbelianInvariants(0, (3, 2))
        with pytest.raises(ValueError):
            AbelianInvariants(0, (1,))
        with pytest.raises(ValueError):
            AbelianInvariants(-1, ())

    def test_presentations(self):
        assert str(fp_abelian_invariants(2, [[-2, 1], [0, 1]])) == "Z/2"
        assert str(fp_abelian_invariants(1, [])) == "Z"
        assert str(fp_abelian_invariants(2, [[1, 0], [0, 1]])) == "0"
        assert str(fp_abelian_invariants(3, [[2, 0, 0]])) == "Z^2 x Z/2"
        assert str(fp_abelian_invariants(2, [[2, 0], [0, 2]])) == "Z/2 x Z/2"

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="generator count"):
            fp_abelian_invariants(2, [[1, 2, 3]])

    @pytest.mark.parametrize("relations", [{"ab": 1}, "12", ["12"], [{"a": 1, "b": 2}]], ids=repr)
    def test_rejects_rows_that_are_not_lists(self, relations):
        with pytest.raises(ValueError, match="each relation must be a list of integers"):
            fp_abelian_invariants(2, relations)


def test_transpose():
    assert transpose([[1, 2], [3, 4]]) == ((1, 3), (2, 4))
    assert transpose([]) == ()
