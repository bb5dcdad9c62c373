"""Concordance invariants from Seifert and Gordon-Litherland matrices.

Everything is exact. A Levine-Tristram sample point is named by one
rational s != 0, standing for omega = (1 + i s)/(1 - i s), or by
s = None for omega = -1; these are all the rational points of the unit
circle except 1. At such a point the Hermitian form of V is a positive
multiple of an integer one, so its signature comes from congruence
diagonalization of an integer matrix with no rounding anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (
    LaurentPoly,
    _scaled_inverse,
    det_int,
    det_pencil,
    inertia,
    int_matrix,
    signature_exact,
)
from .record import Record, known_keys, odd_p

Matrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows) -> Matrix:
    return tuple(map(tuple, int_matrix(rows)))


# ---------------------------------------------------------------------------
# exact points on the unit circle


class Omega(Record):
    """The point omega = (1 + i s)/(1 - i s) of the unit circle for a
    nonzero rational s; s = None is omega = -1."""

    __slots__ = ("s",)
    s: Fraction | None

    def __post_init__(self):
        if self.s is not None and not isinstance(self.s, Fraction):
            raise ValueError(f"s must be a Fraction or None, got {self.s!r}")
        if self.s == 0:
            raise ValueError("omega = 1 is excluded")

    @staticmethod
    def from_s(s) -> "Omega":
        """The point for s given as an int, a Fraction or a string such as
        "1/2"; floats, bools and exponent notation ("1e4000" is a 4001-digit
        s for six characters) are rejected, not converted."""
        if type(s) is bool or not isinstance(s, (int, Fraction, str)):
            raise ValueError(f"s must be an integer, a Fraction or a string, got {s!r}")
        if isinstance(s, str) and "e" in s.lower():
            raise ValueError(f"s must be written without an exponent, got {s!r}")
        try:
            s = Fraction(s)
        except ZeroDivisionError:  # "1/0"
            raise ValueError(f"s must be a rational number, got {s!r}") from None
        return Omega(s)

    @staticmethod
    def minus_one() -> "Omega":
        return Omega(None)

    def squared(self) -> "Omega | None":
        """omega^2 by the double-angle formula s -> 2s/(1-s^2); None when
        omega^2 = 1."""
        if self.s is None:
            return None
        if self.s * self.s == 1:
            return Omega.minus_one()
        return Omega(2 * self.s / (1 - self.s * self.s))

    def label(self) -> str:
        return "omega=-1" if self.s is None else f"s={self.s}"

    def to_json(self) -> dict:
        return {"omega": -1} if self.s is None else {"s": str(self.s)}

    @staticmethod
    def from_json(data: dict) -> "Omega":
        known_keys(data, ("omega", "s"), "sample point")
        if "omega" in data and "s" in data:
            raise ValueError(f"sample point names both omega and s: {data!r}")
        if "omega" in data:
            # -1.0 and true are rejected like every other non-integer
            if type(data["omega"]) is not int or data["omega"] != -1:
                raise ValueError("only omega = -1 is addressable directly; use s")
            return Omega.minus_one()
        if "s" in data:
            s = data["s"]
            # 0.5 and true are rejected, not read as 1/2 and "True"
            if type(s) not in (int, str):
                raise ValueError(f"s must be a JSON integer or a string, got {s!r}")
            return Omega.from_s(s)
        raise ValueError("sample point needs an 'omega' or 's' field")


DEFAULT_SAMPLES: tuple[Omega, ...] = (
    Omega.minus_one(),
    Omega.from_s(Fraction(1, 2)),
    Omega.from_s(Fraction(1, 3)),
    Omega.from_s(Fraction(2, 3)),
    Omega.from_s(Fraction(1, 5)),
    Omega.from_s(Fraction(3, 5)),
)


class SignatureSample(Record):
    """One Levine-Tristram evaluation; value is None exactly when the
    Hermitian form was singular (omega hit an Alexander root)."""

    __slots__ = ("omega", "value")
    omega: Omega
    value: int | None

    @property
    def singular(self) -> bool:
        return self.value is None


# ---------------------------------------------------------------------------
# Alexander polynomial and friends


def _normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero:
        raise ValueError("degenerate presentation: zero Alexander determinant")
    lo, hi = p.min_exp, p.max_exp
    if (lo + hi) % 2:
        raise ValueError("degenerate presentation: support cannot be centered")
    q = p.shift(-(lo + hi) // 2)
    at_one = q.evaluate_int(1)
    if at_one == 1:
        return q
    if at_one == -1:
        return -q
    raise ValueError(f"degenerate presentation: value {at_one} at t=1")


def _nodes(count: int) -> list[int]:
    """x = 1, -1, 2, -2, ...: count points whose x + 1/x are distinct."""
    return [(k // 2 + 1) * (1 - 2 * (k % 2)) for k in range(count)]


@lru_cache(maxsize=32)
def _palindromic_solver(g: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(R, c), c != 0, with R (P(x_0), ..., P(x_g)) = c (p_0, ..., p_g)
    for every P(x) = p_g x^g + sum_{j<g} p_j (x^j + x^(2g-j)) and the
    nodes x_i of _nodes(g + 1).

    The values are M p with M[i][j] = x_i^j + x_i^(2g-j) (j < g) and
    M[i][g] = x_i^g, and _scaled_inverse gives R M = c I. M is
    invertible: P(x) / x^g is a polynomial of degree g in y = x + 1/x,
    and the nodes give g + 1 distinct y.
    """
    return _scaled_inverse(
        [[x**j + x ** (2 * g - j) for j in range(g)] + [x**g] for x in _nodes(g + 1)]
    )


def alexander(seifert) -> LaurentPoly:
    """det(V - t V^T), symmetric under t <-> 1/t and +1 at t=1.

    P(x) = det(V - x V^T) has degree at most n, and transposing gives
    P(x) = (-x)^n P(1/x). P(1) = det(V - V^T) comes first: it must be
    +-1, and it is the sign that normalizes Delta = P(1) t^(-g) P(t).
    Then n = 2g, since a skew-symmetric matrix of odd size has
    determinant 0, and P is palindromic, so its coefficients p_0..p_g
    fix it, and g + 1 values at _nodes fix those: one det_int each, none
    at the singular-prone x = 0. _palindromic_solver turns the values
    into p exactly. Any other P(1) hands det_pencil(V, -V^T) to
    _normalize_alexander, which raises the first of its errors that
    applies.
    """
    V = _as_matrix(seifert)
    g = len(V) // 2

    def at(x: int) -> int:
        return det_int([[u - x * w for u, w in zip(row, col)] for row, col in zip(V, zip(*V))])

    at_one = at(1)
    if at_one not in (1, -1):
        return _normalize_alexander(det_pencil(V, [[-w for w in col] for col in zip(*V)]))
    values = [at_one] + [at(x) for x in _nodes(g + 1)[1:]]
    R, c = _palindromic_solver(g)
    p = [at_one * (sum(r * v for r, v in zip(row, values)) // c) for row in R]
    coeffs = {0: p[g]}
    for j in range(g):
        coeffs[j - g] = coeffs[g - j] = p[j]
    return LaurentPoly(coeffs)


def _symmetrized(V: Matrix) -> list[list[int]]:
    """S = V + V^T."""
    return [[x + y for x, y in zip(row, col)] for row, col in zip(V, zip(*V))]


def _det_symmetrized(seifert) -> int:
    """det(V + V^T) for a Seifert matrix V that alexander accepts; raises
    alexander's ValueError for any other V (see determinant_knot)."""
    V = _as_matrix(seifert)
    n = len(V)
    if abs(det_int([[V[i][j] - V[j][i] for j in range(n)] for i in range(n)])) != 1:
        alexander(V)  # raises the degenerate-presentation error
    return det_int(_symmetrized(V))


def determinant_knot(seifert) -> int:
    """|Delta(-1)| = |det(V + V^T)| from a Seifert matrix V.

    With P(t) = det(V - t V^T), alexander(V) succeeds exactly when
    |det(V - V^T)| = 1, so that is the only check made on V: P(1) =
    det(V - V^T); transposing gives P(t) = (-t)^n P(1/t), so the support
    of P is centred on n/2 when n is even; and for odd n the
    skew-symmetric V - V^T has determinant 0. Then Delta = +-t^(-n/2) P(t)
    and |Delta(-1)| = |P(-1)| = |det(V + V^T)|, one integer determinant
    instead of the whole polynomial.
    """
    return abs(_det_symmetrized(seifert))


def arf(source) -> int:
    """0 iff Delta(-1) is +-1 mod 8.

    From an Alexander polynomial it reads Delta(-1). From a Seifert matrix
    V it reads det(V + V^T) = +-Delta(-1) mod 8 after checking
    |det(V - V^T)| = 1, which holds exactly when alexander(V) succeeds:
    P(t) = det(V - t V^T) has P(1) = det(V - V^T), P(t) = (-t)^n P(1/t)
    centres its support, and a skew-symmetric matrix of odd size has
    determinant 0 (spelled out in determinant_knot).
    """
    if isinstance(source, LaurentPoly):
        at_minus_one = source.evaluate_int(-1)
    else:
        at_minus_one = _det_symmetrized(source)
    return 0 if at_minus_one % 8 in (1, 7) else 1


def signature(seifert) -> int:
    """Ordinary knot signature, the signature of V + V^T."""
    return signature_exact(_symmetrized(_as_matrix(seifert)))


def levine_tristram(seifert, omega: Omega) -> SignatureSample:
    """Signature of (1-omega)V + (1-conj(omega))V^T, exactly.

    At omega = -1 the form is 2S with S = V+V^T, so the n x n integer
    matrix S alone gives the value, and the sample is singular exactly
    when S is.

    For s = p/q the form is 2s^2/(1+s^2)/|p| > 0 times the Hermitian
    a S + i b A with A = V^T-V, a = |p| and b = sign(p) q. Its integer
    symmetric realification has twice the signature of a S + i b A, so
    one congruence diagonalization decides both the value and
    singularity. Rows and columns come in the order (Re_1, Im_1, ...,
    Re_n, Im_n), a permutation congruence of [[aS, -bA], [bA, aS]] that
    changes no value or singular flag. In this order the leading 2k x 2k
    minors are the squared leading k x k minors of the Hermitian form,
    so the elimination follows its LDL* and the fractions stay as small
    as that decomposition's.
    """
    V = _as_matrix(seifert)
    S = _symmetrized(V)
    if omega.s is None:
        pos, neg, zero = inertia(S)
        return SignatureSample(omega, None if zero else pos - neg)
    p, q = omega.s.numerator, omega.s.denominator
    a, b = abs(p), q if p > 0 else -q
    n = len(V)
    big = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        re_row, im_row = big[2 * i], big[2 * i + 1]
        for j in range(n):
            re = a * S[i][j]
            im = b * (V[j][i] - V[i][j])
            re_row[2 * j] = im_row[2 * j + 1] = re
            re_row[2 * j + 1] = -im
            im_row[2 * j] = im
    pos, neg, zero = inertia(big)
    return SignatureSample(omega, None if zero else (pos - neg) // 2)


# ---------------------------------------------------------------------------
# satellite and cable formulas


def alexander_satellite(delta_r: LaurentPoly, delta_j: LaurentPoly) -> LaurentPoly:
    """Winding-number-2 infection: Delta_R(t) * Delta_J(t^2)."""
    return _normalize_alexander(delta_r * delta_j.substitute(2))


def torus2_alexander(p: int) -> LaurentPoly:
    """Alexander polynomial of the (2,p) torus knot, p odd."""
    m = (abs(odd_p(p)) - 1) // 2
    return LaurentPoly({k - m: 1 if k % 2 == 0 else -1 for k in range(abs(p))})


def alexander_cable2(delta_k: LaurentPoly, p: int) -> LaurentPoly:
    """Alexander polynomial of the (2,p) cable of K, p odd: the satellite
    formula with pattern T(2,p)."""
    return alexander_satellite(torus2_alexander(p), delta_k)


def sigma_satellite(v_r, v_j, omega: Omega) -> SignatureSample:
    """sigma_R(omega) + sigma_J(omega^2); singular when either side is
    singular or omega^2 = 1. Both matrices are checked even then."""
    v_r, v_j = _as_matrix(v_r), _as_matrix(v_j)
    squared = omega.squared()
    if squared is None:
        return SignatureSample(omega, None)
    r = levine_tristram(v_r, omega)
    j = levine_tristram(v_j, squared)
    if r.singular or j.singular:
        return SignatureSample(omega, None)
    return SignatureSample(omega, r.value + j.value)
