"""Concordance invariants from Seifert and Gordon-Litherland matrices.

Everything is exact: Levine-Tristram signatures are sampled only at
rational points of the unit circle (the Pythagorean parametrization
cos = (1-s^2)/(1+s^2), sin = 2s/(1+s^2), plus the point -1), where the
Hermitian form has rational entries and its signature is computable by
congruence diagonalization with no rounding anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algebra import (
    LaurentPoly,
    det_int,
    det_laurent,
    inertia,
    signature_exact,
)

Matrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows) -> Matrix:
    m = tuple(tuple(row) for row in rows)
    for row in m:
        if len(row) != len(m):
            raise ValueError("matrix must be square")
        for x in row:
            # floats and bools are rejected, not truncated
            if type(x) is not int:
                raise ValueError(f"matrix entries must be integers, got {x!r}")
    return m


# ---------------------------------------------------------------------------
# exact points on the unit circle


@dataclass(frozen=True)
class Omega:
    """A rational point cos + i sin on the unit circle, omega != 1."""

    cos: Fraction
    sin: Fraction

    def __post_init__(self):
        if self.cos * self.cos + self.sin * self.sin != 1:
            raise ValueError("omega must lie on the unit circle")
        if self.cos == 1 and self.sin == 0:
            raise ValueError("omega = 1 is excluded")

    @staticmethod
    def from_s(s) -> "Omega":
        s = Fraction(s)
        den = 1 + s * s
        return Omega((1 - s * s) / den, 2 * s / den)

    @staticmethod
    def minus_one() -> "Omega":
        return Omega(Fraction(-1), Fraction(0))

    def squared(self) -> "Omega | None":
        """omega^2 by the double-angle identities; None when omega^2 = 1."""
        c2 = self.cos * self.cos - self.sin * self.sin
        s2 = 2 * self.cos * self.sin
        if c2 == 1 and s2 == 0:
            return None
        return Omega(c2, s2)

    def s_param(self) -> Fraction | None:
        """The s with omega = ((1-s^2) + 2si)/(1+s^2); None only at -1."""
        if self.cos == -1:
            return None
        return self.sin / (1 + self.cos)

    def label(self) -> str:
        s = self.s_param()
        return "omega=-1" if s is None else f"s={s}"

    def to_json(self) -> dict:
        s = self.s_param()
        return {"omega": -1} if s is None else {"s": str(s)}

    @staticmethod
    def from_json(data: dict) -> "Omega":
        if "omega" in data:
            if data["omega"] != -1:
                raise ValueError("only omega = -1 is addressable directly; use s")
            return Omega.minus_one()
        if "s" in data:
            return Omega.from_s(Fraction(str(data["s"])))
        raise ValueError("sample point needs an 'omega' or 's' field")


DEFAULT_SAMPLES: tuple[Omega, ...] = (
    Omega.minus_one(),
    Omega.from_s(Fraction(1, 2)),
    Omega.from_s(Fraction(1, 3)),
    Omega.from_s(Fraction(2, 3)),
    Omega.from_s(Fraction(1, 5)),
    Omega.from_s(Fraction(3, 5)),
)


@dataclass(frozen=True)
class SignatureSample:
    """One Levine-Tristram evaluation; value is None exactly when the
    Hermitian form was singular (omega hit an Alexander root)."""

    omega: Omega
    value: int | None
    singular: bool

    def __post_init__(self):
        if self.singular != (self.value is None):
            raise ValueError("singular samples carry no value")

    def to_json(self) -> dict:
        out = self.omega.to_json()
        out["value"] = "singular" if self.singular else self.value
        return out


# ---------------------------------------------------------------------------
# Alexander polynomial and friends


def _normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero:
        raise ValueError("degenerate presentation: zero Alexander determinant")
    lo, hi = p.min_exp, p.max_exp
    if (lo + hi) % 2:
        raise ValueError("degenerate presentation: support cannot be centered")
    q = p * LaurentPoly.term(1, -(lo + hi) // 2)
    at_one = q.evaluate_int(1)
    if at_one == 1:
        return q
    if at_one == -1:
        return -q
    raise ValueError(f"degenerate presentation: value {at_one} at t=1")


def alexander(seifert) -> LaurentPoly:
    """det(V - t V^T), symmetric under t <-> 1/t and +1 at t=1."""
    V = _as_matrix(seifert)
    n = len(V)
    entries = [
        [LaurentPoly({0: V[i][j], 1: -V[j][i]}) for j in range(n)]
        for i in range(n)
    ]
    return _normalize_alexander(det_laurent(entries))


def determinant_knot(seifert=None, gl=None) -> int:
    """|Delta(-1)| from a Seifert matrix, or |det| of a GL form."""
    if (seifert is None) == (gl is None):
        raise ValueError("provide exactly one of seifert or gl")
    if seifert is not None:
        return abs(alexander(seifert).evaluate_int(-1))
    return abs(det_int(_as_matrix(gl)))


def arf(source) -> int:
    """0 iff Delta(-1) is +-1 mod 8."""
    delta = source if isinstance(source, LaurentPoly) else alexander(source)
    return 0 if delta.evaluate_int(-1) % 8 in (1, 7) else 1


def signature(seifert) -> int:
    """Ordinary knot signature, the signature of V + V^T."""
    V = _as_matrix(seifert)
    n = len(V)
    return signature_exact([[V[i][j] + V[j][i] for j in range(n)] for i in range(n)])


def levine_tristram(seifert, omega: Omega) -> SignatureSample:
    """Signature of (1-omega)V + (1-conj(omega))V^T, exactly.

    The Hermitian matrix H = (1-c)(V+V^T) + i s (V^T-V) has the real
    symmetric realification [[Re, -Im], [Im, Re]] with twice its
    signature, so one rational congruence diagonalization decides both
    the value and singularity.
    """
    V = _as_matrix(seifert)
    n = len(V)
    c, s = omega.cos, omega.sin
    re = [[(1 - c) * (V[i][j] + V[j][i]) for j in range(n)] for i in range(n)]
    im = [[s * (V[j][i] - V[i][j]) for j in range(n)] for i in range(n)]
    big = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            big[i][j] = re[i][j]
            big[i][n + j] = -im[i][j]
            big[n + i][j] = im[i][j]
            big[n + i][n + j] = re[i][j]
    pos, neg, zero = inertia(big)
    if zero:
        return SignatureSample(omega, None, True)
    return SignatureSample(omega, (pos - neg) // 2, False)


def sigma_function(seifert) -> Callable[[Omega], SignatureSample]:
    V = _as_matrix(seifert)
    return lambda omega: levine_tristram(V, omega)


# ---------------------------------------------------------------------------
# the squared-parameter comparison for (2,p) cable companions


@dataclass(frozen=True)
class SigmaSquaredEntry:
    omega: Omega
    sigma_k: int | None
    sigma_j_squared: int | None
    status: str  # "agree" | "disagree" | "skipped-singular"

    def to_json(self) -> dict:
        return {
            "omega": self.omega.to_json(),
            "sigma_k": self.sigma_k,
            "sigma_j_squared": self.sigma_j_squared,
            "status": self.status,
        }


@dataclass(frozen=True)
class SigmaSquaredReport:
    entries: tuple[SigmaSquaredEntry, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "passed": self.passed,
        }


def sigma_squared_compare(
    v_k, v_j, samples: Iterable[Omega] | None = None
) -> SigmaSquaredReport:
    """Check sigma_K(omega) = sigma_J(omega^2) sample-by-sample, skipping
    singular points on either side and the square root of 1."""
    v_k = _as_matrix(v_k)
    v_j = _as_matrix(v_j)
    entries = []
    for omega in DEFAULT_SAMPLES if samples is None else samples:
        squared = omega.squared()
        if squared is None:
            entries.append(SigmaSquaredEntry(omega, None, None, "skipped-singular"))
            continue
        sk = levine_tristram(v_k, omega)
        sj = levine_tristram(v_j, squared)
        if sk.singular or sj.singular:
            entries.append(
                SigmaSquaredEntry(omega, sk.value, sj.value, "skipped-singular")
            )
            continue
        status = "agree" if sk.value == sj.value else "disagree"
        entries.append(SigmaSquaredEntry(omega, sk.value, sj.value, status))
    passed = all(e.status != "disagree" for e in entries)
    return SigmaSquaredReport(tuple(entries), passed)


# ---------------------------------------------------------------------------
# satellite and cable formulas


def alexander_satellite(delta_r: LaurentPoly, delta_j: LaurentPoly) -> LaurentPoly:
    """Winding-number-2 infection: Delta_R(t) * Delta_J(t^2)."""
    return _normalize_alexander(delta_r * delta_j.substitute(2))


def torus2_alexander(p: int) -> LaurentPoly:
    """Alexander polynomial of the (2,p) torus knot, p odd."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    m = (abs(p) - 1) // 2
    return LaurentPoly({k - m: 1 if k % 2 == 0 else -1 for k in range(abs(p))})


def alexander_cable2(delta_k: LaurentPoly, p: int) -> LaurentPoly:
    """Alexander polynomial of the (2,p) cable of K, p odd."""
    return _normalize_alexander(torus2_alexander(p) * delta_k.substitute(2))


def sigma_satellite(
    sigma_r: Callable[[Omega], SignatureSample],
    sigma_j: Callable[[Omega], SignatureSample],
) -> Callable[[Omega], SignatureSample]:
    """Pointwise omega -> sigma_R(omega) + sigma_J(omega^2); singular when
    either side is singular or omega^2 = 1."""

    def combined(omega: Omega) -> SignatureSample:
        squared = omega.squared()
        if squared is None:
            return SignatureSample(omega, None, True)
        r = sigma_r(omega)
        j = sigma_j(squared)
        if r.singular or j.singular:
            return SignatureSample(omega, None, True)
        return SignatureSample(omega, r.value + j.value, False)

    return combined
