"""Exact algebra substrate: integer Laurent polynomials, fraction-free
determinants, congruence signatures of symmetric matrices, Smith normal
form, and invariants of finitely presented abelian groups.

No floating point is used anywhere; all arithmetic is over unbounded
integers and rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable t.

    Immutable. Stored as a map from exponent to nonzero coefficient.
    The canonical text form lists terms by ascending exponent, e.g.
    ``t^-1 - 1 + t``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(e, int) or isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError("exponents and coefficients must be integers")
                if v != 0:
                    c[e] = v
        self._c = c

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @property
    def coefficients(self) -> dict[int, int]:
        return dict(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def __getitem__(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def substitute(self, k: int) -> "LaurentPoly":
        """Apply t -> t^k for a nonzero integer k."""
        if k == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPoly({e * k: v for e, v in self._c.items()})

    def evaluate_int(self, x: int) -> int:
        """Evaluate at an integer point, exactly. x=0 needs no negative exponents."""
        if x == 0 and self._c and self.min_exp < 0:
            raise ValueError("cannot evaluate at 0: negative exponents present")
        total = Fraction(0)
        for e, v in self._c.items():
            total += v * Fraction(x) ** e
        if total.denominator != 1:
            raise ValueError("evaluation is not an integer")
        return int(total)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[t, t^-1]; raises ValueError if not exact."""
        other = _coerce(other)
        if other is NotImplemented or other.is_zero:
            raise ValueError("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        shift = self.min_exp - other.min_exp
        num = {e - self.min_exp: v for e, v in self._c.items()}
        den = {e - other.min_exp: v for e, v in other._c.items()}
        dend = max(den)
        dlead = den[dend]
        quot: dict[int, int] = {}
        while num:
            nd = max(num)
            if nd < dend:
                raise ValueError("inexact polynomial division")
            q, r = divmod(num[nd], dlead)
            if r != 0:
                raise ValueError("inexact polynomial division")
            quot[nd - dend] = q
            for e, v in den.items():
                ne = e + nd - dend
                nv = num.get(ne, 0) - q * v
                if nv:
                    num[ne] = nv
                else:
                    num.pop(ne, None)
        return LaurentPoly({e + shift: v for e, v in quot.items()})

    def to_string(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            v = self._c[e]
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                tpart = "t" if e == 1 else f"t^{e}"
                body = tpart if mag == 1 else f"{mag}{tpart}"
            if not parts:
                parts.append(("-" if v < 0 else "") + body)
            else:
                parts.append(("- " if v < 0 else "+ ") + body)
        return " ".join(parts)

    __str__ = to_string

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_string()!r})"

    _TERM_RE = re.compile(r"^(\d+)?\s*\*?\s*(t(\^(-?\d+))?)?$")

    @classmethod
    def from_string(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text form, e.g. ``t^-1 - 1 + t`` or ``3t^2``."""
        s = text.strip()
        if s == "0":
            return cls.zero()
        # normalize: make every term start with an explicit sign token,
        # leaving exponent minuses (as in t^-1) alone
        s = re.sub(r"(?<!\^)-", "+-", s)
        chunks = [c.strip() for c in s.split("+")]
        chunks = [c for c in chunks if c]
        if not chunks:
            raise ValueError(f"cannot parse polynomial: {text!r}")
        coeffs: dict[int, int] = {}
        for chunk in chunks:
            sign = 1
            while chunk.startswith("-"):
                sign = -sign
                chunk = chunk[1:].strip()
            m = cls._TERM_RE.match(chunk)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ValueError(f"cannot parse polynomial term: {chunk!r}")
            mag = int(m.group(1)) if m.group(1) is not None else 1
            if m.group(2) is None:
                exp = 0
            elif m.group(4) is None:
                exp = 1
            else:
                exp = int(m.group(4))
            coeffs[exp] = coeffs.get(exp, 0) + sign * mag
        return cls(coeffs)


def _coerce(value) -> "LaurentPoly":
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return LaurentPoly.term(value)
    return NotImplemented


def _square_size(rows: Sequence[Sequence]) -> int:
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
    return n


def det_laurent(rows: Sequence[Sequence[LaurentPoly | int]]) -> LaurentPoly:
    """Exact determinant of a square matrix over Z[t, t^-1].

    Fraction-free Bareiss elimination; every intermediate division is
    exact in the Laurent ring. The empty matrix has determinant 1.
    """
    n = _square_size(rows)
    if n == 0:
        return LaurentPoly.one()
    a = []
    for row in rows:
        out = []
        for entry in row:
            v = _coerce(entry)
            if v is NotImplemented:
                raise ValueError("entries must be LaurentPoly or int")
            out.append(v)
        a.append(out)
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not a[i][k].is_zero), None)
        if piv is None:
            return LaurentPoly.zero()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).exact_div(prev)
            a[i][k] = LaurentPoly.zero()
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign > 0 else -result


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (empty matrix -> 1)."""
    return det_laurent(rows).evaluate_int(1)


def transpose(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    if not rows:
        return ()
    return tuple(tuple(r[j] for r in rows) for j in range(len(rows[0])))


def is_symmetric(rows: Sequence[Sequence]) -> bool:
    n = len(rows)
    return all(len(r) == n for r in rows) and all(
        rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n)
    )


def inertia(rows: Sequence[Sequence]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric rational matrix.

    Lagrange congruence diagonalization over Q. Zero diagonals are
    repaired by a symmetric row/column addition, which realizes the
    classical hyperbolic-pair step without leaving exact arithmetic.
    """
    n = _square_size(rows)
    if not is_symmetric(rows):
        raise ValueError("matrix must be symmetric")
    a = [[Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                _sym_swap(a, k, j)
            else:
                pair = _first_offdiag(a, k)
                if pair is None:
                    break  # remaining block is identically zero
                i, j = pair
                if i != k:
                    _sym_swap(a, k, i)
                    j = i if j == k else j
                for col in range(k, n):
                    a[k][col] += a[j][col]
                for row in range(k, n):
                    a[row][k] += a[row][j]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f == 0:
                continue
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
        for j in range(k + 1, n):
            a[k][j] = Fraction(0)
            a[j][k] = Fraction(0)
    zero = n - pos - neg
    return pos, neg, zero


def _sym_swap(a: list[list[Fraction]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def _first_offdiag(a, k):
    n = len(a)
    for i in range(k, n):
        for j in range(i + 1, n):
            if a[i][j] != 0:
                return i, j
    return None


def signature_exact(rows: Sequence[Sequence]) -> int:
    """Signature (positive minus negative inertia) of a symmetric matrix."""
    pos, neg, _ = inertia(rows)
    return pos - neg


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors d1 | d2 | ... (each >= 1) and rank of an integer matrix."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    factors: list[int] = []
    t = 0
    while t < min(m, n):
        piv = _smallest_nonzero(a, t)
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            # clear column t
            again = False
            for i in range(m):
                if i == t or a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                for col in range(n):
                    a[i][col] -= q * a[t][col]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    again = True
            # clear row t
            for j in range(n):
                if j == t or a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j] != 0:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    again = True
            if again:
                continue
            bad = _non_divisible(a, t)
            if bad is None:
                break
            for col in range(n):
                a[t][col] += a[bad][col]
        factors.append(abs(a[t][t]))
        t += 1
    # enforce the divisibility chain ordering (already divisible; normalize order)
    factors.sort()
    return tuple(factors), len(factors)


def _smallest_nonzero(a, t):
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def _non_divisible(a, t):
    d = a[t][t]
    for i in range(t + 1, len(a)):
        for j in range(t + 1, len(a[0])):
            if a[i][j] % d != 0:
                return i
    return None


@dataclass(frozen=True)
class AbelianInvariants:
    """Isomorphism type of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = 1
        for d in self.torsion:
            if d < 2 or d % prev != 0:
                raise ValueError("torsion must be a divisibility chain of integers >= 2")
            prev = d

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def fp_abelian_invariants(
    generators: int, relations: Iterable[Sequence[int]]
) -> AbelianInvariants:
    """Invariants of the abelian group <g_1..g_m | rows of relations>."""
    if type(generators) is not int:
        raise ValueError(f"generator count must be an integer, got {generators!r}")
    if generators < 0:
        raise ValueError("generator count must be nonnegative")
    rel = [list(row) for row in relations]
    for row in rel:
        if len(row) != generators:
            raise ValueError(
                f"relation length {len(row)} does not match generator count {generators}"
            )
        for x in row:
            if type(x) is not int:
                raise ValueError(f"relation entries must be integers, got {x!r}")
    if not rel:
        return AbelianInvariants(generators, ())
    factors, rank = smith_normal_form(rel)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(generators - rank, torsion)
