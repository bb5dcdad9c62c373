"""Exact algebra substrate: the integer Laurent polynomial as a value
(product, negation, shift, t -> t^k, evaluation; no ring sum), one check
of integer-matrix input, one fraction-free elimination that gives the
rank and a nonzero maximal minor, the integer determinant from it, one
fraction-free solver that reads det(A + tB) off n + 1 of its values,
Smith normal form modulo that minor, congruence signatures of symmetric
matrices, and invariants of finitely presented abelian groups.

No floating point is used anywhere; all arithmetic is over unbounded
integers and rationals.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd

from .record import Record


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable t.

    Immutable. Stored as a map from exponent to nonzero coefficient.
    The canonical text form lists terms by ascending exponent, e.g.
    ``t^-1 - 1 + t``. It is a value with the operations the library
    uses: product, negation, shift, t -> t^k and integer evaluation.
    There is no sum, and it equals only another LaurentPoly.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(e) is not int or type(v) is not int:
                    raise ValueError("exponents and coefficients must be integers")
                if v != 0:
                    c[e] = v
        self._c = c

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    def shift(self, k: int) -> "LaurentPoly":
        """The product with t^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    def substitute(self, k: int) -> "LaurentPoly":
        """Apply t -> t^k for a nonzero integer k."""
        if type(k) is not int:
            raise ValueError(f"substitution exponent must be an integer, got {k!r}")
        if k == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPoly({e * k: v for e, v in self._c.items()})

    def evaluate_int(self, x: int) -> int:
        """Evaluate at an integer point, exactly. x=0 needs no negative exponents."""
        if type(x) is not int:
            raise ValueError(f"evaluation point must be an integer, got {x!r}")
        if x == 0 and self._c and self.min_exp < 0:
            raise ValueError("cannot evaluate at 0: negative exponents present")
        total = Fraction(0)
        for e, v in self._c.items():
            total += v * Fraction(x) ** e
        if total.denominator != 1:
            raise ValueError("evaluation is not an integer")
        return int(total)

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


def _check_shape(rows, square: bool = True) -> None:
    """The matrix and each of its rows must be a list or a tuple, so that
    a JSON object, a string or a number is not read as rows; every row
    has len(rows) entries when square, else as many as the first."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"matrix must be a list of rows, got {rows!r}")
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"each matrix row must be a list of integers, got {row!r}")
    width = len(rows) if square or not rows else len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix must be square" if square else "ragged matrix")


def int_matrix(rows, square: bool = True) -> list[list[int]]:
    """A fresh list-of-lists copy of an integer matrix, checked.

    The shape is checked by _check_shape. Every entry must be an int:
    floats and bools are rejected, not truncated.
    """
    _check_shape(rows, square)
    for row in rows:
        for x in row:
            if type(x) is not int:
                raise ValueError(f"matrix entries must be integers, got {x!r}")
    return [list(row) for row in rows]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (empty matrix -> 1).

    The last pivot of _bareiss when the rank is full, else 0. Entries
    must be ints; floats, bools and LaurentPoly entries are rejected.
    det_pencil builds det(A + tB) from it.
    """
    a = int_matrix(rows)
    rank, minor = _bareiss(a)
    return minor if rank == len(a) else 0


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """Rank r of an m x n integer matrix, and +-a nonzero r x r minor.

    Fraction-free Bareiss elimination over Z (Bareiss, Math. Comp. 1968),
    in place on a. When column k has no pivot in rows k.., a later column
    that has one is swapped in. The swaps permute the input to P a Q, and
    after step k every entry of the trailing block is a (k+1)-minor of
    P a Q, so the division by the previous pivot is exact and ``//``
    never rounds. The pivot of step k is the leading (k+1)-minor; when
    the trailing block is zero, every minor that borders the leading
    r x r one is 0 and the rank is r. The minor comes back with the sign
    of the swaps, so for a square matrix of full rank it is det(a). This
    is the library's one triangular elimination over Z; _scaled_inverse
    takes the same step above the pivot as well, to invert.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    sign = 1
    prev = 1
    for k in range(min(m, n)):
        piv = next(((i, j) for j in range(k, n) for i in range(k, m) if a[i][j]), None)
        if piv is None:
            return k, sign * prev
        i, j = piv
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
            sign = -sign
        rk = a[k]
        akk = rk[k]
        for i in range(k + 1, m):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (akk * ri[j] - aik * rk[j]) // prev
        prev = akk
    return min(m, n), sign * prev


def _scaled_inverse(m: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(R, c), c != 0, with R M = c I for an invertible square integer M.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [M | I] ends at
    [c I | R], every division by the previous pivot exact, and R is the
    product of the row steps. det_pencil and alexander read polynomial
    coefficients off values with this, the library's one exact solver.
    """
    n = len(m)
    rows = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        i = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[i] = rows[i], rows[k]
        rk = rows[k]
        akk = rk[k]
        rows = [
            ri if i == k else [(akk * a - ri[k] * b) // prev for a, b in zip(ri, rk)]
            for i, ri in enumerate(rows)
        ]
        prev = akk
    return tuple(tuple(row[n:]) for row in rows), prev


def det_pencil(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> LaurentPoly:
    """det(A + tB) for square integer matrices A and B of one size.

    P(x) = det(A + xB) has degree at most n and leading coefficient
    det(B), so its coefficients p solve M p = (P(0), ..., P(n-1), det B)
    with row x of M the powers (1, x, ..., x^n) and a last row e_n. M is
    invertible, a Vandermonde block over a unit row, and with R M = c I
    from _scaled_inverse each p_j is one exact division. Every value is
    one det_int, and det_int(A) and det_int(B) check the entries. The
    empty matrix gives 1.
    """
    values = [det_int(a)]
    top = det_int(b)
    n = len(a)
    if len(b) != n:
        raise ValueError("matrices must have one size")
    values += [
        det_int([[u + x * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)])
        for x in range(1, n)
    ]
    values[n:] = [top]  # for n = 0, P(0) = 1 = det B is the only value
    R, c = _scaled_inverse([[x**j for j in range(n + 1)] for x in range(n)] + [[0] * n + [1]])
    return LaurentPoly(
        {j: sum(r * v for r, v in zip(row, values)) // c for j, row in enumerate(R)}
    )


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
    """(positive, negative, zero) inertia of a symmetric integer matrix.

    Lagrange congruence diagonalization over Q. Zero diagonals are
    repaired by a symmetric row/column addition, which realizes the
    classical hyperbolic-pair step without leaving exact arithmetic.
    Entries must be ints; floats, bools and Fractions are rejected.

    Elimination works on one triangle: pivot k's multipliers come from
    row k (a[i][k] = a[k][i]), each row i > k updates only its columns
    j >= i, and every new value is copied into a[j][i], so the trailing
    block stays a full symmetric matrix for the swap and repair steps.
    Row and column k are never read again and are left as they are.

    Integers stay integers until an update touches them. int_matrix
    copies the rows, and swaps and repairs add ints to ints. Only the
    pivot is made a Fraction, so every multiplier a[k][i] / d is one:
    an int divided by an int would be a float. A zero a[k][i] is
    skipped before any division.
    """
    a = int_matrix(rows)
    if not is_symmetric(a):
        raise ValueError("matrix must be symmetric")
    n = len(a)
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
        d = Fraction(a[k][k])
        if d > 0:
            pos += 1
        else:
            neg += 1
        ak = a[k]
        for i in range(k + 1, n):
            if not ak[i]:
                continue
            f = ak[i] / d
            ai = a[i]
            for j in range(i, n):
                ai[j] = a[j][i] = ai[j] - f * ak[j]
    zero = n - pos - neg
    return pos, neg, zero


def _sym_swap(a: list[list], i: int, j: int) -> None:
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
    """Invariant factors d1 | d2 | ... | dr (each >= 1) and rank r of an
    integer matrix, computed modulo D = |a nonzero r x r minor|, so no
    entry outgrows D.

    _bareiss gives r and D. Why reducing modulo D is exact: d1...dr is
    the gcd of all r x r minors, so every di divides D. Z^n / rows is
    Z^(n-r) + sum Z/di, so its quotient by D, Z^n / (rows + D Z^n), is
    sum Z/di + (Z/D)^(n-r). Row and column steps that are unimodular
    mod D do not change that module; they bring the matrix to a diagonal
    (e_1, ..., e_min(m,n)), which presents it as the sum of the
    Z/gcd(e_i, D) and (Z/D)^(n-min(m,n)). Cancelling the last summand
    leaves min(m, n) cyclic groups whose divisibility chain is
    (d1, ..., dr, D, ..., D), and its first r entries are the answer.
    For square nonsingular input D = |det|.

    Step t clears column t and then row t of the trailing block with
    _pivot_step; rows and columns before t are already clear. A gcd/lcm
    pass turns the orders gcd(e_i, D) into the chain.
    """
    rank, minor = _bareiss(int_matrix(rows, square=False))
    if not rank:
        return (), 0
    mod = abs(minor)
    a = [[x % mod for x in row] for row in rows]
    m, n = len(a), len(a[0])
    diag = []
    for t in range(min(m, n)):
        rt = a[t]
        clear = False
        while not clear:
            for i in range(t + 1, m):
                ri = a[i]
                if ri[t]:
                    (c00, c01), (c10, c11) = _pivot_step(rt[t], ri[t], mod)
                    for j in range(t, n):
                        x, y = rt[j], ri[j]
                        rt[j], ri[j] = (c00 * x + c01 * y) % mod, (c10 * x + c11 * y) % mod
            clear = True
            for j in range(t + 1, n):
                if rt[j]:
                    step = _pivot_step(rt[t], rt[j], mod)
                    clear = clear and step[0] == (1, 0)
                    (c00, c01), (c10, c11) = step
                    for i in range(t, m):
                        ri = a[i]
                        x, y = ri[t], ri[j]
                        ri[t], ri[j] = (c00 * x + c01 * y) % mod, (c10 * x + c11 * y) % mod
        diag.append(gcd(rt[t], mod))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag[:rank]), rank


def _pivot_step(p: int, x: int, mod: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """A 2 x 2 matrix of determinant 1 that takes (p, x) to (p', 0) modulo mod.

    When g = gcd(p, mod) divides x, p divides x in Z/mod, and the step
    subtracts a multiple of p and keeps it: ((1, 0), (-q, 1)). (The
    extended gcd alone could swap two equal entries back and forth
    forever.) Otherwise p' = gcd(p, x) from the extended gcd, and
    gcd(p', mod) is a proper divisor of g, so a pivot takes at most
    log2(mod) such steps.
    """
    g = gcd(p, mod)
    if x % g == 0:
        m = mod // g
        q = x // g * pow(p // g, -1, m) % m
        return (1, 0), (-q, 1)
    # extended Euclid: g = u*p + v*x, as p, x >= 0 and not both 0
    u, v, u1, v1, r, r1 = 1, 0, 0, 1, p, x
    while r1:
        k = r // r1
        u, v, u1, v1, r, r1 = u1, v1, u - k * u1, v - k * v1, r1, r - k * r1
    return (u, v), (-x // r, p // r)


class AbelianInvariants(Record):
    """Isomorphism type of a finitely generated abelian group."""

    __slots__ = ("free_rank", "torsion")
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
    rel = list(relations)
    for row in rel:
        # a string or a JSON object would otherwise be read as a row of
        # its characters or keys
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"each relation must be a list of integers, got {row!r}")
        if len(row) != generators:
            raise ValueError(
                f"relation length {len(row)} does not match generator count {generators}"
            )
    if not rel:
        return AbelianInvariants(generators, ())
    factors, rank = smith_normal_form(rel)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(generators - rank, torsion)
