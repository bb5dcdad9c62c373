"""Independent cross-checks used by the test suite.

Everything here is deliberately computed by a different route than the
library takes, and imports only public library names: determinants by
cofactor expansion, Arf from a symplectic basis of the mod-2
intersection form, twist-box crossings by braiding the strands one half
twist at a time, Seifert matrices read brick by brick off braid words,
and Levine-Tristram signatures from the rational cos/sin coordinates of
the sample point, diagonalized by ``inertia_lagrange``, the full-update
elimination that the library's one-triangle ``inertia`` replaced.

Polynomials are the module's own: elements of Z[t] as coefficient
tuples (``zt``, ``zt_add``, ``zt_sub``, ``zt_mul``, ``zt_div_exact``),
and ``pencil(A, B)`` is A + tB over them. ``det_laurent`` is Bareiss
elimination over Z[t] with exact long division, the route the library
took before ``det_pencil`` read det(A + tB) off integer determinants;
``alexander_laurent``, ``det_int_laurent`` and
``determinant_via_alexander`` go through it, the reference for
``alexander``, ``det_int`` and the knot determinant. ``det_cofactor``
expands an integer matrix, ``det_cofactor_zt`` a matrix over Z[t].
``smith_over_z`` is the Smith normal form by reduction over Z, the
reference for ``smith_normal_form``, which reduces modulo a minor.
Results are handed back as a ``LaurentPoly`` only to be compared with
the library's.
``validate_diagram`` checks that the signed crossings between components
the curve compiler emits have signs +-1 and name components that exist;
``curve_crossings`` lists those crossings by crossing every pair of
strands, the loop the compiler ran before it crossed only the stacks of
the interleaved band pairs.
``relabel_bands``, ``rotate_attach``, ``mirror_surface``,
``append_cancelling_pair`` and ``reverse_band`` are surface moves with a
known effect on the Gordon-Litherland form, the framing and the Seifert
matrix, for metamorphic tests of the curve compiler.
``surface_problems`` is the verdict the surface readers gave on raw band
surface data before the ``BandSurface`` constructor checked it: the
structural problems, then the number of boundary circles, counted by
merging the corners that arcs and band edges join.
``boundary_walk`` is the step-by-step boundary walk the library took
before ``_boundary`` kept only the circle count and K's class;
``boundary_class`` reads that class off its first walk, the reference
for ``_boundary``'s c, as ``_crossing_chords`` (the chord signs as 2x2
determinants) is for ``_chords`` and ``_boundary_circles`` for the count.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from knotbands import BandSurface, LaurentPoly, MultipleBoundaryError
from knotbands.algebra import is_symmetric
from knotbands.diagram import CrossingList

# ---------------------------------------------------------------------------
# Z[t] on coefficient tuples, lowest power first and with no trailing
# zero, so that () is 0 and equal polynomials are equal tuples


def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def zt(x) -> tuple[int, ...]:
    """An int, or a sequence of int coefficients, as an element of Z[t]."""
    c = [x] if type(x) is int else list(x)
    if any(type(v) is not int for v in c):
        raise ValueError(f"Z[t] coefficients must be integers, got {x!r}")
    return _trim(c)


def zt_add(a, b) -> tuple[int, ...]:
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def zt_neg(a) -> tuple[int, ...]:
    return tuple(-x for x in a)


def zt_sub(a, b) -> tuple[int, ...]:
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def zt_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    return tuple(c)  # the top coefficient a[-1] * b[-1] is not 0


def zt_div_exact(num, den) -> tuple[int, ...]:
    """num / den in Z[t] by long division from the top; ValueError unless
    the quotient is in Z[t]."""
    if not den:
        raise ValueError("division by the zero polynomial")
    if len(den) == 1:
        quot = [divmod(x, den[0]) for x in num]
        if any(r for _, r in quot):
            raise ValueError("inexact polynomial division")
        return tuple(q for q, _ in quot)
    rest = list(num)
    top = den[-1]
    quot = [0] * max(len(rest) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(rest[k + len(den) - 1], top)
        if r:
            raise ValueError("inexact polynomial division")
        if q:
            quot[k] = q
            for i, d in enumerate(den):
                rest[k + i] -= q * d
    if any(rest):
        raise ValueError("inexact polynomial division")
    return _trim(quot)


def laurent(coeffs, shift: int = 0) -> LaurentPoly:
    """t^shift times the Z[t] element coeffs, as the library's value type."""
    return LaurentPoly({shift + e: v for e, v in enumerate(coeffs)})


def pencil(a, b) -> list[list[tuple[int, ...]]]:
    """The matrix A + tB over Z[t]."""
    return [[zt((u, v)) for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def _square(rows) -> int:
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
    return n


def _cofactor(rows) -> tuple[int, ...]:
    """First-row cofactor expansion over Z[t]; entries are ints or Z[t]
    coefficient sequences."""
    if _square(rows) == 0:
        return (1,)

    def rec(m):
        if len(m) == 1:
            return m[0][0]
        total = ()
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = zt_mul(m[0][j], rec(minor))
            total = zt_add(total, term) if j % 2 == 0 else zt_sub(total, term)
        return total

    return rec([[zt(e) for e in r] for r in rows])


def det_cofactor(rows) -> int:
    """Cofactor expansion of an integer matrix."""
    for r in rows:
        for e in r:
            if type(e) is not int:
                raise ValueError(f"matrix entries must be integers, got {e!r}")
    d = _cofactor(rows)
    return d[0] if d else 0


def det_cofactor_zt(rows) -> LaurentPoly:
    """Cofactor expansion of a matrix over Z[t]."""
    return laurent(_cofactor(rows))


def _det_bareiss(rows) -> tuple[int, ...]:
    """Fraction-free Bareiss elimination over Z[t]: every division by the
    previous pivot is exact in Z[t]. The empty matrix has determinant 1."""
    n = _square(rows)
    a = [[zt(e) for e in r] for r in rows]
    sign = 1
    prev = (1,)
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return ()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        akk = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                x = zt_sub(zt_mul(akk, ri[j]), zt_mul(aik, rk[j]))
                ri[j] = zt_div_exact(x, prev)
        prev = akk
    d = a[n - 1][n - 1] if n else (1,)
    return d if sign > 0 else zt_neg(d)


def det_laurent(rows) -> LaurentPoly:
    """Exact determinant of a square matrix over Z[t], by Bareiss
    elimination on coefficient tuples. Entries are ints or Z[t]
    coefficient sequences."""
    return laurent(_det_bareiss(rows))


def _alexander_centred(v) -> tuple[tuple[int, ...], int]:
    """(coeffs, shift) with Delta = t^shift * coeffs: det(V - tV^T) by
    _det_bareiss moved to centred support and +1 at t = 1, or the
    ValueError text alexander raises for a degenerate V."""
    p = _det_bareiss(pencil(v, [[-x for x in col] for col in zip(*v)]))
    if not p:
        raise ValueError("degenerate presentation: zero Alexander determinant")
    lo = next(e for e, c in enumerate(p) if c)
    hi = len(p) - 1
    if (lo + hi) % 2:
        raise ValueError("degenerate presentation: support cannot be centered")
    at_one = sum(p)
    if at_one not in (1, -1):
        raise ValueError(f"degenerate presentation: value {at_one} at t=1")
    return tuple(at_one * c for c in p), -(lo + hi) // 2


def alexander_laurent(v) -> LaurentPoly:
    """The Alexander polynomial of V by Bareiss elimination over Z[t]."""
    return laurent(*_alexander_centred(v))


def det_int_laurent(rows) -> int:
    """Integer determinant by Bareiss over Z[t], read at t = 1."""
    return sum(_det_bareiss(rows))


def determinant_via_alexander(v) -> int:
    """|Delta(-1)| from the whole Alexander polynomial of V, by
    _det_bareiss."""
    coeffs, shift = _alexander_centred(v)
    return abs(sum(c if (e + shift) % 2 == 0 else -c for e, c in enumerate(coeffs)))


def smith_over_z(rows) -> tuple[tuple[int, ...], int]:
    """Invariant factors and rank of an integer matrix by reduction over
    Z, the route the library took for singular and non-square input
    before smith_normal_form reduced modulo a maximal minor: the entry
    of least absolute value is the pivot, its row and column are cleared
    by division with remainder, and a trailing entry it does not divide
    is added into its row. Entries can grow without bound."""
    a = [list(r) for r in rows]
    for r in a:
        for e in r:
            if type(e) is not int:
                raise ValueError(f"matrix entries must be integers, got {e!r}")
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    factors = []
    for t in range(min(m, n)):
        piv = _smallest_nonzero(a, t)
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            again = False
            for i in range(m):  # clear column t
                if i == t or a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                for col in range(n):
                    a[i][col] -= q * a[t][col]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    again = True
            for j in range(n):  # clear row t
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


def arf_symplectic(v) -> int:
    """Arf invariant from the quadratic form x -> x V x^T mod 2, summed
    over a symplectic basis of the mod-2 intersection pairing."""
    n = len(v)
    if n % 2:
        raise ValueError("Seifert matrix must have even rank")

    def q(x) -> int:
        return sum(v[i][j] for i in range(n) for j in range(n) if x[i] and x[j]) % 2

    m = [[(v[i][j] + v[j][i]) % 2 for j in range(n)] for i in range(n)]

    def pair(x, y) -> int:
        return sum(m[i][j] for i in range(n) for j in range(n) if x[i] and y[j]) % 2

    vecs = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    arf = 0
    while vecs:
        e = vecs[0]
        partner = next((w for w in vecs[1:] if pair(e, w)), None)
        if partner is None:
            raise ValueError("mod-2 intersection form is degenerate")
        arf = (arf + q(e) * q(partner)) % 2
        rest = []
        for w in vecs[1:]:
            if w is partner:
                continue
            if pair(w, partner):
                w = tuple((a + b) % 2 for a, b in zip(w, e))
            if pair(w, e):
                w = tuple((a + b) % 2 for a, b in zip(w, partner))
            rest.append(w)
        vecs = rest
    return arf


def inertia_lagrange(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia by Lagrange congruence over Q
    with the full update: every entry right of the pivot column in every
    row below the pivot, so both triangles are eliminated and row and
    column k are zeroed after step k."""
    n = _square(rows)
    for row in rows:
        for x in row:
            if type(x) is not int and not isinstance(x, Fraction):
                raise ValueError(
                    f"matrix entries must be integers or Fractions, got {x!r}"
                )
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


def _sym_swap(a, i, j) -> None:
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


def omega_trig(s) -> tuple[Fraction, Fraction]:
    """(cos, sin) of the sample point named by s: the Pythagorean point
    ((1-s^2)/(1+s^2), 2s/(1+s^2)), or (-1, 0) for s = None."""
    if s is None:
        return Fraction(-1), Fraction(0)
    den = 1 + s * s
    return (1 - s * s) / den, 2 * s / den


def levine_tristram_trig(v, cos, sin) -> int | None:
    """Signature of (1-omega)V + (1-conj(omega))V^T at omega = cos + i sin,
    None when that form is singular.

    The form is Re + i Im with Re = (1-cos)(V+V^T) and Im = sin(V^T-V);
    its rational realification [[Re, -Im], [Im, Re]] has twice its
    signature.
    """
    n = len(v)
    re = [[(1 - cos) * (v[i][j] + v[j][i]) for j in range(n)] for i in range(n)]
    im = [[sin * (v[j][i] - v[i][j]) for j in range(n)] for i in range(n)]
    big = [r + [-x for x in m] for r, m in zip(re, im)]
    big += [m + r for r, m in zip(re, im)]
    pos, neg, zero = inertia_lagrange(big)
    return None if zero else (pos - neg) // 2


def relabel_bands(F: BandSurface, perm) -> BandSurface:
    """F with band i renamed perm[i]; G becomes permute(G, perm)."""
    twists = [0] * F.n_bands
    for i, h in enumerate(F.half_twists):
        twists[perm[i]] = h
    return BandSurface.build(
        twists,
        [(perm[i], e) for i, e in F.attach],
        [
            ((perm[ev.over[0]], ev.over[1]), (perm[ev.under[0]], ev.under[1]), ev.sign)
            for ev in F.route
        ],
    )


def rotate_attach(F: BandSurface, k: int) -> BandSurface:
    """F with its cyclic attach order started at position k: a rotation
    of the disk, so G, the framing and V are unchanged."""
    attach = F.attach[k:] + F.attach[:k]
    return BandSurface.build(F.half_twists, attach, F.route)


def mirror_surface(F: BandSurface) -> BandSurface:
    """The mirror image: half twists and event signs negated, over and
    under swapped. G -> -G, framing -> -framing, V -> -V^T."""
    return BandSurface.build(
        [-h for h in F.half_twists],
        F.attach,
        [(ev.under, ev.over, -ev.sign) for ev in F.route],
    )


def append_cancelling_pair(F: BandSurface, i: int, j: int, s: int) -> BandSurface:
    """F with band i passing over band j twice more, with signs s and -s,
    at fresh slots after each band's last slot: a Reidemeister II pair,
    so the shape, framing, G and V are unchanged."""
    fresh: dict[int, int] = {}
    for ev in F.route:
        for b, k in (ev.over, ev.under):
            fresh[b] = max(fresh.get(b, 0), k + 1)

    def slot(b: int) -> tuple[int, int]:
        fresh[b] = fresh.get(b, 0) + 1
        return b, fresh[b] - 1

    pair = [(slot(i), slot(j), sign) for sign in (s, -s)]
    return BandSurface.build(F.half_twists, F.attach, [*F.route, *pair])


def reverse_band(F: BandSurface, i: int) -> BandSurface:
    """F with band i run the other way: its A and B ends swap, its slots
    come in the reverse order, and each event between it and another band
    changes sign, since one of the two strands now runs backwards. Core i
    becomes -core i, so G becomes DGD with D = diag(+-1), -1 at i, and the
    framing is unchanged."""
    slots = [k for ev in F.route for b, k in (ev.over, ev.under) if b == i]
    ends = min(slots, default=0) + max(slots, default=0)

    def passage(p):
        return (i, ends - p[1]) if p[0] == i else p

    route = []
    for ev in F.route:
        crossed = (ev.over[0] == i) != (ev.under[0] == i)
        route.append((passage(ev.over), passage(ev.under), -ev.sign if crossed else ev.sign))
    attach = [(b, {"A": "B", "B": "A"}[e] if b == i else e) for b, e in F.attach]
    return BandSurface.build(F.half_twists, attach, route)


def _crossing_chords(attach) -> dict[tuple[int, int], int]:
    """(i, j) -> the sign of the disk crossing of the cores of bands i < j,
    for the pairs whose ends interleave; each core chord runs from the B
    site to the A site, and site k sits at (k, k^2)."""
    site = {(i, e): k for k, (i, e) in enumerate(attach)}
    n = len(attach) // 2
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = sorted((site[i, "A"], site[i, "B"]))
            inside = sum(lo < site[j, e] < hi for e in "AB")
            if inside == 1:
                (xi, yi), (xj, yj) = (
                    (site[b, "A"] - site[b, "B"], site[b, "A"] ** 2 - site[b, "B"] ** 2)
                    for b in (i, j)
                )
                d = xi * yj - yi * xj
                out[i, j] = (d > 0) - (d < 0)
    return out


def _boundary_circles(half_twists, attach) -> int:
    """Corners (site, +-1) joined by the disk arcs and the band edges; an
    odd band crosses its edges over, and every corner meets one arc and
    one edge, so each class of joined corners is one boundary circle."""
    m = len(attach)
    if m == 0:
        return 1
    parent = {(k, s): (k, s) for k in range(m) for s in (1, -1)}

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    def join(x, y):
        parent[root(x)] = root(y)

    site = {(i, e): k for k, (i, e) in enumerate(attach)}
    for k in range(m):
        join((k, 1), ((k + 1) % m, -1))
    for i, h in enumerate(half_twists):
        a, b, flip = site[i, "A"], site[i, "B"], -1 if h % 2 else 1
        join((a, flip), (b, -1))
        join((a, -flip), (b, 1))
    return len({root(c) for c in parent})


def boundary_walk(half_twists, attach):
    """Closed walks of the boundary of the surface with these half twists
    and this well-formed attach order, and their count; each walk starts
    at the first corner not yet walked, in the order (0, -1), (0, +1),
    (1, -1), ..., and leaves it along the disk arc.

    Each walk is a tuple of steps: ("band", band, edge, dir) for a traversal
    of one band edge (edge 0/1; dir +1 means A toward B) or ("arc", k) for
    the disk arc following attach position k.
    """
    n = len(half_twists)
    if n == 0:
        return ((),), 1
    site = {(i, e): k for k, (i, e) in enumerate(attach)}
    m = 2 * n
    # corners (position, +1|-1); every corner meets one arc and one band edge
    arc_of: dict[tuple[int, int], tuple] = {}
    band_of: dict[tuple[int, int], tuple] = {}
    for k in range(m):
        arc_of[(k, 1)] = ("arc", k, (k, 1), ((k + 1) % m, -1))
        arc_of[((k + 1) % m, -1)] = ("arc", k, (k, 1), ((k + 1) % m, -1))
    for i in range(n):
        a, b, h = site[i, "A"], site[i, "B"], half_twists[i]
        flip = -1 if h % 2 else 1
        # edge 0 leaves end B at its -1 corner; an odd twist box swaps
        # which corner of end A it reaches
        e0 = ("band", i, 0, (a, flip), (b, -1))
        e1 = ("band", i, 1, (a, -flip), (b, 1))
        for e in (e0, e1):
            band_of[e[3]] = e
            band_of[e[4]] = e
    walks = []
    used = set()
    for start_corner in sorted(arc_of):
        if start_corner in used:
            continue
        steps = []
        corner = start_corner
        use_arc = True
        while True:
            used.add(corner)
            edge = arc_of[corner] if use_arc else band_of[corner]
            x, y = edge[-2], edge[-1]
            nxt = y if corner == x else x
            if edge[0] == "arc":
                steps.append(("arc", edge[1]))
            else:
                i = edge[1]
                direction = 1 if corner[0] == site[i, "A"] else -1
                steps.append(("band", i, edge[2], direction))
            corner = nxt
            use_arc = not use_arc
            if corner == start_corner and use_arc:
                break
        walks.append(tuple(steps))
    return tuple(walks), len(walks)


def boundary_class(half_twists, attach) -> list[int]:
    """K's class in H_1(F) as sum c_i*core_i, read off the first walk of
    ``boundary_walk``: c_i sums the directions of its steps on band i."""
    c = [0] * len(half_twists)
    for step in boundary_walk(half_twists, attach)[0][0]:
        if step[0] == "band":
            c[step[1]] += step[3]
    return c


def surface_problems(half_twists, attach, route):
    """None for valid one-boundary surface data, else the (exception type,
    message) a surface reader raised for it: every structural problem,
    the attach order's first, then the route's, then the crossing
    balance; failing those, the boundary circle count."""
    n = len(half_twists)
    problems = []
    if len(attach) != 2 * n:
        problems.append(f"attach has length {len(attach)}, expected {2 * n}")
    seen = set()
    for i, e in attach:
        if e not in ("A", "B"):
            problems.append(f"attach end {e!r} is not 'A' or 'B'")
        elif not 0 <= i < n:
            problems.append(f"attach references band {i}, out of range")
        elif (i, e) in seen:
            problems.append(f"band {i} end {e} attached more than once")
        seen.add((i, e))
    if not problems:
        first_use = {}
        for k, ev in enumerate(route):
            if ev.sign not in (1, -1):
                problems.append(f"route event {k} has sign {ev.sign}")
            for role, (b, s) in (("over", ev.over), ("under", ev.under)):
                if not 0 <= b < n:
                    problems.append(f"route event {k} {role} band {b} out of range")
                elif first_use.setdefault((b, s), (k, role))[0] != k:
                    first, first_role = first_use[b, s]
                    problems.append(
                        f"band {b} slot {s} used twice: as {first_role} in event "
                        f"{first} and as {role} in event {k}"
                    )
            if ev.over == ev.under:
                problems.append(f"route event {k} crosses a slot with itself")
    if not problems:
        chords = _crossing_chords(attach)
        for i in range(n):
            for j in range(i + 1, n):
                net = sum(
                    ev.sign if (ev.over[0], ev.under[0]) == (i, j) else -ev.sign
                    for ev in route
                    if {ev.over[0], ev.under[0]} == {i, j}
                )
                if net != -chords.get((i, j), 0):
                    problems.append(
                        f"route crossings between bands {i} and {j} are unbalanced: "
                        f"net {net} over-minus-under, expected {-chords.get((i, j), 0)}; "
                        "no classical surface realizes this"
                    )
    if problems:
        return ValueError, "invalid surface: " + "; ".join(problems)
    circles = _boundary_circles(half_twists, attach)
    if circles != 1:
        return MultipleBoundaryError, f"multiple boundary components: boundary walk found {circles}"
    return None


def permute(m, perm) -> tuple[tuple[int, ...], ...]:
    """The matrix with row and column i moved to perm[i]."""
    out = [[0] * len(m) for _ in m]
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            out[perm[i]][perm[j]] = x
    return tuple(tuple(row) for row in out)


def validate_diagram(d: CrossingList) -> list[str]:
    """All invariant violations of the crossing list; empty means ok."""
    problems: list[str] = []
    for k, x in enumerate(d.crossings):
        if x.sign not in (1, -1):
            problems.append(f"crossing {k} has sign {x.sign}, expected +1 or -1")
        for role, c in (("over", x.over), ("under", x.under)):
            if not 0 <= c < d.n_components:
                problems.append(f"crossing {k} {role} component {c} out of range")
    return problems


def curve_crossings(F: BandSurface, keys) -> tuple[dict, list[tuple[int, int, int]]]:
    """The components of each valid request key and the (sign, over
    component, under component) crossings the curve compiler lists, from
    one flat list of strands (band, height, component) in request order.

    At a route event every strand of the over band crosses every strand
    of the under band. On the disk every pair of strands on interleaved
    bands crosses once: the higher strand goes over, at equal height the
    one on the lower band index, and the sign is the ``_crossing_chords``
    sign when the lower band's strand is over and its negative otherwise.
    """
    strands: list[tuple[int, int, int]] = []
    components = {}
    n_comp = 0
    for key in keys:
        i = key[1]
        if key[0] == "tau":
            comps = (n_comp, n_comp + 1) if F.half_twists[i] % 2 == 0 else (n_comp,)
            strands += [(i, 1, comps[0]), (i, -1, comps[-1])]
        else:
            comps = (n_comp,)
            strands.append((i, key[2] if key[0] == "pushoff" else 0, n_comp))
        components[key] = comps
        n_comp += len(comps)
    crossings = [
        (ev.sign, x, y)
        for ev in F.route
        for bx, _, x in strands
        if bx == ev.over[0]
        for by, _, y in strands
        if by == ev.under[0]
    ]
    chords = _crossing_chords(F.attach)
    for a in range(len(strands)):
        for b in range(a + 1, len(strands)):
            s1, s2 = strands[a], strands[b]
            d = chords.get((min(s1[0], s2[0]), max(s1[0], s2[0])))
            if d is None:
                continue
            over, under = (s1, s2) if (s1[1], -s1[0]) > (s2[1], -s2[0]) else (s2, s1)
            crossings.append((d if over[0] < under[0] else -d, over[2], under[2]))
    return components, crossings


def twist_box_over_counts(directions, h) -> dict[tuple[int, int], int]:
    """Signed crossing counts of an h-half-twist box, keyed (over, under)
    by strand position, with the strands listed bottom to top by their
    directions.

    Each half twist reverses the strand order by explicit adjacent swaps;
    every swap is one crossing, signed sign(h) times the two directions,
    and in a positive box the strand lower at the swap goes over.
    """
    s_box = 1 if h > 0 else -1
    order = list(range(len(directions)))
    counts: dict[tuple[int, int], int] = {}
    for _ in range(abs(h)):
        for span in range(len(order) - 1, 0, -1):
            for j in range(span):
                x, y = order[j], order[j + 1]
                over, under = (x, y) if s_box > 0 else (y, x)
                sign = s_box * directions[x] * directions[y]
                counts[over, under] = counts.get((over, under), 0) + sign
                order[j], order[j + 1] = y, x
    return counts


def braid_closure_components(word) -> int:
    n = max(abs(c) for c in word) + 1
    perm = list(range(n))
    for c in word:
        i = abs(c) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * n
    cycles = 0
    for s in range(n):
        if not seen[s]:
            cycles += 1
            t = s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
    return cycles


def seifert_from_braid(word) -> list[list[int]]:
    """Seifert matrix of the braid closure, from the surface with one
    disk per strand and one band per letter.

    Generators are "bricks": loops through consecutive bands in the same
    column. Only knots are accepted.
    """
    word = [int(c) for c in word]
    if not word or any(c == 0 for c in word):
        raise ValueError("braid word must be a non-empty list of nonzero integers")
    n = max(abs(c) for c in word) + 1
    if braid_closure_components(word) != 1:
        raise ValueError("closure is a link, not a knot")
    cols: dict[int, list[int]] = {}
    for pos, c in enumerate(word):
        cols.setdefault(abs(c), []).append(pos)
    if sorted(cols) != list(range(1, n)):
        raise ValueError("every column must be used")
    bricks = []
    for col in sorted(cols):
        ps = cols[col]
        bricks.extend((col, a, b) for a, b in zip(ps, ps[1:]))
    if len(bricks) != len(word) - n + 1:
        raise AssertionError("brick count disagrees with first homology rank")
    e = [1 if c > 0 else -1 for c in word]
    size = len(bricks)
    V = [[0] * size for _ in range(size)]
    for x in range(size):
        _, ax, bx = bricks[x]
        V[x][x] = -(e[ax] + e[bx]) // 2
    for x in range(size):
        cx, ax, bx = bricks[x]
        for y in range(x + 1, size):
            cy, ay, by = bricks[y]
            if cx == cy:
                if bx == ay:  # x sits directly above y, sharing band bx
                    if e[bx] > 0:
                        V[x][y] = 1
                    else:
                        V[y][x] = -1
                continue
            if abs(cx - cy) != 1:
                continue
            # interleaved spans cross once on the shared disk; the
            # lower-column brick's row carries the unit, positive when
            # that brick starts first (calibrated on T(3,4), T(3,5),
            # the chiral trefoils, and the cable consistency fixture)
            if ax < ay < bx < by:
                lower_first = cx < cy
            elif ay < ax < by < bx:
                lower_first = cy < cx
            else:
                continue  # nested or disjoint spans never link
            low, high = (x, y) if cx < cy else (y, x)
            V[low][high] = 1 if lower_first else -1
    return V


# words for the calibration battery and the cable fixture
RIGHT_TREFOIL_WORD = (1, 1, 1)
LEFT_TREFOIL_WORD = (-1, -1, -1)
FIGURE_EIGHT_WORD = (1, -2, 1, -2)
T25_WORD = (1, 1, 1, 1, 1)
T27_WORD = (1,) * 7
GRANNY_WORD = (1, 1, 1, 2, 2, 2)
SQUARE_KNOT_WORD = (1, 1, 1, -2, -2, -2)
T34_WORD = (1, 2, 1, 2, 1, 2, 1, 2)
T35_WORD = (1, 2) * 5

# the (2,1) cable of the right trefoil: double every letter of the
# trefoil word in B4, then correct the doubled strands' mutual winding
# (writhe 3 doubles to 6 crossings, and 6 - 5 = 1 gives the odd cable)
CABLE21_TREFOIL_WORD = (2, 1, 3, 2) * 3 + (-1,) * 5
