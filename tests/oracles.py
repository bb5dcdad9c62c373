"""Independent cross-checks used by the test suite.

Everything here is deliberately computed by a different route than the
library takes: determinants by cofactor expansion, Arf from a symplectic
basis of the mod-2 intersection form, twist-box crossings by braiding the
strands one half twist at a time, and Seifert matrices read brick by
brick off braid words.
"""

from __future__ import annotations

from knotbands import LaurentPoly


def _as_poly(entry):
    if isinstance(entry, LaurentPoly):
        return entry
    return LaurentPoly({0: int(entry)})


def det_cofactor(rows) -> LaurentPoly:
    """First-row cofactor expansion over the Laurent ring."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return LaurentPoly({0: 1})
    grid = [[_as_poly(e) for e in r] for r in rows]

    def rec(m):
        size = len(m)
        if size == 1:
            return m[0][0]
        total = LaurentPoly.zero()
        for j in range(size):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = m[0][j] * rec(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    return rec(grid)


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
