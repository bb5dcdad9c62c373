"""The three benchmark workloads: seeded inputs, the timed call, output checks.

Each workload is a fixed list of item classes. One *round* runs every
class once, in an order shuffled by the seed, and the benchmark only stops
at a round boundary, so every run sees the same mix of sizes and the
medians and throughput do not depend on where the clock ran out. The seed
chooses the content of each item (which surface, braid word, core, sign).

Inputs come from the benchmark's own generators, never from
``knotbands.obstruct.random_*``, so a change to the library cannot move
them. The Seifert matrices are read off seeded braid words by
``tests/oracles.seifert_from_braid``, which never touches the library's
band-surface code.

An item is ``make`` (seeded input, JSON data), ``prepare`` (untimed
conversion to call arguments), ``run`` (the timed library call),
``output`` (untimed conversion of the result to JSON data) and ``check``
(identities the benchmark verifies with its own integer arithmetic).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from itertools import product

from knotbands import algebra, bandform, cli, invariants

import oracles


# ---------------------------------------------------------------------------
# shared helpers


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _boundary_components(twists, attach) -> int:
    """Boundary circles of a disk with bands, by union-find on the 4n
    corners: each attach site k has corners (k,+) and (k,-); the disk arc
    after site k joins (k,+) to (k+1,-); an even band joins (a,+)-(b,-)
    and (a,-)-(b,+), an odd band (a,+)-(b,+) and (a,-)-(b,-)."""
    m = len(attach)
    parent = list(range(2 * m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(x, y):
        parent[find(x)] = find(y)

    plus, minus = (lambda k: 2 * k), (lambda k: 2 * k + 1)
    for k in range(m):
        join(plus(k), minus((k + 1) % m))
    pos = {tok: k for k, tok in enumerate(attach)}
    for i, h in enumerate(twists):
        a, b = pos[(i, "A")], pos[(i, "B")]
        if h % 2:
            join(plus(a), plus(b))
            join(minus(a), minus(b))
        else:
            join(plus(a), minus(b))
            join(minus(a), plus(b))
    return len({find(x) for x in range(2 * m)})


def _forced_crossings(n, attach):
    """For each band pair i<j whose ends interleave on the disk, the sign
    d of det(chord_i, chord_j), chords running from the B site to the A
    site of the band at points P(k) = (k, k^2). The route must contain a
    net -d of i-over-j crossings for the data to be embeddable."""
    pos = {tok: k for k, tok in enumerate(attach)}
    m = len(attach)
    out = []
    for i in range(n):
        ai, bi = pos[(i, "A")], pos[(i, "B")]
        span = (ai - bi) % m
        for j in range(i + 1, n):
            aj, bj = pos[(j, "A")], pos[(j, "B")]
            inside = (0 < (aj - bi) % m < span) + (0 < (bj - bi) % m < span)
            if inside != 1:
                continue
            di = (ai - bi, ai * ai - bi * bi)
            dj = (aj - bj, aj * aj - bj * bj)
            out.append((i, j, _sign(di[0] * dj[1] - di[1] * dj[0])))
    return out


_TERM = re.compile(r"(\d*)(t(?:\^(-?\d+))?)?")


def parse_laurent(text: str) -> dict[int, int]:
    """Coefficients of a polynomial printed as 't^-1 - 1 + t'."""
    parts = re.split(r" ([+-]) ", text.strip())
    coeffs: dict[int, int] = {}
    for k in range(0, len(parts), 2):
        term = parts[k]
        sign = -1 if k and parts[k - 1] == "-" else 1
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        m = _TERM.fullmatch(term)
        if m is None or not (m[1] or m[2]):
            raise ValueError(f"unparseable polynomial {text!r}")
        digits, has_t, exp = m.groups()
        c = int(digits) if digits else 1
        e = (int(exp) if exp is not None else 1) if has_t else 0
        coeffs[e] = coeffs.get(e, 0) + sign * c
    return {e: c for e, c in coeffs.items() if c}


# ---------------------------------------------------------------------------
# surfaces: library API on one band surface


class Surfaces:
    """shape, framing, gl_form (and seifert_matrix when orientable) of one
    seeded surface with 8-24 bands, 40-200 route events, |half twists| <= 5.

    The load falls on diagram.linking_number and bandform.compile_curves
    with many strands and short twist boxes; algebra is not used."""

    name = "surfaces"
    # (bands, target route events, orientable); 15 classes, an odd count,
    # so the median falls inside a class and not between two
    classes = [
        (n, e, k % 2 == 0)
        for k, (n, e) in enumerate(product((8, 12, 16, 20, 24), (40, 120, 200)))
    ]
    warmup_classes = [(4, 10, True), (5, 10, False)]

    @staticmethod
    def make(rng, cls) -> dict:
        n, target, orientable = cls
        while True:
            if orientable:
                twists = [2 * rng.randint(-2, 2) for _ in range(n)]
            else:
                twists = [rng.randint(-5, 5) for _ in range(n)]
                if all(h % 2 == 0 for h in twists):
                    k = rng.randrange(n)
                    twists[k] += 1 if twists[k] < 5 else -1
            attach = [(i, e) for i in range(n) for e in "AB"]
            rng.shuffle(attach)
            if _boundary_components(twists, attach) == 1:
                break
        slots = [0] * n

        def slot(b):
            slots[b] += 1
            return [b, slots[b] - 1]

        route = []
        for i, j, d in _forced_crossings(n, attach):
            if rng.random() < 0.5:
                route.append((slot(i), slot(j), -d))
            else:
                route.append((slot(j), slot(i), d))
        budget = target - len(route)
        while budget > 0:
            roll = rng.random()
            s = rng.choice((1, -1))
            if budget >= 2 and roll < 0.35:
                # a canceling pair: i over j twice, opposite signs
                i, j = rng.sample(range(n), 2)
                route.append((slot(i), slot(j), s))
                route.append((slot(i), slot(j), -s))
                budget -= 2
            elif budget >= 2 and roll < 0.7:
                # a clasp: i over j, then j over i, same sign
                i, j = rng.sample(range(n), 2)
                route.append((slot(i), slot(j), s))
                route.append((slot(j), slot(i), s))
                budget -= 2
            else:
                i = rng.randrange(n)
                route.append((slot(i), slot(i), s))
                budget -= 1
        return {
            "bands": [{"half_twists": h} for h in twists],
            "attach": [list(t) for t in attach],
            "route": [{"over": o, "under": u, "sign": s} for o, u, s in route],
        }

    @staticmethod
    def prepare(inp):
        return bandform.BandSurface.from_json(inp)

    @staticmethod
    def run(F):
        sh = bandform.shape(F)
        out = {"shape": sh, "framing": bandform.framing(F), "gl_form": bandform.gl_form(F)}
        if sh.orientable:
            out["seifert"] = bandform.seifert_matrix(F)
        return out

    @staticmethod
    def output(raw) -> dict:
        sh = raw["shape"]
        out = {
            "shape": [sh.orientable, sh.genus, sh.euler, sh.boundary_components],
            "framing": raw["framing"],
            "gl_form": [list(r) for r in raw["gl_form"]],
        }
        if "seifert" in raw:
            out["seifert"] = [list(r) for r in raw["seifert"]]
        return out

    @staticmethod
    def check(inp, out) -> list[str]:
        twists = [b["half_twists"] for b in inp["bands"]]
        n = len(twists)
        orientable = all(h % 2 == 0 for h in twists)
        genus = n // 2 if orientable else n
        problems = []
        if out["shape"] != [orientable, genus, 1 - n, 1]:
            problems.append(f"shape {out['shape']}")
        f = out["framing"]
        if not (f == 0 if orientable else (f - 2 * genus) % 4 == 0):
            problems.append(f"framing {f} for genus {genus}")
        G = out["gl_form"]
        if len(G) != n or any(len(r) != n for r in G):
            problems.append("gl_form has the wrong size")
            return problems
        if any(G[i][j] != G[j][i] for i in range(n) for j in range(i)):
            problems.append("gl_form is not symmetric")
        if any((G[i][i] - twists[i]) % 2 for i in range(n)):
            problems.append("gl_form diagonal parity differs from the half twists")
        if orientable:
            V = out.get("seifert") or []
            if len(V) != n or any(
                G[i][j] != V[i][j] + V[j][i] for i in range(n) for j in range(n)
            ):
                problems.append("gl_form != V + V^T")
        return problems


# ---------------------------------------------------------------------------
# seifert: library API on one Seifert matrix


def _braid_word(rng, rank: int) -> list[int]:
    """A braid word whose closure is a knot with a Seifert matrix of the
    given (even) rank: strands s, length rank + s - 1, which has the
    parity of s - 1 that a one-cycle permutation needs."""
    while True:
        s = rng.randint(2, 5)
        word = [rng.randint(1, s - 1) * rng.choice((1, -1)) for _ in range(rank + s - 1)]
        if {abs(c) for c in word} == set(range(1, s)) and oracles.braid_closure_components(word) == 1:
            return word


class Seifert:
    """alexander, signature, Levine-Tristram at DEFAULT_SAMPLES,
    determinant_knot, arf and the abelian invariants of V + V^T for one
    seeded Seifert matrix of rank 4-20.

    Almost all of the load is on algebra (inertia, det_laurent, SNF);
    bandform and diagram are not used. Rank 42 stays out: one item there
    costs about 4 s."""

    name = "seifert"
    classes = list(range(4, 21, 2))  # 9 ranks, an odd count
    warmup_classes = [2, 4]

    @staticmethod
    def make(rng, rank) -> dict:
        word = _braid_word(rng, rank)
        return {"word": word, "seifert": oracles.seifert_from_braid(word)}

    @staticmethod
    def prepare(inp):
        V = inp["seifert"]
        n = len(V)
        return V, [[V[i][j] + V[j][i] for j in range(n)] for i in range(n)]

    @staticmethod
    def run(args):
        V, sym = args
        return {
            "alexander": invariants.alexander(V),
            "signature": invariants.signature(V),
            "levine_tristram": [
                invariants.levine_tristram(V, w) for w in invariants.DEFAULT_SAMPLES
            ],
            "determinant": invariants.determinant_knot(seifert=V),
            "arf": invariants.arf(V),
            "h1_double_cover": algebra.fp_abelian_invariants(len(V), sym),
        }

    @staticmethod
    def output(raw) -> dict:
        h1 = raw["h1_double_cover"]
        return {
            "alexander": raw["alexander"].to_string(),
            "signature": raw["signature"],
            "levine_tristram": [
                [s.omega.to_json(), s.value] for s in raw["levine_tristram"]
            ],
            "determinant": raw["determinant"],
            "arf": raw["arf"],
            "h1_double_cover": [h1.free_rank, list(h1.torsion)],
        }

    @staticmethod
    def check(inp, out) -> list[str]:
        problems = []
        try:
            delta = parse_laurent(out["alexander"])
        except ValueError as exc:
            return [str(exc)]
        if sum(delta.values()) != 1:
            problems.append("Delta(1) != 1")
        if any(delta.get(-e) != c for e, c in delta.items()):
            problems.append("Delta is not symmetric")
        at_minus_one = sum(c * (-1) ** (e % 2) for e, c in delta.items())
        free_rank, torsion = out["h1_double_cover"]
        order = 1
        for d in torsion:
            order *= d
        if free_rank != 0 or order != abs(at_minus_one):
            problems.append(f"H1 of the double cover {out['h1_double_cover']} vs Delta(-1) {at_minus_one}")
        if out["determinant"] != abs(at_minus_one):
            problems.append("determinant != |Delta(-1)|")
        lt_minus_one = out["levine_tristram"][0]
        if lt_minus_one[0] != {"omega": -1} or lt_minus_one[1] != out["signature"]:
            problems.append("signature differs from Levine-Tristram at omega = -1")
        if out["arf"] != (0 if at_minus_one % 8 in (1, 7) else 1):
            problems.append("arf disagrees with Delta(-1) mod 8")
        return problems


# ---------------------------------------------------------------------------
# cables: one in-process CLI call


_CORE_FACTORS = (
    ((0, 3, 1), (4, 1, 1), (2, 5, 1)),  # (2,3) torus knot
    ((0, 5, 1), (6, 1, 1), (2, 7, 1), (8, 3, 1), (4, 9, 1)),  # (2,5) torus knot
    ((0, 1, 1),),  # positive kink
    ((0, 1, -1),),  # negative kink
)
_PRESETS = ("unknot", "trefoil", "figure-eight", "t25")


def _core(rng) -> list[list[int]]:
    """A core route: a connected sum of 0-2 small factors, each possibly
    mirrored (roles swap, signs flip)."""
    route, offset = [], 0
    for _ in range(rng.randint(0, 2)):
        factor = rng.choice(_CORE_FACTORS)
        mirrored = rng.random() < 0.5
        for o, u, s in factor:
            if mirrored:
                o, u, s = u, o, -s
            route.append([o + offset, u + offset, s])
        offset += 2 * len(factor)
    return route


# odd |p| on a log scale from 3 to 2001: 3 * 667^(k/8), k = 0..8, made odd
_P_GRID = [3, 7, 15, 35, 77, 175, 395, 889, 2001]


class Cables:
    """One `knotbands` CLI call with stdout captured: `klein` on seeded
    random cores, `cable` on a preset, or `obstruct-cable` on a preset
    pair. |p| is spread on a log scale from 3 to 2001, with seeded signs.

    bandform gets few bands with |p|-long twist boxes; algebra gets
    Laurent polynomials of degree about p from alexander_cable2; items
    with small p expose the CLI's own overhead. p >= 5001 stays out: one
    klein item there costs about 3 s."""

    name = "cables"
    # 3 verbs x 9 values of |p| = 27 classes, an odd count
    classes = list(product(("klein", "cable", "obstruct-cable"), _P_GRID))
    warmup_classes = [("klein", 3), ("cable", 3), ("obstruct-cable", 3)]

    @staticmethod
    def make(rng, cls) -> dict:
        verb, p = cls
        p *= rng.choice((1, -1))
        if verb == "klein":
            argv = ["klein", "--coreK", json.dumps(_core(rng)), "--coreJ", json.dumps(_core(rng))]
        elif verb == "cable":
            argv = ["cable", "--preset", rng.choice(_PRESETS)]
        else:
            k = rng.choice(_PRESETS)
            j = k if rng.random() < 0.5 else rng.choice(_PRESETS)
            argv = ["obstruct-cable", "--presetK", k, "--presetJ", j]
        return {"argv": argv + ["-p", str(p)], "verb": verb, "p": p}

    @staticmethod
    def prepare(inp):
        return list(inp["argv"])

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def output(raw) -> dict:
        code, text, err = raw
        try:
            data = json.loads(text)
        except ValueError:
            data = {"unparsed_stdout": text}
        return {"code": code, "stdout": data, "stdout_bytes": len(text.encode()), "stderr": err}

    @staticmethod
    def check(inp, out) -> list[str]:
        code, data, p, verb = out["code"], out["stdout"], inp["p"], inp["verb"]
        if code not in (0, 2) or "unparsed_stdout" in data:
            return [f"exit code {code}, stderr {out['stderr'][:200]!r}"]
        problems = []
        if verb == "cable":
            if data.get("framing") != 2 * p:
                problems.append(f"framing {data.get('framing')} != 2p")
            if data.get("gl_form") != [[p]]:
                problems.append(f"gl_form {data.get('gl_form')} != [[p]]")
            if data.get("determinant") != abs(p):
                problems.append(f"determinant {data.get('determinant')} != |p|")
            if code != 0:
                problems.append("cable exited 2")
        elif verb == "klein":
            G = data.get("gl_form") or []
            if data.get("framing") != 0:
                problems.append(f"framing {data.get('framing')} != 0")
            if len(G) != 2 or abs(G[0][0] * G[1][1] - G[0][1] * G[1][0]) != p * p:
                problems.append(f"|det gl_form| != p^2 for {G}")
            obstructed = data.get("slice_screen", {}).get("verdict") == "obstructed"
            if code != (2 if obstructed else 0):
                problems.append(f"exit code {code} disagrees with the verdict")
        else:
            obstructed = data.get("verdict") == "obstructed"
            argv = inp["argv"]
            if argv[argv.index("--presetK") + 1] == argv[argv.index("--presetJ") + 1] and obstructed:
                problems.append("(K, K) reported obstructed")
            if code != (2 if obstructed else 0):
                problems.append(f"exit code {code} disagrees with the verdict")
        return problems


WORKLOADS = {w.name: w for w in (Surfaces, Seifert, Cables)}
