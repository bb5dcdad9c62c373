"""Disk-band surfaces: a disk with twisted, crossing bands attached.

A surface is presented by per-band half-twist counts, the cyclic order in
which band ends meet the disk, and an ordered list of band-over-band
crossing events. ``compile_curves`` turns a surface plus a selection of
curves (boundary K, longitude lambda, band cores, pushoffs, the curve
gamma through the 2-sided cores) into a crossing-list diagram plus counted
twist-box crossings, from which framings and the Gordon-Litherland and
Seifert forms are exact linking computations.

Geometric conventions baked into the compiler:

- Band ends sit at 2n sites on a convex arc, at exact integer points
  P(k) = (k, k^2); curves through the disk run as straight chords, so two
  chords cross iff their site pairs interleave, and crossing signs are
  integer 2x2 determinants.
- All half twists of a band live in a single twist box next to end A.
  Inside the box the carried strands braid: each half twist crosses every
  pair of strands once (positive twist: the strand entering at the lower
  transverse position goes over). The box crossings are counted in closed
  form (``twist_box_counts``), not listed, so the cost of a box does not
  grow with |h|.
- At a band-over-band event, every strand of the over band crosses every
  strand of the under band once; the event sign times the two strand
  directions gives each crossing sign.
- Where two curves cross on the disk itself, the one pushed further to
  the positive side goes over; at equal height the lower band index wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .diagram import Crossing, CrossingList, classical_linking, over_counts


class MultipleBoundaryError(ValueError):
    """The surface boundary has more than one component."""


class NotOrientableError(ValueError):
    """An operation requiring an orientable surface met a one-sided band."""


class NormalFormError(ValueError):
    """The surface is not an ordered connect sum of two-band pieces."""


@dataclass(frozen=True)
class Band:
    """A band; half_twists counts signed half twists (+1 = right handed)."""

    half_twists: int


@dataclass(frozen=True)
class RouteEvent:
    """One band-over-band crossing: (band, slot) passages and a sign.

    Slots order each band's events from end A toward end B.
    """

    over: tuple[int, int]
    under: tuple[int, int]
    sign: int


@dataclass(frozen=True)
class BandSurface:
    bands: tuple[Band, ...]
    attach: tuple[tuple[int, str], ...]
    route: tuple[RouteEvent, ...]

    @staticmethod
    def build(
        half_twists: Iterable[int],
        attach: Iterable[tuple[int, str]],
        route: Iterable = (),
    ) -> "BandSurface":
        return BandSurface(
            tuple(Band(_int(h, "half_twists")) for h in half_twists),
            tuple((_int(i, "attach band index"), str(e)) for i, e in attach),
            tuple(_as_event(ev) for ev in route),
        )

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    def end_positions(self) -> tuple[dict[int, int], dict[int, int]]:
        """Maps band -> attach position of its A end resp. B end."""
        pos_a: dict[int, int] = {}
        pos_b: dict[int, int] = {}
        for k, (i, e) in enumerate(self.attach):
            (pos_a if e == "A" else pos_b)[i] = k
        return pos_a, pos_b

    def to_json(self) -> dict:
        return {
            "bands": [{"half_twists": b.half_twists} for b in self.bands],
            "attach": [["band", i, "end", e] for i, e in self.attach],
            "route": [
                {
                    "over": list(ev.over),
                    "under": list(ev.under),
                    "sign": ev.sign,
                }
                for ev in self.route
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "BandSurface":
        """Accepts attach entries as ["band", i, "end", "A"] or plain [i, "A"]."""
        try:
            bands = [b["half_twists"] for b in data["bands"]]
            attach = []
            for entry in data["attach"]:
                if len(entry) == 4:
                    attach.append((entry[1], entry[3]))
                else:
                    attach.append((entry[0], entry[1]))
            route = [(ev["over"], ev["under"], ev["sign"]) for ev in data["route"]]
            return BandSurface.build(bands, attach, route)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"malformed band surface JSON: {exc}") from exc


@dataclass(frozen=True)
class SurfaceShape:
    orientable: bool
    genus: int
    euler: int
    boundary_components: int


def _int(x, what: str) -> int:
    """x itself if it is an int; floats and bools are rejected, not truncated."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _as_event(ev) -> RouteEvent:
    if isinstance(ev, RouteEvent):
        return ev
    over, under, sign = ev
    return RouteEvent(
        (_int(over[0], "route band"), _int(over[1], "route slot")),
        (_int(under[0], "route band"), _int(under[1], "route slot")),
        _int(sign, "route sign"),
    )


def core_route(events: Iterable) -> tuple[RouteEvent, ...]:
    """Normalize a knot route given as (over_slot, under_slot, sign) triples
    or single-band RouteEvents."""
    out = []
    for ev in events:
        if isinstance(ev, RouteEvent):
            if ev.over[0] != 0 or ev.under[0] != 0:
                raise ValueError("a core route lives on a single band (index 0)")
            out.append(ev)
        else:
            o, u, s = ev
            out.append(
                RouteEvent(
                    (0, _int(o, "route slot")),
                    (0, _int(u, "route slot")),
                    _int(s, "route sign"),
                )
            )
    return tuple(out)


def mirror_core(core: Iterable) -> tuple[RouteEvent, ...]:
    """Mirror image of a knot route: crossing roles swap, signs flip."""
    return tuple(
        RouteEvent(ev.under, ev.over, -ev.sign) for ev in core_route(core)
    )


def core_writhe(core: Iterable) -> int:
    return sum(ev.sign for ev in core_route(core))


# ---------------------------------------------------------------------------
# validation and boundary combinatorics


def _point(k: int) -> tuple[int, int]:
    return (k, k * k)


def _det2(p: tuple[int, int], q: tuple[int, int]) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _strictly_between(a: int, x: int, b: int, modulus: int) -> bool:
    """Is x strictly inside the ccw arc from a to b (all mod modulus)?"""
    if a == b:
        return False
    span = (b - a) % modulus
    off = (x - a) % modulus
    return 0 < off < span


def interleave_data(F: BandSurface) -> dict[tuple[int, int], tuple[bool, int]]:
    """For each band pair i<j: (ends interleave?, orientation sign of the
    two core chords). The sign is det of the chord directions, each chord
    running from the band's B site back to its A site."""
    pos_a, pos_b = F.end_positions()
    m = 2 * F.n_bands
    out: dict[tuple[int, int], tuple[bool, int]] = {}
    for i in range(F.n_bands):
        for j in range(i + 1, F.n_bands):
            ilv = (
                _strictly_between(pos_b[i], pos_b[j], pos_a[i], m)
                + _strictly_between(pos_b[i], pos_a[j], pos_a[i], m)
            ) == 1
            di = _sub(_point(pos_a[i]), _point(pos_b[i]))
            dj = _sub(_point(pos_a[j]), _point(pos_b[j]))
            d = _det2(di, dj)
            out[(i, j)] = (ilv, (d > 0) - (d < 0))
    return out


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def validate_surface(F: BandSurface) -> list[str]:
    """All structural violations; empty means the data is well formed."""
    problems: list[str] = []
    n = F.n_bands
    if len(F.attach) != 2 * n:
        problems.append(f"attach has length {len(F.attach)}, expected {2 * n}")
    seen_ends = set()
    for i, e in F.attach:
        if e not in ("A", "B"):
            problems.append(f"attach end {e!r} is not 'A' or 'B'")
        elif not (0 <= i < n):
            problems.append(f"attach references band {i}, out of range")
        elif (i, e) in seen_ends:
            problems.append(f"band {i} end {e} attached more than once")
        else:
            seen_ends.add((i, e))
    if problems:
        return problems

    used: dict[tuple[int, int, str], int] = {}
    for k, ev in enumerate(F.route):
        if ev.sign not in (1, -1):
            problems.append(f"route event {k} has sign {ev.sign}")
        for role, (b, s) in (("over", ev.over), ("under", ev.under)):
            if not (0 <= b < n):
                problems.append(f"route event {k} {role} band {b} out of range")
                continue
            key = (b, s, role)
            if key in used:
                problems.append(
                    f"band {b} slot {s} used twice as {role} (events {used[key]} and {k})"
                )
            used[key] = k
        if ev.over[0] == ev.under[0] and ev.over[1] == ev.under[1]:
            problems.append(f"route event {k} crosses a slot with itself")
    if problems:
        return problems

    # crossing balance forced by the disk: interleaved attachment makes the
    # cores meet once on the disk, so the band-over-band counts must
    # compensate or no embedded surface has this data
    sums: dict[tuple[int, int], int] = {}
    for ev in F.route:
        i, j = ev.over[0], ev.under[0]
        if i != j:
            key = (min(i, j), max(i, j))
            sums[key] = sums.get(key, 0) + (ev.sign if i < j else -ev.sign)
    for (i, j), (ilv, dsign) in interleave_data(F).items():
        expected = -dsign if ilv else 0
        if sums.get((i, j), 0) != expected:
            problems.append(
                f"route crossings between bands {i} and {j} are unbalanced: "
                f"net {sums.get((i, j), 0)} over-minus-under, expected {expected}; "
                "no classical surface realizes this"
            )
    return problems


def boundary_walk(F: BandSurface):
    """Closed walks of the surface boundary and their count.

    Each walk is a tuple of steps: ("band", band, edge, dir) for a traversal
    of one band edge (edge 0/1; dir +1 means A toward B) or ("arc", k) for
    the disk arc following attach position k.
    """
    n = F.n_bands
    if n == 0:
        return ((),), 1
    pos_a, pos_b = F.end_positions()
    m = 2 * n
    # corners (position, +1|-1); every corner meets one arc and one band edge
    arc_of: dict[tuple[int, int], tuple] = {}
    band_of: dict[tuple[int, int], tuple] = {}
    for k in range(m):
        arc_of[(k, 1)] = ("arc", k, (k, 1), ((k + 1) % m, -1))
        arc_of[((k + 1) % m, -1)] = ("arc", k, (k, 1), ((k + 1) % m, -1))
    for i in range(n):
        a, b, h = pos_a[i], pos_b[i], F.bands[i].half_twists
        flip = -1 if h % 2 else 1
        # edge 0 runs at transverse position +2 outside the twist box; an
        # odd twist box swaps which corner of end A it reaches
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
                direction = 1 if corner[0] == pos_a[i] else -1
                steps.append(("band", i, edge[2], direction))
            corner = nxt
            use_arc = not use_arc
            if corner == start_corner and use_arc:
                break
        walks.append(tuple(steps))
    return tuple(walks), len(walks)


def shape(F: BandSurface) -> SurfaceShape:
    """Topological type of the surface; needs a single boundary component."""
    problems = validate_surface(F)
    if problems:
        raise ValueError("invalid surface: " + "; ".join(problems))
    _, count = boundary_walk(F)
    if count != 1:
        raise MultipleBoundaryError(
            f"multiple boundary components: boundary walk found {count}"
        )
    n = F.n_bands
    orientable = all(b.half_twists % 2 == 0 for b in F.bands)
    genus = n // 2 if orientable else n
    return SurfaceShape(orientable, genus, 1 - n, 1)


# ---------------------------------------------------------------------------
# the curve compiler


class _Strand:
    """One parallel running the length of a band, at a fixed transverse
    position u and height z; direction +1 means A toward B."""

    __slots__ = ("band", "u", "z", "direction", "parts", "comp")

    def __init__(self, band: int, u, z: int, direction: int):
        self.band = band
        self.u = u
        self.z = z
        self.direction = direction
        self.parts: list = []
        self.comp = -1

    def ordered_parts(self):
        parts = sorted(self.parts, key=lambda p: p[0])
        return parts if self.direction > 0 else parts[::-1]


class _Chord:
    """A straight segment across the disk between two attach sites,
    at height z; traversed start to end."""

    __slots__ = ("start", "end", "z", "tie", "parts")

    def __init__(self, start: int, end: int, z: int, tie: int):
        self.start = start
        self.end = end
        self.z = z
        self.tie = tie
        self.parts: list = []

    def ordered_parts(self):
        return sorted(self.parts, key=lambda p: p[0])


@dataclass(frozen=True)
class CompiledCurves:
    """The requested curves as a crossing-list diagram of the route-event
    and disk-chord crossings, plus the twist-box crossings as counts.

    components maps each request key to its component indices (the double
    pushoff of an even-twisted band closes up into two components);
    twist_boxes maps (over component, under component) to the signed
    count of twist-box crossings between them, which the diagram leaves
    out.
    """

    diagram: CrossingList
    components: dict
    twist_boxes: dict

    def linking(self, key_a, key_b) -> int:
        total = 0
        for ca in self.components[key_a]:
            for cb in self.components[key_b]:
                a_over_b, b_over_a = over_counts(self.diagram, ca, cb)
                total += classical_linking(
                    ca,
                    cb,
                    a_over_b + self.twist_boxes.get((ca, cb), 0),
                    b_over_a + self.twist_boxes.get((cb, ca), 0),
                )
        return total


def _normal_form_even_bands(F: BandSurface) -> list[int]:
    """Bands carrying the 2-sided cores, one per two-band piece; raises
    NormalFormError unless the surface is an ordered boundary connect sum
    of pieces attached (xA, yA, xB, yB) with exactly one odd band each."""
    n = F.n_bands
    if n == 0 or n % 2:
        raise NormalFormError("not in normal form: band count must be a positive even number")
    evens = []
    for piece in range(n // 2):
        x, y = 2 * piece, 2 * piece + 1
        block = F.attach[4 * piece : 4 * piece + 4]
        ok = (
            {block[0][0], block[1][0]} == {x, y}
            and [e for _, e in block] == ["A", "A", "B", "B"]
            and block[2][0] == block[0][0]
            and block[3][0] == block[1][0]
        )
        if not ok:
            raise NormalFormError(
                f"not in normal form: piece {piece} must attach bands {x},{y} as (xA, yA, xB, yB)"
            )
        odd_x = F.bands[x].half_twists % 2
        odd_y = F.bands[y].half_twists % 2
        if odd_x + odd_y != 1:
            raise NormalFormError(
                f"not in normal form: piece {piece} needs exactly one odd-twisted band"
            )
        evens.append(y if odd_x else x)
    return evens


def twist_box_counts(directions: Sequence[int], h: int) -> dict[tuple[int, int], int]:
    """Signed crossing counts of an h-half-twist box, keyed (over, under)
    by strand position; directions lists the strands bottom to top.

    Strands x below y cross |h| times, each with sign sign(h)*dx*dy; x is
    over at ceil(|h|/2) of them for h > 0 and at floor(|h|/2) for h < 0.
    """
    counts: dict[tuple[int, int], int] = {}
    if h == 0:
        return counts
    s_box = 1 if h > 0 else -1
    lower_over = (abs(h) + (h > 0)) // 2
    upper_over = abs(h) - lower_over
    for x, dx in enumerate(directions):
        for y in range(x + 1, len(directions)):
            sign = s_box * dx * directions[y]
            counts[x, y] = sign * lower_over
            counts[y, x] = sign * upper_over
    return counts


def compile_curves(F: BandSurface, curves: Sequence) -> CompiledCurves:
    """Compile the requested curves on F into a crossing-list diagram
    and the twist-box crossing counts.

    Request keys: "K" (the boundary), "lambda" (boundary pushed off along
    the surface), ("core", i), ("pushoff", i, +1|-1) for even-twisted
    bands, ("tau", i) (both pushoffs of core i at once), "gamma" and
    "gamma_plus" (normal-form surfaces only).
    """
    problems = validate_surface(F)
    if problems:
        raise ValueError("invalid surface: " + "; ".join(problems))
    walks, count = boundary_walk(F)
    if count != 1:
        raise MultipleBoundaryError(
            f"multiple boundary components: boundary walk found {count}"
        )
    pos_a, pos_b = F.end_positions()
    n = F.n_bands
    m_sites = 2 * n

    keys = list(curves)
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate curve request")

    strands: list[_Strand] = []
    chords: list[_Chord] = []
    loops: list[tuple] = []  # (key, [loop, ...]), loop = itinerary entries

    def new_strand(band, u, z, direction):
        s = _Strand(band, u, z, direction)
        strands.append(s)
        return s

    def new_chord(start, end, z, tie):
        c = _Chord(start, end, z, tie)
        chords.append(c)
        return c

    def check_band(i):
        if not isinstance(i, int) or not 0 <= i < n:
            raise ValueError(f"no band {i}")

    edge_steps = [st for st in walks[0] if st[0] == "band"]

    for key in keys:
        if key in ("K", "lambda"):
            mag = 2 if key == "K" else 1
            entries = []
            for _tag, i, e, d in edge_steps:
                u = mag if e == 0 else -mag
                entries.append(("s", new_strand(i, u, 0, d), d))
            loops.append((key, [entries]))
        elif key in ("gamma", "gamma_plus"):
            try:
                evens = _normal_form_even_bands(F)
            except NormalFormError as exc:
                raise NormalFormError(f"gamma unavailable: {exc}") from exc
            u = 0 if key == "gamma" else Fraction(1, 2)
            entries = []
            for idx, y in enumerate(evens):
                nxt = evens[(idx + 1) % len(evens)]
                entries.append(("s", new_strand(y, u, 0, 1), 1))
                entries.append(("c", new_chord(pos_b[y], pos_a[nxt], 0, y)))
            loops.append((key, [entries]))
        elif isinstance(key, tuple) and len(key) == 2 and key[0] == "core":
            i = key[1]
            check_band(i)
            s = new_strand(i, 0, 0, 1)
            c = new_chord(pos_b[i], pos_a[i], 0, i)
            loops.append((key, [[("s", s, 1), ("c", c)]]))
        elif isinstance(key, tuple) and len(key) == 3 and key[0] == "pushoff":
            i, side = key[1], key[2]
            check_band(i)
            if side not in (1, -1):
                raise ValueError("pushoff side must be +1 or -1")
            if F.bands[i].half_twists % 2:
                raise ValueError(
                    f"pushoff of band {i} does not close up: odd twist count; "
                    "request the double pushoff ('tau', i) instead"
                )
            s = new_strand(i, 0, side, 1)
            c = new_chord(pos_b[i], pos_a[i], side, i)
            loops.append((key, [[("s", s, 1), ("c", c)]]))
        elif isinstance(key, tuple) and len(key) == 2 and key[0] == "tau":
            i = key[1]
            check_band(i)
            sp = new_strand(i, 0, 1, 1)
            sm = new_strand(i, 0, -1, 1)
            cp = new_chord(pos_b[i], pos_a[i], 1, i)
            cm = new_chord(pos_b[i], pos_a[i], -1, i)
            if F.bands[i].half_twists % 2 == 0:
                loops.append((key, [[("s", sp, 1), ("c", cp)], [("s", sm, 1), ("c", cm)]]))
            else:
                # an odd twist box carries the upper pushoff into the lower
                loops.append((key, [[("s", sp, 1), ("c", cp), ("s", sm, 1), ("c", cm)]]))
        else:
            raise ValueError(f"unknown curve request {key!r}")

    # geometric bottom-to-top order of the strands on each band
    rank = {id(s): k for k, s in enumerate(strands)}
    geo: dict[int, list[_Strand]] = {}
    for s in strands:
        geo.setdefault(s.band, []).append(s)
    for i in geo:
        geo[i].sort(key=lambda s: (s.u, s.z, rank[id(s)]))

    crossings: list[list] = []  # [sign, over placement, under placement]

    def new_crossing(sign):
        crossings.append([sign, None, None])
        return len(crossings) - 1

    # route events: every strand of the over band crosses every strand of
    # the under band; a self event crosses the band's strands with themselves
    for ev_idx, ev in enumerate(F.route):
        bx, sx = ev.over
        by, sy = ev.under
        gx = geo.get(bx, ())
        gy = geo.get(by, ())
        for ix, x in enumerate(gx):
            for iy, y in enumerate(gy):
                cidx = new_crossing(ev.sign * x.direction * y.direction)
                x.parts.append(((sx, ev_idx, iy), cidx, "over"))
                y.parts.append(((sy, ev_idx, ix), cidx, "under"))

    # disk chords: straight segments between convex sites cross iff their
    # site pairs interleave; higher chord over, ties to the lower band index
    for a in range(len(chords)):
        for b in range(a + 1, len(chords)):
            c1, c2 = chords[a], chords[b]
            if {c1.start, c1.end} & {c2.start, c2.end}:
                continue
            hits = _strictly_between(c1.start, c2.start, c1.end, m_sites) + _strictly_between(
                c1.start, c2.end, c1.end, m_sites
            )
            if hits != 1:
                continue
            if (c1.z, -c1.tie) > (c2.z, -c2.tie):
                over, under = c1, c2
            else:
                over, under = c2, c1
            d_over = _sub(_point(over.end), _point(over.start))
            d_under = _sub(_point(under.end), _point(under.start))
            det = _det2(d_over, d_under)
            cidx = new_crossing(1 if det > 0 else -1)
            p1 = _point(c1.start)
            p2 = _point(c2.start)
            d1 = _sub(_point(c1.end), p1)
            d2 = _sub(_point(c2.end), p2)
            denom = _det2(d1, d2)
            gap = _sub(p2, p1)
            t1 = Fraction(_det2(gap, d2), denom)
            t2 = Fraction(_det2(gap, d1), denom)
            role1 = "over" if over is c1 else "under"
            role2 = "under" if over is c1 else "over"
            c1.parts.append((t1, cidx, role1))
            c2.parts.append((t2, cidx, role2))

    # stitch itineraries into components and number the passages
    comp_lists: list[list] = []
    comp_map: dict = {}
    for key, key_loops in loops:
        idxs = []
        for loop in key_loops:
            plist: list = []
            for entry in loop:
                piece = entry[1]
                if entry[0] == "s":
                    piece.comp = len(comp_lists)
                plist.extend((cidx, role) for _k, cidx, role in piece.ordered_parts())
            idxs.append(len(comp_lists))
            comp_lists.append(plist)
        comp_map[key] = tuple(idxs)

    components = []
    for ci, plist in enumerate(comp_lists):
        ids = []
        for slot, (cidx, role) in enumerate(plist):
            rec = crossings[cidx]
            pos = 1 if role == "over" else 2
            rec[pos] = (ci, slot)
            ids.append(cidx)
        components.append(tuple(ids))

    built = []
    for cid, (sign, over_at, under_at) in enumerate(crossings):
        if over_at is None or under_at is None:
            raise AssertionError("crossing left without both passages")
        built.append(Crossing(cid, sign, over_at, under_at))

    boxes: dict[tuple[int, int], int] = {}
    for i, group in geo.items():
        counts = twist_box_counts([s.direction for s in group], F.bands[i].half_twists)
        for (a, b), count in counts.items():
            key = (group[a].comp, group[b].comp)
            boxes[key] = boxes.get(key, 0) + count
    return CompiledCurves(
        CrossingList(tuple(components), tuple(built)), comp_map, boxes
    )


# ---------------------------------------------------------------------------
# framings and bilinear forms


def framing(F: BandSurface) -> int:
    """lk of the boundary knot with its pushoff along the surface; even."""
    c = compile_curves(F, ("K", "lambda"))
    return c.linking("K", "lambda")


def gl_form(F: BandSurface) -> tuple[tuple[int, ...], ...]:
    """Gordon-Litherland pairing of the band cores: twists plus writhe on
    the diagonal, core-to-double-pushoff linking off it."""
    shape(F)
    n = F.n_bands
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        w = sum(ev.sign for ev in F.route if ev.over[0] == i and ev.under[0] == i)
        G[i][i] = F.bands[i].half_twists + 2 * w
    if n > 1:
        curves = [("core", i) for i in range(n)] + [("tau", i) for i in range(n)]
        c = compile_curves(F, curves)
        for i in range(n):
            for j in range(i + 1, n):
                G[i][j] = G[j][i] = c.linking(("core", i), ("tau", j))
    return tuple(tuple(row) for row in G)


def seifert_matrix(F: BandSurface) -> tuple[tuple[int, ...], ...]:
    """V_ij = lk(core i pushed to the positive side, core j)."""
    sh = shape(F)
    if not sh.orientable:
        raise NotOrientableError("surface not orientable")
    n = F.n_bands
    if n == 0:
        return ()
    curves = [("pushoff", i, 1) for i in range(n)] + [("core", j) for j in range(n)]
    c = compile_curves(F, curves)
    return tuple(
        tuple(c.linking(("pushoff", i, 1), ("core", j)) for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class GammaCurve:
    """The linking number of the curve through the 2-sided cores of a
    normal-form surface with its in-surface parallel."""

    self_linking: int


def gamma_curve(F: BandSurface) -> GammaCurve:
    c = compile_curves(F, ("gamma", "gamma_plus"))
    return GammaCurve(c.linking("gamma", "gamma_plus"))


# ---------------------------------------------------------------------------
# surface constructions


def boundary_connect_sum(F1: BandSurface, F2: BandSurface) -> BandSurface:
    """Join along the disk; framings add, forms go block diagonal."""
    n1 = F1.n_bands
    return BandSurface(
        F1.bands + F2.bands,
        F1.attach + tuple((i + n1, e) for i, e in F2.attach),
        F1.route
        + tuple(
            RouteEvent(
                (ev.over[0] + n1, ev.over[1]),
                (ev.under[0] + n1, ev.under[1]),
                ev.sign,
            )
            for ev in F2.route
        ),
    )


def zero_framing_stabilize(F: BandSurface) -> BandSurface:
    """Add untwisted-core Möbius summands of the opposite framing until
    the total framing vanishes; the boundary knot type is unchanged."""
    f = framing(F)
    if f == 0:
        return F
    h = -1 if f > 0 else 1
    out = F
    for _ in range(abs(f) // 2):
        out = boundary_connect_sum(
            out, BandSurface.build([h], [(0, "A"), (0, "B")])
        )
    return out


def surgery_shape(s: SurfaceShape, result_orientable: bool) -> SurfaceShape:
    """Shape after compressing along a non-separating 2-sided curve."""
    if s.orientable and s.genus < 1:
        raise ValueError("invalid surgery: no non-separating curve to compress")
    euler = s.euler + 2
    b = s.boundary_components
    if result_orientable:
        doubled = 2 - b - euler
        if doubled < 0 or doubled % 2:
            raise ValueError(
                "invalid surgery: no orientable surface has this euler characteristic"
            )
        genus = doubled // 2
    else:
        genus = 2 - b - euler
        if genus < 1:
            raise ValueError("invalid surgery: a non-orientable result needs a crosscap")
    return SurfaceShape(result_orientable, genus, euler, b)


def mobius_band(core, p: int) -> BandSurface:
    """One band riding the given knot route; boundary is the (2,p) cable
    of the core, framing 2p."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    events = core_route(core)
    w = sum(ev.sign for ev in events)
    return BandSurface((Band(p - 2 * w),), ((0, "A"), (0, "B")), events)


def klein_bottle_for_cables(core_k, core_j, p: int) -> BandSurface:
    """Zero-framed punctured Klein bottle bounding the connect sum of the
    (2,p) cable of core_k and the (2,-p) cable of the mirror of core_j."""
    return boundary_connect_sum(
        mobius_band(core_k, p), mobius_band(mirror_core(core_j), -p)
    )
