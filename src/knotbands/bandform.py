"""Disk-band surfaces: a disk with twisted, crossing bands attached.

A surface is presented by per-band half-twist counts, the cyclic order in
which band ends meet the disk, and an ordered list of band-over-band
crossing events. The framing of the boundary and the self-linking of J
are read off that data as half the Gordon-Litherland pairing of one
class with itself. ``compile_curves`` turns a surface plus a selection of
curves (band cores, their pushoffs and their double pushoffs) into signed
crossings between components plus counted twist-box crossings, from
which the Gordon-Litherland and Seifert forms are exact linking
computations.

Geometric conventions baked into the compiler:

- Each curve runs along the middle of its band from end A to end B, at a
  height z (0 for a core, +-1 for a pushoff), and back across the disk.
- Band ends sit at 2n sites on a convex arc, at exact integer points
  P(k) = (k, k^2); curves through the disk run as straight chords, so two
  chords cross iff their site pairs interleave. The chords of bands with
  sites (a, b) and (c, d), each run from B to A, cross with the sign of
  det(P(a)-P(b), P(c)-P(d)) = (a-b)(c-d)(c+d-a-b) (``_chords``).
- All half twists of a band live in a single twist box next to end A.
  Inside the box the carried strands braid: each half twist crosses every
  pair of strands once (positive twist: the lower strand goes over). The
  box crossings are counted in closed form (``twist_box_counts``), not
  listed, so the cost of a box does not grow with |h|.
- At a band-over-band event, every strand of the over band crosses every
  strand of the under band once, with the event's sign.
- On the disk, the chords of bands i < j cross once for each pair of
  their strands, exactly for the interleaved pairs that ``_chords`` lists
  with their sign d. Band i's strand at height z_i goes over with sign d
  when z_i >= z_j; otherwise band j's goes over with sign -d.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .diagram import Crossing, CrossingList, classical_linking, over_counts
from .record import Record, known_keys, odd_p


class MultipleBoundaryError(ValueError):
    """The surface boundary has more than one component."""


class NotOrientableError(ValueError):
    """An operation requiring an orientable surface met a one-sided band."""


class NormalFormError(ValueError):
    """The surface is not an ordered connect sum of two-band pieces."""


class RouteEvent(Record):
    """One band-over-band crossing: (band, slot) passages and a sign.

    Slots order each band's events from end A toward end B. Bands, slots
    and the sign are ints; floats and bools are rejected, not truncated.
    """

    __slots__ = ("over", "under", "sign")
    over: tuple[int, int]
    under: tuple[int, int]
    sign: int

    def __post_init__(self) -> None:
        for passage in (self.over, self.under):
            if type(passage) is not tuple or len(passage) != 2:
                raise ValueError(f"route passage must be a (band, slot) tuple, got {passage!r}")
        for band, slot in (self.over, self.under):
            _int(band, "route band")
            _int(slot, "route slot")
        _int(self.sign, "route sign")


class BandSurface(Record):
    """half_twists[i] counts band i's signed half twists (+1 = right handed).

    Building one checks it, once: the fields are tuples, the counts and
    band indices are ints, the route holds RouteEvents,
    ``_validate_surface`` finds no problem, and the boundary is one
    circle. So every reader takes a BandSurface as valid.
    """

    __slots__ = ("half_twists", "attach", "route")
    half_twists: tuple[int, ...]
    attach: tuple[tuple[int, str], ...]
    route: tuple[RouteEvent, ...]

    def __post_init__(self) -> None:
        for name, value in zip(self.__slots__, self._values()):
            if type(value) is not tuple:
                raise ValueError(f"{name} must be a tuple, got {value!r}")
        _check_integers(self.half_twists, self.attach)
        for ev in self.route:
            if type(ev) is not RouteEvent:
                raise ValueError(f"route entry must be a RouteEvent, got {ev!r}")
        problems = _validate_surface(self.half_twists, self.attach, self.route)
        if problems:
            raise ValueError("invalid surface: " + "; ".join(problems))
        count = _boundary(self.half_twists, self.attach)[0]
        if count != 1:
            raise MultipleBoundaryError(
                f"multiple boundary components: boundary walk found {count}"
            )

    @staticmethod
    def build(
        half_twists: Iterable[int],
        attach: Iterable[tuple[int, str]],
        route: Iterable = (),
    ) -> "BandSurface":
        return BandSurface(
            tuple(half_twists),
            tuple((i, str(e)) for i, e in attach),
            tuple(_as_event(ev) for ev in route),
        )

    @property
    def n_bands(self) -> int:
        return len(self.half_twists)

    @property
    def orientable(self) -> bool:
        return all(h % 2 == 0 for h in self.half_twists)

    def to_json(self) -> dict:
        return {
            "bands": [{"half_twists": h} for h in self.half_twists],
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
        """Accepts attach entries as ["band", i, "end", "A"] or plain [i, "A"]
        and route passages as [band, slot]; longer lists are not cut short.

        Unreadable data is "malformed band surface JSON"; data that reads
        but is no surface raises as the constructor does."""
        try:
            known_keys(data, ("bands", "attach", "route"), "band surface")
            bands = []
            for b in data["bands"]:
                known_keys(b, ("half_twists",), "band")
                bands.append(b["half_twists"])
            attach = []
            for e in data["attach"]:
                keyed = len(e) == 4 and list(e[::2]) == ["band", "end"]
                attach.append(_pair(e[1::2] if keyed else e, "attach entry"))
            route = []
            for ev in data["route"]:
                known_keys(ev, ("over", "under", "sign"), "route event")
                route.append((ev["over"], ev["under"], ev["sign"]))
            # a non-integer reads as malformed JSON, and the twists and band
            # indices are checked before the events, as the constructor would
            _check_integers(bands, attach)
            route = [_as_event(ev) for ev in route]
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"malformed band surface JSON: {exc}") from exc
        return BandSurface.build(bands, attach, route)


class SurfaceShape(Record):
    __slots__ = ("orientable", "genus", "euler", "boundary_components")
    orientable: bool
    genus: int
    euler: int
    boundary_components: int


def _int(x, what: str) -> int:
    """x itself if it is an int; floats and bools are rejected, not truncated."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _check_integers(half_twists, attach) -> None:
    for h in half_twists:
        _int(h, "half_twists")
    for entry in attach:
        if type(entry) is not tuple or len(entry) != 2:
            raise ValueError(f"attach entry must be a (band, end) tuple, got {entry!r}")
        _int(entry[0], "attach band index")


def _pair(x, what: str) -> tuple:
    if not isinstance(x, (list, tuple)) or len(x) != 2:
        raise ValueError(f"{what} must be a pair, got {x!r}")
    return tuple(x)


def _as_event(ev) -> RouteEvent:
    if isinstance(ev, RouteEvent):
        return ev
    over, under, sign = ev
    return RouteEvent(_pair(over, "route passage"), _pair(under, "route passage"), sign)


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
            if not isinstance(ev, (list, tuple)) or len(ev) != 3:
                raise ValueError(
                    f"a core route event must be an (over_slot, under_slot, sign) "
                    f"triple, got {ev!r}"
                )
            o, u, s = ev
            out.append(RouteEvent((0, o), (0, u), s))
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


def _end_positions(attach) -> tuple[dict[int, int], dict[int, int]]:
    """Maps band -> attach position of its A end resp. B end."""
    pos_a: dict[int, int] = {}
    pos_b: dict[int, int] = {}
    for k, (i, e) in enumerate(attach):
        (pos_a if e == "A" else pos_b)[i] = k
    return pos_a, pos_b


def _chords(attach) -> dict[tuple[int, int], int]:
    """(i, j) -> the sign of the disk crossing of the cores of bands i < j,
    for the pairs whose ends interleave. Each core chord runs from the B
    site to the A site; at P(k) = (k, k^2) the sign is that of
    det(P(a)-P(b), P(c)-P(d)) = (a-b)(c-d)(c+d-a-b)."""
    pos_a, pos_b = _end_positions(attach)
    out: dict[tuple[int, int], int] = {}
    for i in range(len(attach) // 2):
        a, b = pos_a[i], pos_b[i]
        lo, hi = min(a, b), max(a, b)
        for j in range(i + 1, len(attach) // 2):
            c, d = pos_a[j], pos_b[j]
            if (lo < c < hi) != (lo < d < hi):
                out[i, j] = 1 if (a - b) * (c - d) * (c + d - a - b) > 0 else -1
    return out


def _validate_surface(half_twists, attach, route) -> list[str]:
    """All structural violations of the data of a band surface; empty
    means it is well formed. The ``BandSurface`` constructor raises for
    any."""
    problems: list[str] = []
    n = len(half_twists)
    if len(attach) != 2 * n:
        problems.append(f"attach has length {len(attach)}, expected {2 * n}")
    seen_ends = set()
    for i, e in attach:
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

    # a slot is one passage of its band, so it belongs to one event, in
    # one role; (event, role) of each slot's first use
    used: dict[tuple[int, int], tuple[int, str]] = {}
    for k, ev in enumerate(route):
        if ev.sign not in (1, -1):
            problems.append(f"route event {k} has sign {ev.sign}")
        for role, (b, s) in (("over", ev.over), ("under", ev.under)):
            if not (0 <= b < n):
                problems.append(f"route event {k} {role} band {b} out of range")
                continue
            first, first_role = used.setdefault((b, s), (k, role))
            if first != k:
                problems.append(
                    f"band {b} slot {s} used twice: as {first_role} in event "
                    f"{first} and as {role} in event {k}"
                )
        if ev.over == ev.under:
            problems.append(f"route event {k} crosses a slot with itself")
    if problems:
        return problems

    # crossing balance forced by the disk: interleaved attachment makes the
    # cores meet once on the disk, so the band-over-band counts must
    # compensate or no embedded surface has this data
    sums: dict[tuple[int, int], int] = {}
    for ev in route:
        i, j = ev.over[0], ev.under[0]
        if i != j:
            key = (min(i, j), max(i, j))
            sums[key] = sums.get(key, 0) + (ev.sign if i < j else -ev.sign)
    chords = _chords(attach)
    for i in range(n):
        for j in range(i + 1, n):
            net, expected = sums.get((i, j), 0), -chords.get((i, j), 0)
            if net != expected:
                problems.append(
                    f"route crossings between bands {i} and {j} are unbalanced: "
                    f"net {net} over-minus-under, expected {expected}; "
                    "no classical surface realizes this"
                )
    return problems


def _boundary(half_twists, attach) -> tuple[int, list[int]]:
    """The number of boundary circles of the surface with these half
    twists and this well-formed attach order, and c, K's class in H_1(F)
    as sum c_i*core_i.

    The corners are (site, +-1). The disk arc after site k joins (k, +1)
    to (k+1, -1); band i's edges join (b_i, s) to (a_i, -s*flip), flip -1
    for an odd twist count. c_i sums +1 (-1) for each edge of band i that
    the first circle enters at its A (B) end.
    """
    n = len(half_twists)
    if n == 0:
        return 1, []
    pos_a, pos_b = _end_positions(attach)
    m = 2 * n
    # corner -> (band, corner at the edge's other end, +1 if it enters at A)
    edge: dict[tuple[int, int], tuple[int, tuple[int, int], int]] = {}
    for i in range(n):
        a, b = pos_a[i], pos_b[i]
        flip = -1 if half_twists[i] % 2 else 1
        for s in (1, -1):
            edge[b, s] = (i, (a, -s * flip), -1)
            edge[a, -s * flip] = (i, (b, s), 1)
    circles, c, seen = 0, [0] * n, set()
    for start in ((k, s) for k in range(m) for s in (-1, 1)):
        if start in seen:
            continue
        circles += 1
        corner = start
        while corner not in seen:
            k, s = corner
            arc_end = ((k + 1) % m, -1) if s == 1 else ((k - 1) % m, 1)
            seen.update((corner, arc_end))
            i, corner, direction = edge[arc_end]
            if circles == 1:
                c[i] += direction
    return circles, c


# ---------------------------------------------------------------------------
# the curve compiler


class CompiledCurves(Record):
    """The requested curves as signed crossings between components at the
    route events and on the disk, plus the twist-box crossings as counts.

    components maps each request key to its component indices (the double
    pushoff of an even-twisted band closes up into two components);
    twist_boxes maps (over component, under component) to the signed
    count of twist-box crossings between them, which the diagram leaves
    out.
    """

    __slots__ = ("diagram", "components", "twist_boxes")
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


def twist_box_counts(m: int, h: int) -> dict[tuple[int, int], int]:
    """Signed crossing counts of an h-half-twist box on m strands, keyed
    (over, under) by strand position from the bottom.

    Strands x below y cross |h| times, each with sign sign(h); x is over
    at ceil(|h|/2) of them for h > 0 and at floor(|h|/2) for h < 0.
    """
    counts: dict[tuple[int, int], int] = {}
    if h == 0:
        return counts
    s_box = 1 if h > 0 else -1
    lower_over = s_box * ((abs(h) + (h > 0)) // 2)
    upper_over = s_box * abs(h) - lower_over
    for x in range(m):
        for y in range(x + 1, m):
            counts[x, y] = lower_over
            counts[y, x] = upper_over
    return counts


def compile_curves(F: BandSurface, curves: Sequence) -> CompiledCurves:
    """Compile the requested curves on F into signed crossings between
    components and the twist-box crossing counts.

    Request keys: ("core", i), ("pushoff", i, +1|-1) for even-twisted
    bands and ("tau", i) (both pushoffs of core i at once).
    """
    n = F.n_bands
    keys = list(curves)
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate curve request")

    # band -> its strands as (height, component), in request order
    stacks: dict[int, list[tuple[int, int]]] = {}
    comp_map: dict = {}
    n_comp = 0

    def check_band(i):
        if type(i) is not int or not 0 <= i < n:
            raise ValueError(f"no band {i}")

    for key in keys:
        c = n_comp
        comps = (c,)
        if isinstance(key, tuple) and len(key) == 2 and key[0] == "core":
            i = key[1]
            check_band(i)
            strands = [(0, c)]
        elif isinstance(key, tuple) and len(key) == 3 and key[0] == "pushoff":
            i, side = key[1], key[2]
            check_band(i)
            if side not in (1, -1):
                raise ValueError("pushoff side must be +1 or -1")
            if F.half_twists[i] % 2:
                raise ValueError(
                    f"pushoff of band {i} does not close up: odd twist count; "
                    "request the double pushoff ('tau', i) instead"
                )
            strands = [(side, c)]
        elif isinstance(key, tuple) and len(key) == 2 and key[0] == "tau":
            i = key[1]
            check_band(i)
            # an odd twist box carries the upper pushoff into the lower, so
            # the two close up as one component
            if F.half_twists[i] % 2 == 0:
                comps = (c, c + 1)
            strands = [(1, c), (-1, comps[-1])]
        else:
            raise ValueError(f"unknown curve request {key!r}")
        stacks.setdefault(i, []).extend(strands)
        comp_map[key] = comps
        n_comp += len(comps)

    # bottom to top; components grow in request order and no band holds
    # one component twice at one height, so this is the stable sort by height
    for stack in stacks.values():
        stack.sort()

    # route events: every strand of the over band crosses every strand of
    # the under band; a self event crosses the band's strands with themselves
    crossings: list[Crossing] = []
    for ev in F.route:
        under = stacks.get(ev.under[0], ())
        for _, x in stacks.get(ev.over[0], ()):
            crossings.extend(Crossing(ev.sign, x, y) for _, y in under)

    # disk chords: for bands i < j that interleave, each strand of band i
    # crosses each of band j once; band i's goes over, with the chord sign
    # d, unless band j's is higher, which goes over with -d
    for (i, j), d in _chords(F.attach).items():
        stack_j = stacks.get(j, ())
        for zi, x in stacks.get(i, ()):
            for zj, y in stack_j:
                crossings.append(Crossing(d, x, y) if zi >= zj else Crossing(-d, y, x))

    boxes: dict[tuple[int, int], int] = {}
    for i, stack in stacks.items():
        for (a, b), count in twist_box_counts(len(stack), F.half_twists[i]).items():
            key = (stack[a][1], stack[b][1])
            boxes[key] = boxes.get(key, 0) + count
    return CompiledCurves(CrossingList(n_comp, tuple(crossings)), comp_map, boxes)


# ---------------------------------------------------------------------------
# framings and bilinear forms


def shape(F: BandSurface) -> SurfaceShape:
    """Topological type of the surface."""
    n = F.n_bands
    return SurfaceShape(F.orientable, n // 2 if F.orientable else n, 1 - n, 1)


def _half_pairing(F: BandSurface, x: Sequence[int]) -> int:
    """Half the Gordon-Litherland pairing of the class sum x_i*core_i with
    itself, read off the surface data.

    G_ii = h_i + 2w_i, with w_i the sum of the signs of band i's self
    events. For i != j, G_ij = lk(core i, tau j) is the signed count of
    the events between bands i and j, in either role: at each one, core i
    crosses both strands of tau j with the event's sign, and its two disk
    crossings with tau j, one over and one under, have opposite signs. So
    ½·G(x, x) is ½·sum x_i^2*h_i plus the sum over all events of
    sign*x_over*x_under; the callers' classes make sum x_i^2*h_i even.
    """
    twists = sum(xi * xi * h for xi, h in zip(x, F.half_twists))
    events = sum(ev.sign * x[ev.over[0]] * x[ev.under[0]] for ev in F.route)
    return twists // 2 + events


def framing(F: BandSurface) -> int:
    """lk of the boundary knot K with its pushoff along the surface; even.

    K runs once along each edge of every band, so its class in H_1(F) is
    sum c_i*core_i, where c_i sums +-1 over band i's two edges, +1 where
    K enters the edge at its A end (so c_i is 0 or +-2; ``_boundary``),
    and the framing is ½·G(c, c) (Gordon-Litherland). Each c_i^2 is 0 or
    4, so sum c_i^2*h_i is even. On an orientable surface every c_i is 0.
    """
    return _half_pairing(F, _boundary(F.half_twists, F.attach)[1])


def gl_form(F: BandSurface) -> tuple[tuple[int, ...], ...]:
    """Gordon-Litherland pairing of the band cores: twists plus writhe on
    the diagonal, core-to-double-pushoff linking off it."""
    n = F.n_bands
    # one band has no off-diagonal pairs, so nothing to compile
    if n > 1:
        curves = [("core", i) for i in range(n)] + [("tau", i) for i in range(n)]
        c = compile_curves(F, curves)
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        w = sum(ev.sign for ev in F.route if ev.over[0] == i and ev.under[0] == i)
        G[i][i] = F.half_twists[i] + 2 * w
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = c.linking(("core", i), ("tau", j))
    return tuple(tuple(row) for row in G)


def seifert_matrix(F: BandSurface) -> tuple[tuple[int, ...], ...]:
    """V_ij = lk(core i pushed to the positive side, core j)."""
    if not F.orientable:
        raise NotOrientableError("surface not orientable")
    n = F.n_bands
    curves = [("pushoff", i, 1) for i in range(n)] + [("core", j) for j in range(n)]
    c = compile_curves(F, curves)
    return tuple(
        tuple(c.linking(("pushoff", i, 1), ("core", j)) for j in range(n))
        for i in range(n)
    )


class SurfaceAnalysis(Record):
    """What the screens read off a surface: ``shape(F)``, ``framing(F)``
    and ``gl_form(F)``."""

    __slots__ = ("shape", "framing", "gl_form")
    shape: SurfaceShape
    framing: int
    gl_form: tuple[tuple[int, ...], ...]


def analyze_surface(F: BandSurface) -> SurfaceAnalysis:
    """Shape, framing and GL form; only ``gl_form`` compiles."""
    return SurfaceAnalysis(shape(F), framing(F), gl_form(F))


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
        odd_x = F.half_twists[x] % 2
        odd_y = F.half_twists[y] % 2
        if odd_x + odd_y != 1:
            raise NormalFormError(
                f"not in normal form: piece {piece} needs exactly one odd-twisted band"
            )
        evens.append(y if odd_x else x)
    return evens


def gamma_self_linking(F: BandSurface) -> int:
    """Self-linking of J, the curve through the 2-sided cores of a
    normal-form surface: the linking number of J with its parallel in the
    surface, which is half the Gordon-Litherland pairing of J's class, the
    sum of the even bands' cores, with itself.

    Each even band a has h_a even, so sum x_a^2*h_a is even.
    """
    try:
        evens = _normal_form_even_bands(F)
    except NormalFormError as exc:
        raise NormalFormError(f"gamma unavailable: {exc}") from exc
    x = [0] * F.n_bands
    for a in evens:
        x[a] = 1
    return _half_pairing(F, x)


# ---------------------------------------------------------------------------
# surface constructions

_ENDS = ((0, "A"), (0, "B"))


def _connect_sum(pieces) -> BandSurface:
    """The surface joined along the disk from the (half_twists, attach,
    route) data of its summands, in order, and so checked once."""
    twists: list[int] = []
    attach: list[tuple[int, str]] = []
    route: list[RouteEvent] = []
    for h, ends, events in pieces:
        n = len(twists)
        twists += h
        attach += [(i + n, e) for i, e in ends]
        route += [
            RouteEvent((ev.over[0] + n, ev.over[1]), (ev.under[0] + n, ev.under[1]), ev.sign)
            for ev in events
        ]
    return BandSurface(tuple(twists), tuple(attach), tuple(route))


def boundary_connect_sum(F1: BandSurface, F2: BandSurface) -> BandSurface:
    """Join along the disk; framings add, forms go block diagonal."""
    return _connect_sum([(F.half_twists, F.attach, F.route) for F in (F1, F2)])


def zero_framing_stabilize(F: BandSurface) -> BandSurface:
    """Add untwisted-core Möbius summands of the opposite framing until
    the total framing vanishes; the boundary knot type is unchanged."""
    f = framing(F)
    if f == 0:
        return F
    cap = ((-1 if f > 0 else 1,), _ENDS, ())
    return _connect_sum([(F.half_twists, F.attach, F.route)] + [cap] * (abs(f) // 2))


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


def _mobius(core, p: int) -> tuple:
    """(half_twists, attach, route) of the band of ``mobius_band``."""
    odd_p(p)
    events = core_route(core)
    w = sum(ev.sign for ev in events)
    return (p - 2 * w,), _ENDS, events


def mobius_band(core, p: int) -> BandSurface:
    """One band riding the given knot route; boundary is the (2,p) cable
    of the core, framing 2p."""
    return BandSurface(*_mobius(core, p))


def klein_bottle_for_cables(core_k, core_j, p: int) -> BandSurface:
    """Zero-framed punctured Klein bottle bounding the connect sum of the
    (2,p) cable of core_k and the (2,-p) cable of the mirror of core_j.
    It is built in one piece, so a bad route is reported by its place in
    the whole surface."""
    return _connect_sum([_mobius(core_k, p), _mobius(mirror_core(core_j), -p)])
