"""Abstract crossing-list diagrams of oriented multi-component curves.

A diagram is Gauss-code level data: each component is a cyclic sequence of
passages through signed crossings. Nothing is embedded in the plane and
planarity is never checked; every quantity computed here (writhe, linking
numbers) is a signed crossing count, with a consistency guard that rejects
data no classical link could produce.

Sign convention: a crossing is +1 when it is right handed, i.e. the under
strand passes from right to left when viewed along the over strand. This
makes the standard diagram of the (2,3) torus knot have writhe +3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class NonclassicalCrossingError(ValueError):
    """Crossing data that cannot come from a classical link diagram."""


@dataclass(frozen=True)
class Crossing:
    """One crossing: its sign and the two passages (component, slot) through it."""

    id: int
    sign: int
    over: tuple[int, int]
    under: tuple[int, int]


@dataclass(frozen=True)
class CrossingList:
    """Components as cyclic passage sequences; components[c][slot] is the
    id of the crossing traversed at that slot."""

    components: tuple[tuple[int, ...], ...]
    crossings: tuple[Crossing, ...]

    @staticmethod
    def build(
        components: Iterable[Iterable[int]], crossings: Iterable[Crossing]
    ) -> "CrossingList":
        return CrossingList(
            tuple(tuple(c) for c in components), tuple(crossings)
        )

    def to_json(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "crossings": [
                {
                    "id": x.id,
                    "sign": x.sign,
                    "over": list(x.over),
                    "under": list(x.under),
                }
                for x in self.crossings
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "CrossingList":
        try:
            comps = tuple(tuple(int(i) for i in c) for c in data["components"])
            crossings = tuple(
                Crossing(
                    id=int(x["id"]),
                    sign=int(x["sign"]),
                    over=(int(x["over"][0]), int(x["over"][1])),
                    under=(int(x["under"][0]), int(x["under"][1])),
                )
                for x in data["crossings"]
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed crossing list JSON: {exc}") from exc
        return CrossingList(comps, crossings)


def validate(d: CrossingList) -> list[str]:
    """All invariant violations of the crossing list; empty means ok."""
    problems: list[str] = []
    by_id: dict[int, Crossing] = {}
    for x in d.crossings:
        if x.id in by_id:
            problems.append(f"duplicate crossing id {x.id}")
        by_id[x.id] = x
        if x.sign not in (1, -1):
            problems.append(f"crossing {x.id} has sign {x.sign}, expected +1 or -1")
    seen: dict[tuple[int, int], str] = {}
    for x in d.crossings:
        for role, ref in (("over", x.over), ("under", x.under)):
            c, s = ref
            if not (0 <= c < len(d.components)) or not (0 <= s < len(d.components[c])):
                problems.append(f"crossing {x.id} {role} passage {ref} out of range")
                continue
            if ref in seen:
                problems.append(
                    f"passage {ref} used more than once (crossing {x.id} as {role})"
                )
            seen[ref] = role
            if d.components[c][s] != x.id:
                problems.append(
                    f"component {c} slot {s} holds id {d.components[c][s]}, "
                    f"but crossing {x.id} claims it as {role}"
                )
    for c, comp in enumerate(d.components):
        for s, cid in enumerate(comp):
            if cid not in by_id:
                problems.append(f"component {c} slot {s} refers to unknown crossing {cid}")
            elif (c, s) not in seen:
                problems.append(f"component {c} slot {s} is claimed by no crossing role")
    return problems


def _check_component(d: CrossingList, c: int) -> None:
    if not (0 <= c < len(d.components)):
        raise IndexError(f"component index {c} out of range")


def writhe(d: CrossingList, c: int) -> int:
    """Signed count of self-crossings of component c."""
    _check_component(d, c)
    return sum(
        x.sign for x in d.crossings if x.over[0] == c and x.under[0] == c
    )


def over_counts(d: CrossingList, a: int, b: int) -> tuple[int, int]:
    """Signed counts of the crossings where a passes over b, and where b
    passes over a."""
    _check_component(d, a)
    _check_component(d, b)
    if a == b:
        raise ValueError("linking number needs two distinct components")
    a_over_b = sum(x.sign for x in d.crossings if x.over[0] == a and x.under[0] == b)
    b_over_a = sum(x.sign for x in d.crossings if x.over[0] == b and x.under[0] == a)
    return a_over_b, b_over_a


def classical_linking(a: int, b: int, a_over_b: int, b_over_a: int) -> int:
    """The linking number of components a and b from their two over counts.

    Guard: the counts must agree; classical links always satisfy this, so
    disagreement means the data is corrupt.
    """
    if a_over_b != b_over_a:
        raise NonclassicalCrossingError(
            f"nonclassical crossing data: component {a} over {b} gives {a_over_b}, "
            f"component {b} over {a} gives {b_over_a}"
        )
    return a_over_b


def linking_number(d: CrossingList, a: int, b: int) -> int:
    """Signed count of crossings where a passes over b, checked against
    the count with roles reversed (see ``classical_linking``)."""
    return classical_linking(a, b, *over_counts(d, a, b))


def mirror(d: CrossingList) -> CrossingList:
    """Mirror image: over/under roles swap and every sign flips."""
    return CrossingList(
        d.components,
        tuple(
            Crossing(id=x.id, sign=-x.sign, over=x.under, under=x.over)
            for x in d.crossings
        ),
    )


def reverse(d: CrossingList, c: int) -> CrossingList:
    """Reverse the passage order of component c.

    Crossings with exactly one passage on c change sign (one strand of the
    crossing reverses); self-crossings of c keep theirs.
    """
    _check_component(d, c)
    length = len(d.components[c])
    comps = tuple(
        tuple(reversed(comp)) if i == c else comp for i, comp in enumerate(d.components)
    )

    def remap(ref: tuple[int, int]) -> tuple[int, int]:
        if ref[0] != c:
            return ref
        return (c, length - 1 - ref[1])

    crossings = []
    for x in d.crossings:
        on_c = (x.over[0] == c) + (x.under[0] == c)
        sign = -x.sign if on_c == 1 else x.sign
        crossings.append(Crossing(x.id, sign, remap(x.over), remap(x.under)))
    return CrossingList(comps, tuple(crossings))


def connected_sum(
    d1: CrossingList,
    c1: int,
    d2: CrossingList,
    c2: int,
    site1: int = 0,
    site2: int = 0,
) -> CrossingList:
    """Splice component c2 of d2 into component c1 of d1.

    Both components are cut open (before passage ``site1`` resp. ``site2``)
    and joined into one; all other components and crossings carry over with
    reindexed crossing ids and component indices.
    """
    for d, c, site, label in ((d1, c1, site1, "first"), (d2, c2, site2, "second")):
        _check_component(d, c)
        n = len(d.components[c])
        if not (site == 0 or 0 <= site < max(n, 1)):
            raise ValueError(f"invalid splice site on {label} diagram")

    top1 = max((x.id for x in d1.crossings), default=-1)
    low2 = min((x.id for x in d2.crossings), default=0)
    id_offset = top1 + 1 - low2
    len1, len2 = len(d1.components[c1]), len(d2.components[c2])

    # component index remapping
    comp_map2: dict[int, int] = {}
    new_components: list[tuple[int, ...]] = []
    rotated2 = d2.components[c2][site2:] + d2.components[c2][:site2]
    for i, comp in enumerate(d1.components):
        if i == c1:
            spliced = (
                comp[:site1]
                + tuple(cid + id_offset for cid in rotated2)
                + comp[site1:]
            )
            new_components.append(spliced)
        else:
            new_components.append(comp)
    for i, comp in enumerate(d2.components):
        if i == c2:
            comp_map2[i] = c1
            continue
        comp_map2[i] = len(new_components)
        new_components.append(tuple(cid + id_offset for cid in comp))

    def remap1(ref: tuple[int, int]) -> tuple[int, int]:
        c, s = ref
        if c == c1 and s >= site1:
            return (c, s + len2)
        return ref

    def remap2(ref: tuple[int, int]) -> tuple[int, int]:
        c, s = ref
        if c == c2:
            return (c1, site1 + (s - site2) % len2)
        return (comp_map2[c], s)

    crossings = [
        Crossing(x.id, x.sign, remap1(x.over), remap1(x.under)) for x in d1.crossings
    ]
    crossings.extend(
        Crossing(x.id + id_offset, x.sign, remap2(x.over), remap2(x.under))
        for x in d2.crossings
    )
    return CrossingList(tuple(new_components), tuple(crossings))
