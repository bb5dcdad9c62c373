"""Abstract crossing-list diagrams of oriented multi-component curves.

A diagram is Gauss-code level data: each component is a cyclic sequence of
passages through signed crossings. Nothing is embedded in the plane and
planarity is never checked; a linking number is a signed crossing count,
with a consistency guard that rejects data no classical link could produce.

Sign convention: a crossing is +1 when it is right handed, i.e. the under
strand passes from right to left when viewed along the over strand. This
makes the standard diagram of the (2,3) torus knot have writhe +3.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def _check_component(d: CrossingList, c: int) -> None:
    if not (0 <= c < len(d.components)):
        raise IndexError(f"component index {c} out of range")


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
