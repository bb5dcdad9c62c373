"""Signed crossings between the components of oriented curves.

A diagram lists its crossings, each with a sign and the components that
pass over and under it; the order in which a component meets its
crossings is not kept, because no linking number reads it. Nothing is
embedded in the plane and planarity is never checked; a linking number is
a signed crossing count, with a consistency guard that rejects data no
classical link could produce.

Sign convention: a crossing is +1 when it is right handed, i.e. the under
strand passes from right to left when viewed along the over strand. This
makes the standard diagram of the (2,3) torus knot have writhe +3.
"""

from __future__ import annotations

from .record import Record


class NonclassicalCrossingError(ValueError):
    """Crossing data that cannot come from a classical link diagram."""


class Crossing(Record):
    """One crossing: its sign and the components passing over and under it."""

    __slots__ = ("sign", "over", "under")
    sign: int
    over: int
    under: int

    # written out, not Record's generic one: a surface compile builds
    # thousands of crossings
    def __init__(self, sign: int, over: int, under: int):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "under", under)


class CrossingList(Record):
    """Signed crossings between components numbered 0 .. n_components - 1."""

    __slots__ = ("n_components", "crossings")
    n_components: int
    crossings: tuple[Crossing, ...]


def _check_component(d: CrossingList, c: int) -> None:
    if not (0 <= c < d.n_components):
        raise IndexError(f"component index {c} out of range")


def over_counts(d: CrossingList, a: int, b: int) -> tuple[int, int]:
    """Signed counts of the crossings where a passes over b, and where b
    passes over a."""
    _check_component(d, a)
    _check_component(d, b)
    if a == b:
        raise ValueError("linking number needs two distinct components")
    a_over_b = sum(x.sign for x in d.crossings if x.over == a and x.under == b)
    b_over_a = sum(x.sign for x in d.crossings if x.over == b and x.under == a)
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
