"""Built-in example knots with spanning surfaces and expected invariants."""

from __future__ import annotations

import json
import os

from .bandform import BandSurface, RouteEvent, core_route
from .record import Record


class PresetKnot(Record):
    __slots__ = (
        "name",
        "delta",
        "sigma",
        "det",
        "arf",
        "seifert",
        "core_route",
        "orientable_surface",
        "nonorientable_surface",
        "gl_nonorientable",
        "framing_nonorientable",
    )
    name: str
    delta: str
    sigma: int
    det: int
    arf: int
    seifert: tuple[tuple[int, ...], ...]
    core_route: tuple[RouteEvent, ...] | None
    orientable_surface: BandSurface
    nonorientable_surface: BandSurface
    gl_nonorientable: tuple[tuple[int, ...], ...]
    framing_nonorientable: int


def _load() -> dict[str, PresetKnot]:
    # read from the package directory: a zip-imported install is not supported
    path = os.path.join(os.path.dirname(__file__), "presets.json")
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    out = {}
    for name, rec in raw.items():
        out[name] = PresetKnot(
            name=name,
            delta=rec["delta"],
            sigma=rec["sigma"],
            det=rec["det"],
            arf=rec["arf"],
            seifert=tuple(tuple(row) for row in rec["seifert"]),
            core_route=(
                None
                if rec["core_route"] is None
                else core_route(tuple(ev) for ev in rec["core_route"])
            ),
            orientable_surface=BandSurface.from_json(rec["surfaces"]["orientable"]),
            nonorientable_surface=BandSurface.from_json(rec["surfaces"]["nonorientable"]),
            gl_nonorientable=tuple(tuple(row) for row in rec["gl_nonorientable"]),
            framing_nonorientable=rec["framing_nonorientable"],
        )
    return out


_PRESETS = _load()

PRESET_NAMES = tuple(_PRESETS)


def preset_names() -> tuple[str, ...]:
    return PRESET_NAMES


def get_preset(name: str) -> PresetKnot:
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
