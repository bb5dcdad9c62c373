"""Pinned output of the curve compiler, and pinned framings.

Each digest case compiles one surface with one request list and digests
what a linking number reads: the multiset of (sign, over component, under
component) crossings, the request-key-to-components map and the
twist-box table. The ``gl`` and ``seifert`` digests in
``data/compiled_crossings.json`` were recorded while the compiler still
built a full Gauss code, so they pin that dropping the passage order kept
every crossing. The ``all`` digests were re-recorded with the same
compiler each time a request kind left it (the gamma curves, then the
boundary K and its longitude lambda).

``test_compiled_crossings_match_the_all_pairs_oracle`` compares the
compiler with ``oracles.curve_crossings`` at the benchmark's sizes, 8 to
24 bands and 40 to 201 route events. The ``random_band_surface`` digest
cases with ``max_bands=12, max_events=40`` reach at most 11 bands and 27
events, so the ``large_surface`` cases pin 8, 10 and 12 bands with at
least 40 events, both orientable and not.

Each ``framing`` case pins ``framing(F)`` on the same surfaces, as the
compiler gave it by linking K with lambda before the framing was read off
the surface data. Re-record with

    PYTHONPATH=src python tests/test_compiled_crossings.py --record

only in a change meant to alter what the compiler emits or a framing,
or to add cases; it prints the pins it adds, changes and removes.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import oracles
from knotbands.bandform import BandSurface, compile_curves, framing, klein_bottle_for_cables
from knotbands.battery import (
    _balancing_events,
    _extra_events,
    random_band_surface,
    random_normal_form,
)
from knotbands.presets import get_preset, preset_names

DATA = Path(__file__).parent / "data" / "compiled_crossings.json"

CABLE_PS = (2001, -2001, -7, 1, -1, 3, 401)
CABLE_CORES = (("trefoil", "t25"), ("unknot", "trefoil"), ("t25", "unknot"))
# digest cases at the sizes the random ones ask for and do not reach
LARGE_BANDS = (8, 10, 12)
LARGE_EVENTS = 40


def _triple(x):
    return (x.sign, x.over, x.under)


def _request_lists(F):
    """The library's own request lists, plus every kind at once."""
    n = F.n_bands
    cores = [("core", i) for i in range(n)]
    taus = [("tau", i) for i in range(n)]
    even = [i for i in range(n) if F.half_twists[i] % 2 == 0]
    pushoffs = [("pushoff", i, s) for i in even for s in (1, -1)]
    lists = {"gl": cores + taus, "all": cores + taus + pushoffs}
    if F.orientable:
        lists["seifert"] = [("pushoff", i, 1) for i in range(n)] + cores
    return lists


def _surfaces():
    for seed in range(30):
        size = {} if seed < 20 else {"max_bands": 12, "max_events": 40}
        for orientable in (False, True):
            F = random_band_surface(random.Random(seed), orientable=orientable, **size)
            yield f"random_band_surface seed={seed} orientable={orientable}", F
    for seed in range(12):
        F = random_normal_form(random.Random(seed), force_zero_framing=seed % 2 == 0)
        yield f"random_normal_form seed={seed}", F
    for k, j in CABLE_CORES:
        core_k = get_preset(k).core_route
        core_j = get_preset(j).core_route
        for p in CABLE_PS:
            F = klein_bottle_for_cables(core_k, core_j, p)
            yield f"klein_bottle_for_cables {k} {j} p={p}", F
    for name in preset_names():
        pk = get_preset(name)
        yield f"preset {name} orientable", pk.orientable_surface
        yield f"preset {name} nonorientable", pk.nonorientable_surface
    for n in LARGE_BANDS:
        for orientable in (False, True):
            F = _large_surface(random.Random(n), n, LARGE_EVENTS, orientable)
            yield f"large_surface bands={n} orientable={orientable}", F


def digest(cc) -> str:
    crossings = Counter(_triple(x) for x in cc.diagram.crossings)
    data = {
        "crossings": sorted([*k, v] for k, v in crossings.items()),
        "components": sorted([repr(k), list(v)] for k, v in cc.components.items()),
        "twist_boxes": sorted([a, b, v] for (a, b), v in cc.twist_boxes.items()),
    }
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    out = {}
    for label, F in _surfaces():
        for kind, keys in _request_lists(F).items():
            out[f"{label} requests={kind}"] = digest(compile_curves(F, keys))
    return out


def compute_framings() -> dict[str, int]:
    return {f"{label} framing": framing(F) for label, F in _surfaces()}


def _pinned(kind) -> dict:
    pinned = json.loads(DATA.read_text())
    return {case: v for case, v in pinned.items() if isinstance(v, kind)}


def test_compiled_crossings_match_pinned_digests():
    pinned = _pinned(str)
    got = compute_digests()
    assert sorted(got) == sorted(pinned)
    assert [case for case in pinned if got[case] != pinned[case]] == []


def test_framings_match_pinned_values():
    pinned = _pinned(int)
    got = compute_framings()
    assert sorted(got) == sorted(pinned)
    assert [case for case in pinned if got[case] != pinned[case]] == []


def test_cases_cover_every_request_kind():
    kinds = set()
    for _label, F in _surfaces():
        for keys in _request_lists(F).values():
            for key in keys:
                if key[0] == "tau":
                    kinds.add(("tau", F.half_twists[key[1]] % 2))
                else:
                    kinds.add(key[0])
    assert kinds == {"core", "pushoff", ("tau", 0), ("tau", 1)}


def test_large_cases_reach_the_sizes_they_pin():
    sizes = {
        (F.n_bands, F.orientable, len(F.route) >= LARGE_EVENTS)
        for label, F in _surfaces()
        if label.startswith("large_surface")
    }
    assert sizes == {(n, o, True) for n in LARGE_BANDS for o in (False, True)}


def _large_surface(rng, n, target, orientable):
    """A surface on n bands with at least ``target`` route events, drawn
    like the benchmark's surfaces inputs: one balancing event per
    interleaved band pair, then cancelling pairs, clasps and self events."""
    while True:
        twists = [2 * rng.randint(-2, 2) if orientable else rng.randint(-5, 5) for _ in range(n)]
        if not orientable and all(h % 2 == 0 for h in twists):
            twists[0] += 1
        attach = [(i, e) for i in range(n) for e in "AB"]
        rng.shuffle(attach)
        if oracles._boundary_circles(twists, attach) == 1:
            break
    events, slot = _balancing_events(rng, oracles._crossing_chords(attach))
    while len(events) < target:
        events += _extra_events(rng, n, slot, rng.choice(("pair", "clasp", "self")))
    return BandSurface.build(twists, attach, events)


def test_compiled_crossings_match_the_all_pairs_oracle():
    rng = random.Random(1)
    for k, (n, target) in enumerate((n, e) for n in (8, 12, 16, 20, 24) for e in (40, 120, 200)):
        F = _large_surface(rng, n, target, orientable=k % 2 == 0)
        for kind, keys in _request_lists(F).items():
            cc = compile_curves(F, keys)
            components, want = oracles.curve_crossings(F, keys)
            label = f"{n} bands, {len(F.route)} events, requests={kind}"
            assert cc.components == components, label
            assert Counter(map(_triple, cc.diagram.crossings)) == Counter(want), label


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_compiled_crossings.py --record")
    old = json.loads(DATA.read_text())
    data = {**compute_digests(), **compute_framings()}
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for verb, keys in (
        ("added", data.keys() - old.keys()),
        ("changed", {k for k in data.keys() & old.keys() if data[k] != old[k]}),
        ("removed", old.keys() - data.keys()),
    ):
        print(f"{len(keys)} {verb}")
        for key in sorted(keys):
            print(f"  {key}")
    print(f"wrote {len(data)} pins to {DATA}")
