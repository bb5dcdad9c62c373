"""Surface moves as metamorphic oracles for the curve compiler.

Each move in ``oracles`` changes the presentation of a band surface, not
the surface, or changes it to its mirror image. The compiler must answer
with the matching transform: relabelling the bands permutes the
Gordon-Litherland form G and the Seifert matrix V; rotating the attach
order changes nothing; the mirror negates G and the framing and takes V
to -V^T; a cancelling pair of band-over-band events changes nothing;
reversing one band negates its row and column of G and V, which keeps
the framing and the Alexander polynomial. The shape is the same under all
five.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from knotbands.bandform import framing, gl_form, seifert_matrix, shape
from knotbands.invariants import alexander
from knotbands.battery import random_band_surface, random_normal_form


def _negated(m):
    return tuple(tuple(-x for x in row) for row in m)


def _surface(seed: int, kind: str):
    rng = random.Random(seed)
    if kind == "normal-form":
        return rng, random_normal_form(rng)
    return rng, random_band_surface(rng, orientable=kind == "orientable")


KINDS = st.sampled_from(("orientable", "nonorientable", "normal-form"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), KINDS)
def test_relabelling_the_bands_permutes_the_forms(seed, kind):
    rng, F = _surface(seed, kind)
    perm = list(range(F.n_bands))
    rng.shuffle(perm)
    moved = oracles.relabel_bands(F, perm)
    assert oracles.surface_problems(moved.half_twists, moved.attach, moved.route) is None
    assert shape(moved) == shape(F)
    assert framing(moved) == framing(F)
    assert gl_form(moved) == oracles.permute(gl_form(F), perm)
    if F.orientable:
        assert seifert_matrix(moved) == oracles.permute(seifert_matrix(F), perm)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), KINDS)
def test_rotating_the_attach_order_changes_nothing(seed, kind):
    rng, F = _surface(seed, kind)
    moved = oracles.rotate_attach(F, rng.randrange(1, 2 * F.n_bands))
    assert oracles.surface_problems(moved.half_twists, moved.attach, moved.route) is None
    assert shape(moved) == shape(F)
    assert framing(moved) == framing(F)
    assert gl_form(moved) == gl_form(F)
    if F.orientable:
        assert seifert_matrix(moved) == seifert_matrix(F)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), KINDS)
def test_the_mirror_negates_the_forms(seed, kind):
    _, F = _surface(seed, kind)
    moved = oracles.mirror_surface(F)
    assert oracles.surface_problems(moved.half_twists, moved.attach, moved.route) is None
    assert shape(moved) == shape(F)
    assert framing(moved) == -framing(F)
    assert gl_form(moved) == _negated(gl_form(F))
    if F.orientable:
        V = seifert_matrix(F)
        assert seifert_matrix(moved) == _negated(zip(*V))
    # the mirror of the mirror is the surface itself
    assert oracles.mirror_surface(moved) == F


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), KINDS)
def test_a_cancelling_pair_changes_nothing(seed, kind):
    rng, F = _surface(seed, kind)
    i, j = rng.randrange(F.n_bands), rng.randrange(F.n_bands)
    moved = oracles.append_cancelling_pair(F, i, j, rng.choice((1, -1)))
    assert len(moved.route) == len(F.route) + 2
    assert oracles.surface_problems(moved.half_twists, moved.attach, moved.route) is None
    assert shape(moved) == shape(F)
    assert framing(moved) == framing(F)
    assert gl_form(moved) == gl_form(F)
    if F.orientable:
        assert seifert_matrix(moved) == seifert_matrix(F)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), KINDS)
def test_reversing_a_band_negates_its_row_and_column(seed, kind):
    rng, F = _surface(seed, kind)
    i = rng.randrange(F.n_bands)
    moved = oracles.reverse_band(F, i)
    assert oracles.surface_problems(moved.half_twists, moved.attach, moved.route) is None
    assert shape(moved) == shape(F)
    assert framing(moved) == framing(F)
    d = [-1 if k == i else 1 for k in range(F.n_bands)]

    def dmd(m):
        return tuple(
            tuple(d[a] * x * d[b] for b, x in enumerate(row)) for a, row in enumerate(m)
        )

    assert gl_form(moved) == dmd(gl_form(F))
    if F.orientable:
        V, W = seifert_matrix(F), seifert_matrix(moved)
        assert W == dmd(V)
        assert alexander(W) == alexander(V)
    # reversing the band again gives the surface back
    assert oracles.reverse_band(moved, i) == F
