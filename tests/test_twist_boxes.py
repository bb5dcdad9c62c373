"""Closed-form twist boxes against the half-twist-by-half-twist braid.

``bandform.twist_box_counts`` counts a twist box in closed form; the
oracle braids the strands one adjacent swap at a time. On whole surfaces,
extra full twists must leave four identities intact.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from knotbands.algebra import det_int
from knotbands.bandform import (
    BandSurface,
    framing,
    gamma_self_linking,
    gl_form,
    klein_bottle_for_cables,
    mobius_band,
    seifert_matrix,
    twist_box_counts,
)
from knotbands.battery import random_band_surface, random_core, random_normal_form

MAX_BANDS = 6


def _retwist(F: BandSurface, ks) -> BandSurface:
    """F with 2k extra half twists on each band (parity is unchanged)."""
    twists = [h + 2 * k for h, k in zip(F.half_twists, ks)]
    return BandSurface.build(twists, F.attach, F.route)


@pytest.mark.parametrize("m", range(2, 7))
def test_closed_form_matches_braided_box(m):
    # every compiled strand runs from end A to end B
    for h in range(-12, 13):
        closed = twist_box_counts(m, h)
        braided = oracles.twist_box_over_counts([1] * m, h)
        for pair in itertools.permutations(range(m), 2):
            assert closed.get(pair, 0) == braided.get(pair, 0), (h, pair)


ks = st.lists(st.integers(-40, 40), min_size=MAX_BANDS, max_size=MAX_BANDS)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), ks)
def test_retwisted_orientable_gl_form_symmetrizes_seifert(seed, shifts):
    F = random_band_surface(
        random.Random(seed), max_bands=MAX_BANDS, max_events=8, orientable=True
    )
    F = _retwist(F, shifts)
    V = seifert_matrix(F)
    n = len(V)
    assert gl_form(F) == tuple(
        tuple(V[i][j] + V[j][i] for j in range(n)) for i in range(n)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), ks)
def test_retwisted_normal_form_gamma_law(seed, shifts):
    F = _retwist(random_normal_form(random.Random(seed)), shifts)
    assert framing(F) == 4 * gamma_self_linking(F)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(-1000, 1000))
def test_mobius_framing_is_2p(seed, k):
    p = 2 * k + 1
    core, _ = random_core(random.Random(seed))
    assert framing(mobius_band(core, p)) == 2 * p


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(-1000, 1000))
def test_klein_bottle_gl_determinant_is_p_squared(seed, k):
    p = 2 * k + 1
    rng = random.Random(seed)
    core_k, _ = random_core(rng)
    core_j, _ = random_core(rng)
    G = gl_form(klein_bottle_for_cables(core_k, core_j, p))
    assert abs(det_int(G)) == p * p
