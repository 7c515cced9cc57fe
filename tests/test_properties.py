"""Property tests over random coefficients, marks and dimensions."""

import cmath
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import random_unit_state, reference_step, small_blocks
from oracles import full_search_series

from sqrw.evolution import EvolutionConfig, step
from sqrw.multiport import MultiportCoeffs, phase_coeffs
from sqrw.search import SearchConfig, run_search
from sqrw.spectral import rotation_apply, translation_apply

angles = st.floats(min_value=0.0, max_value=2 * math.pi)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def unitary_coeffs(draw, d):
    # The vertex matrix has eigenvalue r + (d-1)t on the uniform port state
    # and r - t on its complement; any two phases give valid coefficients.
    uniform, rest = cmath.exp(1j * draw(angles)), cmath.exp(1j * draw(angles))
    t = (uniform - rest) / d
    return MultiportCoeffs(rest + t, t, d)


@st.composite
def search_configs(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    return SearchConfig(
        dim=d,
        marked=draw(st.integers(min_value=0, max_value=(1 << d) - 1)),
        steps=draw(st.integers(min_value=0, max_value=40)),
        marked_coeffs=phase_coeffs(d, cmath.exp(1j * draw(angles))),
        coeffs=draw(unitary_coeffs(d)),
        metric=draw(st.sampled_from(("out", "in"))),
    )


@st.composite
def step_cases(draw):
    """A config and a unit state in either memory order."""
    d = draw(st.integers(min_value=1, max_value=8))
    cfg = EvolutionConfig(d, draw(unitary_coeffs(d)))
    state = random_unit_state(d, draw(seeds))
    if draw(st.booleans()):
        state = np.ascontiguousarray(state.T).T  # direction-major storage
    return cfg, state


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_step_equals_reference_gather_and_combine(case):
    cfg, state = case
    got = step(state, cfg)
    assert np.max(np.abs(got - reference_step(state, cfg))) <= 1e-13
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_blocked_step_equals_reference_bit_for_bit(case):
    # one step of the walk without pv: bits above and inside a block of 2, 4
    # or 16 (all inside at block 16, d <= 4), swapped back after the step
    cfg, state = case
    want = reference_step(state, cfg)
    for block in (2, 4, 16):
        with small_blocks(block):
            got = step(state, cfg)
        assert np.array_equal(got, want), block


@settings(max_examples=60, deadline=None)
@given(search_configs())
def test_layer_search_equals_full_state_oracle(cfg):
    assert np.max(np.abs(run_search(cfg) - full_search_series(cfg))) <= 1e-12


@st.composite
def symmetry_cases(draw):
    """Coefficients, a unit state and a translation vertex b."""
    d = draw(st.integers(min_value=1, max_value=6))
    b = draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    return draw(unitary_coeffs(d)), random_unit_state(d, draw(seeds)), b


@settings(max_examples=100, deadline=None)
@given(symmetry_cases())
def test_step_commutes_with_translation_and_rotation(case):
    c, state, b = case
    cfg = EvolutionConfig(c.degree, c)
    stepped = step(state, cfg)
    translated = step(translation_apply(state, b), cfg)
    assert np.max(np.abs(translated - translation_apply(stepped, b))) <= 1e-13
    assert np.max(np.abs(step(rotation_apply(state), cfg) - rotation_apply(stepped))) <= 1e-13
