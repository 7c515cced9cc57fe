"""Property tests over random coefficients, marks and dimensions."""

import cmath
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import reference_step

from sqrw.evolution import EvolutionConfig, step
from sqrw.multiport import custom_coeffs, phase_coeffs
from sqrw.search import SearchConfig, full_search_series, run_search

angles = st.floats(min_value=0.0, max_value=2 * math.pi)


@st.composite
def unitary_coeffs(draw, d):
    # The vertex matrix has eigenvalue r + (d-1)t on the uniform port state
    # and r - t on its complement; any two phases give valid coefficients.
    uniform, rest = cmath.exp(1j * draw(angles)), cmath.exp(1j * draw(angles))
    t = (uniform - rest) / d
    return custom_coeffs(rest + t, t, d)


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
    """A config with 0-2 overridden vertices and a unit state in either memory order."""
    d = draw(st.integers(min_value=1, max_value=7))
    marks = draw(st.lists(st.integers(min_value=0, max_value=(1 << d) - 1), max_size=2, unique=True))
    cfg = EvolutionConfig(d, draw(unitary_coeffs(d)), {v: draw(unitary_coeffs(d)) for v in marks})
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    state = rng.normal(size=(1 << d, d)) + 1j * rng.normal(size=(1 << d, d))
    state /= np.linalg.norm(state)
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


@settings(max_examples=60, deadline=None)
@given(search_configs())
def test_layer_search_equals_full_state_oracle(cfg):
    got = run_search(cfg)
    assert np.max(np.abs(got.probabilities - full_search_series(cfg))) <= 1e-12
