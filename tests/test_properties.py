"""Property tests over random coefficients, marks and dimensions."""

import cmath
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from sqrw.multiport import custom_coeffs, phase_coeffs
from sqrw.search import SearchConfig, full_search_series, run_search

angles = st.floats(min_value=0.0, max_value=2 * math.pi)


@st.composite
def search_configs(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    # The vertex matrix has eigenvalue r + (d-1)t on the uniform port state
    # and r - t on its complement; any two phases give valid coefficients.
    uniform, rest = cmath.exp(1j * draw(angles)), cmath.exp(1j * draw(angles))
    t = (uniform - rest) / d
    return SearchConfig(
        dim=d,
        marked=draw(st.integers(min_value=0, max_value=(1 << d) - 1)),
        steps=draw(st.integers(min_value=0, max_value=40)),
        marked_coeffs=phase_coeffs(d, cmath.exp(1j * draw(angles))),
        coeffs=custom_coeffs(rest + t, t, d),
        metric=draw(st.sampled_from(("out", "in"))),
    )


@settings(max_examples=60, deadline=None)
@given(search_configs())
def test_layer_search_equals_full_state_oracle(cfg):
    got = run_search(cfg)
    assert np.max(np.abs(got.probabilities - full_search_series(cfg))) <= 1e-12
