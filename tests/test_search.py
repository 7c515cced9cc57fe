"""Marked-vertex walk: stationarity, covariance, amplification."""

import itertools
import math

import numpy as np
import pytest

from helpers import reference_step, stacked, walk_states
from oracles import full_search_series

from sqrw.errors import ValidationError
from sqrw.evolution import EvolutionConfig, step, vertex_probability
from sqrw.hypercube import direction_mask, zero_full_state
from sqrw.layers import MAX_LAYER_DIM, LayerState, _layer_factors, edge_counting_norm
from sqrw.multiport import grover_coeffs, phase_coeffs, symmetric_coeffs
from sqrw.search import SearchConfig, run_search, success_probability, uniform_edge_state


def _marked_step(state, cfg):
    """One step of the search walk on the full state, by the gather-and-combine oracle."""
    plain = EvolutionConfig(cfg.dim, cfg.coeffs)
    return reference_step(state, plain, {cfg.marked: cfg.marked_coeffs})


def test_uniform_state_is_normalized():
    assert abs(np.linalg.norm(uniform_edge_state(6)) - 1.0) <= 1e-12


def test_marked_vertex_reflects_with_phase():
    d = 4
    marked = 5
    cfg = SearchConfig(dim=d, marked=marked, steps=0)
    state = zero_full_state(d)
    entering = marked ^ direction_mask(d, 2)
    state[entering, 1] = 1.0  # edge entering the marked vertex along direction 2
    out = _marked_step(state, cfg)
    assert out[marked, 1] == pytest.approx(-1.0, abs=1e-15)
    assert np.count_nonzero(out) == 1


def test_without_override_matches_plain_step():
    d = 5
    cfg = SearchConfig(dim=d, marked=3, steps=0)
    plain = EvolutionConfig(d, grover_coeffs(d))
    s = uniform_edge_state(d)
    marked_off = step(s, plain)
    # the uniform state is stationary for the unperturbed walk
    assert np.max(np.abs(marked_off - s)) <= 1e-12


def test_unperturbed_walk_keeps_uniform_success():
    d = 6
    n = 1 << d
    cfg = EvolutionConfig(d, grover_coeffs(d))
    s = uniform_edge_state(d)
    for _ in range(20):
        s = step(s, cfg)
        assert vertex_probability(s, 17) == pytest.approx(1 / n, abs=1e-12)


def test_symmetry_breaking_onset():
    # A phase-only marked vertex leaves every probability at the uniform
    # baseline until the flipped amplitudes interfere at the diffusing
    # neighbours: the in-edges deviate at step 2, the out-edges at step 3.
    d = 4
    cfg_out = SearchConfig(dim=d, marked=0, steps=0)
    cfg_in = SearchConfig(dim=d, marked=0, steps=0, metric="in")
    baseline = 1 / (1 << d)
    s = uniform_edge_state(d)
    s = _marked_step(s, cfg_out)
    assert success_probability(s, cfg_out) == pytest.approx(baseline, abs=1e-12)
    assert success_probability(s, cfg_in) == pytest.approx(baseline, abs=1e-12)
    s = _marked_step(s, cfg_out)
    assert success_probability(s, cfg_out) == pytest.approx(baseline, abs=1e-12)
    assert abs(success_probability(s, cfg_in) - baseline) > 1e-3
    s = _marked_step(s, cfg_out)
    assert abs(success_probability(s, cfg_out) - baseline) > 1e-3


def test_run_search_starts_at_baseline_and_amplifies():
    d = 6
    series = run_search(SearchConfig(dim=d, marked=9, steps=32))
    assert series[0] == pytest.approx(1 / (1 << d), abs=1e-12)
    assert series.max() > 25 / (1 << d)
    assert np.argmax(series) > 0


def test_translation_covariance_of_success_series():
    d = 5
    a = run_search(SearchConfig(dim=d, marked=0, steps=24))
    b = run_search(SearchConfig(dim=d, marked=19, steps=24))
    assert np.max(np.abs(a - b)) <= 1e-12


def test_norm_conserved_with_marked_vertex():
    d = 5
    cfg = SearchConfig(dim=d, marked=7, steps=0)
    s = uniform_edge_state(d)
    for _ in range(50):
        s = _marked_step(s, cfg)
    assert abs(np.linalg.norm(s) - 1.0) <= 1e-12


def test_in_metric_counts_entering_edges():
    d = 3
    marked = 2
    cfg_in = SearchConfig(dim=d, marked=marked, steps=0, metric="in")
    state = zero_full_state(d)
    state[marked ^ direction_mask(d, 1), 0] = 1.0
    assert success_probability(state, cfg_in) == pytest.approx(1.0, abs=1e-15)
    cfg_out = SearchConfig(dim=d, marked=marked, steps=0, metric="out")
    assert success_probability(state, cfg_out) == 0.0


def test_custom_marked_phase():
    d = 4
    cfg = SearchConfig(dim=d, marked=1, steps=8, marked_coeffs=phase_coeffs(d, 1j))
    series = run_search(cfg)
    assert series.shape == (9,)
    assert np.all(series >= 0)


def test_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(dim=3, marked=8, steps=5)
    with pytest.raises(ValidationError):
        SearchConfig(dim=3, marked=0, steps=-1)
    with pytest.raises(ValidationError):
        SearchConfig(dim=3, marked=0, steps=5, metric="sideways")
    with pytest.raises(ValidationError):
        SearchConfig(dim=MAX_LAYER_DIM + 1, marked=0, steps=5)


@pytest.mark.parametrize("d", range(3, 11))
def test_layer_search_matches_full_state_oracle(d):
    steps = int(3 * math.sqrt(1 << d)) + 4
    marks = sorted({0, 173 % (1 << d), (1 << d) - 1})
    families = (grover_coeffs(d), symmetric_coeffs(d, 1.0))
    for mark, metric, phase, coeffs in itertools.product(marks, ("out", "in"), (-1.0, 1j), families):
        cfg = SearchConfig(
            dim=d,
            marked=mark,
            steps=steps,
            marked_coeffs=phase_coeffs(d, phase),
            coeffs=coeffs,
            metric=metric,
        )
        assert np.max(np.abs(run_search(cfg) - full_search_series(cfg))) <= 1e-12


def test_layer_search_state_keeps_unit_norm():
    # the walk run_search steps: uniform start, layer 0 marked with r = -1, t = 0
    d = 30
    c = grover_coeffs(d)
    r = np.full(d + 1, c.r)
    t = np.full(d + 1, c.t)
    r[0], t[0] = -1.0, 0.0
    up = np.full(d + 1, 1.0 / math.sqrt(d * (1 << d)), dtype=np.complex128)
    down = up.copy()
    up[d] = down[0] = 0.0
    for s in walk_states(stacked(up, down), 2000, _layer_factors(d, r, t)):
        assert abs(edge_counting_norm(LayerState(d, s)) - 1.0) <= 1e-10


@pytest.mark.parametrize("metric", ["out", "in"])
def test_search_peak_follows_the_skw_asymptotics(metric):
    # Shenvi, Kempe and Whaley (PRA 67, 052307): the success probability peaks near
    # t_SKW = (pi/2) sqrt(2**(d - 1)) steps, at 1/2 - O(1/d).  Scaled by d, both corrections
    # read 0.54 .. 0.66 (step) and 0.53 .. 0.57 (probability) over even d = 20 .. 34
    peaks = []
    for d in range(20, 35, 2):
        t_skw = math.pi / 2 * math.sqrt(2 ** (d - 1))
        series = run_search(SearchConfig(d, 0, math.ceil(1.3 * t_skw), metric=metric))
        peak = int(np.argmax(series))
        assert 0.45 <= d * (peak / t_skw - 1) <= 0.75, d
        assert 0.48 <= d * (0.5 - series[peak]) <= 0.62, d
        peaks.append(series[peak])
    assert all(a < b for a, b in zip(peaks, peaks[1:]))  # rising towards 1/2
