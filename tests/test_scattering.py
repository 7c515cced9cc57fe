"""Tails: boundary scattering, light cone, conservation, beats, interferometer."""

import math

import numpy as np
import pytest

from helpers import brute_force_first_detection, stepped_detection_series

from sqrw.errors import TruncationError, ValidationError
from sqrw.layers import origin_state, reduced_step
from sqrw.multiport import grover_coeffs, symmetric_coeffs, validate_unitarity
from sqrw.scattering import (
    boundary_coeffs,
    count_local_maxima,
    detection_probability_series,
    full_tail_detection_series,
    full_tail_from_cube,
    full_tail_norm,
    full_tail_step,
    initial_tail_photon,
    interferometer_amplitude,
    scatter_from_layer,
    scatter_layer_part,
    scatter_norm,
    scatter_step,
    simulate_interferometer_amplitude,
)
from sqrw.hypercube import zero_full_state


def test_boundary_coeffs_default_values_and_unitarity():
    for d in (1, 3, 10):
        b = boundary_coeffs(d)
        assert b.degree == d + 1
        assert b.r == pytest.approx(2 / (d + 1) - 1, abs=1e-15)
        assert b.t == pytest.approx(2 / (d + 1), abs=1e-15)
        assert validate_unitarity(b)


def test_first_step_from_tail_splits_into_rt():
    d = 4
    b = boundary_coeffs(d)
    s = scatter_step(initial_tail_photon(d, 8), grover_coeffs(d), b)
    assert s.up[0] == pytest.approx(b.t, abs=1e-15)
    assert s.down[0] == pytest.approx(b.r, abs=1e-15)
    assert scatter_norm(s) == pytest.approx(1.0, abs=1e-14)


def test_decoupled_boundaries_reproduce_reduced_step():
    d = 5
    c = symmetric_coeffs(d, 1.0)
    layer = origin_state(d)
    scat = scatter_from_layer(layer, 4)
    for _ in range(8):
        layer = reduced_step(layer, c)
        scat = scatter_step(scat, c, None)
    part = scatter_layer_part(scat)
    assert np.array_equal(part.up, layer.up)
    assert np.array_equal(part.down, layer.down)
    assert scat.up[d] == 0 and scat.down[0] == 0


def test_decoupled_boundaries_reject_occupied_tails():
    d = 3
    s = initial_tail_photon(d, 4)
    with pytest.raises(ValidationError):
        scatter_step(s, grover_coeffs(d), None)


def test_tail_propagation_is_ballistic():
    d = 3
    s = initial_tail_photon(d, 6)
    s.left_in[0] = 0.0
    s.left_in[3] = 1.0  # site -4 heading right
    out = scatter_step(s, grover_coeffs(d), boundary_coeffs(d))
    assert out.left_in[2] == 1.0
    assert np.count_nonzero(out.left_in) == 1
    assert scatter_norm(out) == pytest.approx(1.0, abs=1e-15)


def test_outgoing_tail_amplitude_marches_away():
    d = 2
    c, b = grover_coeffs(d), boundary_coeffs(d)
    s = scatter_step(initial_tail_photon(d, 10), c, b)
    reflected = s.down[0]
    for i in range(5):
        s = scatter_step(s, c, b)
        assert s.left_out[i] == reflected


def test_truncation_error_raised():
    d = 2
    c, b = grover_coeffs(d), boundary_coeffs(d)
    s = initial_tail_photon(d, 3)
    with pytest.raises(TruncationError):
        for _ in range(10):
            s = scatter_step(s, c, b)


@pytest.mark.parametrize("family", ["grover", "symmetric"])
@pytest.mark.parametrize("d", [2, 4, 10])
def test_series_truncates_exactly_where_stepping_does(d, family):
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    b = boundary_coeffs(d)
    n = 3 * d
    raised = 0
    for tail_length in range(1, n + 3):
        try:
            expected = stepped_detection_series(d, c, b, n, tail_length)
        except TruncationError:
            raised += 1
            with pytest.raises(TruncationError):
                detection_probability_series(d, c, b, n, tail_length)
            continue
        got = detection_probability_series(d, c, b, n, tail_length)
        assert np.array_equal(got, expected), f"tail length {tail_length}"
    assert 0 < raised < n + 2  # both outcomes are exercised


def test_norm_conserved_with_tails():
    d = 10
    c, b = symmetric_coeffs(d, 1.0), boundary_coeffs(d)
    s = initial_tail_photon(d, 120)
    for _ in range(100):
        s = scatter_step(s, c, b)
        assert abs(scatter_norm(s) - 1.0) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 5])
def test_light_cone(d):
    series = detection_probability_series(d, grover_coeffs(d), None, n_max=3 * d)
    assert np.all(series[: d + 1] == 0.0)
    assert series[d + 1] > 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_first_detection_matches_brute_force_paths(d):
    c, b = grover_coeffs(d), boundary_coeffs(d)
    series = detection_probability_series(d, c, b, n_max=d + 1)
    brute = brute_force_first_detection(d, c, b)
    assert series[d + 1] == pytest.approx(abs(brute) ** 2, abs=1e-10)
    # closed product: enter, d-1 inner transmissions, exit, d! orderings
    closed = abs(d * b.t**2 * math.factorial(d - 1) * c.t ** (d - 1)) ** 2
    assert series[d + 1] == pytest.approx(closed, abs=1e-12)


def test_detection_beats_d10_symmetric():
    d = 10
    series = detection_probability_series(d, symmetric_coeffs(d, 1.0), None, n_max=400)
    arrivals = series[(d + 1) % 2 :: 2]  # detector parity: strip the structural zeros
    assert count_local_maxima(arrivals) >= 2


def test_reduced_and_full_tail_series_agree():
    d = 4
    c, b = symmetric_coeffs(d, 1.0), boundary_coeffs(d)
    reduced = detection_probability_series(d, c, b, n_max=60)
    full = full_tail_detection_series(d, c, b, n_max=60)
    assert np.max(np.abs(reduced - full)) <= 1e-12


def test_full_tail_norm_conserved():
    d = 4
    c, b = grover_coeffs(d), boundary_coeffs(d)
    s = full_tail_from_cube(zero_full_state(d), 40)
    s.left_in[0] = 1.0
    for _ in range(30):
        s = full_tail_step(s, c, b)
        assert abs(full_tail_norm(s) - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [2, 4, 6])
def test_interferometer_closed_form_matches_simulation(d):
    rng = np.random.default_rng(42 + d)
    c = grover_coeffs(d)
    for _ in range(5):
        gamma = rng.normal(size=d) + 1j * rng.normal(size=d)
        closed = interferometer_amplitude(d, gamma, c)
        simulated = simulate_interferometer_amplitude(d, gamma, c)
        assert abs(closed - simulated) <= 1e-10


def test_interferometer_zero_sum_cancels():
    d = 5
    gamma = np.zeros(d, dtype=np.complex128)
    gamma[0], gamma[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert abs(interferometer_amplitude(d, gamma, grover_coeffs(d))) <= 1e-12
    assert abs(simulate_interferometer_amplitude(d, gamma, grover_coeffs(d))) <= 1e-12


def test_interferometer_depends_only_on_gamma_sum():
    d = 4
    c = grover_coeffs(d)
    rng = np.random.default_rng(11)
    g1 = rng.normal(size=d) + 1j * rng.normal(size=d)
    g2 = rng.normal(size=d) + 1j * rng.normal(size=d)
    g2 += (g1.sum() - g2.sum()) / d  # equalize the sums
    a1 = simulate_interferometer_amplitude(d, g1, c)
    a2 = simulate_interferometer_amplitude(d, g2, c)
    assert abs(a1 - a2) <= 1e-12


def test_interferometer_gamma_shape_checked():
    with pytest.raises(ValidationError):
        interferometer_amplitude(3, np.ones(4), grover_coeffs(3))


def test_scatter_state_validation():
    with pytest.raises(ValidationError):
        initial_tail_photon(3, 0)
    with pytest.raises(ValidationError):
        scatter_step(initial_tail_photon(3, 4), grover_coeffs(4), None)
