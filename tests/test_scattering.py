"""Tails: boundary scattering, light cone, conservation, beats, interferometer."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    brute_force_first_detection,
    count_local_maxima,
    stacked,
    stepped_detection_series,
    tailed_cube_exits,
    traversal_amplitude,
    walk_states,
)

from oracles import shifting_scatter_step, tailed_corner_rows, unitarity_residuals

from sqrw.errors import ValidationError
from sqrw.layers import LayerState, _WALK_BLOCK, _layer_factors, edge_counting_norm, origin_state
from sqrw.multiport import MultiportCoeffs, grover_coeffs, symmetric_coeffs
from sqrw.scattering import (
    boundary_coeffs,
    detection_probability_series,
    initial_tail_photon,
    interferometer_amplitude,
    scatter_step,
)


def test_boundary_coeffs_default_values_and_unitarity():
    for d in (1, 3, 10):
        b = boundary_coeffs(d)
        assert b.degree == d + 1
        assert b.r == pytest.approx(2 / (d + 1) - 1, abs=1e-15)
        assert b.t == pytest.approx(2 / (d + 1), abs=1e-15)
        assert max(unitarity_residuals(b)) <= 1e-12


def test_first_step_from_tail_splits_into_rt():
    d = 4
    b = boundary_coeffs(d)
    s = scatter_step(initial_tail_photon(d), grover_coeffs(d), b)
    assert s.up[0] == pytest.approx(b.t, abs=1e-15)
    assert s.down[0] == pytest.approx(b.r, abs=1e-15)
    assert s.line[0] == s.line[-1] == 0  # the pad's photon has entered
    assert edge_counting_norm(s) + abs(s.up[d]) ** 2 + abs(s.down[0]) ** 2 == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d", range(1, 9))
def test_tail_port_factors_match_corner_rows(d):
    # d = 1: both corners share the one pair of layers
    rng = np.random.default_rng(d)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    tb = (phases[0] - phases[1]) / (d + 1)  # eigenvalue phases[0] on the uniform port state
    c = grover_coeffs(d)
    # unit-modulus inputs, so every corner row is at most 2 in modulus
    up, down = np.exp(2j * np.pi * rng.uniform(size=(2, d + 1)))
    left_in, right_in = np.exp(2j * np.pi * rng.uniform(size=2))
    padded = stacked(up, down)
    padded[0], padded[-1] = left_in, right_in
    for b, tol in ((boundary_coeffs(d), 0.0), (MultiportCoeffs(phases[1] + tb, tb, d + 1), 1e-15)):
        new = walk_states(padded, 1, _layer_factors(d, c.r, c.t, b))[1]
        new_up, new_down = new[1:-1].reshape(2, d + 1)
        corners = np.array((new_up[0], new_down[0], new_up[d], new_down[d]))
        expected = np.array(tailed_corner_rows(up, down, left_in, right_in, b))
        assert np.max(np.abs(corners - expected)) <= tol
        plain = walk_states(stacked(up, down), 1, _layer_factors(d, c.r, c.t))[1]
        plain_up, plain_down = plain[1:-1].reshape(2, d + 1)
        assert np.array_equal(new_up[1:d], plain_up[1:d])
        assert np.array_equal(new_down[1:d], plain_down[1:d])


@pytest.mark.parametrize("start", ["photon", "origin", "tails"])
@pytest.mark.parametrize(
    "d, family",  # symmetric coefficients need degree >= 2
    [(1, "grover")] + [(d, f) for d in (2, 3, 5, 10) for f in ("grover", "symmetric")],
)
def test_line_step_matches_shifting_tails_to_the_bit(d, family, start):
    # the oracle stores both tails; before each step the line's pads take what
    # the incoming tails send in, left_in[0] and right_in[0]
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    b = boundary_coeffs(d)
    L = d + 5
    up, down = np.zeros((2, d + 1), np.complex128)
    left_in, left_out, right_out, right_in = np.zeros((4, L), np.complex128)
    if start == "photon":
        left_in[0] = 1.0
    elif start == "origin":
        up = origin_state(d).up.copy()
    else:  # every site occupied but the outer half of each outgoing tail
        rng = np.random.default_rng(d)
        up, down, left_in, left_out, right_out, right_in = (
            rng.normal(size=size) + 1j * rng.normal(size=size) for size in [d + 1] * 2 + [L] * 4
        )
        left_out[L // 2 :] = right_out[L // 2 :] = 0.0
    fields = (up, down, left_in, left_out, right_out, right_in)
    s = LayerState(d, stacked(up, down))
    for n in range(1, 2 * L + 1):
        s.line[0], s.line[-1] = fields[2][0], fields[5][0]
        try:
            fields = shifting_scatter_step(fields, c, b)
        except AssertionError:  # the oracle's outgoing tails are full
            break
        s = scatter_step(s, c, b)
        assert np.array_equal(s.up, fields[0]) and np.array_equal(s.down, fields[1]), f"after step {n}"
        assert s.line[0] == s.line[-1] == 0
    assert n > L // 2


def test_scatter_step_is_one_layer_kernel_call(monkeypatch):
    import sqrw.scattering

    d = 3
    c, b = grover_coeffs(d), boundary_coeffs(d)
    calls = []
    walk = sqrw.scattering._layer_walk
    monkeypatch.setattr(sqrw.scattering, "_layer_walk", lambda *args: calls.append(len(args[2]) - 1) or walk(*args))
    s = initial_tail_photon(d)
    for _ in range(9):
        s = scatter_step(s, c, b)
    assert calls == [1] * 9
    # a walk that moves nothing leaves nothing: no amplitude moves outside it
    monkeypatch.setattr(sqrw.scattering, "_layer_walk", lambda line, factors, out, read: read(np.zeros_like(out)))
    s.line[:] = 1.0
    assert not np.any(scatter_step(s, c, b).line)


@pytest.mark.parametrize(
    "d, family",
    [(1, "grover")] + [(d, family) for d in (2, 3, 4, 10) for family in ("grover", "symmetric")],
)
def test_detection_series_matches_stepped_tails_to_the_bit(d, family):
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    b = boundary_coeffs(d)
    # 2 * _WALK_BLOCK + 40 steps fill three blocks of the walk, so the series crosses two seams
    for n in (3 * d, 2 * _WALK_BLOCK + 40):
        assert np.array_equal(detection_probability_series(d, c, b, n), stepped_detection_series(d, c, b, n)), n


def test_norm_conserved_with_tails():
    # what left the cube is on the tails: the exits of every step so far
    d = 10
    c, b = symmetric_coeffs(d, 1.0), boundary_coeffs(d)
    s = initial_tail_photon(d)
    left = 0.0
    for _ in range(100):
        s = scatter_step(s, c, b)
        left += abs(s.up[d]) ** 2 + abs(s.down[0]) ** 2
        assert abs(edge_counting_norm(s) + left - 1.0) <= 1e-10


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
    exits, _ = tailed_cube_exits(np.zeros(d), c, 60, b, photon=1.0)
    assert np.max(np.abs(reduced - np.abs(exits[:, 1]) ** 2)) <= 1e-12


def test_full_tail_norm_conserved():
    # what left the cube is on the tails: the exits of every step so far
    d = 4
    c = grover_coeffs(d)
    for n in range(1, 31):
        exits, cube = tailed_cube_exits(np.zeros(d), c, n, photon=1.0)
        assert abs(np.sum(np.abs(cube) ** 2) + np.sum(np.abs(exits) ** 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("family", ["grover", "symmetric"])
@pytest.mark.parametrize("d", [2, 4, 6, 7])
def test_any_origin_start_exits_as_the_layer_walk(d, family):
    # exits(gamma) = sum(gamma)/sqrt(d) * exits(origin_state) at every step, both exits
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    b = boundary_coeffs(d)
    n = 6 * d
    s = origin_state(d)
    layer = [(s.down[0], s.up[d])]
    for _ in range(n):
        s = scatter_step(s, c, b)
        layer.append((s.down[0], s.up[d]))
    rng = np.random.default_rng(d)
    for _ in range(3):
        gamma = rng.normal(size=d) + 1j * rng.normal(size=d)
        gamma /= np.linalg.norm(gamma)
        exits, _ = tailed_cube_exits(gamma, c, n, b)
        expected = gamma.sum() / math.sqrt(d) * np.array(layer)
        assert np.max(np.abs(exits - expected)) <= 1e-13


@pytest.mark.parametrize("d", [2, 4, 6])
def test_interferometer_closed_form_matches_simulation(d):
    rng = np.random.default_rng(42 + d)
    c = grover_coeffs(d)
    for _ in range(5):
        gamma = rng.normal(size=d) + 1j * rng.normal(size=d)
        closed = interferometer_amplitude(d, gamma, c)
        assert abs(closed - traversal_amplitude(gamma, c)) <= 1e-10


def test_interferometer_zero_sum_cancels():
    d = 5
    gamma = np.zeros(d, dtype=np.complex128)
    gamma[0], gamma[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert abs(interferometer_amplitude(d, gamma, grover_coeffs(d))) <= 1e-12
    assert abs(traversal_amplitude(gamma, grover_coeffs(d))) <= 1e-12


def test_interferometer_depends_only_on_gamma_sum():
    d = 4
    c = grover_coeffs(d)
    rng = np.random.default_rng(11)
    g1 = rng.normal(size=d) + 1j * rng.normal(size=d)
    g2 = rng.normal(size=d) + 1j * rng.normal(size=d)
    g2 += (g1.sum() - g2.sum()) / d  # equalize the sums
    assert abs(traversal_amplitude(g1, c) - traversal_amplitude(g2, c)) <= 1e-12


@pytest.mark.parametrize("d", [20, 21, 200])
@pytest.mark.parametrize("family", ["grover", "symmetric"])
def test_interferometer_matches_exact_factorial_formula(family, d):
    # d = 20 takes the float factorial, d >= 21 the log-space form; the
    # reference is sum(gamma) (d-1)! t**(d-1) tb in exact rationals
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    gamma = np.linspace(0.5, 1.5, d)
    b = boundary_coeffs(d)
    exact = (
        sum(Fraction(g) for g in gamma)
        * math.factorial(d - 1)
        * Fraction(c.t.real) ** (d - 1)
        * Fraction(b.t.real)
    )
    got = interferometer_amplitude(d, gamma, c)
    assert got.imag == 0.0
    assert got.real == pytest.approx(float(exact), rel=1e-12)


def test_interferometer_gamma_shape_checked():
    with pytest.raises(ValidationError):
        interferometer_amplitude(3, np.ones(4), grover_coeffs(3))


def test_scatter_state_validation():
    with pytest.raises(ValidationError):  # d = 3: a line of 2d + 4 = 10 entries
        LayerState(3, np.zeros(9))
    with pytest.raises(ValidationError):
        LayerState(0, np.zeros(4))
    s = LayerState(3, np.arange(10.0))
    assert s.line.dtype == np.complex128
    # [pad, up, down, pad]
    assert np.array_equal(s.up, [1, 2, 3, 4]) and np.array_equal(s.down, [5, 6, 7, 8])
    s.up[3] = s.down[0] = -1.0  # the exits
    assert s.line[4] == s.line[5] == -1.0
    with pytest.raises(ValidationError):
        scatter_step(initial_tail_photon(3), grover_coeffs(4), boundary_coeffs(3))
    with pytest.raises(ValidationError):  # the boundary pair is a (d+1)-port
        scatter_step(initial_tail_photon(3), grover_coeffs(3), grover_coeffs(3))
