"""Reduced layer walk: recursion, closed forms, classical chain, revivals."""

import math

import numpy as np
import pytest

from sqrw.errors import ValidationError
from sqrw.layers import (
    LayerState,
    classical_hitting_probability,
    classical_initial_distribution,
    classical_walk_step,
    conserved_quantity_series,
    corner_pair_state,
    edge_counting_norm,
    evolve_layers,
    hitting_amplitude_closed_form,
    hitting_ratio_table,
    layer_distribution,
    layer_distribution_series,
    layer_mean,
    middle_state,
    origin_state,
    per_vertex_probabilities,
    reduced_step,
    squared_binomial_product,
    zero_layer_state,
)
from sqrw.multiport import MultiportCoeffs, grover_coeffs, symmetric_coeffs
from sqrw.scattering import count_local_maxima


def test_layer_state_structural_zeros_enforced():
    up = np.zeros(4, dtype=np.complex128)
    up[3] = 1.0
    with pytest.raises(ValidationError):
        LayerState(3, up, np.zeros(4, dtype=np.complex128))


def test_d2_two_step_corner_to_corner():
    c = grover_coeffs(2)
    s = origin_state(2)
    s = reduced_step(s, c)
    assert s.up[1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert np.count_nonzero(s.up) + np.count_nonzero(s.down) == 1
    s = reduced_step(s, c)
    assert s.down[2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert np.count_nonzero(s.up) + np.count_nonzero(s.down) == 1


def test_identity_multiport_bounces_between_neighbours():
    c = MultiportCoeffs(1.0, 0.0, 3)
    s = zero_layer_state(3)
    s.up[0] = 1.0
    after_two = evolve_layers(s, c, 2)
    assert after_two.up[0] == pytest.approx(1.0, abs=1e-15)
    one = reduced_step(s, c)
    assert one.down[1] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "d,value",
    [(2, 1 / math.sqrt(2)), (3, 8 / (9 * math.sqrt(3))), (4, 3 / 8)],
)
def test_hitting_amplitude_reference_values(d, value):
    amp = hitting_amplitude_closed_form(d, grover_coeffs(d))
    assert amp == pytest.approx(value, abs=1e-14)


@pytest.mark.parametrize("family", ["grover", "symmetric"])
@pytest.mark.parametrize("d", range(2, 21))
def test_closed_form_matches_iteration(family, d):
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    final = evolve_layers(origin_state(d), c, d)
    assert abs(final.down[d] - hitting_amplitude_closed_form(d, c)) <= 1e-10


def test_closed_form_log_branch_agrees_with_direct():
    # d = 25 is cheap enough to iterate, exercising the lgamma path
    d = 25
    c = grover_coeffs(d)
    final = evolve_layers(origin_state(d), c, d)
    assert abs(final.down[d] - hitting_amplitude_closed_form(d, c)) <= 1e-12


@pytest.mark.parametrize("d,value", [(2, 0.5), (3, 2 / 9), (4, 0.09375)])
def test_classical_hitting_values(d, value):
    assert classical_hitting_probability(d) == pytest.approx(value, abs=1e-15)


def test_classical_walk_step_d2():
    assert np.allclose(classical_walk_step(np.array([1.0, 0, 0]), 2), [0, 1, 0])
    assert np.allclose(classical_walk_step(np.array([0, 1.0, 0]), 2), [0.5, 0, 0.5])


@pytest.mark.parametrize("d", range(1, 13))
def test_classical_iteration_reaches_factorial_ratio(d):
    p = classical_initial_distribution(d)
    for _ in range(d):
        p = classical_walk_step(p, d)
        assert abs(p.sum() - 1.0) <= 1e-12
    assert abs(p[d] - classical_hitting_probability(d)) <= 1e-12


def test_per_vertex_conversion():
    p = np.array([0.0, 1.0, 0.0])
    assert np.allclose(per_vertex_probabilities(p, 2), [0, 0.5, 0])


def test_hitting_ratio_reference_rows():
    table = hitting_ratio_table(4)
    assert np.allclose(table[:, 0], [2, 3, 4])
    assert table[0, 3] == pytest.approx(1.0, abs=1e-12)
    assert table[1, 3] == pytest.approx(32 / 27, abs=1e-12)
    assert table[2, 3] == pytest.approx(1.5, abs=1e-12)


def test_hitting_ratio_increases():
    table = hitting_ratio_table(20)
    ratios = table[1:, 3]  # d = 3..20
    assert np.all(ratios >= 1.0)
    assert np.all(np.diff(ratios) > 0)


@pytest.mark.parametrize("d", [5, 50, 200])
@pytest.mark.parametrize("family", ["grover", "symmetric"])
def test_norm_conserved(d, family):
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    s = origin_state(d)
    for _ in range(50):
        s = reduced_step(s, c)
        assert abs(edge_counting_norm(s) - 1.0) <= 1e-10


def test_initial_state_distributions():
    d = 50
    assert layer_distribution(origin_state(d))[0] == pytest.approx(1.0, abs=1e-12)
    corners = layer_distribution(corner_pair_state(d))
    assert corners[0] == pytest.approx(0.5, abs=1e-12)
    assert corners[d] == pytest.approx(0.5, abs=1e-12)
    middle = layer_distribution(middle_state(d))
    assert middle[26] == pytest.approx(1.0, abs=1e-12)
    assert edge_counting_norm(middle_state(d)) == pytest.approx(1.0, abs=1e-12)


def test_middle_state_at_small_even_dimension():
    # w0 = d at d = 2: only the downward coefficient exists there
    s = middle_state(2)
    assert s.up[2] == 0
    assert edge_counting_norm(s) == pytest.approx(1.0, abs=1e-14)


def test_series_rows_are_distributions():
    d = 50
    series = layer_distribution_series(d, grover_coeffs(d), origin_state(d), 100)
    assert np.max(np.abs(series.sum(axis=1) - 1.0)) <= 1e-10
    assert series[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("init", [origin_state, corner_pair_state, middle_state])
def test_series_equals_stepping_layer_states_bit_for_bit(init):
    d = 9
    c = symmetric_coeffs(d, 1.0)
    s = init(d)
    expected = [layer_distribution(s)]
    for _ in range(40):
        s = reduced_step(s, c)
        expected.append(layer_distribution(s))
    assert np.array_equal(layer_distribution_series(d, c, init(d), 40), np.array(expected))


def test_series_weighs_layers_once(monkeypatch):
    import sqrw.layers

    calls = []
    binomials = sqrw.layers._binomials
    monkeypatch.setattr(sqrw.layers, "_binomials", lambda d: calls.append(d) or binomials(d))
    layer_distribution_series(50, grover_coeffs(50), origin_state(50), 250)
    assert calls == [50]


def test_packet_reaches_far_side_and_reflects():
    d = 50
    series = layer_distribution_series(d, grover_coeffs(d), origin_state(d), 100)
    means = np.array([layer_mean(row) for row in series])
    peak = int(np.argmax(means))
    assert means[peak] > d / 2
    assert peak < 100
    assert means[100] < means[peak] - 1.0


@pytest.mark.parametrize("family", ["grover", "symmetric"])
def test_middle_start_mean_oscillates(family):
    d = 50
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    series = layer_distribution_series(d, c, middle_state(d), 250)
    means = np.array([layer_mean(row) for row in series])
    signs = np.sign(np.where(np.abs(means - d / 2) > 1e-9, means - d / 2, 0.0))
    signs = signs[signs != 0]
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    assert crossings >= 2


@pytest.mark.parametrize("family", ["grover", "symmetric"])
def test_corner_start_is_mirror_symmetric_and_revives(family):
    # The corner-pair state is invariant under translation by the all-ones
    # vertex, which commutes with the walk, so p_n(w) = p_n(d-w) for every n
    # and the layer mean is pinned at d/2.  The beat structure shows up in
    # the corner mass instead.
    d = 50
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    series = layer_distribution_series(d, c, corner_pair_state(d), 250)
    assert np.max(np.abs(series - series[:, ::-1])) <= 1e-12
    means = np.array([layer_mean(row) for row in series])
    assert np.max(np.abs(means - d / 2)) <= 1e-9
    corner_mass = series[:, 0] + series[:, d]
    assert count_local_maxima(corner_mass, floor=1e-6) >= 2


def test_audit_quantities():
    d = 10
    c = grover_coeffs(d)
    edge, squared = conserved_quantity_series(d, c, origin_state(d), 100)
    assert np.max(np.abs(edge - edge[0])) <= 1e-10
    # the squared-binomial sum is not conserved: it drifts by orders of magnitude
    assert np.max(np.abs(squared - squared[0])) / squared[0] > 1.0


def test_squared_binomial_value():
    s = origin_state(4)
    assert squared_binomial_product(s) == pytest.approx(1 / 4, abs=1e-15)
    assert edge_counting_norm(s) == pytest.approx(1.0, abs=1e-15)
