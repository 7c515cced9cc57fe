"""Reduced layer walk: recursion, closed forms, classical chain, revivals."""

import math
import time

import numpy as np
import pytest

from helpers import count_local_maxima, random_layer_coeffs, stacked, walk_states
from oracles import (
    classical_initial_distribution,
    classical_walk_step,
    concatenate_layer_walk,
    conserved_quantity_series,
    evolve_layers,
    layer_mean,
    per_vertex_probabilities,
    squared_binomial_product,
)

from sqrw.errors import ValidationError
from sqrw.hypercube import embed_layer_state
from sqrw.layers import (
    MAX_LAYER_DIM,
    LayerState,
    _WALK_BLOCK,
    _layer_factors,
    _layer_walk,
    classical_hitting_probability,
    corner_pair_state,
    edge_counting_norm,
    hitting_amplitude_closed_form,
    hitting_ratio_table,
    layer_distribution,
    layer_distribution_series,
    middle_state,
    origin_state,
    reduced_step,
    zero_layer_state,
)
from sqrw.multiport import MultiportCoeffs, grover_coeffs, symmetric_coeffs
from sqrw.scattering import boundary_coeffs, detection_probability_series, initial_tail_photon, scatter_step
from sqrw.search import SearchConfig, run_search


def test_layer_state_structural_zeros_enforced():
    # the constructor takes any line, the tailed cube's too; the walk without
    # tails leaves the pads and the exits zero, so its states stay closed
    d = 5
    c = symmetric_coeffs(d, 1.0)
    s = LayerState(d, stacked(*random_layer_coeffs(d, 3)))
    for _ in range(20):
        s = reduced_step(s, c)
        assert not np.any(s.line[[0, d + 1, d + 2, -1]])


@pytest.mark.parametrize("tails", [0, 2])
def test_exit_slots_are_pinned_only_without_tails(tails):
    # with both tails attached the exits are scatter_step's output and are taken
    # as its input; the walk without tails refuses them
    for slot, index in (("up", 3), ("down", 0)):
        s = zero_layer_state(3)
        getattr(s, slot)[index] = 1.0
        if tails == 0:
            with pytest.raises(ValidationError, match="structural zeros"):
                reduced_step(s, grover_coeffs(3))
        else:
            assert not np.any(scatter_step(s, grover_coeffs(3), boundary_coeffs(3)).line)


def test_layer_state_views_write_through_to_the_line():
    d = 4
    s = zero_layer_state(d)
    assert s.line.shape == (2 * d + 4,)
    for name in ("up", "down"):
        view = getattr(s, name)
        assert view.shape == (d + 1,), name
        view[:] = 1.0
        assert np.count_nonzero(s.line) == d + 1, name
        view[:] = 0.0


CLOSED_CUBE_FUNCTIONS = {
    "reduced_step": lambda s: reduced_step(s, grover_coeffs(s.d)),
    "layer_distribution_series": lambda s: layer_distribution_series(s.d, grover_coeffs(s.d), s, 2),
    "embed_layer_state": embed_layer_state,
}


@pytest.mark.parametrize("call", CLOSED_CUBE_FUNCTIONS.values(), ids=CLOSED_CUBE_FUNCTIONS)
def test_tail_free_functions_reject_tailed_states(call):
    # a pad is what a tail sends in, an exit what it takes out; a pad was once
    # dropped without an error by the series and the embedding
    for slot in (0, 5, 6, -1):  # the pads and the exits up[4], down[0] of d = 4
        s = origin_state(4)
        s.line[slot] = 0.5
        with pytest.raises(ValidationError, match="structural zeros of a tail-free"):
            call(s)


def test_equality_of_array_holders_is_identity():
    a, b = origin_state(2), origin_state(2)
    assert (a == a) is True and (a == b) is False


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


def test_layer_weights_refuse_a_dimension_past_the_cap():
    # C(d, w) overflows a float above d = 1029; the refusal names the cap, not the overflow
    d = MAX_LAYER_DIM + 100
    for weigh in (
        lambda: layer_distribution_series(d, grover_coeffs(d), origin_state(d), 1),
        lambda: edge_counting_norm(origin_state(d)),
        lambda: layer_distribution(origin_state(d)),
    ):
        with pytest.raises(ValidationError, match=str(MAX_LAYER_DIM)):
            weigh()


@pytest.mark.parametrize("d", [MAX_LAYER_DIM + 1, 1028, 10**6])
def test_middle_state_refuses_a_dimension_past_the_cap(d):
    # before C(d, d//2 + 1): past d = 1027 its square root overflows, and at 10**6 it takes seconds
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=str(MAX_LAYER_DIM)):
        middle_state(d)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode", ["plain", "photon", "both-pads", "search"])
@pytest.mark.parametrize(
    "d, family",  # symmetric coefficients need degree >= 2
    [(1, "grover")] + [(d, f) for d in (2, 5, 14, 50) for f in ("grover", "symmetric")],
)
def test_stacked_walk_matches_two_array_walk_to_the_bit(d, family, mode):
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    rng = np.random.default_rng(d)
    up, down = rng.normal(size=(2, d + 1)) + 1j * rng.normal(size=(2, d + 1))
    up[d] = down[0] = 0.0
    r, t, tails, left_in, right_in = c.r, c.t, None, 0j, 0j
    if mode == "photon":  # the detection series: one photon on the left pad, an empty cube
        up, down = np.zeros((2, d + 1), np.complex128)
        tails, left_in = boundary_coeffs(d), 1.0
    elif mode == "both-pads":  # an occupied cube, and both tails sending in on step 1
        tails = boundary_coeffs(d)
        left_in, right_in = np.exp(2j * np.pi * rng.uniform(size=2))
    elif mode == "search":  # layer 0 reflects with r = -1, t = 0
        r, t = np.full(d + 1, c.r), np.full(d + 1, c.t)
        r[0], t[0] = -1.0, 0.0
    steps = 600  # three blocks of the walk: the second and third start from a carried-over row
    want = concatenate_layer_walk(up, down, steps, r, t, tails, left_in, right_in)
    start = stacked(up, down)
    start[0], start[-1] = left_in, right_in
    blocks = []
    out = np.empty((steps + 1, len(start)), np.complex128)
    got = _layer_walk(start, _layer_factors(d, r, t, tails), out, lambda block: blocks.append(block.copy()) or block)
    assert got is out
    assert [len(block) for block in blocks] == [_WALK_BLOCK + 1, _WALK_BLOCK, steps - 2 * _WALK_BLOCK]
    assert np.array_equal(np.concatenate(blocks), got)
    assert len(got) == len(want) == steps + 1
    for n, (s, (want_up, want_down)) in enumerate(zip(got, want)):
        assert np.array_equal(s[1:-1], np.concatenate((want_up, want_down)))
        assert n == 0 or s[0] == s[-1] == 0


def test_every_layer_series_steps_through_one_kernel(monkeypatch):
    import sqrw.layers
    import sqrw.scattering
    import sqrw.search

    steps = []
    walk = sqrw.layers._layer_walk

    def counted(line, factors, out, read):
        steps.append(len(out) - 1)
        return walk(line, factors, out, read)

    for module in (sqrw.layers, sqrw.scattering, sqrw.search):
        monkeypatch.setattr(module, "_layer_walk", counted)
    layer_distribution_series(6, grover_coeffs(6), origin_state(6), 5)
    detection_probability_series(6, grover_coeffs(6), n_max=9)
    run_search(SearchConfig(dim=6, marked=5, steps=7))
    reduced_step(origin_state(6), grover_coeffs(6))
    scatter_step(initial_tail_photon(6), grover_coeffs(6), boundary_coeffs(6))
    assert steps == [5, 9, 7, 1, 1]


@pytest.mark.parametrize("steps", [0, 1, _WALK_BLOCK - 1, _WALK_BLOCK, _WALK_BLOCK + 1, 3 * _WALK_BLOCK])
def test_walk_yields_each_state_once_in_bounded_blocks(steps):
    d = 5
    factors = _layer_factors(d, grover_coeffs(d).r, grover_coeffs(d).t)
    sizes = []  # rows of each block the reader sees; block i reads as i + 1
    out = np.full(steps + 1, -1)
    _layer_walk(origin_state(d).line, factors, out, lambda block: sizes.append(len(block)) or len(sizes))
    assert sum(sizes) == steps + 1
    assert max(sizes) <= _WALK_BLOCK + 1
    # block 1 first, each block right where the last ended
    assert np.array_equal(out, np.repeat(np.arange(1, len(sizes) + 1), sizes))
    # across the seams the blocked walk is the stepped one, one reduced_step per row
    row = origin_state(d)
    for n, line in enumerate(walk_states(origin_state(d).line, steps, factors)):
        assert np.array_equal(line, row.line), f"state {n}"
        row = reduced_step(row, grover_coeffs(d))


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
