"""Full edge-state step: scattering rule, unitarity, symmetry, reductions."""

import cmath
import math

import numpy as np
import pytest

from helpers import random_unit_state, reference_step, small_blocks
from oracles import (
    dense_operator,
    extract_layer_state,
    quantum_hitting_probability,
    rowwise_layer_distribution,
)

from sqrw.errors import ValidationError
from sqrw.evolution import (
    EvolutionConfig,
    _full_kernel,
    _kernel_scratch,
    evolve,
    gather_incoming,
    layer_distribution_full,
    step,
    vertex_probability,
)
from sqrw.hypercube import (
    direction_mask,
    embed_layer_state,
    initial_symmetric_state,
    parse_vertex,
    vertex_weights,
    zero_full_state,
)
from sqrw.layers import (
    corner_pair_state,
    layer_distribution,
    middle_state,
    origin_state,
    reduced_step,
)
from sqrw.multiport import MultiportCoeffs, grover_coeffs
from sqrw.spectral import translation_apply


def test_step_d2_transmit_only():
    d = 2
    state = zero_full_state(d)
    state[parse_vertex(d, "00"), 0] = 1.0  # |00; 1>
    out = step(state, EvolutionConfig(d, grover_coeffs(d)))
    expected = zero_full_state(d)
    expected[parse_vertex(d, "10"), 1] = 1.0  # |10; 2>
    assert np.allclose(out, expected, atol=1e-15)


def test_step_d3_scattering_amplitudes():
    d = 3
    state = zero_full_state(d)
    state[parse_vertex(d, "000"), 0] = 1.0
    out = step(state, EvolutionConfig(d, grover_coeffs(d)))
    row = parse_vertex(d, "100")
    assert out[row, 0] == pytest.approx(-1 / 3, abs=1e-15)
    assert out[row, 1] == pytest.approx(2 / 3, abs=1e-15)
    assert out[row, 2] == pytest.approx(2 / 3, abs=1e-15)
    out[row, :] = 0.0
    assert not np.any(out)


def test_step_identity_multiport_is_shift():
    d = 2
    cfg = EvolutionConfig(d, MultiportCoeffs(1.0, 0.0, d))
    state = zero_full_state(d)
    state[parse_vertex(d, "00"), 0] = 1.0
    out = step(state, cfg)
    assert out[parse_vertex(d, "10"), 0] == 1.0
    assert np.count_nonzero(out) == 1


def test_evolve_zero_steps_is_copy():
    s = random_unit_state(4, 0)
    out = evolve(s, EvolutionConfig(4, grover_coeffs(4)), 0)
    assert np.array_equal(out, s)
    assert out is not s


def test_evolve_returns_direction_major_state():
    # rows of out.T are what the step kernel walks; contiguous rows are the fast case
    d = 5
    out = evolve(initial_symmetric_state(d), EvolutionConfig(d, grover_coeffs(d)), 1)
    assert out.T.flags.c_contiguous


@pytest.mark.parametrize("d", [3, 8])
def test_evolve_equals_chained_steps_bit_for_bit(d):
    cfg = EvolutionConfig(d, _unitary_coeffs(d, 0.7, 2.1))
    s = random_unit_state(d, 11)
    chained = s
    for _ in range(7):
        chained = step(chained, cfg)
    assert np.array_equal(evolve(s, cfg, 7), chained)


def _unitary_coeffs(d, a, b):
    """Vertex coefficients with eigenvalue e^(ia) on the uniform port state, e^(ib) off it."""
    t = (cmath.exp(1j * a) - cmath.exp(1j * b)) / d
    return MultiportCoeffs(cmath.exp(1j * b) + t, t, d)


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("strided", [False, True])
def test_blocked_kernel_equals_reference_bit_for_bit(d, strided):
    # pass 2's tiles: k = 1 for every bit at block 2; k = block // 2 < m for the
    # bits above a block of 4 or 16; the whole row at block 16 and d <= 4
    n = 1 << d
    cfg = EvolutionConfig(d, _unitary_coeffs(d, 0.7, 2.1))
    state = random_unit_state(d, d)
    want = reference_step(state, cfg)
    for block in (2, 4, 16):
        # direction-major rows, contiguous or strided (a vertex-major copy), never a view of state
        psi = state.copy().T if strided else state.T.copy()
        pv = np.full(n, np.nan)  # the kernel must overwrite every entry
        with small_blocks(block):
            _full_kernel(psi, cfg, _kernel_scratch(d), pv)
        assert np.array_equal(psi.T, want), block
        rows = np.bincount(vertex_weights(d), weights=pv, minlength=d + 1)
        assert np.array_equal(rows, rowwise_layer_distribution(psi.T)), block


@pytest.mark.parametrize("d", [1, 3, 8])
def test_layer_distribution_full_equals_rowwise_bit_for_bit(d):
    state = random_unit_state(d, 40 + d)
    for layout in (state, np.ascontiguousarray(state.T).T):
        want = rowwise_layer_distribution(layout)
        assert np.array_equal(layer_distribution_full(layout), want)
        with small_blocks():
            assert np.array_equal(layer_distribution_full(layout), want)


def test_kernel_scratch_is_one_row_and_one_block():
    assert _kernel_scratch(20).shape == ((1 << 20) + (1 << 14),)
    assert _kernel_scratch(5).shape == (2 * 32,)
    with small_blocks():
        assert _kernel_scratch(5).shape == (32 + 4,)


def test_gather_incoming_reads_either_memory_order():
    s = random_unit_state(5, 12)
    direction_major = np.ascontiguousarray(s.T).T
    assert np.array_equal(gather_incoming(direction_major), gather_incoming(s))


def test_two_steps_d2_all_on_far_corner():
    d = 2
    out = evolve(initial_symmetric_state(d), EvolutionConfig(d, grover_coeffs(d)), 2)
    assert layer_distribution_full(out)[2] == pytest.approx(1.0, abs=1e-12)


def test_norm_conserved_100_steps():
    s = random_unit_state(8, 1)
    out = evolve(s, EvolutionConfig(8, grover_coeffs(8)), 100)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_step_is_linear():
    d = 5
    cfg = EvolutionConfig(d, grover_coeffs(d))
    a = random_unit_state(d, 2)
    b = random_unit_state(d, 3)
    alpha, beta = 0.3 - 0.7j, 1.1 + 0.2j
    lhs = step(alpha * a + beta * b, cfg)
    rhs = alpha * step(a, cfg) + beta * step(b, cfg)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_block_structure_single_arrival_vertex():
    d = 4
    cfg = EvolutionConfig(d, grover_coeffs(d))
    y = 9
    state = zero_full_state(d)
    for a in range(1, d + 1):
        state[y ^ direction_mask(d, a), a - 1] = 0.5  # every edge entering y
    out = step(state, cfg)
    support = np.nonzero(np.any(out != 0, axis=1))[0]
    assert list(support) == [y]


@pytest.mark.parametrize("d", [2, 4, 6])
def test_translations_commute_with_step(d):
    cfg = EvolutionConfig(d, grover_coeffs(d))
    s = random_unit_state(d, d)
    for b in range(1 << d):
        lhs = step(translation_apply(s, b), cfg)
        rhs = translation_apply(step(s, cfg), b)
        assert np.array_equal(lhs, rhs)


def test_layer_probability_initial_and_after_one_step():
    d = 2
    s = initial_symmetric_state(d)
    assert layer_distribution_full(s)[0] == pytest.approx(1.0, abs=1e-15)
    assert layer_distribution_full(s)[1] == 0.0
    out = step(s, EvolutionConfig(d, grover_coeffs(d)))
    assert layer_distribution_full(out)[1] == pytest.approx(1.0, abs=1e-12)


def test_layer_distribution_sums_to_norm():
    s = random_unit_state(6, 5)
    assert layer_distribution_full(s).sum() == pytest.approx(1.0, abs=1e-12)


def test_vertex_probability_values():
    d = 4
    s = initial_symmetric_state(d)
    assert vertex_probability(s, 0) == pytest.approx(1.0, abs=1e-12)
    assert vertex_probability(s, 3) == 0.0
    uniform = np.full((1 << d, d), 1 / math.sqrt(d * (1 << d)), dtype=np.complex128)
    assert vertex_probability(uniform, 11) == pytest.approx(1 / (1 << d), abs=1e-12)


@pytest.mark.parametrize("d,value", [(2, 0.5), (3, 64 / 243), (4, 9 / 64)])
def test_quantum_hitting_reference_values(d, value):
    assert quantum_hitting_probability(d) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("init", ["origin", "corners", "middle"])
def test_reduced_walk_matches_full_walk(d, init):
    make = {"origin": origin_state, "corners": corner_pair_state, "middle": middle_state}[init]
    c = grover_coeffs(d)
    cfg = EvolutionConfig(d, c)
    layer = make(d)
    full = embed_layer_state(layer)
    for _ in range(min(30, 2 * d + 5)):
        layer = reduced_step(layer, c)
        full = step(full, cfg)
    assert np.max(np.abs(layer_distribution(layer) - layer_distribution_full(full))) <= 1e-10
    recovered, deviation = extract_layer_state(full)
    assert deviation <= 1e-12
    assert np.max(np.abs(recovered.up - layer.up)) <= 1e-12
    assert np.max(np.abs(recovered.down - layer.down)) <= 1e-12


def test_override_changes_only_marked_vertex_row():
    # the search oracle's marked step differs from the one-coin kernel on the mark only
    d = 4
    marked = 6
    cfg = EvolutionConfig(d, grover_coeffs(d))
    s = random_unit_state(d, 8)
    plain = step(s, cfg)
    with_mark = reference_step(s, cfg, {marked: MultiportCoeffs(-1.0, 0.0, d)})
    diff_rows = np.nonzero(np.any(plain != with_mark, axis=1))[0]
    assert list(diff_rows) == [marked]


def test_dense_operator_is_unitary_and_capped():
    d = 3
    u = dense_operator(EvolutionConfig(d, grover_coeffs(d)))
    n = d * (1 << d)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12
    with pytest.raises(ValidationError):
        dense_operator(EvolutionConfig(9, grover_coeffs(9)), cap=8)


def test_config_validation():
    with pytest.raises(ValidationError):
        EvolutionConfig(3, grover_coeffs(4))
    with pytest.raises(ValidationError):
        EvolutionConfig(3, MultiportCoeffs(0.5, 0.5, 3))


def test_step_rejects_mismatched_state():
    with pytest.raises(ValidationError):
        step(zero_full_state(3), EvolutionConfig(4, grover_coeffs(4)))
