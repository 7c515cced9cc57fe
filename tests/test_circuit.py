"""Gate cascade and coin: gate semantics, equivalence with the scattering step."""

import tracemalloc

import numpy as np
import pytest

from helpers import random_unit_state
from oracles import (
    basis_operator_deviation,
    coin_fourier_vector,
    phicnot_dense,
    verify_ca_eigenstructure,
)

import sqrw.circuit
from sqrw.circuit import apply_coin, apply_phicnot, circuit_step, operator_deviation
from sqrw.errors import MemoryCapError
from sqrw.evolution import EvolutionConfig, step
from sqrw.hypercube import (
    MEMORY_ENV_VAR,
    parse_vertex,
    zero_full_state,
)
from sqrw.multiport import (
    MultiportCoeffs,
    grover_coeffs,
    multiport_matrix,
    pseudo_eigensystem,
    symmetric_coeffs,
)


def test_phicnot_accepting_control_flips_target():
    d = 2
    s = zero_full_state(d)
    s[parse_vertex(d, "00"), 0] = 1.0  # |00>|1>
    out = apply_phicnot(s, 1)
    assert out[parse_vertex(d, "10"), 0] == 1.0
    assert np.count_nonzero(out) == 1


def test_phicnot_non_accepting_control_is_identity():
    d = 2
    s = zero_full_state(d)
    s[parse_vertex(d, "00"), 1] = 1.0  # |00>|2>
    assert np.array_equal(apply_phicnot(s, 1), s)


def test_phicnot_is_involution():
    s = random_unit_state(4, 21)
    assert np.array_equal(apply_phicnot(apply_phicnot(s, 3), 3), s)


def test_coin_d2_swaps_directions():
    d = 2
    m = multiport_matrix(grover_coeffs(d))
    s = zero_full_state(d)
    s[3, 0] = 1.0
    out = apply_coin(s, m)
    assert out[3, 1] == pytest.approx(1.0, abs=1e-15)
    assert out[3, 0] == 0.0


def test_identity_coin_is_identity():
    s = random_unit_state(3, 22)
    m = multiport_matrix(MultiportCoeffs(1.0, 0.0, 3))
    assert np.max(np.abs(apply_coin(s, m) - s)) <= 1e-15


def test_uniform_direction_state_is_coin_eigenvector():
    d = 4
    m = multiport_matrix(grover_coeffs(d))
    s = zero_full_state(d)
    s[5, :] = 0.5
    assert np.max(np.abs(apply_coin(s, m) - s)) <= 1e-12


def test_circuit_step_d2_example():
    d = 2
    s = zero_full_state(d)
    s[parse_vertex(d, "00"), 0] = 1.0
    out = circuit_step(s, multiport_matrix(grover_coeffs(d)))
    assert out[parse_vertex(d, "10"), 1] == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(np.abs(out) > 1e-15) == 1


def test_circuit_step_matches_full_step_on_random_state():
    d = 6
    c = symmetric_coeffs(d, 1.0)
    s = random_unit_state(d, 23)
    gate = circuit_step(s, multiport_matrix(c))
    scatter = step(s, EvolutionConfig(d, c))
    assert np.max(np.abs(gate - scatter)) <= 1e-12


def test_circuit_step_preserves_norm():
    d = 5
    s = random_unit_state(d, 24)
    out = circuit_step(s, multiport_matrix(grover_coeffs(d)))
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_operator_deviation_zero(d):
    assert operator_deviation(d, grover_coeffs(d)) <= 1e-12


def working_set_bytes(d):
    """Three full states and three 2**d rows, as documented."""
    return 3 * d * (1 << d) * 16 + 3 * (1 << d) * 16


def test_operator_deviation_budget(monkeypatch):
    # the working set of d = 5 is exactly the budget: d = 5 runs, d = 6 is refused
    monkeypatch.setenv(MEMORY_ENV_VAR, str(working_set_bytes(5)))
    assert operator_deviation(5, grover_coeffs(5)) <= 1e-12
    with pytest.raises(MemoryCapError):
        operator_deviation(6, grover_coeffs(6))


def test_operator_deviation_working_set_bounds_the_peak():
    d = 14
    operator_deviation(3, grover_coeffs(3))  # warm caches outside the measurement
    tracemalloc.start()
    try:
        operator_deviation(d, grover_coeffs(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy's ufunc buffers for strided operands add a fixed few hundred KiB
    assert 3 * d * (1 << d) * 16 < peak <= working_set_bytes(d) + (1 << 20)


def _phicnot_wrong_bit(state, a):
    """``apply_phicnot`` whose gate 1 flips position bit 2 instead of bit 1."""
    d = state.shape[1]
    out = state.copy()
    src = state.reshape((2,) * d + (d,))
    dst = out.reshape((2,) * d + (d,))
    dst[..., a - 1] = np.flip(src[..., a - 1], axis=1 if a == 1 else a - 1)
    return out


def _coin_one_wrong_entry(state, coin):
    """``apply_coin`` with entry (1, 2) of the coin off by 1e-6."""
    wrong = coin.copy()
    wrong[0, 1] += 1e-6
    return apply_coin(state, wrong)


def _coin_leaking_to_a_neighbour(state, coin):
    """``apply_coin`` that also leaks a little of vertex 0's output to vertex 1."""
    out = apply_coin(state, coin)
    out[1, :] += 1e-6 * out[0, :]
    return out


MUTANTS = {
    "wrong-flip-bit": ("apply_phicnot", _phicnot_wrong_bit),
    "wrong-coin-entry": ("apply_coin", _coin_one_wrong_entry),
    "leak-to-neighbour": ("apply_coin", _coin_leaking_to_a_neighbour),
}


@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_probe_check_fails_for_injected_defect(monkeypatch, mutant, d):
    attr, broken = MUTANTS[mutant]
    monkeypatch.setattr(sqrw.circuit, attr, broken)
    for c in (grover_coeffs(d), symmetric_coeffs(d, 1.0)):
        assert basis_operator_deviation(d, c) > 1e-12  # the defect is real
        assert operator_deviation(d, c) > 1e-12


def test_coin_eigensystem_values():
    sys4 = dict(pseudo_eigensystem(grover_coeffs(4)))
    rounded = {complex(round(v.real, 9), round(v.imag, 9)): m for v, m in sys4.items()}
    assert rounded == {(1 + 0j): 1, (-1 + 0j): 3}
    ident = pseudo_eigensystem(MultiportCoeffs(1.0, 0.0, 3))
    assert all(v == pytest.approx(1.0) for v, _ in ident)


def test_coin_eigensystem_symmetric_family_unit_modulus():
    c = symmetric_coeffs(3, 1.0)
    pairs = pseudo_eigensystem(c)
    assert pairs[0][0] == pytest.approx(c.r + 2 * c.t, abs=1e-14)
    assert pairs[1] == (pytest.approx(c.r - c.t, abs=1e-14), 2)
    assert all(abs(abs(v) - 1) <= 1e-12 for v, _ in pairs)


@pytest.mark.parametrize("c", [grover_coeffs(5), symmetric_coeffs(6, 1.0)])
def test_coin_spectrum_matches_dense_eigensolver(c):
    m = multiport_matrix(c)
    predicted = np.sort_complex(
        np.concatenate([[v] * mult for v, mult in pseudo_eigensystem(c)])
    )
    dense = np.sort_complex(np.linalg.eigvals(m))
    assert np.max(np.abs(predicted - dense)) <= 1e-10


def test_fourier_vectors_are_coin_eigenvectors():
    d = 5
    c = grover_coeffs(d)
    m = multiport_matrix(c)
    for k in range(d):
        v = coin_fourier_vector(d, k)
        lam = c.r + (d - 1) * c.t if k == 0 else c.r - c.t
        assert np.max(np.abs(m @ v - lam * v)) <= 1e-12


def test_phicnot_dense_matches_apply():
    d = 3
    s = random_unit_state(d, 25)
    for a in (1, 2, 3):
        dense = phicnot_dense(d, a) @ s.ravel()
        assert np.max(np.abs(dense.reshape(s.shape) - apply_phicnot(s, a))) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 6])
def test_ca_structure_report(d):
    report = verify_ca_eigenstructure(d)
    assert report.passed
    assert report.max_commutator <= 1e-12
    assert report.max_eigenvector_residual <= 1e-12


def test_minus_state_is_negative_eigenvector():
    # |-> on the controlled qubit tensor the accepting direction flips sign
    d = 2
    a = 1
    vec = zero_full_state(d)
    vec[parse_vertex(d, "00"), a - 1] = 1 / np.sqrt(2)
    vec[parse_vertex(d, "10"), a - 1] = -1 / np.sqrt(2)
    out = apply_phicnot(vec, a)
    assert np.max(np.abs(out + vec)) <= 1e-15
