"""Translations, character basis, block spectra, and the rotation symmetry."""

import cmath

import numpy as np
import pytest

from helpers import per_block_spectra, random_unit_state

from sqrw.errors import ValidationError
from sqrw.evolution import EvolutionConfig, step
from sqrw.hypercube import parse_vertex, zero_full_state
from sqrw.errors import MemoryCapError
from sqrw.multiport import custom_coeffs, grover_coeffs, symmetric_coeffs
from sqrw.spectral import (
    block_matrix,
    dense_spectrum,
    fourier_basis_state,
    fourier_offblock_deviation,
    full_spectrum_via_blocks,
    lift_block_eigenvector,
    recurrence_residual,
    rotation_apply,
    rotation_apply_about,
    spectrum_mismatch,
    translation_apply,
    weight_class_spectra,
)


def family_coeffs(family, d):
    if family == "grover":
        return grover_coeffs(d)
    if family == "symmetric":
        return symmetric_coeffs(d, 1.0)
    # eigenphases 0.7 on the uniform port state and -2.1 on its complement
    uniform, rest = cmath.exp(0.7j), cmath.exp(-2.1j)
    t = (uniform - rest) / d
    return custom_coeffs(rest + t, t, d)


def test_translation_identity_and_involution():
    s = random_unit_state(4, 31)
    assert np.array_equal(translation_apply(s, 0), s)
    assert np.array_equal(translation_apply(translation_apply(s, 11), 11), s)


def test_fourier_state_translation_eigenvalues():
    d = 2
    k = parse_vertex(d, "10")
    state = fourier_basis_state(d, k, 1)
    minus = translation_apply(state, parse_vertex(d, "10"))
    plus = translation_apply(state, parse_vertex(d, "01"))
    assert np.max(np.abs(minus + state)) <= 1e-15
    assert np.max(np.abs(plus - state)) <= 1e-15


def test_fourier_basis_orthonormal():
    d = 4
    n = d * (1 << d)
    basis = np.empty((n, n), dtype=np.complex128)
    col = 0
    for k in range(1 << d):
        for a in range(1, d + 1):
            basis[:, col] = fourier_basis_state(d, k, a).ravel()
            col += 1
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_block_zero_momentum_is_vertex_matrix():
    d = 4
    c = grover_coeffs(d)
    from sqrw.multiport import multiport_matrix

    assert np.array_equal(block_matrix(c, 0), multiport_matrix(c))


def test_block_d2_all_ones_momentum():
    c = grover_coeffs(2)
    k = parse_vertex(2, "11")
    blk = block_matrix(c, k)
    assert np.allclose(blk, [[0, -1], [-1, 0]], atol=1e-15)
    vals = np.sort_complex(np.linalg.eigvals(blk))
    assert np.allclose(vals, [-1, 1], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_blocks_are_unitary(d):
    c = symmetric_coeffs(d, 1.0)
    for k in range(1 << d):
        blk = block_matrix(c, k)
        assert np.max(np.abs(blk.conj().T @ blk - np.eye(d))) <= 1e-12


def test_blocks_reproduce_step_on_fourier_states():
    d = 3
    c = grover_coeffs(d)
    cfg = EvolutionConfig(d, c)
    for k in (0, 2, 5, 7):
        blk = block_matrix(c, k)
        for a in range(1, d + 1):
            out = step(fourier_basis_state(d, k, a), cfg)
            expected = sum(
                blk[b - 1, a - 1] * fourier_basis_state(d, k, b) for b in range(1, d + 1)
            )
            assert np.max(np.abs(out - expected)) <= 1e-12


@pytest.mark.parametrize("family", ["grover", "symmetric"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_spectrum_assembly_matches_dense(family, d):
    c = grover_coeffs(d) if family == "grover" else symmetric_coeffs(d, 1.0)
    assembled = full_spectrum_via_blocks(d, c)
    assert assembled.shape == (d * (1 << d),)
    assert np.max(np.abs(np.abs(assembled) - 1.0)) <= 1e-12
    assert spectrum_mismatch(assembled, dense_spectrum(d, c)) <= 1e-10


# symmetric coefficients need degree >= 2
ORACLE_CASES = [
    (family, d)
    for family in ("grover", "symmetric", "custom")
    for d in range(1, 11)
    if (family, d) != ("symmetric", 1)
]


@pytest.mark.parametrize("family,d", ORACLE_CASES)
def test_weight_classes_match_per_block_oracle(family, d):
    c = family_coeffs(family, d)
    oracle = per_block_spectra(d, c)
    classes = weight_class_spectra(c)
    assembled = full_spectrum_via_blocks(d, c).reshape(1 << d, d)
    for m in range(d + 1):
        # the representative k = 2**m - 1 is solved itself: same bytes
        assert np.array_equal(classes[m], oracle[(1 << m) - 1])
    for k in range(1 << d):
        assert spectrum_mismatch(assembled[k], oracle[k]) <= 1e-13, f"block {k}"


def test_full_spectrum_via_blocks_refuses_oversized_dimension():
    with pytest.raises(MemoryCapError):
        full_spectrum_via_blocks(30, grover_coeffs(30))


def test_offblock_elements_vanish():
    d = 3
    off, blk = fourier_offblock_deviation(d, grover_coeffs(d))
    assert off <= 1e-12
    assert blk <= 1e-12


def test_spectrum_mismatch_detects_difference():
    a = np.array([1.0 + 0j, -1.0])
    b = np.array([1.0 + 0j, 1.0])
    assert spectrum_mismatch(a, b) >= 1.0


def test_rotation_example_and_order():
    d = 3
    s = zero_full_state(d)
    s[parse_vertex(d, "100"), 0] = 1.0  # |100; 1>
    out = rotation_apply(s)
    assert out[parse_vertex(d, "010"), 1] == 1.0
    assert np.count_nonzero(out) == 1
    cycled = s
    for _ in range(d):
        cycled = rotation_apply(cycled)
    assert np.array_equal(cycled, s)


def test_rotation_is_graph_automorphism():
    # rot(x + e_a) == rot(x) + e_{a'} with a' = (a mod d) + 1, checked via
    # single-edge states: the image of an edge state is an edge state.
    d = 4
    from sqrw.hypercube import direction_mask

    rotated_vertex = {}
    for x in range(1 << d):
        s = zero_full_state(d)
        s[x, 0] = 1.0
        out = rotation_apply(s)
        rotated_vertex[x] = int(np.nonzero(np.any(out != 0, axis=1))[0][0])
    for x in range(1 << d):
        for a in range(1, d + 1):
            a_next = a % d + 1
            lhs = rotated_vertex[x ^ direction_mask(d, a)]
            rhs = rotated_vertex[x] ^ direction_mask(d, a_next)
            assert lhs == rhs


def test_rotation_fixes_extreme_vertices():
    d = 4
    for x in (0, (1 << d) - 1):
        s = zero_full_state(d)
        s[x, 2] = 1.0
        out = rotation_apply(s)
        assert np.any(out[x, :] != 0)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_rotation_commutes_with_step(d):
    cfg = EvolutionConfig(d, grover_coeffs(d))
    s = random_unit_state(d, 32 + d)
    lhs = step(rotation_apply(s), cfg)
    rhs = rotation_apply(step(s, cfg))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_conjugated_rotations_commute_with_step_but_not_each_other():
    d = 3
    cfg = EvolutionConfig(d, grover_coeffs(d))
    s = random_unit_state(d, 40)
    for x in (1, 5):
        lhs = step(rotation_apply_about(s, x), cfg)
        rhs = rotation_apply_about(step(s, cfg), x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # exhibit one concrete non-commuting pair of axes
    ab = rotation_apply_about(rotation_apply_about(s, 1), 5)
    ba = rotation_apply_about(rotation_apply_about(s, 5), 1)
    assert np.max(np.abs(ab - ba)) > 1e-3


def test_lifted_block_eigenvectors_satisfy_eigen_equation():
    d = 4
    c = symmetric_coeffs(d, 1.0)
    cfg = EvolutionConfig(d, c)
    for k in range(1 << d):
        vals, vecs = np.linalg.eig(block_matrix(c, k))
        for i in range(d):
            state = lift_block_eigenvector(d, k, vecs[:, i])
            out = step(state, cfg)
            assert np.max(np.abs(out - vals[i] * state)) <= 1e-10


def test_recurrence_residual_zero_momentum_only():
    # Under the reversed-edge reading the recurrence holds on the k = 0
    # block; on other blocks it does not, and the residual reports that.
    d = 3
    c = grover_coeffs(d)
    vals0, vecs0 = np.linalg.eig(block_matrix(c, 0))
    state0 = lift_block_eigenvector(d, 0, vecs0[:, 0])
    assert recurrence_residual(state0, vals0[0], c) <= 1e-12
    vals1, vecs1 = np.linalg.eig(block_matrix(c, 1))
    state1 = lift_block_eigenvector(d, 1, vecs1[:, 0])
    assert recurrence_residual(state1, vals1[0], c) > 1e-3


def test_label_validation():
    with pytest.raises(ValidationError):
        fourier_basis_state(3, 8, 1)
    with pytest.raises(ValidationError):
        fourier_basis_state(3, 0, 4)
    with pytest.raises(ValidationError):
        block_matrix(grover_coeffs(3), 9)
    with pytest.raises(ValidationError):
        lift_block_eigenvector(3, 0, np.zeros(3))
