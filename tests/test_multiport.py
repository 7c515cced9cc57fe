"""Coefficient families, unitarity checks, vertex matrix, and its spectrum."""

import math

import numpy as np
import pytest

from oracles import unitarity_residuals
from sqrw.errors import ValidationError
from sqrw.multiport import (
    MultiportCoeffs,
    grover_coeffs,
    multiport_matrix,
    phase_coeffs,
    pseudo_eigensystem,
    symmetric_coeffs,
)


@pytest.mark.parametrize(
    "d,r,t",
    [(2, 0.0, 1.0), (3, -1 / 3, 2 / 3), (4, -0.5, 0.5)],
)
def test_grover_values(d, r, t):
    c = grover_coeffs(d)
    assert c.r == pytest.approx(r, abs=1e-15)
    assert c.t == pytest.approx(t, abs=1e-15)
    assert c.degree == d


def test_grover_rejects_zero_degree():
    with pytest.raises(ValidationError):
        grover_coeffs(0)


@pytest.mark.parametrize("d", range(1, 40))
def test_grover_always_unitary(d):
    norm, cross = unitarity_residuals(grover_coeffs(d))
    assert norm <= 1e-12
    assert cross <= 1e-12


def test_symmetric_d2_p1():
    c = symmetric_coeffs(2, 1.0)
    assert c.t == pytest.approx(0.5, abs=1e-15)
    # cos(theta) = 0 here, so r is purely imaginary with |r| = sqrt(3)/2
    assert c.r == pytest.approx(1j * math.sqrt(3) / 2, abs=1e-14)


def test_symmetric_d3_p1():
    c = symmetric_coeffs(3, 1.0)
    assert c.t == pytest.approx(1 / 3, abs=1e-15)
    assert abs(c.r) == pytest.approx(math.sqrt(7) / 3, abs=1e-14)
    # real part = |r| cos(theta) = -1/6, imaginary part = sqrt(3)/2
    assert c.r == pytest.approx(complex(-1 / 6, math.sqrt(3) / 2), abs=1e-14)


def test_symmetric_large_d_limit():
    c = symmetric_coeffs(10**6, 1.0)
    assert abs(c.r - complex(-0.5, math.sqrt(3) / 2)) < 1e-5


@pytest.mark.parametrize("d", [2, 3, 5, 17, 60])
@pytest.mark.parametrize("p", [0.75, 1.0, 2.0])
def test_symmetric_family_unitary(d, p):
    if (1 - d / 2) ** 2 > float(d) ** (2 * p) - d + 1:
        pytest.skip("no valid phase at this (d, p)")
    norm, cross = unitarity_residuals(symmetric_coeffs(d, p))
    assert norm <= 1e-12 and cross <= 1e-12


def test_symmetric_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        symmetric_coeffs(3, 0.5)
    with pytest.raises(ValidationError):
        symmetric_coeffs(1, 1.0)
    # p barely above 1/2 at large d leaves |cos theta| > 1
    with pytest.raises(ValidationError):
        symmetric_coeffs(16, 0.6)


def test_validate_identity_multiport():
    assert max(unitarity_residuals(MultiportCoeffs(1.0, 0.0, 5))) <= 1e-12


def test_validate_grover7_residuals():
    norm, cross = unitarity_residuals(grover_coeffs(7))
    assert norm <= 1e-15
    assert cross <= 1e-15


def test_validate_rejects_half_half():
    # |r|^2 + 2|t|^2 = 0.75 and |t|^2 + 2 Re(conj(r) t) = 0.75: refused when built
    with pytest.raises(ValidationError, match=r"residuals 2\.500e-01, 7\.500e-01"):
        MultiportCoeffs(0.5, 0.5, 3)


def test_matrix_grover2_is_swap():
    m = multiport_matrix(grover_coeffs(2))
    assert np.allclose(m, [[0, 1], [1, 0]], atol=1e-15)


def test_matrix_grover3_entries():
    m = multiport_matrix(grover_coeffs(3))
    assert np.allclose(np.diag(m), -1 / 3, atol=1e-15)
    off = m[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 2 / 3, atol=1e-15)


def test_matrix_identity_multiport():
    m = multiport_matrix(MultiportCoeffs(1.0, 0.0, 3))
    assert np.array_equal(m, np.eye(3))


def test_matrix_rejects_invalid():
    # no invalid pair reaches the matrix: the constructor refuses it first
    with pytest.raises(ValidationError):
        multiport_matrix(MultiportCoeffs(0.5, 0.5, 3))


@pytest.mark.parametrize(
    "c",
    [grover_coeffs(2), grover_coeffs(3), grover_coeffs(9), symmetric_coeffs(4, 1.0), symmetric_coeffs(7, 0.8)],
)
def test_matrix_unitary(c):
    m = multiport_matrix(c)
    assert np.max(np.abs(m @ m.conj().T - np.eye(c.degree))) <= 1e-12


def test_pseudo_eigensystem_grover():
    for d in (2, 3, 6, 11):
        sys = dict(pseudo_eigensystem(grover_coeffs(d)))
        vals = {complex(round(v.real, 9), round(v.imag, 9)): m for v, m in sys.items()}
        assert vals == {(1 + 0j): 1, (-1 + 0j): d - 1}


def test_pseudo_eigensystem_identity():
    assert pseudo_eigensystem(MultiportCoeffs(1.0, 0.0, 4)) == [(1 + 0j, 1), (1 + 0j, 3)]


@pytest.mark.parametrize(
    "c", [grover_coeffs(4), symmetric_coeffs(5, 1.0), symmetric_coeffs(3, 2.0), phase_coeffs(6)]
)
def test_pseudo_eigensystem_matches_dense_solver(c):
    pairs = pseudo_eigensystem(c)
    assert all(abs(abs(v) - 1) <= 1e-12 for v, _ in pairs)
    predicted = np.sort_complex(
        np.concatenate([[v] * m for v, m in pairs])
    )
    dense = np.sort_complex(np.linalg.eigvals(multiport_matrix(c)))
    assert np.max(np.abs(predicted - dense)) <= 1e-10


def test_phase_coeffs_is_valid_and_reflecting():
    c = phase_coeffs(8)
    assert c.t == 0 and c.r == -1
    assert max(unitarity_residuals(c)) <= 1e-12
    with pytest.raises(ValidationError):
        phase_coeffs(8, 0.5)


def test_coeffs_constructor_validates():
    c = MultiportCoeffs(0.0, 1.0, 2)
    assert c.degree == 2
    nan, inf = float("nan"), float("inf")
    # finite but huge: |r|**2 overflows, and abs() itself overflows for the last pair
    huge = ((1e200, 0.0, 3), (1e155 + 1e155j, 0.0, 3), (1e155, 1e155, 3), (1.3e308 + 1.3e308j, 0.0, 3))
    for r, t, d in ((nan, 0.0, 3), (1.0, nan, 3), (inf, 0.0, 3), (1.0, 0.0, 0), (1j, 1e-3, 4), *huge):
        with pytest.raises(ValidationError):
            MultiportCoeffs(r, t, d)
