"""Symmetries of the walk operator: translations, Fourier blocks, rotation.

Every translation x -> x + b commutes with the step, so the walk is block
diagonal over the 2**d character vectors

    |k~, a>  =  2**(-d/2) * sum_x (-1)^(k.x) |x; a> ,

and on the d-dimensional momentum-k block it acts as the vertex matrix with
column signs:  block(k)[i, j] = [r if i == j else t] * (-1)^(k_j).  The
union of the 2**d block spectra is the full spectrum.  The vertex matrix
is invariant under permutations of the coordinates, and a permutation
carries the sign pattern of k to that of any k' with the same Hamming
weight, so those blocks are similar and share one spectrum: d + 1
eigenproblems of size d, on the representatives k = 2**m - 1, give all
d * 2**d eigenvalues.

A further symmetry cyclically shifts the vertex bit string right by one
place while advancing the direction index, a rotation about the axis
through the two extreme vertices; conjugating by a translation moves the
axis to any antipodal vertex pair.  Distinct conjugates generally do not
commute with each other, but each commutes with the walk.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .evolution import EvolutionConfig, dense_operator
from .hypercube import check_dimension, ensure_full_state_fits, state_dimension
from .hypercube import vertex_weights, zero_full_state
from .multiport import MultiportCoeffs, multiport_matrix

__all__ = [
    "translation_apply",
    "fourier_basis_state",
    "block_matrix",
    "weight_class_spectra",
    "full_spectrum_via_blocks",
    "dense_spectrum",
    "spectrum_mismatch",
    "fourier_offblock_deviation",
    "rotation_apply",
    "rotation_apply_about",
    "lift_block_eigenvector",
    "recurrence_residual",
]


def translation_apply(state: NDArray[np.complex128], b: int) -> NDArray[np.complex128]:
    """Relabel vertices by x -> x + b (bitwise xor)."""
    d = state_dimension(state)
    n = 1 << d
    if not 0 <= b < n:
        raise ValidationError(f"translation vertex {b} out of range for d={d}")
    return state[np.arange(n) ^ b, :]


def _sign_characters(d: int, k: int) -> NDArray[np.float64]:
    """(-1)^(k.x) for every vertex x."""
    n = 1 << d
    parity = vertex_weights(d)[np.bitwise_and(np.arange(n), k)] & 1
    return 1.0 - 2.0 * parity


def fourier_basis_state(d: int, k: int, a: int) -> NDArray[np.complex128]:
    """Normalized character vector |k~, a>, an eigenvector of every translation."""
    check_dimension(d)
    n = 1 << d
    if not 0 <= k < n:
        raise ValidationError(f"momentum label {k} out of range for d={d}")
    if not 1 <= a <= d:
        raise ValidationError(f"direction must be in 1..{d} (got {a})")
    state = zero_full_state(d)
    state[:, a - 1] = _sign_characters(d, k) * 2.0 ** (-d / 2.0)
    return state


def block_matrix(c: MultiportCoeffs, k: int) -> NDArray[np.complex128]:
    """The d x d action of the walk on the momentum-k subspace.

    Equals the vertex matrix times the diagonal sign matrix (-1)^(k_j); a
    product of unitaries, hence unitary.
    """
    d = c.degree
    if not 0 <= k < (1 << d):
        raise ValidationError(f"momentum label {k} out of range for d={d}")
    signs = np.array([1.0 if (k >> (d - 1 - j)) & 1 == 0 else -1.0 for j in range(d)])
    return multiport_matrix(c) * signs[None, :]


def weight_class_spectra(c: MultiportCoeffs) -> list[NDArray[np.complex128]]:
    """Sorted eigenvalues of the momentum-k block for every weight |k| = 0..d.

    Entry m is the spectrum of ``block_matrix(c, 2**m - 1)``, shared by all
    C(d, m) blocks whose momentum has m ones.
    """
    return [
        np.sort_complex(np.linalg.eigvals(block_matrix(c, (1 << m) - 1)))
        for m in range(c.degree + 1)
    ]


def full_spectrum_via_blocks(d: int, c: MultiportCoeffs) -> NDArray[np.complex128]:
    """All d * 2**d eigenvalues of the step; entries k*d .. k*d + d - 1 belong to block k."""
    ensure_full_state_fits(d)
    if c.degree != d:
        raise ValidationError(f"coefficient degree {c.degree} != dimension {d}")
    return np.stack(weight_class_spectra(c))[vertex_weights(d)].ravel()


def dense_spectrum(d: int, c: MultiportCoeffs, cap: int = 8) -> NDArray[np.complex128]:
    """Eigenvalues of the dense step operator (the expensive reference route)."""
    return np.linalg.eigvals(dense_operator(EvolutionConfig(d, c), cap=cap))


def spectrum_mismatch(a: NDArray[np.complex128], b: NDArray[np.complex128]) -> float:
    """Greatest nearest-neighbour pairing distance between two eigenvalue multisets.

    Each value of ``a`` greedily takes the nearest still-unused value of
    ``b``.  When the multisets agree up to perturbations small against the
    gaps between degenerate clusters (the situation being tested), every
    pick stays inside its own cluster and the result bounds the true
    multiset distance; genuinely different multisets report a large value.
    Quadratic in the spectrum size, fine at the dense cap.
    """
    if a.shape != b.shape:
        raise ValidationError(f"spectra differ in size: {a.shape} vs {b.shape}")
    a = np.sort_complex(np.asarray(a))
    b = np.sort_complex(np.asarray(b))
    unused = np.ones(len(b), dtype=bool)
    worst = 0.0
    for value in a:
        candidates = np.nonzero(unused)[0]
        pick = candidates[int(np.argmin(np.abs(b[candidates] - value)))]
        unused[pick] = False
        worst = max(worst, float(np.abs(b[pick] - value)))
    return worst


def fourier_offblock_deviation(d: int, c: MultiportCoeffs, cap: int = 6) -> tuple[float, float]:
    """Check block diagonality of the step in the character basis.

    Returns (largest matrix element between different momentum blocks,
    largest deviation of each diagonal block from ``block_matrix``).
    """
    if d > cap:
        raise ValidationError(f"dense basis change capped at d = {cap} (got {d})")
    n = d * (1 << d)
    basis = np.empty((n, n), dtype=np.complex128)
    for k in range(1 << d):
        for a in range(1, d + 1):
            basis[:, k * d + (a - 1)] = fourier_basis_state(d, k, a).ravel()
    u = dense_operator(EvolutionConfig(d, c), cap=cap)
    u_tilde = basis.conj().T @ u @ basis
    off_max = 0.0
    block_max = 0.0
    for k in range(1 << d):
        sl = slice(k * d, (k + 1) * d)
        block = u_tilde[sl, sl].copy()
        block_max = max(block_max, float(np.max(np.abs(block - block_matrix(c, k)))))
        u_tilde[sl, sl] = 0.0
    off_max = float(np.max(np.abs(u_tilde)))
    return off_max, block_max


def _rotate_left(x: NDArray[np.int64], d: int) -> NDArray[np.int64]:
    n_mask = (1 << d) - 1
    return ((x << 1) & n_mask) | (x >> (d - 1))


def rotation_apply(state: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """|x; a> -> |bit string of x shifted right; direction advanced cyclically>.

    The direction relabeling a -> (a mod d) + 1 is the unique one that makes
    the map a graph automorphism: shifting the string right moves the
    flipped character along with it.  Fixes the two extreme vertices; d
    applications give the identity.
    """
    d = state_dimension(state)
    if d == 1:
        return state.copy()
    n = 1 << d
    src_vertex = _rotate_left(np.arange(n, dtype=np.int64), d)
    out = np.empty_like(state)
    for j in range(d):
        out[:, j] = state[src_vertex, (j - 1) % d]
    return out


def rotation_apply_about(state: NDArray[np.complex128], x: int) -> NDArray[np.complex128]:
    """Rotation about the axis through vertices x and x + 1...1."""
    return translation_apply(rotation_apply(translation_apply(state, x)), x)


def lift_block_eigenvector(
    d: int, k: int, v: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """Turn a block eigenvector into a normalized full eigenvector of the step."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (d,):
        raise ValidationError(f"block vector must have shape ({d},), got {v.shape}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValidationError("block eigenvector must be nonzero")
    state = zero_full_state(d)
    signs = _sign_characters(d, k) * 2.0 ** (-d / 2.0)
    for j in range(d):
        state[:, j] = signs * (v[j] / norm)
    return state


def recurrence_residual(
    state: NDArray[np.complex128], eigenvalue: complex, c: MultiportCoeffs
) -> float:
    """Residual of the reversed-edge eigenvalue recurrence.

    For a claimed eigenpair this evaluates, over every edge |x; a>,

        | r * g[x^m(a), a] + t * sum_{b != a} g[x, b] - lambda * g[x^m(a), a] |

    where g[x^m(a), a] is the amplitude of the reversed edge.  Under this
    reading the relation holds on the zero-momentum block but not on the
    others, so it is reported as a diagnostic rather than enforced; the
    direct eigenvalue equation is what the tests assert.
    """
    from .evolution import gather_incoming

    d = state_dimension(state)
    if c.degree != d:
        raise ValidationError(f"coefficient degree {c.degree} != dimension {d}")
    reversed_edges = gather_incoming(state)
    row_sums = state.sum(axis=1)
    worst = 0.0
    for j in range(d):
        others = row_sums - state[:, j]
        lhs = c.r * reversed_edges[:, j] + c.t * others
        rhs = eigenvalue * reversed_edges[:, j]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
