"""Symmetries of the walk operator: translations, Fourier blocks, rotation.

Every translation x -> x + b commutes with the step, so the walk is block
diagonal over the 2**d character vectors

    |k~, a>  =  2**(-d/2) * sum_x (-1)^(k.x) |x; a> ,

and on the d-dimensional momentum-k block it acts as the vertex matrix with
column signs:  block(k)[i, j] = [r if i == j else t] * (-1)^(k_j).  The
union of the 2**d block spectra is the full spectrum.  The vertex matrix
is invariant under permutations of the coordinates, and a permutation
carries the sign pattern of k to that of any k' with the same Hamming
weight, so those blocks are similar and share one spectrum.  Its closed
form (``weight_class_spectra``) is computed in Python floats: no
eigensolver runs, and every CPU rounds it alike.

A further symmetry cyclically shifts the vertex bit string right by one
place while advancing the direction index, a rotation about the axis
through the two extreme vertices; conjugating by a translation moves the
axis to any antipodal vertex pair.  Distinct conjugates generally do not
commute with each other, but each commutes with the walk.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .hypercube import state_dimension
from .multiport import MultiportCoeffs, multiport_matrix, pseudo_eigensystem

__all__ = [
    "translation_apply",
    "block_matrix",
    "weight_class_spectra",
    "rotation_apply",
]


def translation_apply(state: NDArray[np.complex128], b: int) -> NDArray[np.complex128]:
    """Relabel vertices by x -> x + b (bitwise xor)."""
    d = state_dimension(state)
    n = 1 << d
    if not 0 <= b < n:
        raise ValidationError(f"translation vertex {b} out of range for d={d}")
    return state[np.arange(n) ^ b, :]


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


def _sqrt(z: complex) -> complex:
    """A square root of z from ``math.sqrt`` and + - * / alone (libm's complex sqrt is not).

    z is never 0 here: the two roots would coincide, which needs t = 0, and there z = r**2."""
    x, y = z.real, z.imag
    s = math.sqrt((math.sqrt(x * x + y * y) + abs(x)) / 2)
    return complex(s, y / (2 * s)) if x >= 0 else complex(abs(y) / (2 * s), s if y >= 0 else -s)


def weight_class_spectra(c: MultiportCoeffs) -> list[NDArray[np.complex128]]:
    """Sorted eigenvalues of the momentum-k block for every weight |k| = 0..d.

    Entry m is the spectrum of ``block_matrix(c, 2**m - 1)``, shared by all
    C(d, m) blocks whose momentum has m ones.  For m = 0 and m = d the block
    is +/- the vertex matrix (``pseudo_eigensystem``).  For 0 < m < d, with s
    the sign vector of k, the block is (r - t) diag(s) + t 1 s^T: vectors on
    the plus (minus) coordinates summing to zero give r - t (-(r - t)),
    d - m - 1 (m - 1) times, and the indicators of the two sets span a 2 x 2
    block of trace 2h = t(d - 2m) and determinant -(r - t)(r + (d - 1) t).
    Copies of a value are one float, no part is -0.0 (adding 0.0 makes it
    0.0), and each class is sorted by real part, then by imaginary part.
    """
    d, r, t = c.degree, c.r, c.t
    vertex = [z for z, n in pseudo_eigensystem(c) for _ in range(n)]
    classes = [vertex]
    for m in range(1, d):
        h = t * (d - 2 * m) / 2
        root = _sqrt(h * h + (r - t) * (r + (d - 1) * t))
        classes.append([r - t] * (d - m - 1) + [-(r - t)] * (m - 1) + [h + root, h - root])
    classes.append([-z for z in vertex])
    return [np.sort_complex(np.array([complex(z.real + 0.0, z.imag + 0.0) for z in vals])) for vals in classes]


def rotation_apply(state: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """|x; a> -> |bit string of x shifted right; direction advanced cyclically>.

    The direction relabeling a -> (a mod d) + 1 is the unique one that makes
    the map a graph automorphism: shifting the string right moves the
    flipped character along with it.  Fixes the two extreme vertices; d
    applications give the identity.
    """
    d = state_dimension(state)
    x = np.arange(1 << d, dtype=np.int64)
    return np.roll(state[((x << 1) & ((1 << d) - 1)) | (x >> (d - 1))], 1, axis=1)
