"""Local scattering coefficients and the single-vertex scattering matrix.

A vertex of degree ``d`` scatters an incoming photon back along the arrival
edge with amplitude ``r`` and onto each of the other ``d - 1`` edges with
amplitude ``t``.  In the port basis the vertex acts as the d x d matrix with
``r`` on the diagonal and ``t`` everywhere else.  That matrix is unitary
exactly when the coefficients satisfy

    |r|^2 + (d - 1) |t|^2            = 1
    (d - 2) |t|^2 + 2 Re(conj(r) t)  = 0

Two ready-made families are provided:

- ``grover_coeffs(d)``: r = 2/d - 1, t = 2/d.  The vertex matrix equals the
  diffusion operator 2|s><s| - 1 over the uniform port state |s>.
- ``symmetric_coeffs(d, p)``: t = d**(-p) with the reflection phase fixed so
  the unitarity relations hold (non-negative imaginary part by convention).

Every ``MultiportCoeffs`` is checked against these relations once, when it
is built, so an arbitrary user-supplied pair is constructed directly and no
later use re-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError

__all__ = [
    "MultiportCoeffs",
    "grover_coeffs",
    "symmetric_coeffs",
    "phase_coeffs",
    "require_valid",
    "multiport_matrix",
    "pseudo_eigensystem",
]

#: Residual tolerance for the unitarity relations.
UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class MultiportCoeffs:
    """Reflection/transmission pair of a degree-``degree`` vertex.

    Building one raises ``ValidationError`` unless ``degree >= 1`` and the
    pair satisfies both unitarity relations, so every instance is unitary.

    Attributes
    ----------
    r : complex
        Amplitude sent back along the arrival edge.
    t : complex
        Amplitude sent onto each of the other ``degree - 1`` edges.
    degree : int
        Number of edges attached to the vertex.
    """

    r: complex
    t: complex
    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", complex(self.r))
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "degree", int(self.degree))
        if self.degree < 1:
            raise ValidationError(f"multiport degree must be >= 1 (got {self.degree})")
        d, r, t = self.degree, self.r, self.t
        norm = abs(abs(r) ** 2 + (d - 1) * abs(t) ** 2 - 1.0)
        cross = abs((d - 2) * abs(t) ** 2 + 2.0 * (r.conjugate() * t).real)
        if not (norm <= UNITARITY_TOL and cross <= UNITARITY_TOL):  # a NaN residual fails too
            raise ValidationError(
                f"coefficients r={r}, t={t}, degree={d} violate unitarity "
                f"(residuals {norm:.3e}, {cross:.3e})"
            )


def grover_coeffs(d: int) -> MultiportCoeffs:
    """Return the diffusion-operator coefficients r = 2/d - 1, t = 2/d.

    Parameters
    ----------
    d : int
        Vertex degree, d >= 1.

    Raises
    ------
    ValidationError
        If d < 1.
    """
    if d < 1:
        raise ValidationError(f"degree must be a positive integer (got {d})")
    return MultiportCoeffs(r=2.0 / d - 1.0, t=2.0 / d, degree=d)


def symmetric_coeffs(d: int, p: float) -> MultiportCoeffs:
    """Return the weak-transmission family t = d**(-p).

    The reflection amplitude is ``sqrt(1 - (d-1)/d**(2p)) * exp(i*theta)``
    with ``cos(theta) = (1 - d/2) / sqrt(d**(2p) - d + 1)``.  Only the
    cosine is determined by unitarity; the branch with ``sin(theta) >= 0``
    is chosen so results are reproducible.

    Parameters
    ----------
    d : int
        Vertex degree, d >= 2 (the degenerate single-edge vertex is
        excluded; |r| = 1 is the only freedom there).
    p : float
        Transmission exponent, p > 1/2.

    Raises
    ------
    ValidationError
        If d < 2, p <= 1/2, or the phase equation has no solution
        (|cos(theta)| > 1, which happens for p barely above 1/2 at
        large d).
    """
    if d < 2:
        raise ValidationError(f"symmetric coefficients need degree >= 2 (got {d})")
    if not p > 0.5:  # also rejects NaN
        raise ValidationError(f"transmission exponent must exceed 1/2 (got {p})")
    t = float(d) ** (-p)
    magnitude = math.sqrt(1.0 - (d - 1) * t * t)
    cos_theta = (1.0 - d / 2.0) / math.sqrt(float(d) ** (2 * p) - d + 1.0)
    if abs(cos_theta) > 1.0 + 1e-12:
        raise ValidationError(
            f"no reflection phase exists for d={d}, p={p} (|cos theta| = {abs(cos_theta):.6g} > 1)"
        )
    cos_theta = max(-1.0, min(1.0, cos_theta))
    theta = math.acos(cos_theta)  # in [0, pi], so sin(theta) >= 0
    r = magnitude * complex(math.cos(theta), math.sin(theta))
    return MultiportCoeffs(r=r, t=t, degree=d)


def phase_coeffs(d: int, phase: complex = -1.0) -> MultiportCoeffs:
    """Return a purely reflecting vertex: t = 0 and r = ``phase``, |r| = 1.

    Used as the marked-vertex multiport in the search walk.  The constructor
    rejects d < 1 and a phase off the unit circle.
    """
    return MultiportCoeffs(r=phase, t=0.0, degree=d)


def require_valid(c: MultiportCoeffs, *, degree: int) -> None:
    """Raise ``ValidationError`` unless ``c`` belongs to a vertex of degree ``degree``.

    Unitarity needs no check here: ``MultiportCoeffs`` enforces it when it
    is built.  Each library entry point calls this once, before any step loop.
    """
    if c.degree != degree:
        raise ValidationError(
            f"coefficients r={c.r}, t={c.t} have degree {c.degree}, the vertex has degree {degree}"
        )


def multiport_matrix(c: MultiportCoeffs) -> NDArray[np.complex128]:
    """Return the d x d vertex matrix: ``r`` on the diagonal, ``t`` elsewhere."""
    d = c.degree
    m = np.full((d, d), c.t, dtype=np.complex128)
    np.fill_diagonal(m, c.r)
    return m


def pseudo_eigensystem(c: MultiportCoeffs) -> list[tuple[complex, int]]:
    """Eigenvalues of the vertex matrix with multiplicities.

    For any coefficients satisfying the unitarity relations the spectrum is
    ``r + (d-1) t`` (once, eigenvector the uniform port superposition) and
    ``r - t`` (d-1 times).  Both values have unit modulus; this is checked
    against a dense eigensolver in the test suite.

    Returns
    -------
    list of (eigenvalue, multiplicity)
        Zero-multiplicity entries are omitted (d = 1 yields a single pair).
    """
    d = c.degree
    uniform = c.r + (d - 1) * c.t
    if d == 1:
        return [(uniform, 1)]
    return [(uniform, 1), (c.r - c.t, d - 1)]
