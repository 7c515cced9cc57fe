"""One step of the global walk on the full edge state.

Each amplitude moves along its edge to the arrival vertex y and scatters
there: the new amplitude on |y; b> is (r - t) times the amplitude that
arrived along b plus t times the total arriving at y.  The step runs in
place on the state stored direction-major, (d, 2**d) with row j holding
direction j + 1, so each direction's flip is a block swap read through a
view and a step needs one state plus two 2**d scratch rows.  Totals are
summed over directions in fixed ascending order, so results are
reproducible to the bit.  Per-vertex coefficient overrides serve the
marked-vertex search without a second evolution path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .hypercube import (
    initial_symmetric_state,
    state_dimension,
    vertex_weights,
)
from .multiport import MultiportCoeffs, grover_coeffs, require_valid

__all__ = [
    "EvolutionConfig",
    "step",
    "evolve",
    "gather_incoming",
    "layer_distribution_full",
    "layer_probability",
    "vertex_probability",
    "quantum_hitting_probability",
    "dense_operator",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Dimension, vertex coefficients, and optional per-vertex overrides."""

    dim: int
    coeffs: MultiportCoeffs
    overrides: Mapping[int, MultiportCoeffs] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValidationError(f"dimension must be >= 1 (got {self.dim})")
        require_valid(self.coeffs)
        if self.coeffs.degree != self.dim:
            raise ValidationError(
                f"coefficient degree {self.coeffs.degree} != dimension {self.dim}"
            )
        if self.overrides:
            n = 1 << self.dim
            for vertex, c in self.overrides.items():
                if not 0 <= vertex < n:
                    raise ValidationError(f"override vertex {vertex} out of range for d={self.dim}")
                require_valid(c)
                if c.degree != self.dim:
                    raise ValidationError(
                        f"override degree {c.degree} at vertex {vertex} != dimension {self.dim}"
                    )


def gather_incoming(state: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Amplitudes entering each vertex: out[y, a-1] = state[y ^ mask(a), a-1]."""
    d = state_dimension(state)
    cube = state.reshape((2,) * d + (d,))
    incoming = np.empty(state.shape, dtype=np.complex128)  # C order, so the cube view writes
    inc_cube = incoming.reshape((2,) * d + (d,))
    for j in range(d):
        inc_cube[..., j] = np.flip(cube[..., j], axis=j)
    return incoming


def _full_kernel(
    psi: NDArray[np.complex128], cfg: EvolutionConfig, buf: NDArray[np.complex128]
) -> None:
    """Step the direction-major state ``psi`` (d, 2**d) in place.

    ``buf`` is (2, 2**d) complex scratch: the per-vertex totals and one
    reflected row.  Rows of ``psi`` may be strided.
    """
    d = psi.shape[0]
    totals, scratch = buf
    # Row j viewed as (2**j, 2, 2**(d-j-1)): the middle axis is the bit that
    # direction j + 1 flips, so reversing it reads the amplitude arriving at
    # each vertex.
    arrived = [psi[j].reshape(1 << j, 2, -1)[:, ::-1] for j in range(d)]
    np.copyto(totals.reshape(arrived[0].shape), arrived[0])
    for amp in arrived[1:]:
        acc = totals.reshape(amp.shape)
        np.add(acc, amp, acc)
    saved = []  # what each overridden vertex receives, read before the rows are overwritten
    if cfg.overrides:
        rows = np.arange(d)
        masks = 1 << (d - 1 - rows)
        saved = [(c, psi[rows, v ^ masks], totals[v], v) for v, c in cfg.overrides.items()]
    r, t = cfg.coeffs.r, cfg.coeffs.t
    np.multiply(totals, t, totals)
    for row, amp in zip(psi, arrived):
        np.multiply(amp, r - t, scratch.reshape(amp.shape))
        np.add(scratch, totals, row)
    for c, inc, total, v in saved:
        psi[:, v] = (c.r - c.t) * inc + c.t * total


def step(state: NDArray[np.complex128], cfg: EvolutionConfig) -> NDArray[np.complex128]:
    """Scatter every edge amplitude at its arrival vertex; norm preserving."""
    return evolve(state, cfg, 1)


def evolve(state: NDArray[np.complex128], cfg: EvolutionConfig, n: int) -> NDArray[np.complex128]:
    """Apply the walk step n times to a copy of ``state`` (n = 0 returns the copy)."""
    if n < 0:
        raise ValidationError(f"step count must be >= 0 (got {n})")
    d = state_dimension(state)
    if d != cfg.dim:
        raise ValidationError(f"state dimension {d} != config dimension {cfg.dim}")
    out = state.copy()
    buf = np.empty((2, 1 << d), dtype=np.complex128)
    for _ in range(n):
        _full_kernel(out.T, cfg, buf)
    return out


def layer_distribution_full(state: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Probability per Hamming layer, summed over all edges leaving that layer."""
    d = state_dimension(state)
    per_vertex = np.zeros(1 << d)
    edge = np.empty(1 << d)
    for j in range(d):
        np.abs(state[:, j], out=edge)
        np.multiply(edge, edge, out=edge)
        np.add(per_vertex, edge, out=per_vertex)
    return np.bincount(vertex_weights(d), weights=per_vertex, minlength=d + 1)


def layer_probability(state: NDArray[np.complex128], w: int) -> float:
    d = state_dimension(state)
    if not 0 <= w <= d:
        raise ValidationError(f"layer must be in 0..{d} (got {w})")
    return float(layer_distribution_full(state)[w])


def vertex_probability(state: NDArray[np.complex128], x: int) -> float:
    """Probability on the d edges leaving vertex x."""
    d = state_dimension(state)
    if not 0 <= x < (1 << d):
        raise ValidationError(f"vertex {x} out of range for d={d}")
    return float(np.sum(np.abs(state[x, :]) ** 2))


def quantum_hitting_probability(d: int, coeffs: MultiportCoeffs | None = None) -> float:
    """Squared per-edge amplitude at the far corner after d steps from the origin state.

    Simulated with the full walk; equals the squared closed-form hitting
    amplitude of the layer-reduced picture.
    """
    cfg = EvolutionConfig(d, coeffs if coeffs is not None else grover_coeffs(d))
    state = evolve(initial_symmetric_state(d), cfg, d)
    far = (1 << d) - 1
    return vertex_probability(state, far) / d


def dense_operator(cfg: EvolutionConfig, cap: int = 8) -> NDArray[np.complex128]:
    """Materialize the step as a dense matrix in the flat |x; a> layout.

    Dimension is capped (default d <= 8, matrix side 2048); beyond that
    only state-vector application is sensible.
    """
    if cfg.dim > cap:
        raise ValidationError(f"dense operator requested for d={cfg.dim}, cap is {cap}")
    d = cfg.dim
    n = d * (1 << d)
    op = np.empty((n, n), dtype=np.complex128)
    basis = np.zeros((1 << d, d), dtype=np.complex128)
    flat = basis.ravel()
    for i in range(n):
        flat[i] = 1.0
        op[:, i] = step(basis, cfg).ravel()
        flat[i] = 0.0
    return op
