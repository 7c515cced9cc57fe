"""One step of the global walk on the full edge state.

Each amplitude moves along its edge to the arrival vertex y and scatters
there: the new amplitude on |y; b> is (r - t) times the amplitude that
arrived along b plus t times the total arriving at y.  The step runs in
place on the state stored direction-major, (d, 2**d) with row j holding
direction j + 1, in blocks of 2**14 vertices that stay in cache.  Pass 1
sums the arriving amplitudes per vertex over directions in fixed ascending
order, so results are reproducible to the bit.  Pass 2 rewrites each row
one block-sized tile at a time through one block of scratch, and can add
each new tile's |amplitude|**2 into a per-vertex probability row, as
``layer_distribution_full`` sums it, while the tile is in cache, so the
layer distribution needs no second pass over the state.  Each step
allocates its scratch, the 2**d totals row and one block, in the state's
kind.  The state's dtype follows the coefficients: real ones step a float64
state with float64 scratch and scalars, bit for bit the real part of the
complex walk.  Every vertex scatters with the same coefficients; the
marked-vertex search runs on the layer walk (``sqrw.search``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .hypercube import state_dimension, vertex_weights
from .multiport import MultiportCoeffs, require_valid

__all__ = [
    "EvolutionConfig",
    "step",
    "evolve",
    "gather_incoming",
    "layer_distribution_full",
    "vertex_probability",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Dimension and the coefficients every vertex scatters with."""

    dim: int
    coeffs: MultiportCoeffs

    def __post_init__(self) -> None:
        require_valid(self.coeffs, degree=self.dim)


def gather_incoming(state: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Amplitudes entering each vertex: out[y, a-1] = state[y ^ mask(a), a-1]."""
    d = state_dimension(state)
    cube = state.reshape((2,) * d + (d,))
    incoming = np.empty(state.shape, dtype=np.complex128)  # C order, so the cube view writes
    inc_cube = incoming.reshape((2,) * d + (d,))
    for j in range(d):
        inc_cube[..., j] = np.flip(cube[..., j], axis=j)
    return incoming


_BLOCK = 1 << 14  # vertices per block of the step kernel: 256 KiB of complex


def _add_probability(
    pv: NDArray[np.float64], amps: NDArray[np.float64 | np.complex128], edge: NDArray[np.float64]
) -> None:
    """``pv += abs(amps) ** 2`` for a float64 or complex128 tile, through the float scratch ``edge``."""
    np.abs(amps, out=edge)
    np.multiply(edge, edge, out=edge)
    np.add(pv, edge, out=pv)


def _full_kernel(
    psi: NDArray,
    cfg: EvolutionConfig,
    pv: NDArray[np.float64] | None = None,
) -> None:
    """Step the direction-major state ``psi`` (d, 2**d) in place.

    A float64 ``psi`` with a coefficient that is not real raises.  The step
    allocates its scratch, one 2**d totals row and one block, in float64 for
    a real ``psi`` and in complex128 for any complex one.  If ``pv`` (2**d
    floats) is given, it receives the probability on each vertex's d edges
    after the step, summed by ``_add_probability`` in ascending direction
    order, as ``layer_distribution_full`` sums it.  Rows of ``psi`` may be strided.
    Pass 1 goes block by block, so each block of ``totals`` sums all d
    directions while it is in cache.  Pass 2 cuts each row into tiles of
    ``size`` vertices that hold both partners of every pair across its bit.
    """
    r, t = cfg.coeffs.r, cfg.coeffs.t
    dtype = np.complex128
    if psi.dtype.kind == "f":
        if r.imag or t.imag:
            raise ValidationError(f"a real state cannot step with r={r}, t={t}")
        r, t, dtype = r.real, t.real, np.float64
    d, n = psi.shape
    size = min(n, _BLOCK)
    totals, block = np.empty(n, dtype), np.empty(size, dtype)
    edge = block.view(np.float64)[:size]

    def arrived(j: int, lo: int) -> NDArray[np.complex128]:
        # what direction j + 1 brings to the block at lo: for a bit above the
        # block, block lo ^ m; else the block as (., 2, m), flipped bit reversed
        m = 1 << (d - 1 - j)
        if m >= size:
            return psi[j, lo ^ m : (lo ^ m) + size]
        return psi[j, lo : lo + size].reshape(-1, 2, m)[:, ::-1]

    for lo in range(0, n, size):
        acc = totals[lo : lo + size]
        amp = arrived(0, lo)
        np.copyto(acc.reshape(amp.shape), amp)
        for j in range(1, d):
            amp = arrived(j, lo)
            acc = acc.reshape(amp.shape)
            np.add(acc, amp, acc)
    np.multiply(totals, t, totals)
    if pv is not None:
        pv.fill(0.0)
    for j in range(d):
        m = 1 << (d - 1 - j)
        k = min(m, size // 2)
        c = size // (2 * k)
        shape = (-1, c, 2, m // k, k)
        rows, sums = psi[j].reshape(shape), totals.reshape(shape)
        scratch, edges = block[:size].reshape(c, 2, k), edge.reshape(c, 2, k)
        for a, b in np.ndindex(len(rows), m // k):
            tile = rows[a, :, :, b]
            np.multiply(tile[:, ::-1], r - t, scratch)
            np.add(scratch, sums[a, :, :, b], tile)
            if pv is not None:
                _add_probability(pv.reshape(shape)[a, :, :, b], tile, edges)


def step(state: NDArray, cfg: EvolutionConfig) -> NDArray:
    """Scatter every edge amplitude at its arrival vertex; norm preserving."""
    return evolve(state, cfg, 1)


def evolve(state: NDArray, cfg: EvolutionConfig, n: int) -> NDArray:
    """Apply the walk step n times to a copy of ``state``, in its dtype (n = 0 returns the copy)."""
    if n < 0:
        raise ValidationError(f"step count must be >= 0 (got {n})")
    d = state_dimension(state)
    if d != cfg.dim:
        raise ValidationError(f"state dimension {d} != config dimension {cfg.dim}")
    out = state.T.copy().T  # direction-major, so the kernel walks contiguous rows
    for _ in range(n):
        _full_kernel(out.T, cfg)
    return out


def layer_distribution_full(state: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Probability per Hamming layer, summed over all edges leaving that layer."""
    d = state_dimension(state)
    n = 1 << d
    size = min(n, _BLOCK)
    per_vertex = np.zeros(n)
    edge = np.empty(size)
    for lo in range(0, n, size):  # block by block, so per_vertex stays in cache
        for j in range(d):
            _add_probability(per_vertex[lo : lo + size], state[lo : lo + size, j], edge)
    return np.bincount(vertex_weights(d), weights=per_vertex, minlength=d + 1)


def vertex_probability(state: NDArray[np.complex128], x: int) -> float:
    """Probability on the d edges leaving vertex x."""
    d = state_dimension(state)
    if not 0 <= x < (1 << d):
        raise ValidationError(f"vertex {x} out of range for d={d}")
    return float(np.sum(np.abs(state[x, :]) ** 2))
