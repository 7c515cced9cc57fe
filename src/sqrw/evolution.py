"""One step of the global walk on the full edge state.

Each amplitude moves along its edge to the arrival vertex y and scatters
there: the new amplitude on |y; b> is (r - t) times the amplitude that
arrived along b plus t times the total arriving at y.  One call of the
walk steps a (2**d, d) state in place any number of times and returns it
in vertex order.  It works on the direction-major rows ``state.T`` (row j
holds direction j + 1), contiguous for the constructors' storage and
strided for a vertex-major array, in one pass per step over blocks of
2**14 vertices that stay in cache.  Per block, each row first holds its
arrivals in vertex order: a row whose bit lies inside the block is
reversed in place across it, and a row whose bit is above the block is
read from the partner block and written back there, so its halves swap
between steps and are swapped back at the end.  Then the arrivals are
summed per vertex over directions in fixed ascending order, so results
are reproducible to the bit, and each row is rewritten as (r - t) * a + T,
T = t * total.  Grover's coefficients have r - t = -1.0 exactly at every d,
and a float64 walk with them writes T - a, inversion about the mean, in one
subtraction: (-1.0) * a is -a exactly and IEEE addition commutes, signed
zeros included, so the bits are the same.  On request the walk also
records the layer distribution before the first step and after each step:
it sums each |amplitude|**2 into a block tile and folds the tile into the
layers the block touches, step 0 with the block reader of
``layer_distribution_full``.  One step moves amplitude by one Hamming
layer, so the walk can keep the set of live blocks, the block starts that
may hold a nonzero bit: before each step it adds lo ^ m for each live lo
and each row bit m at least the block size (the partner its arrivals come
from), and steps and reads only the live blocks, in ascending order, step
0 from the starting ones.  That is exact for every coin: each reading is a
sum of squares from +0.0, the square of either zero is +0.0, x + (+-0) is
x for any x != 0, and a block outside the cone never feeds one inside it,
as its partners join the cone before each step.  So the series has the
bytes of the every-block walk, and the state differs from it at most in
the sign of a zero.  ``full`` starts the set from the blocks the embedding
writes; ``step`` and ``evolve`` step every block.
The scratch is two blocks in the state's kind and the fold's two block
rows, whatever d.  The state's dtype follows the coefficients: real ones
step a float64 state with float64 scratch and scalars, bit for bit the
real part of the complex walk.  Every vertex scatters with the same
coefficients; the marked-vertex search runs on the layer walk (``sqrw.search``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .hypercube import _BLOCK, _block_weights, _require_walk_dtype, state_dimension
from .layers import _abs2
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


def gather_incoming(state: NDArray) -> NDArray:
    """Amplitudes entering each vertex, in the state's dtype: out[y, a-1] = state[y ^ mask(a), a-1]."""
    d = state_dimension(state)
    cube = state.reshape((2,) * d + (d,))
    incoming = np.empty(state.shape, dtype=state.dtype)  # C order, so the cube view writes
    inc_cube = incoming.reshape((2,) * d + (d,))
    for j in range(d):
        inc_cube[..., j] = np.flip(cube[..., j], axis=j)
    return incoming


def _reverse(out: NDArray, row: NDArray, m: int) -> None:
    """out[v] = row[v ^ m] for the contiguous block ``out``; only bytes move.

    A contiguous float64 row with m <= 2 swaps its runs as 2m columns, one strided
    copy each: about 3 times faster than the (-1, 2, m) copy's inner loops of m.
    """
    if m <= 2 and row.dtype == np.float64 and row.strides[0] == row.itemsize:
        cols, src = out.reshape(-1, 2 * m), row.reshape(-1, 2 * m)
        for c in range(2 * m):
            np.copyto(cols[:, c], src[:, c ^ m])
    else:
        np.copyto(out.reshape(-1, 2, m), row.reshape(-1, 2, m)[:, ::-1])


def _add_probability(
    pv: NDArray[np.float64], amps: NDArray[np.float64 | np.complex128], edge: NDArray[np.float64]
) -> None:
    """``pv += _abs2(amps)`` for a float64 or complex128 tile, squared in the float scratch ``edge``; allocates nothing.

    A complex tile, contiguous or strided, squares its two parts into the halves of ``edge``, a half's worth a pass.
    """
    if amps.dtype == np.float64:
        np.square(amps, out=edge[: len(amps)])
        np.add(pv, edge[: len(amps)], out=pv)
        return
    h = len(edge) // 2
    for lo in range(0, len(amps), h):
        z, p = amps[lo : lo + h], pv[lo : lo + h]
        re, im = edge[: len(z)], edge[h : h + len(z)]
        np.square(z.real, out=re)
        np.square(z.imag, out=im)
        np.add(re, im, out=re)
        np.add(p, re, out=p)


def _layer_fold(size: int):
    """A zero float64 tile for ``size`` = 2**(k - 1) vertices and ``fold(out, lo)``.

    The fold bincounts [out[c : c + k] | tile] by [0 .. k - 1 | weights in the block]
    into out[c : c + k], c = popcount(lo), and zeroes the tile.  bincount adds in index
    order, so ascending blocks from a zero ``out`` sum as one bincount of the 2**d row.
    """
    k = size.bit_length()
    idx = np.concatenate((np.arange(k), _block_weights(size)))
    buf = np.zeros(k + size)  # after the index row: the weights, index row and tile are never all live

    def fold(out: NDArray[np.float64], lo: int) -> None:
        c = lo.bit_count()
        buf[:k] = out[c : c + k]
        out[c : c + k] = np.bincount(idx, weights=buf, minlength=k)
        buf.fill(0.0)
    return buf[k:], fold


def _read_blocks(out: NDArray[np.float64], psi: NDArray, blocks: Iterable[int], tile, fold, edge) -> None:
    """Add the squares of the rows ``psi`` (d, 2**d) on ``blocks`` into ``out``: per block each row, then ``fold``."""
    for lo in blocks:
        for row in psi:
            _add_probability(tile, row[lo : lo + len(tile)], edge)
        fold(out, lo)


def _full_walk(
    state: NDArray, cfg: EvolutionConfig, steps: int, series: NDArray[np.float64] | None = None,
    live: Iterable[int] | None = None,
) -> NDArray:
    """Step ``state`` (2**d, d) in place ``steps`` times and return it, in vertex order.

    The walk steps the direction-major rows ``state.T``: contiguous for the
    constructors' storage, strided for a vertex-major array.  A float64
    ``state`` with a coefficient that is not real raises before any write.
    A float64 walk with r - t == -1.0 (Grover) writes each row as T - a in one
    subtraction, with the bits of (r - t) * a + T (see the module docstring).
    The scratch is two blocks of at most 2**14 vertices, the totals and the
    reversal (whose float view also squares the probabilities), in float64
    for a real ``state`` and in complex128 for any complex one.  If
    ``series`` (steps + 1, d + 1) is given, row n gets the layer
    distribution after n steps, read per block through the tile and fold of
    ``_layer_fold``, row 0 by ``_read_blocks`` from the starting live blocks.  The rows whose
    bit m = 2**(d - 1 - j) is at least the block size hold their halves
    across m swapped after an odd step; the walk swaps them back before it returns.
    ``live`` names the block starts that may hold a nonzero bit, every block by
    default; every other block must hold zeros, of either sign.  The walk grows
    the set one layer per step and steps only its blocks; the state may differ from
    the every-block walk only in the sign of its zeros, the series never (module docstring).
    """
    r, t = cfg.coeffs.r, cfg.coeffs.t
    dtype = np.complex128
    if state.dtype.kind == "f":
        if r.imag or t.imag:
            raise ValidationError(f"a real state cannot step with r={r}, t={t}")
        r, t, dtype = r.real, t.real, np.float64
    invert = dtype is np.float64 and r - t == -1.0  # Grover's, at every d
    psi = state.T
    d, n = psi.shape
    size = min(n, _BLOCK)
    totals, block = np.empty(size, dtype), np.empty(size, dtype)
    edge = block.view(np.float64)
    live = set(range(0, n, size) if live is None else live)
    if series is not None:  # each block's probabilities, folded into the zeroed rows; row 0 first
        acc, fold = _layer_fold(size)
        series[:] = 0.0
        _read_blocks(series[0], psi, sorted(live), acc, fold, edge)
    bits = [1 << (d - 1 - j) for j in range(d)]
    swapped = False  # the rows with a bit above the block hold their halves swapped
    for done in range(steps):
        live |= {lo ^ m for lo in live for m in bits if m >= size}  # a row above the block arrives from lo ^ m
        for lo in sorted(live):
            rows = []
            for j, m in enumerate(bits):
                at = lo ^ m if m >= size and not swapped else lo
                rows.append(psi[j, at : at + size])
                if m < size:  # reverse in place across m: the arrivals in vertex order
                    _reverse(block, rows[-1], m)
                    np.copyto(rows[-1], block)
            np.copyto(totals, rows[0])
            for row in rows[1:]:
                np.add(totals, row, totals)
            np.multiply(totals, t, totals)
            for row in rows:  # row = (r - t) * row + totals, totals = t * total
                if invert:
                    np.subtract(totals, row, row)
                else:
                    np.multiply(row, r - t, row)
                    np.add(row, totals, row)
                if series is not None:
                    _add_probability(acc, row, edge)
            if series is not None:
                fold(series[done + 1], lo)
        swapped = not swapped
    if swapped:  # after an odd count: swap back the halves of every row above the block
        for j, m in enumerate(bits):
            for lo in range(0, n, size):
                if m >= size and not lo & m and (lo in live or lo + m in live):
                    a, b = psi[j, lo : lo + size], psi[j, lo + m : lo + m + size]
                    np.copyto(block, a)
                    np.copyto(a, b)
                    np.copyto(b, block)
    return state


def step(state: NDArray, cfg: EvolutionConfig) -> NDArray:
    """Scatter every edge amplitude at its arrival vertex; norm preserving."""
    return evolve(state, cfg, 1)


def evolve(state: NDArray, cfg: EvolutionConfig, n: int) -> NDArray:
    """Apply the walk step n times to a copy of ``state``, float64 or complex128 (n = 0 returns the copy)."""
    if n < 0:
        raise ValidationError(f"step count must be >= 0 (got {n})")
    d = state_dimension(state)
    if d != cfg.dim:
        raise ValidationError(f"state dimension {d} != config dimension {cfg.dim}")
    _require_walk_dtype(state.dtype)
    return _full_walk(state.T.copy().T, cfg, n)  # a direction-major copy: contiguous rows


def layer_distribution_full(state: NDArray) -> NDArray[np.float64]:
    """Probability per Hamming layer, summed over all edges leaving that layer."""
    d = state_dimension(state)
    size = min(1 << d, _BLOCK)
    out = np.zeros(d + 1)
    edge = np.empty(max(size, 2))  # a complex state squares half of it a pass
    _read_blocks(out, state.T, range(0, 1 << d, size), *_layer_fold(size), edge)
    return out


def vertex_probability(state: NDArray, x: int) -> float:
    """Probability on the d edges leaving vertex x."""
    d = state_dimension(state)
    if not 0 <= x < (1 << d):
        raise ValidationError(f"vertex {x} out of range for d={d}")
    return float(np.sum(_abs2(state[x, :])))
