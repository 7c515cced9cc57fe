"""Hypercube graph structure, directed-edge indexing, and full edge states.

Vertices are integers 0 .. 2**d - 1 whose binary string (most significant
bit first) is the written form; direction a in 1..d flips the a-th character
of that string, i.e. bit ``1 << (d - a)`` of the integer.  A full state is an
array of shape (2**d, d): entry [x, a-1] is the amplitude of the photon
leaving vertex x along direction a.  Its dtype follows the coefficients: a
walk with real ones never leaves the reals, so it can hold float64, and the
default is complex128; the constructors here refuse any other dtype.
Flattening in C order gives the linear layout index(x, a) = x*d + (a - 1).
The constructors here store that array direction-major, so ``state.T``
is a C-contiguous (d, 2**d) array whose row j holds direction j + 1: the
layout the in-place step kernel (``sqrw.evolution``) works in.  Indexing
and ``np.ravel`` see the same (2**d, d) values either way.  Every nonzero state
built here comes from ``embed_layer_state``, which can read its layer distribution as it
writes it (so ``full`` has no step-0 pass); ``initial_symmetric_state`` embeds the origin.
``_written_blocks`` names the blocks the embedding writes, which ``full``'s walk steps out from.

Full-state allocations larger than the memory budget (default 2**30 bytes,
overridable through the SQRW_MEMORY_BYTES environment variable, counted in
complex rows whatever the dtype) are refused up front, so an oversized run
fails with a clear error instead of swapping.
With the default budget the largest usable dimension is d = 21.
"""

from __future__ import annotations

import os

import numpy as np
from numpy.typing import DTypeLike, NDArray

from .errors import MemoryCapError, ValidationError
from .layers import LayerState, _require_closed, origin_state

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "MEMORY_ENV_VAR",
    "memory_budget",
    "check_dimension",
    "ensure_full_state_fits",
    "direction_mask",
    "state_dimension",
    "parse_vertex",
    "zero_full_state",
    "initial_symmetric_state",
    "embed_layer_state",
]

DEFAULT_MEMORY_BUDGET = 2**30
MEMORY_ENV_VAR = "SQRW_MEMORY_BYTES"

_COMPLEX_BYTES = 16


def memory_budget() -> int:
    """Current full-state byte budget (environment override or default)."""
    raw = os.environ.get(MEMORY_ENV_VAR)
    if raw is None:
        return DEFAULT_MEMORY_BUDGET
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{MEMORY_ENV_VAR} must be an integer, got {raw!r}") from exc
    if budget <= 0:
        raise ValidationError(f"{MEMORY_ENV_VAR} must be positive, got {budget}")
    return budget


def check_dimension(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValidationError(f"dimension must be a positive integer (got {d!r})")
    return int(d)


def ensure_full_state_fits(d: int, columns: int | None = None) -> None:
    """Raise ``MemoryCapError`` if ``columns`` complex 2**d rows exceed the budget.

    The default, d columns, is one full state; a caller that holds more
    passes its whole working set.
    """
    check_dimension(d)
    cap = memory_budget()
    # from d = cap.bit_length() on, 2**d alone is over the budget: refuse
    # without building a d-bit byte count that no message could print
    small = d < cap.bit_length()
    rows = d if columns is None else columns
    need = rows * (1 << d) * _COMPLEX_BYTES if small else f"more than 2**{d}"
    if not small or need > cap:
        raise MemoryCapError(
            f"full-state memory for d={d} needs {need} bytes, over the budget of {cap} "
            f"(raise {MEMORY_ENV_VAR} to override)"
        )


def direction_mask(d: int, a: int) -> int:
    """Integer bit flipped by direction ``a``: the a-th character of the bit string."""
    check_dimension(d)
    if not 1 <= a <= d:
        raise ValidationError(f"direction must be in 1..{d} (got {a})")
    return 1 << (d - a)


def parse_vertex(d: int, bits: str) -> int:
    """Vertex of the d-character 0/1 string ``bits``, most significant bit first; validates both."""
    check_dimension(d)
    if len(bits) != d or any(ch not in "01" for ch in bits):
        raise ValidationError(f"vertex string must be {d} characters of 0/1 (got {bits!r})")
    return int(bits, 2)


_BLOCK = 1 << 14  # vertices per block of the walk and the embedding: 256 KiB of complex


def _block_weights(size: int) -> NDArray[np.int64]:
    """Hamming weight of each vertex 0 .. size - 1 of a block of ``size`` = 2**b vertices."""
    w = np.zeros(size, dtype=np.int64)
    for b in range(size.bit_length() - 1):  # setting bit b adds one to the weight of every smaller vertex
        np.add(w[: 1 << b], 1, out=w[1 << b : 2 << b])
    return w


def _add_probability(
    pv: NDArray[np.float64], amps: NDArray[np.float64 | np.complex128], edge: NDArray[np.float64]
) -> None:
    """``pv += abs(amps) ** 2`` for a float64 or complex128 tile, squared in the float scratch ``edge``."""
    if amps.dtype != np.float64:
        np.abs(amps, out=edge)
        amps = edge
    np.square(amps, out=edge)  # x * x, which is |x| * |x| to the bit
    np.add(pv, edge, out=pv)


def _layer_fold(size: int):
    """A zero float64 tile for ``size`` = 2**(k - 1) vertices, the block's weight row, and ``fold(out, lo)``.

    The fold bincounts [out[c : c + k] | tile] by [0 .. k - 1 | weights in the block]
    into out[c : c + k], c = popcount(lo), and zeroes the tile.  bincount adds in index
    order, so ascending blocks from a zero ``out`` sum as one bincount of the 2**d row.
    The weight row is the tail of that index row, so a caller that gathers by it holds no copy.
    """
    k = size.bit_length()
    idx = np.concatenate((np.arange(k), _block_weights(size)))
    buf = np.zeros(k + size)  # after the index row: the weights, index row and tile are never all live

    def fold(out: NDArray[np.float64], lo: int) -> None:
        c = lo.bit_count()
        buf[:k] = out[c : c + k]
        out[c : c + k] = np.bincount(idx, weights=buf, minlength=k)
        buf.fill(0.0)
    return buf[k:], idx[k:], fold


def _require_walk_dtype(dtype: DTypeLike) -> None:
    if np.dtype(dtype) not in (np.float64, np.complex128):
        raise ValidationError(f"a full state is float64 or complex128, not {np.dtype(dtype)}")


def zero_full_state(d: int, dtype: DTypeLike = np.complex128) -> NDArray:
    """Zeros as a full state of ``dtype``, float64 or complex128: the two the walk steps in."""
    _require_walk_dtype(dtype)
    ensure_full_state_fits(d)
    return np.zeros((d, 1 << d), dtype=dtype).T


def initial_symmetric_state(d: int, dtype: DTypeLike = np.complex128) -> NDArray:
    """Amplitude 1/sqrt(d) on each edge leaving the all-zeros vertex: the embedded ``origin_state``."""
    ensure_full_state_fits(d)  # before the layer line of 2d + 4 entries
    return embed_layer_state(origin_state(d), dtype)


def state_dimension(state: NDArray) -> int:
    """Dimension d of a (2**d, d) state array; validates the shape."""
    if state.ndim != 2:
        raise ValidationError(f"state must be a 2-d array, got shape {state.shape}")
    n, d = state.shape
    if d < 1 or n != (1 << d):
        raise ValidationError(f"state shape {state.shape} is not (2**d, d)")
    return d


def _written_blocks(s: LayerState, dtype: DTypeLike) -> tuple[NDArray, list[int]]:
    """``s``'s [up; down] in the kind of ``dtype``, and the starts of the blocks ``embed_layer_state`` writes.

    A block at ``lo`` is written when its windows [up; down][:, c : c + k], c = popcount(lo),
    k = log2(block size) + 1, hold a nonzero bit (bits, so a -0.0 counts).  Every other block
    of the embedded state holds +0.0 only, so these are the walk's live blocks (``_full_walk``).
    """
    pair = s.line[1:-1].reshape(2, -1)  # [up; down]
    if np.dtype(dtype).kind != "c":  # a real state takes the real parts, and only those
        if pair.imag.any():
            raise ValidationError(f"a {np.dtype(dtype)} state cannot hold an imaginary layer amplitude")
        pair = pair.real
    size = min(1 << s.d, _BLOCK)
    k = size.bit_length()
    hot = [pair[:, c : c + k].view(np.uint64).any() for c in range(s.d + 1)]
    return pair, [lo for lo in range(0, 1 << s.d, size) if hot[lo.bit_count()]]


def embed_layer_state(s: LayerState, dtype: DTypeLike = np.complex128, reading: NDArray | None = None) -> NDArray:
    """Spread layer coefficients over every edge of their (layer, direction) class, as ``dtype``.

    Per block of 2**(k - 1) vertices at ``lo``, c = popcount(lo): the windows up[c : c + k]
    and down[c : c + k] gathered by the block's weight row are two tiles that every row's
    block is copied from.  Only the blocks of ``_written_blocks`` are written; the rest stay +0.0.
    If ``reading`` (d + 1) is given, it gets the state's layer distribution, the bits of
    ``layer_distribution_full``: once a block's rows are written, they are squared into a
    ``_layer_fold`` tile while in cache, with the spent tiles as scratch, and folded.  A skipped
    block is not read: its squares are +0.0, and adding +0.0 leaves a sum of squares as it is.
    """
    _require_closed(s)
    psi = zero_full_state(s.d, dtype).T
    pair, written = _written_blocks(s, dtype)
    d, n = psi.shape
    size = min(n, _BLOCK)
    k, (acc, w, fold) = size.bit_length(), _layer_fold(size)
    tiles = np.empty((2, size), psi.dtype)  # [up; down] of the block's vertices
    if reading is not None:
        reading[:] = 0.0
    for lo in written:
        c = lo.bit_count()
        np.take(pair[:, c : c + k], w, axis=1, out=tiles, mode="clip")  # indices are in range; no buffer
        for j in range(d):
            m = 1 << (d - 1 - j)  # the bit direction j + 1 flips: clear on up edges, set on down edges
            row = psi[j, lo : lo + size]
            if m >= size:
                np.copyto(row, tiles[1 if lo & m else 0])
            else:
                for side in (0, 1):
                    np.copyto(row.reshape(-1, 2, m)[:, side], tiles[side].reshape(-1, 2, m)[:, side])
        if reading is not None:
            for j in range(d):
                _add_probability(acc, psi[j, lo : lo + size], tiles.view(np.float64)[0, :size])
            fold(reading, lo)
    return psi.T
