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
built here comes from ``embed_layer_state``; ``initial_symmetric_state`` embeds the origin.

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


def embed_layer_state(s: LayerState, dtype: DTypeLike = np.complex128) -> NDArray:
    """Spread layer coefficients over every edge of their (layer, direction) class, as ``dtype``.

    Per block of 2**(k - 1) vertices at ``lo``, c = popcount(lo): the windows up[c : c + k]
    and down[c : c + k] gathered by the block's weight row are two tiles that every row's
    block is copied from.  A block whose windows hold only zero bits is left untouched.
    """
    _require_closed(s)
    psi = zero_full_state(s.d, dtype).T
    pair = s.line[1:-1].reshape(2, -1)  # [up; down]
    if psi.dtype.kind != "c":  # a real state takes the real parts, and only those
        if pair.imag.any():
            raise ValidationError(f"a {psi.dtype} state cannot hold an imaginary layer amplitude")
        pair = pair.real
    d, n = psi.shape
    size = min(n, _BLOCK)
    k, w = size.bit_length(), _block_weights(size)
    tiles = np.empty((2, size), psi.dtype)  # [up; down] of the block's vertices
    for lo in range(0, n, size):
        c = lo.bit_count()
        window = pair[:, c : c + k]
        if not window.view(np.uint64).any():  # bits, so a -0.0 is written
            continue
        np.take(window, w, axis=1, out=tiles, mode="clip")  # indices are in range; no buffer
        for j in range(d):
            m = 1 << (d - 1 - j)  # the bit direction j + 1 flips: clear on up edges, set on down edges
            row = psi[j, lo : lo + size]
            if m >= size:
                np.copyto(row, tiles[1 if lo & m else 0])
            else:
                for side in (0, 1):
                    np.copyto(row.reshape(-1, 2, m)[:, side], tiles[side].reshape(-1, 2, m)[:, side])
    return psi.T
