"""Hypercube graph structure, directed-edge indexing, and full edge states.

Vertices are integers 0 .. 2**d - 1 whose binary string (most significant
bit first) is the written form; direction a in 1..d flips the a-th character
of that string, i.e. bit ``1 << (d - a)`` of the integer.  A full state is a
complex array of shape (2**d, d): entry [x, a-1] is the amplitude of the
photon leaving vertex x along direction a.  Flattening in C order gives the
documented linear layout index(x, a) = x*d + (a - 1), which is also the CSV
row order.  The constructors here store that array direction-major, so
``state.T`` is a C-contiguous (d, 2**d) array whose row j holds direction
j + 1: the layout the in-place step kernel (``sqrw.evolution``) works in.
Indexing and ``np.ravel`` see the same (2**d, d) values either way.

Full-state allocations larger than the memory budget (default 2**30 bytes,
overridable through the SQRW_MEMORY_BYTES environment variable) are refused
up front, so an oversized run fails with a clear error instead of swapping.
With the default budget the largest usable dimension is d = 21.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import MemoryCapError, ValidationError
from .layers import LayerState

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "MEMORY_ENV_VAR",
    "memory_budget",
    "check_dimension",
    "full_state_bytes",
    "ensure_full_state_fits",
    "direction_mask",
    "state_dimension",
    "flat_index",
    "vertex_bits",
    "parse_vertex",
    "hamming_layer",
    "vertex_weights",
    "zero_full_state",
    "initial_symmetric_state",
    "state_norm",
    "embed_layer_state",
    "extract_layer_state",
    "write_state_csv",
    "read_state_csv",
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


def full_state_bytes(d: int) -> int:
    """Bytes needed for one full edge-state array."""
    check_dimension(d)
    return d * (1 << d) * _COMPLEX_BYTES


def ensure_full_state_fits(d: int, budget: int | None = None) -> None:
    """Raise ``MemoryCapError`` if a full state for dimension d exceeds the budget."""
    need = full_state_bytes(d)
    cap = memory_budget() if budget is None else budget
    if need > cap:
        raise MemoryCapError(
            f"full state for d={d} needs {need} bytes, over the budget of {cap} "
            f"(raise {MEMORY_ENV_VAR} to override)"
        )


def direction_mask(d: int, a: int) -> int:
    """Integer bit flipped by direction ``a``: the a-th character of the bit string."""
    check_dimension(d)
    if not 1 <= a <= d:
        raise ValidationError(f"direction must be in 1..{d} (got {a})")
    return 1 << (d - a)


def flat_index(d: int, x: int, a: int) -> int:
    """Position of |x; a> in the flattened amplitude layout: x*d + (a - 1)."""
    check_dimension(d)
    if not 0 <= x < (1 << d):
        raise ValidationError(f"vertex must be in 0..{(1 << d) - 1} (got {x})")
    if not 1 <= a <= d:
        raise ValidationError(f"direction must be in 1..{d} (got {a})")
    return x * d + (a - 1)


def vertex_bits(d: int, x: int) -> str:
    """Binary string of vertex ``x``, most significant bit first."""
    check_dimension(d)
    if not 0 <= x < (1 << d):
        raise ValidationError(f"vertex must be in 0..{(1 << d) - 1} (got {x})")
    return format(x, f"0{d}b")


def parse_vertex(d: int, bits: str) -> int:
    """Inverse of ``vertex_bits``; validates length and characters."""
    check_dimension(d)
    if len(bits) != d or any(ch not in "01" for ch in bits):
        raise ValidationError(f"vertex string must be {d} characters of 0/1 (got {bits!r})")
    return int(bits, 2)


def hamming_layer(x: int) -> int:
    """Number of set bits of the vertex."""
    if x < 0:
        raise ValidationError(f"vertex must be non-negative (got {x})")
    return int(x).bit_count()


@lru_cache(maxsize=16)
def vertex_weights(d: int) -> NDArray[np.int64]:
    """Hamming weight of every vertex 0 .. 2**d - 1 (read-only, cached)."""
    check_dimension(d)
    x = np.arange(1 << d, dtype=np.int64)
    w = np.zeros(1 << d, dtype=np.int64)
    for shift in range(d):
        w += (x >> shift) & 1
    w.setflags(write=False)
    return w


def zero_full_state(d: int) -> NDArray[np.complex128]:
    ensure_full_state_fits(d)
    return np.zeros((d, 1 << d), dtype=np.complex128).T


def initial_symmetric_state(d: int) -> NDArray[np.complex128]:
    """Amplitude 1/sqrt(d) on each edge leaving the all-zeros vertex."""
    state = zero_full_state(d)
    state[0, :] = 1.0 / math.sqrt(d)
    return state


def state_norm(state: NDArray[np.complex128]) -> float:
    return float(np.linalg.norm(state.ravel()))


def state_dimension(state: NDArray[np.complex128]) -> int:
    """Dimension d of a (2**d, d) state array; validates the shape."""
    if state.ndim != 2:
        raise ValidationError(f"state must be a 2-d array, got shape {state.shape}")
    n, d = state.shape
    if d < 1 or n != (1 << d):
        raise ValidationError(f"state shape {state.shape} is not (2**d, d)")
    return d


def embed_layer_state(s: LayerState, d: int | None = None) -> NDArray[np.complex128]:
    """Spread layer coefficients over every edge of their (layer, direction) class."""
    if d is None:
        d = s.d
    elif d != s.d:
        raise ValidationError(f"layer state dimension {s.d} != requested {d}")
    ensure_full_state_fits(d)
    n = 1 << d
    w = vertex_weights(d)
    x = np.arange(n)
    psi = np.empty((d, n), dtype=np.complex128)
    for j in range(d):
        bit = (x >> (d - 1 - j)) & 1
        psi[j] = np.where(bit == 0, s.up[w], s.down[w])
    return psi.T


def extract_layer_state(
    state: NDArray[np.complex128],
) -> tuple[LayerState, float]:
    """Average a full state back to layer coefficients.

    Returns the layer state built from per-class means together with the
    largest deviation of any edge amplitude from its class mean (zero, up
    to rounding, when the state really is symmetric).
    """
    d = state_dimension(state)
    n = 1 << d
    w = vertex_weights(d)
    x = np.arange(n)
    up_sum = np.zeros(d + 1, dtype=np.complex128)
    down_sum = np.zeros(d + 1, dtype=np.complex128)
    up_cnt = np.zeros(d + 1, dtype=np.int64)
    down_cnt = np.zeros(d + 1, dtype=np.int64)
    for j in range(d):
        bit = (x >> (d - 1 - j)) & 1
        up_rows = bit == 0
        up_sum += np.bincount(w[up_rows], weights=state[up_rows, j].real, minlength=d + 1)
        up_sum += 1j * np.bincount(w[up_rows], weights=state[up_rows, j].imag, minlength=d + 1)
        down_sum += np.bincount(w[~up_rows], weights=state[~up_rows, j].real, minlength=d + 1)
        down_sum += 1j * np.bincount(w[~up_rows], weights=state[~up_rows, j].imag, minlength=d + 1)
        up_cnt += np.bincount(w[up_rows], minlength=d + 1)
        down_cnt += np.bincount(w[~up_rows], minlength=d + 1)
    up = np.where(up_cnt > 0, up_sum / np.maximum(up_cnt, 1), 0.0)
    down = np.where(down_cnt > 0, down_sum / np.maximum(down_cnt, 1), 0.0)
    layer = LayerState(d, up, down)
    deviation = 0.0
    for j in range(d):
        bit = (x >> (d - 1 - j)) & 1
        ref = np.where(bit == 0, up[w], down[w])
        deviation = max(deviation, float(np.max(np.abs(state[:, j] - ref))))
    return layer, deviation


def write_state_csv(state: NDArray[np.complex128], path: str, threshold: float = 1e-15) -> None:
    """Dump nonzero amplitudes as ``vertex_bits,direction,re,im`` rows."""
    d = state_dimension(state)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("vertex_bits,direction,re,im\n")
        for x in range(1 << d):
            for j in range(d):
                amp = state[x, j]
                if abs(amp) > threshold:
                    fh.write(
                        f"{vertex_bits(d, x)},{j + 1},{amp.real:.17g},{amp.imag:.17g}\n"
                    )


def read_state_csv(path: str, d: int | None = None) -> NDArray[np.complex128]:
    """Rebuild a full state from ``write_state_csv`` output.

    ``d`` is inferred from the first row when omitted; an empty dump needs
    it passed explicitly.
    """
    rows: list[tuple[str, int, float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "vertex_bits,direction,re,im":
            raise ValidationError(f"unexpected state CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            bits, direction, re, im = line.split(",")
            rows.append((bits, int(direction), float(re), float(im)))
    if d is None:
        if not rows:
            raise ValidationError("cannot infer dimension from an empty state CSV")
        d = len(rows[0][0])
    state = zero_full_state(d)
    for bits, a, re, im in rows:
        state[parse_vertex(d, bits), a - 1] = complex(re, im)
    return state
