"""Shared test utilities: random states and independent brute-force oracles."""

from __future__ import annotations

import importlib
import pkgutil
from contextlib import contextmanager
from typing import Mapping

import numpy as np
import pytest

import sqrw
from sqrw.evolution import EvolutionConfig, gather_incoming
from sqrw.errors import ValidationError
from sqrw.hypercube import check_dimension, zero_full_state
from sqrw.multiport import MultiportCoeffs
from sqrw.layers import _layer_walk
from sqrw.scattering import boundary_coeffs
from sqrw.spectral import block_matrix, weight_class_spectra


def random_unit_state(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=(1 << d, d)) + 1j * rng.normal(size=(1 << d, d))
    return (state / np.linalg.norm(state)).astype(np.complex128)


def vertex_bits(d: int, x: int) -> str:
    """Binary string of vertex ``x``, most significant bit first (inverse of ``parse_vertex``)."""
    check_dimension(d)
    if not 0 <= x < (1 << d):
        raise ValidationError(f"vertex must be in 0..{(1 << d) - 1} (got {x})")
    return format(x, f"0{d}b")


def reference_step(
    state: np.ndarray,
    cfg: EvolutionConfig,
    overrides: Mapping[int, MultiportCoeffs] | None = None,
) -> np.ndarray:
    """The full step as an explicit gather and combine (reference for ``step``).

    The amplitudes arriving at each vertex are copied out with
    ``gather_incoming``, summed per vertex in ascending direction order, and
    combined row by row as (r - t) * a + T, T = t * total: one multiply and
    one add in the state's dtype (a float64 state steps with the real parts
    of r and t).  A vertex in ``overrides`` scatters with its own
    coefficients instead (the marked vertex of the search).  Shares no code
    with the in-place kernel, so the kernel must match it bit for bit.  For a
    complex state, and for a float64 one with r - t != -1.0, the kernel makes
    the same floating-point operations in the same order (numpy's complex
    product depends on operand order).  The float64 Grover walk (r - t ==
    -1.0) writes T - a in one subtraction instead, which has the same bits:
    (-1.0) * a is -a exactly, and IEEE addition commutes, signed zeros
    included.
    """
    incoming = gather_incoming(state)
    totals = incoming[:, 0].copy()
    for j in range(1, incoming.shape[1]):
        totals += incoming[:, j]
    r, t = cfg.coeffs.r, cfg.coeffs.t
    if state.dtype.kind == "f":
        r, t = r.real, t.real
    out = incoming * (r - t) + (totals * t)[:, None]
    for vertex, c in (overrides or {}).items():
        out[vertex, :] = (c.r - c.t) * incoming[vertex, :] + c.t * totals[vertex]
    return out


@contextmanager
def small_blocks(size: int = 4):
    """Blocks of ``size`` vertices for the walk and the embedding, so d <= 8 mixes bits above and inside a block.

    Sets ``_BLOCK`` in every ``sqrw`` module that binds it, the defining one and each importer.
    """
    modules = [importlib.import_module(f"sqrw.{m.name}") for m in pkgutil.iter_modules(sqrw.__path__)]
    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            if hasattr(module, "_BLOCK"):
                mp.setattr(module, "_BLOCK", size)
        yield


def tailed_cube_exits(
    gamma: np.ndarray,
    c: MultiportCoeffs,
    n_max: int,
    b: MultiportCoeffs | None = None,
    photon: complex = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Exit amplitudes of the full cube with tails at 0...0 and 1...1 (reference for the tails).

    The start has amplitude gamma[j] on edge |0...0; j>, and ``photon``
    arriving at 0...0 from the left tail at step 1.  The two corners are
    (d+1)-ports with coefficients ``b`` whose extra port is the exit edge.
    What leaves onto a tail never returns, so the tails are sinks and are
    not stored.  Row n of the first result holds the (left, right) exit
    amplitudes after n steps; the second is the cube after ``n_max`` steps.
    """
    d = len(gamma)
    b = boundary_coeffs(d) if b is None else b
    cube = zero_full_state(d)
    cube[0] = gamma
    exits = np.zeros((n_max + 1, 2), dtype=np.complex128)
    for n in range(1, n_max + 1):
        incoming = gather_incoming(cube)
        totals = incoming.sum(axis=1)
        cube = (c.r - c.t) * incoming + c.t * totals[:, None]
        entering = (photon if n == 1 else 0.0, 0.0)  # from the left and the right tail
        for side, v in enumerate((0, -1)):
            total = totals[v] + entering[side]
            cube[v] = (b.r - b.t) * incoming[v] + b.t * total
            exits[n, side] = (b.r - b.t) * entering[side] + b.t * total
    return exits, cube


def traversal_amplitude(gamma: np.ndarray, c: MultiportCoeffs) -> complex:
    """Right-exit amplitude after d steps (reference for ``interferometer_amplitude``)."""
    d = len(gamma)
    return tailed_cube_exits(gamma, c, d)[0][d, 1]


def per_block_spectra(d: int, c: MultiportCoeffs) -> np.ndarray:
    """Row k: sorted eigenvalues of the momentum-k block, one eigen-solve per block.

    The eigensolver route that the closed-form weight-class spectra replace
    (reference for ``weight_class_spectra`` and the ``spectrum`` command).
    """
    return np.array([np.sort_complex(np.linalg.eigvals(block_matrix(c, k))) for k in range(1 << d)])


def block_spectra(d: int, c: MultiportCoeffs) -> np.ndarray:
    """Row k: the spectrum of block k, weight class |k| of ``weight_class_spectra``, as ``spectrum`` writes it."""
    from oracles import vertex_weights  # oracles imports this module

    return np.stack(weight_class_spectra(c))[vertex_weights(d)]


def stepped_detection_series(d: int, c: MultiportCoeffs, b: MultiportCoeffs, n_max: int) -> np.ndarray:
    """Detection series with the tails stored, by stepping ``oracles.shifting_scatter_step``.

    Reference for ``detection_probability_series``.  Each tail stores
    n_max + 2 sites, more than anything leaving the cube can cross in n_max
    steps, so no amplitude reaches the oracle's tail ends.
    """
    from oracles import shifting_scatter_step  # oracles imports this module

    up, down = np.zeros((2, d + 1), np.complex128)
    left_in, left_out, right_out, right_in = np.zeros((4, n_max + 2), np.complex128)
    left_in[0] = 1.0  # the photon at left-tail site -1, heading toward the cube
    fields = (up, down, left_in, left_out, right_out, right_in)
    series = np.zeros(n_max + 1, dtype=np.float64)
    for n in range(1, n_max + 1):
        fields = shifting_scatter_step(fields, c, b)
        z = fields[0][d]
        series[n] = z.real * z.real + z.imag * z.imag
    return series


def stacked(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """The tail-free padded line ``[0, up, down, 0]`` of ``sqrw.layers``."""
    return np.concatenate(([0j], up, down, [0j]))


def walk_states(line: np.ndarray, steps: int, factors) -> np.ndarray:
    """Every padded state of ``sqrw.layers._layer_walk``, row n after n steps.

    The walk reads each block into the returned rows before it overwrites it.
    """
    return _layer_walk(line, factors, np.empty((steps + 1, len(line)), np.complex128), lambda block: block)


def count_local_maxima(series: np.ndarray, floor: float = 1e-12) -> int:
    """Strict local maxima above ``floor`` in a series.

    The detector edge is populated only on every other step (each step moves
    the photon one layer, so arrivals share the parity of d + 1); callers
    should pass the nonzero-parity subsequence to count beats rather than
    the zero gaps.
    """
    count = 0
    for i in range(1, len(series) - 1):
        if series[i] > floor and series[i] > series[i - 1] and series[i] >= series[i + 1]:
            count += 1
    return count


def random_layer_coeffs(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    up = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    down = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    up[d] = 0.0
    down[0] = 0.0
    return up, down


def brute_force_first_detection(d: int, c: MultiportCoeffs, b: MultiportCoeffs) -> complex:
    """Amplitude on the detector edge after d + 1 steps, by walking every path.

    Works on an explicit adjacency representation of the cube with one tail
    vertex on each side, scattering edge by edge with the port-level
    amplitudes r (same edge back) and t (every other edge).  Independent of
    the production step implementations.
    """
    n = 1 << d
    far = n - 1
    left, right = "L1", "R1"

    def neighbors(v):
        if v == left:
            return [0]
        if v == right:
            return [far]
        out = [v ^ (1 << (d - 1 - j)) for j in range(d)]
        if v == 0:
            out.append(left)
        if v == far:
            out.append(right)
        return out

    def coeffs_at(v):
        if v in (left, right):
            return MultiportCoeffs(0.0, 1.0, 2)
        if v in (0, far):
            return b
        return c

    target = (far, right)
    total = 0.0 + 0.0j

    def walk(edge, amp, steps_left):
        nonlocal total
        if steps_left == 0:
            if edge == target:
                total += amp
            return
        src, dst = edge
        cf = coeffs_at(dst)
        for nxt in neighbors(dst):
            factor = cf.r if nxt == src else cf.t
            if factor != 0:
                walk((dst, nxt), amp * factor, steps_left - 1)

    walk((left, 0), 1.0 + 0.0j, d + 1)
    return total
