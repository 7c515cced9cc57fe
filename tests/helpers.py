"""Shared test utilities: random states and independent brute-force oracles."""

from __future__ import annotations

import numpy as np

from sqrw.evolution import EvolutionConfig
from sqrw.multiport import MultiportCoeffs
from sqrw.scattering import initial_tail_photon, scatter_step
from sqrw.spectral import block_matrix


def random_unit_state(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=(1 << d, d)) + 1j * rng.normal(size=(1 << d, d))
    return (state / np.linalg.norm(state)).astype(np.complex128)


def reference_step(state: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """The full step as an explicit gather and combine (reference for ``step``).

    incoming[y, a-1] = state[y ^ mask(a), a-1] is copied out of the d-cube
    view, summed per vertex with numpy's ``sum``, and combined row by row
    with the vertex matrix, overrides included.  Shares no code with the
    in-place kernel.
    """
    n, d = state.shape
    cube = state.reshape((2,) * d + (d,))
    incoming = np.empty((n, d), dtype=np.complex128)
    inc_cube = incoming.reshape((2,) * d + (d,))
    for j in range(d):
        inc_cube[..., j] = np.flip(cube[..., j], axis=j)
    totals = incoming.sum(axis=1)
    r, t = cfg.coeffs.r, cfg.coeffs.t
    out = (r - t) * incoming + t * totals[:, None]
    for vertex, c in (cfg.overrides or {}).items():
        out[vertex, :] = (c.r - c.t) * incoming[vertex, :] + c.t * totals[vertex]
    return out


def per_block_spectra(d: int, c: MultiportCoeffs) -> np.ndarray:
    """Row k: sorted eigenvalues of the momentum-k block, one eigen-solve per block.

    The 2**d-solve route the weight-class spectra replace (reference for
    ``weight_class_spectra`` and the ``spectrum`` command).
    """
    return np.array([np.sort_complex(np.linalg.eigvals(block_matrix(c, k))) for k in range(1 << d)])


def stepped_detection_series(
    d: int, c: MultiportCoeffs, b: MultiportCoeffs, n_max: int, tail_length: int
) -> np.ndarray:
    """Detection series by stepping ``scatter_step`` with stored, shifting tails.

    Reference for ``detection_probability_series``, including where the
    truncation error is raised.
    """
    s = initial_tail_photon(d, tail_length)
    series = np.empty(n_max + 1, dtype=np.float64)
    series[0] = abs(s.up[d]) ** 2
    for n in range(1, n_max + 1):
        s = scatter_step(s, c, b)
        series[n] = abs(s.up[d]) ** 2
    return series


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
