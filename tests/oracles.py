"""Reference code that only the tests call.

The unitarity residuals of a coefficient pair, the symmetric coin built
through its phase angle, dense operators and dense spectra, the character
basis, the basis-column circuit comparison, the flip-gate structure check,
the audit and classical layer series, the Hamming weight of every vertex,
the origin state written directly, the layer distribution, layer embeddings
and layer extraction of a full state, the tailed corner rows, the layer walk
on two arrays, the tailed step on six arrays with shifting tails, the search
stepped on the full state, the per-element Python readings of the search and
detection series, the one-row-at-a-time CSV writer, and the 50-digit
reference: the layer walk in ``decimal`` and the hitting table in
``fractions``, with the standard library alone.  They check the library from
outside and are not part of its API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np
from numpy.typing import DTypeLike, NDArray

from helpers import reference_step, stacked

from sqrw.circuit import circuit_step
from sqrw.errors import ValidationError
from sqrw.evolution import EvolutionConfig, evolve, step, vertex_probability
from sqrw.hypercube import (
    check_dimension,
    initial_symmetric_state,
    state_dimension,
    zero_full_state,
)
from sqrw.layers import LayerState, _binomials, edge_counting_norm, reduced_step
from sqrw.multiport import MultiportCoeffs, grover_coeffs, multiport_matrix
from sqrw.search import SearchConfig, success_probability, uniform_edge_state
from sqrw.spectral import block_matrix, rotation_apply, translation_apply


def unitarity_residuals(c: MultiportCoeffs) -> tuple[float, float]:
    """|deviation| of |r|^2 + (d-1)|t|^2 from 1 and of (d-2)|t|^2 + 2 Re(conj(r) t) from 0."""
    d, r, t = c.degree, c.r, c.t
    norm = abs(r) ** 2 + (d - 1) * abs(t) ** 2 - 1.0
    cross = (d - 2) * abs(t) ** 2 + 2.0 * (r.conjugate() * t).real
    return abs(norm), abs(cross)


def acos_symmetric_coeffs(d: int, p: float) -> MultiportCoeffs:
    """The symmetric coin t = d**(-p) as it was built through the phase angle: the reference for its refusals.

    r = sqrt(1 - (d-1) t**2) exp(i theta) with cos(theta) = (1 - d/2) / sqrt(d**(2p) - d + 1),
    refused when |cos(theta)| > 1 + 1e-12 and clamped to [-1, 1] otherwise.
    """
    if d < 2 or not p > 0.5:
        raise ValidationError(f"no symmetric coefficients at d={d}, p={p}")
    t = float(d) ** (-p)
    magnitude = math.sqrt(1.0 - (d - 1) * t * t)
    cos_theta = (1.0 - d / 2.0) / math.sqrt(float(d) ** (2 * p) - d + 1.0)
    if abs(cos_theta) > 1.0 + 1e-12:
        raise ValidationError(f"no reflection phase exists for d={d}, p={p}")
    theta = math.acos(max(-1.0, min(1.0, cos_theta)))
    return MultiportCoeffs(magnitude * complex(math.cos(theta), math.sin(theta)), t, d)


def coin_fourier_vector(d: int, k: int) -> NDArray[np.complex128]:
    """Normalized Fourier eigenvector of the coin: entries exp(2*pi*i*k*a/d)/sqrt(d)."""
    a = np.arange(d)
    return np.exp(2j * np.pi * k * a / d) / np.sqrt(d)


def phicnot_dense(d: int, a: int) -> NDArray[np.complex128]:
    """Dense matrix of the conditional flip gate in the flat |x; a> layout."""
    if not 1 <= a <= d:
        raise ValidationError(f"direction must be in 1..{d} (got {a})")
    n = d * (1 << d)
    mask = 1 << (d - a)
    perm = np.arange(n)
    for x in range(1 << d):
        src = x * d + (a - 1)
        perm[src] = (x ^ mask) * d + (a - 1)
    op = np.zeros((n, n), dtype=np.complex128)
    op[np.arange(n), perm] = 1.0
    return op


@dataclass(frozen=True)
class CaReport:
    """Numerical confirmation of the flip-gate structure."""

    dim: int
    max_commutator: float
    max_eigenvector_residual: float
    passed: bool


def verify_ca_eigenstructure(d: int, tol: float = 1e-12) -> CaReport:
    """Check that all flip gates commute and have the stated eigenvectors.

    Eigenvectors of gate ``a``: |+/-> on position qubit a tensor |a> with
    eigenvalue +/-1, and anything tensor |b>, b != a, with eigenvalue +1.
    Verified on dense matrices, so d is limited to small values.
    """
    if d > 8:
        raise ValidationError(f"dense verification capped at d = 8 (got {d})")
    gates = [phicnot_dense(d, a) for a in range(1, d + 1)]
    max_comm = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            comm = gates[i] @ gates[j] - gates[j] @ gates[i]
            max_comm = max(max_comm, float(np.max(np.abs(comm))))

    n_vertices = 1 << d
    max_resid = 0.0
    for a in range(1, d + 1):
        mask = 1 << (d - a)
        gate = gates[a - 1]
        for base in range(n_vertices):
            if base & mask:
                continue  # enumerate qubit-a |0> representatives once
            partner = base ^ mask
            for sign in (1.0, -1.0):
                vec = np.zeros((1 << d, d), dtype=np.complex128)
                vec[base, a - 1] = 1.0 / np.sqrt(2)
                vec[partner, a - 1] = sign / np.sqrt(2)
                resid = gate @ vec.ravel() - sign * vec.ravel()
                max_resid = max(max_resid, float(np.max(np.abs(resid))))
            for b in range(1, d + 1):
                if b == a:
                    continue
                vec = np.zeros((1 << d, d), dtype=np.complex128)
                vec[base, b - 1] = 1.0
                resid = gate @ vec.ravel() - vec.ravel()
                max_resid = max(max_resid, float(np.max(np.abs(resid))))
    passed = max_comm <= tol and max_resid <= tol
    return CaReport(d, max_comm, max_resid, passed)


def vertex_weights(d: int) -> NDArray[np.int64]:
    """Hamming weight of every vertex 0 .. 2**d - 1, in a new array the caller owns (no cache)."""
    check_dimension(d)
    w = np.zeros(1 << d, dtype=np.int64)
    for k in range(d):
        # setting bit k adds one to the weight of every smaller vertex
        np.add(w[: 1 << k], 1, out=w[1 << k : 2 << k])
    return w


def direct_symmetric_state(d: int, dtype: DTypeLike = np.complex128) -> NDArray:
    """Amplitude 1/sqrt(d) on each edge leaving the all-zeros vertex, written directly.

    Reference for ``sqrw.hypercube.initial_symmetric_state``, which embeds ``origin_state``.
    """
    state = zero_full_state(d, dtype)
    state[0, :] = 1.0 / math.sqrt(d)
    return state


def _sign_characters(d: int, k: int) -> NDArray[np.float64]:
    """(-1)^(k.x) for every vertex x."""
    n = 1 << d
    parity = vertex_weights(d)[np.bitwise_and(np.arange(n), k)] & 1
    return 1.0 - 2.0 * parity


def fourier_basis_state(d: int, k: int, a: int) -> NDArray[np.complex128]:
    """Normalized character vector |k~, a>, an eigenvector of every translation."""
    check_dimension(d)
    n = 1 << d
    if not 0 <= k < n:
        raise ValidationError(f"momentum label {k} out of range for d={d}")
    if not 1 <= a <= d:
        raise ValidationError(f"direction must be in 1..{d} (got {a})")
    state = zero_full_state(d)
    state[:, a - 1] = _sign_characters(d, k) * 2.0 ** (-d / 2.0)
    return state


def dense_spectrum(d: int, c: MultiportCoeffs, cap: int = 8) -> NDArray[np.complex128]:
    """Eigenvalues of the dense step operator (the expensive reference route)."""
    return np.linalg.eigvals(dense_operator(EvolutionConfig(d, c), cap=cap))


def spectrum_mismatch(a: NDArray[np.complex128], b: NDArray[np.complex128]) -> float:
    """Greatest nearest-neighbour pairing distance between two eigenvalue multisets.

    Each value of ``a`` greedily takes the nearest still-unused value of
    ``b``.  When the multisets agree up to perturbations small against the
    gaps between degenerate clusters (the situation being tested), every
    pick stays inside its own cluster and the result bounds the true
    multiset distance; genuinely different multisets report a large value.
    Quadratic in the spectrum size, fine at the dense cap.
    """
    if a.shape != b.shape:
        raise ValidationError(f"spectra differ in size: {a.shape} vs {b.shape}")
    a = np.sort_complex(np.asarray(a))
    b = np.sort_complex(np.asarray(b))
    unused = np.ones(len(b), dtype=bool)
    worst = 0.0
    for value in a:
        candidates = np.nonzero(unused)[0]
        pick = candidates[int(np.argmin(np.abs(b[candidates] - value)))]
        unused[pick] = False
        worst = max(worst, float(np.abs(b[pick] - value)))
    return worst


def fourier_offblock_deviation(d: int, c: MultiportCoeffs, cap: int = 6) -> tuple[float, float]:
    """Check block diagonality of the step in the character basis.

    Returns (largest matrix element between different momentum blocks,
    largest deviation of each diagonal block from ``block_matrix``).
    """
    if d > cap:
        raise ValidationError(f"dense basis change capped at d = {cap} (got {d})")
    n = d * (1 << d)
    basis = np.empty((n, n), dtype=np.complex128)
    for k in range(1 << d):
        for a in range(1, d + 1):
            basis[:, k * d + (a - 1)] = fourier_basis_state(d, k, a).ravel()
    u = dense_operator(EvolutionConfig(d, c), cap=cap)
    u_tilde = basis.conj().T @ u @ basis
    off_max = 0.0
    block_max = 0.0
    for k in range(1 << d):
        sl = slice(k * d, (k + 1) * d)
        block = u_tilde[sl, sl].copy()
        block_max = max(block_max, float(np.max(np.abs(block - block_matrix(c, k)))))
        u_tilde[sl, sl] = 0.0
    off_max = float(np.max(np.abs(u_tilde)))
    return off_max, block_max


def rotation_apply_about(state: NDArray[np.complex128], x: int) -> NDArray[np.complex128]:
    """Rotation about the axis through vertices x and x + 1...1."""
    return translation_apply(rotation_apply(translation_apply(state, x)), x)


def lift_block_eigenvector(
    d: int, k: int, v: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """Turn a block eigenvector into a normalized full eigenvector of the step."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (d,):
        raise ValidationError(f"block vector must have shape ({d},), got {v.shape}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValidationError("block eigenvector must be nonzero")
    state = zero_full_state(d)
    signs = _sign_characters(d, k) * 2.0 ** (-d / 2.0)
    for j in range(d):
        state[:, j] = signs * (v[j] / norm)
    return state


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


def basis_operator_deviation(d: int, c: MultiportCoeffs, cap: int = 8) -> float:
    """Max elementwise difference between the gate step and the scattering step.

    Runs both on every basis state, one column at a time: the dense-operator
    equality without materializing either matrix, O((d * 2**d)**2) work.
    Reference for the probe comparison ``sqrw.circuit.operator_deviation``.
    """
    if d > cap:
        raise ValidationError(f"basis comparison requested for d={d}, cap is {cap}")
    cfg = EvolutionConfig(d, c)
    coin = multiport_matrix(c)
    basis = np.zeros((1 << d, d), dtype=np.complex128)
    flat = basis.ravel()
    worst = 0.0
    for i in range(d * (1 << d)):
        flat[i] = 1.0
        diff = circuit_step(basis, coin) - step(basis, cfg)
        worst = max(worst, float(np.max(np.abs(diff))))
        flat[i] = 0.0
    return worst


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
    layer = LayerState(d, stacked(up, down))
    deviation = 0.0
    for j in range(d):
        bit = (x >> (d - 1 - j)) & 1
        ref = np.where(bit == 0, up[w], down[w])
        deviation = max(deviation, float(np.max(np.abs(state[:, j] - ref))))
    return layer, deviation


def rowwise_layer_distribution(state: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Probability per Hamming layer, one whole direction at a time.

    Reference for ``sqrw.evolution.layer_distribution_full`` and for the
    per-vertex probabilities the step kernel sums: the same operations in the
    same order, so they must match it bit for bit.
    """
    d = state_dimension(state)
    per_vertex = np.zeros(1 << d)
    for j in range(d):
        edge = state[:, j]
        per_vertex += edge.real * edge.real + edge.imag * edge.imag
    return np.bincount(vertex_weights(d), weights=per_vertex, minlength=d + 1)


def where_embed_layer_state(s: LayerState) -> NDArray[np.complex128]:
    """Full state of a layer state, one ``np.where`` over the bit per direction.

    Reference for ``sqrw.hypercube.embed_layer_state``.
    """
    d = s.d
    n = 1 << d
    w = vertex_weights(d)
    x = np.arange(n)
    psi = np.empty((d, n), dtype=np.complex128)
    for j in range(d):
        bit = (x >> (d - 1 - j)) & 1
        psi[j] = np.where(bit == 0, s.up[w], s.down[w])
    return psi.T


def gather_embed_layer_state(s: LayerState, dtype: DTypeLike = np.complex128) -> NDArray:
    """Full state of a layer state, each direction row one gather over all 2**d vertices.

    Reference for the block-wise ``sqrw.hypercube.embed_layer_state``: the same
    amplitudes copied, so the two must match byte for byte, strides included.
    """
    d = s.d
    up, down = s.up, s.down
    if np.dtype(dtype).kind != "c":  # a real state takes the real parts
        up, down = up.real, down.real
    w = vertex_weights(d)
    psi = np.empty((d, 1 << d), dtype=dtype)
    for j in range(d):
        # the middle axis is the bit direction j + 1 flips: 0 on up edges, 1 on
        # down edges; mode="clip" (indices are in range) writes without a buffer
        halves = psi[j].reshape(1 << j, 2, -1)
        weights = w.reshape(halves.shape)
        np.take(up, weights[:, 0], out=halves[:, 0], mode="clip")
        np.take(down, weights[:, 1], out=halves[:, 1], mode="clip")
    return psi.T


def squared_binomial_product(s: LayerState) -> float:
    """Audit quantity sum_w C(d,w)^2 (|up|^2 + |down|^2); not conserved in general."""
    b = _binomials(s.d)
    return float(np.sum(b * b * (np.abs(s.up) ** 2 + np.abs(s.down) ** 2)))


def evolve_layers(s: LayerState, c: MultiportCoeffs, n: int) -> LayerState:
    if n < 0:
        raise ValidationError(f"step count must be >= 0 (got {n})")
    out = s
    for _ in range(n):
        out = reduced_step(out, c)
    return out


def layer_mean(dist: NDArray[np.float64]) -> float:
    """Mean layer index of one distribution row."""
    w = np.arange(dist.shape[-1], dtype=np.float64)
    return float(np.sum(w * dist))


def conserved_quantity_series(
    d: int, c: MultiportCoeffs, init: LayerState, n_max: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-step log of the edge-counting norm and the squared-binomial sum.

    The first series is conserved; the second is recorded so the question
    can be settled numerically rather than argued.
    """
    edge = np.empty(n_max + 1)
    squared = np.empty(n_max + 1)
    s = init
    edge[0] = edge_counting_norm(s)
    squared[0] = squared_binomial_product(s)
    for n in range(1, n_max + 1):
        s = reduced_step(s, c)
        edge[n] = edge_counting_norm(s)
        squared[n] = squared_binomial_product(s)
    return edge, squared


def classical_initial_distribution(d: int) -> NDArray[np.float64]:
    p = np.zeros(d + 1, dtype=np.float64)
    p[0] = 1.0
    return p


def classical_walk_step(p: NDArray[np.float64], d: int) -> NDArray[np.float64]:
    """One step of the simple random walk projected on layers.

    ``p`` holds layer probabilities (not per-vertex).  From layer w the
    walker moves up with rate (d-w)/d and down with rate w/d, so

        p'[w] = p[w-1]*(d-w+1)/d + p[w+1]*(w+1)/d.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (d + 1,):
        raise ValidationError(f"distribution must have shape ({d + 1},), got {p.shape}")
    w = np.arange(d + 1, dtype=np.float64)
    from_below = np.concatenate(([0.0], p[:-1])) * (d - w + 1)
    from_above = np.concatenate((p[1:], [0.0])) * (w + 1)
    return (from_below + from_above) / d


def per_vertex_probabilities(p: NDArray[np.float64], d: int) -> NDArray[np.float64]:
    """Convert a layer distribution to the per-vertex probability p[w]/C(d,w)."""
    return np.asarray(p, dtype=np.float64) / _binomials(d)


def tailed_corner_rows(
    up: NDArray[np.complex128],
    down: NDArray[np.complex128],
    left_in: complex,
    right_in: complex,
    b: MultiportCoeffs,
) -> tuple[complex, complex, complex, complex]:
    """New ``up[0], down[0], up[d], down[d]`` of the tailed layer walk, written out.

    The two corners are (d+1)-ports with coefficients ``b``; ``left_in`` and
    ``right_in`` arrive from the tails.  Reference for the tail-port entries
    of ``sqrw.layers._layer_factors``.
    """
    d = up.shape[0] - 1
    rb, tb = b.r, b.t
    return (
        tb * left_in + ((d - 1) * tb + rb) * down[1],
        rb * left_in + d * tb * down[1],
        d * tb * up[d - 1] + rb * right_in,
        ((d - 1) * tb + rb) * up[d - 1] + tb * right_in,
    )


def concatenate_layer_walk(
    up: NDArray[np.complex128],
    down: NDArray[np.complex128],
    steps: int,
    r: complex | NDArray[np.complex128],
    t: complex | NDArray[np.complex128],
    tails: MultiportCoeffs | None = None,
    left_in: complex = 0j,
    right_in: complex = 0j,
) -> list[tuple[NDArray[np.complex128], NDArray[np.complex128]]]:
    """(up, down) after 0..steps steps of the layer step on two separate arrays.

    Four factor arrays, and the tail inputs concatenated onto up[w-1] and
    down[w+1] on every step (``left_in`` and ``right_in`` on the first,
    zero after it).  ``r``, ``t`` and ``tails`` are as in
    ``sqrw.layers._layer_factors``.  Reference, to the bit, for the padded
    ``sqrw.layers._layer_walk``.
    """
    d = up.shape[0] - 1
    if tails is not None:
        r, t = np.full(d + 1, r, np.complex128), np.full(d + 1, t, np.complex128)
        r[[0, d]], t[[0, d]] = tails.r, tails.t
    w = np.arange(d + 1)
    up_from_below, up_from_above = t * w, t * (d - w - 1) + r
    down_from_above, down_from_below = t * (d - w), t * (w - 1) + r
    if tails is None:
        up_from_below[d] = down_from_above[0] = 0.0
    else:
        up_from_below[0], down_from_below[0] = tails.t, tails.r
        up_from_above[d], down_from_above[d] = tails.r, tails.t
    walk = [(up, down)]
    for _ in range(steps):
        up_prev = np.concatenate(([left_in], up[:d]))
        down_next = np.concatenate((down[1:], [right_in]))
        up = up_from_below * up_prev + up_from_above * down_next
        down = down_from_above * down_next + down_from_below * up_prev
        left_in = right_in = 0j
        walk.append((up, down))
    return walk


def shifting_scatter_step(
    fields: tuple[NDArray[np.complex128], ...], c: MultiportCoeffs, b: MultiportCoeffs
) -> tuple[NDArray[np.complex128], ...]:
    """One step of the cube with stored tails, on six separate arrays.

    ``fields`` is (up, down, left_in, left_out, right_out, right_in); the
    tail arrays are indexed by distance from the cube: ``left_in[i]`` and
    ``left_out[i]`` at site -(1+i) moving toward and away from it,
    ``right_out[i]`` and ``right_in[i]`` at site d+1+i.  The cube is one
    step of ``concatenate_layer_walk`` with ``left_in[0]`` and
    ``right_in[0]`` as the tail inputs, and each tail is shifted one site by
    hand.  Raises ``AssertionError`` when an outgoing tail is occupied at
    its last site, where the next shift would drop it.  Reference, to the
    bit, for ``sqrw.scattering.scatter_step`` with ``left_in[0]`` and
    ``right_in[0]`` on the pads, and, stepped by
    ``helpers.stepped_detection_series``, for the detection series.
    """
    up, down, left_in, left_out, right_out, right_in = fields
    d, L = up.shape[0] - 1, left_in.shape[0]
    if left_out[L - 1] != 0 or right_out[L - 1] != 0:
        raise AssertionError(f"outgoing amplitude reached the end of the stored tails at length {L}")
    new_up, new_down = concatenate_layer_walk(up, down, 1, c.r, c.t, b, left_in[0], right_in[0])[1]
    new_left_in, new_left_out, new_right_out, new_right_in = np.zeros((4, L), np.complex128)
    # Ballistic tails: one site per step, perfectly transmitting.
    new_left_in[: L - 1] = left_in[1:]
    new_left_out[1:] = left_out[: L - 1]
    new_left_out[0] = down[0]
    new_right_in[: L - 1] = right_in[1:]
    new_right_out[1:] = right_out[: L - 1]
    new_right_out[0] = up[d]
    return new_up, new_down, new_left_in, new_left_out, new_right_out, new_right_in


def full_search_series(cfg: SearchConfig) -> NDArray[np.float64]:
    """Success series of the search walk stepped on the full edge state.

    The mark stays where it is, and each step is the gather-and-combine
    ``reference_step``, so the oracle shares no step code with the library;
    reference for ``sqrw.search.run_search``.
    """
    evo = EvolutionConfig(cfg.dim, cfg.coeffs)
    mark = {cfg.marked: cfg.marked_coeffs}
    state = uniform_edge_state(cfg.dim)
    series = np.empty(cfg.steps + 1, dtype=np.float64)
    series[0] = success_probability(state, cfg)
    for n in range(1, cfg.steps + 1):
        state = reference_step(state, evo, mark)
        series[n] = success_probability(state, cfg)
    return series


def scalar_abs2(z: NDArray[np.complex128]) -> NDArray[np.float64]:
    """re * re + im * im of each element as a Python ``complex``, one scalar at a time."""
    return np.array([x.real * x.real + x.imag * x.imag for x in z.tolist()], dtype=np.float64)


def scalar_search_series(states: NDArray[np.complex128], col: int) -> NDArray[np.float64]:
    """``run_search``'s series read per element from its padded layer states.

    ``col`` is 1 (up[0], the mark's out-edges) or d + 3 (down[1], its
    in-edges); each of the d edges carries the amplitude read there.
    """
    d = (states.shape[1] - 4) // 2
    return d * scalar_abs2(states[:, col])


def scalar_detection_series(states: NDArray[np.complex128]) -> NDArray[np.float64]:
    """``detection_probability_series`` read per element: |up[d]|**2 of each padded state."""
    d = (states.shape[1] - 4) // 2
    return scalar_abs2(states[:, d + 1])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def rowwise_write_rows(path, header: str, rows: Iterable[str]) -> None:
    """The CSV writer with one ``fh.write`` per row; reference for ``sqrw.cli._write_rows``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def rowwise_table_rows(*columns: NDArray[np.float64], width: int = 1, first: int = 0) -> Iterator[str]:
    """One row string per row, one ``format(x, ".17g")`` per value; reference for ``sqrw.cli._table``.

    With width > 1 the one column is a flattened surface, written as the
    rows ``n,w,value``; otherwise row i is ``first + i`` and its values.
    """
    if width > 1:
        series = columns[0].reshape(-1, width)
        for n in range(series.shape[0]):
            for w in range(width):
                yield f"{n + first},{w},{_fmt(series[n, w])}"
        return
    for i in range(len(columns[0])):
        yield ",".join([str(first + i), *(_fmt(col[i]) for col in columns)])


def rowwise_spectrum_rows(d: int, spectra: list[NDArray[np.complex128]]) -> Iterator[str]:
    """Block k's rows as its bit string plus each eigenvalue of weight class |k|, one row at a time."""
    cached = [[f",{_fmt(v.real)},{_fmt(v.imag)}" for v in vals] for vals in spectra]
    for k in range(1 << d):
        bits = format(k, f"0{d}b")
        yield "\n".join([bits + tail for tail in cached[k.bit_count()]])


# The 50-digit reference: the paper's coins, starts and readings in ``decimal`` and ``fractions`` alone.

REFERENCE_DIGITS = 50


class DecimalComplex:
    """re + i im as two ``Decimal``s, for + and * with each other, ``Decimal`` and ``int``."""

    __slots__ = ("re", "im")

    def __init__(self, re: Decimal, im: Decimal) -> None:
        self.re, self.im = re, im

    def __add__(self, o):
        if isinstance(o, DecimalComplex):
            return DecimalComplex(self.re + o.re, self.im + o.im)
        return DecimalComplex(self.re + o, self.im)

    __radd__ = __add__

    def __sub__(self, o):
        return self + (-1) * o

    def __rsub__(self, o):
        return (-1) * self + o

    def __mul__(self, o):
        if isinstance(o, DecimalComplex):
            return DecimalComplex(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
        return DecimalComplex(self.re * o, self.im * o)

    __rmul__ = __mul__


def decimal_abs2(z) -> Decimal:
    """|z|**2 of a ``Decimal`` or a ``DecimalComplex``."""
    return z.re * z.re + z.im * z.im if isinstance(z, DecimalComplex) else z * z


def decimal_coin(spec: str, d: int):
    """(r, t) of a ``--multiport`` spec at degree d, in the current ``decimal`` context.

    grover is r = 2/d - 1, t = 2/d.  ``symmetric:p`` is t = d**(-p), Re r =
    -(d - 2) t / 2 and Im r = sqrt(1 - (d - 1) t**2 - (Re r)**2), so p = 1
    gives t = 1/d and r = (2 - d)/(2d) + i sqrt(3)/2; p is the double the
    CLI parses.  A ``custom:`` pair is the doubles it names.
    """
    if spec == "grover":
        return Decimal(2) / d - 1, Decimal(2) / d
    if spec.startswith("symmetric"):
        t = Decimal(d) ** -Decimal(float(spec.partition("p=")[2] or 1))
        re = -(d - 2) * t / 2
        return DecimalComplex(re, (1 - (d - 1) * t * t - re * re).sqrt()), t
    re_r, im_r, re_t, im_t = (Decimal(float(x)) for x in spec[len("custom:") :].split(","))
    if im_r or im_t:
        return DecimalComplex(re_r, im_r), DecimalComplex(re_t, im_t)
    return re_r, re_t


def decimal_start(init: str, d: int) -> tuple[list, list]:
    """(up, down) of ``origin``, ``corners``, ``middle`` or the search's ``uniform`` start."""
    zero = Decimal(0)
    up, down = [zero] * (d + 1), [zero] * (d + 1)
    if init in ("origin", "origin-symmetric"):
        up[0] = 1 / Decimal(d).sqrt()
    elif init == "corners":
        up[0] = down[d] = 1 / Decimal(2 * d).sqrt()
    elif init == "middle":
        w0 = d // 2 + 1
        c = math.comb(d, w0)
        amp = 1 / Decimal(c * w0 + (c * (d - w0) if w0 < d else 0)).sqrt()
        if w0 < d:
            up[w0] = amp
        down[w0] = amp
    else:  # uniform over all d * 2**d edges
        amp = 1 / Decimal(d << d).sqrt()
        up[:d] = [amp] * d
        down[1:] = [amp] * d
    return up, down


def decimal_layer_walk(d: int, coins: list, up: list, down: list, steps: int, left_in=0, tails=None):
    """Yield (up, down) after 0 .. ``steps`` steps of the layer walk, vertex by vertex.

    ``coins[w]`` is the (r, t) of every weight-w vertex.  Such a vertex has w
    ports toward w - 1, on which up[w - 1] arrives, and d - w toward w + 1,
    on which down[w + 1] arrives; each port sends (r - t) times its own
    arrival plus t times the vertex's total.  With ``tails``, the (r, t) of
    the two (d + 1)-port corners, vertex 0...0 has one more port toward
    w - 1, the left tail, on which ``left_in`` arrives on the first step and
    down[0] leaves; vertex 1...1 has one toward w + 1, on which up[d] leaves.
    """
    zero = Decimal(0)
    coins = list(coins)
    if tails is not None:
        coins[0] = coins[d] = tails
    ports = [(w or int(tails is not None), d - w or int(tails is not None)) for w in range(d + 1)]
    for n in range(steps + 1):
        yield up, down
        if n == steps:
            return
        new_up, new_down = [zero] * (d + 1), [zero] * (d + 1)
        for w, ((r, t), (below, above)) in enumerate(zip(coins, ports)):
            a = up[w - 1] if w else left_in  # arriving from below, per port
            b = down[w + 1] if w < d else zero  # arriving from above: nothing comes in from the right tail
            total = below * a + above * b
            if above:
                new_up[w] = (r - t) * b + t * total
            if below:
                new_down[w] = (r - t) * a + t * total
        up, down, left_in = new_up, new_down, zero


def decimal_layer_series(d: int, spec: str, init: str, steps: int) -> list[list[Decimal]]:
    """Rows C(d, w) [(d - w) |up[w]|**2 + w |down[w]|**2] of the ``layers`` and ``full`` commands."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        coin = decimal_coin(spec, d)
        binom = [math.comb(d, w) for w in range(d + 1)]
        return [
            [binom[w] * ((d - w) * decimal_abs2(up[w]) + w * decimal_abs2(down[w])) for w in range(d + 1)]
            for up, down in decimal_layer_walk(d, [coin] * (d + 1), *decimal_start(init, d), steps)
        ]


def decimal_detection_series(d: int, spec: str, steps: int) -> list[Decimal]:
    """|up[d]|**2 after 0 .. ``steps`` steps of the tailed cube, from a photon on left-tail site -1."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        tails = (Decimal(2) / (d + 1) - 1, Decimal(2) / (d + 1))
        zeros = [Decimal(0)] * (d + 1)
        walk = decimal_layer_walk(d, [decimal_coin(spec, d)] * (d + 1), zeros, zeros, steps, 1, tails)
        return [decimal_abs2(up[d]) for up, _ in walk]


def decimal_search_series(d: int, spec: str, steps: int, metric: str = "out") -> list[Decimal]:
    """d |up[0]|**2 (out) or d |down[1]|**2 (in) of the search with the mark, r = -1 and t = 0, at 0...0."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        coins = [(Decimal(-1), Decimal(0))] + [decimal_coin(spec, d)] * d
        walk = decimal_layer_walk(d, coins, *decimal_start("uniform", d), steps)
        return [d * decimal_abs2(up[0] if metric == "out" else down[1]) for up, down in walk]


def _decimal_sqrt(z: DecimalComplex) -> DecimalComplex:
    """The principal square root."""
    x, y = z.re, z.im
    s = (((x * x + y * y).sqrt() + abs(x)) / 2).sqrt()
    if x >= 0:
        return DecimalComplex(s, y / (2 * s))
    return DecimalComplex(abs(y) / (2 * s), s if y >= 0 else -s)


def decimal_weight_class_spectra(d: int, spec: str) -> list[list[DecimalComplex]]:
    """Eigenvalues of the momentum blocks of weight m = 0..d, each class sorted by real, then imaginary part.

    m = 0 is the vertex matrix, r + (d - 1) t once and r - t d - 1 times, and m = d its negative.
    For 0 < m < d: r - t (d - m - 1 times), -(r - t) (m - 1 times) and h +- sqrt(h**2 + (r - t)(r + (d - 1) t)),
    h = t (d - 2m) / 2.
    """
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        r, t = decimal_coin(spec, d)
        zero = DecimalComplex(Decimal(0), Decimal(0))  # adding it makes every value a DecimalComplex
        minus, uniform = zero + (r - t), zero + (r + (d - 1) * t)
        vertex = [uniform] + [minus] * (d - 1)
        classes = [vertex]
        for m in range(1, d):
            h = t * (d - 2 * m) * Decimal("0.5")
            root = _decimal_sqrt(zero + (h * h + minus * uniform))
            classes.append([minus] * (d - m - 1) + [(-1) * minus] * (m - 1) + [h + root, h - root])
        classes.append([(-1) * z for z in vertex])
        return [sorted(vals, key=lambda z: (z.re, z.im)) for vals in classes]


def fraction_hitting_table(d_max: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Rows (p_c, p_q, ratio) of ``hitting``, d = 2 .. d_max, as exact fractions.

    p_c = d!/d**d; with grover, t(d - 1) + r = 1, so p_q = ((d - 1)! (2/d)**(d - 1))**2 / d.
    """
    rows = []
    for d in range(2, d_max + 1):
        p_c = Fraction(math.factorial(d), d**d)
        p_q = (math.factorial(d - 1) * Fraction(2, d) ** (d - 1)) ** 2 / d
        rows.append((p_c, p_q, p_q / p_c))
    return rows
