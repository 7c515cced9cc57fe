"""Symmetry-reduced walk on Hamming layers.

States that share one amplitude on every edge of the same (layer, direction)
class are closed under the walk.  Such a state is described by two length
d+1 arrays: ``up[w]`` is the amplitude on each edge leaving a weight-w
vertex toward weight w+1, ``down[w]`` toward weight w-1.  One step costs
O(d), which is what makes the d = 50 runs instant.

The physical norm of the embedded state is the edge-counting form

    N = sum_w  C(d, w) * [ (d - w) |up[w]|^2 + w |down[w]|^2 ]

(each layer-w vertex owns d-w up-edges and w down-edges).  This quantity is
conserved exactly by ``reduced_step``.  The squared-binomial sum
``sum_w C(d, w)^2 (|up[w]|^2 + |down[w]|^2)`` is also computed, for audit
purposes only: it is *not* conserved (see ``conserved_quantity_series``).

The layer projection of the classical simple random walk is kept here too,
stored as the distribution over layers; the per-vertex convention divides by
C(d, w) at output.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .multiport import MultiportCoeffs, grover_coeffs

__all__ = [
    "MAX_LAYER_DIM",
    "LayerState",
    "zero_layer_state",
    "origin_state",
    "corner_pair_state",
    "middle_state",
    "edge_counting_norm",
    "squared_binomial_product",
    "reduced_step",
    "evolve_layers",
    "layer_distribution",
    "layer_distribution_series",
    "layer_mean",
    "conserved_quantity_series",
    "hitting_amplitude_closed_form",
    "classical_hitting_probability",
    "classical_initial_distribution",
    "classical_walk_step",
    "per_vertex_probabilities",
    "hitting_ratio_table",
]

# Largest dimension the ``layers`` command and ``run_search`` accept.  The
# layer distribution weighs each layer by C(d, w) as a float, which
# overflows above d = 1029; the uniform search start puts 1/(d * 2**d) on
# each edge, which stops being a normal float above d = 1012.
MAX_LAYER_DIM = 1000


@dataclass
class LayerState:
    """Layer coefficients of a symmetric edge state.

    ``up`` and ``down`` both have length d+1 and are indexed by the layer
    of the vertex the edge leaves.  ``up[d]`` and ``down[0]`` do not label
    hypercube edges and are pinned to zero (layer d has no up-edges, layer
    0 no down-edges).
    """

    d: int
    up: NDArray[np.complex128]
    down: NDArray[np.complex128]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValidationError(f"dimension must be >= 1 (got {self.d})")
        self.up = np.asarray(self.up, dtype=np.complex128)
        self.down = np.asarray(self.down, dtype=np.complex128)
        if self.up.shape != (self.d + 1,) or self.down.shape != (self.d + 1,):
            raise ValidationError(
                f"layer arrays must have shape ({self.d + 1},), got {self.up.shape} / {self.down.shape}"
            )
        if self.up[self.d] != 0 or self.down[0] != 0:
            raise ValidationError("up[d] and down[0] are structural zeros of a layer state")

    def copy(self) -> "LayerState":
        return LayerState(self.d, self.up.copy(), self.down.copy())


def zero_layer_state(d: int) -> LayerState:
    return LayerState(d, np.zeros(d + 1, np.complex128), np.zeros(d + 1, np.complex128))


def origin_state(d: int) -> LayerState:
    """All weight on the d edges leaving the all-zeros vertex: up[0] = 1/sqrt(d)."""
    s = zero_layer_state(d)
    s.up[0] = 1.0 / math.sqrt(d)
    return s


def corner_pair_state(d: int) -> LayerState:
    """Equal weight on both extreme vertices: up[0] = down[d] = 1/sqrt(2d)."""
    s = zero_layer_state(d)
    amp = 1.0 / math.sqrt(2 * d)
    s.up[0] = amp
    s.down[d] = amp
    return s


def middle_state(d: int) -> LayerState:
    """Equal amplitude on all edges of layer d//2 + 1, unit edge-counting norm.

    Both travel directions at w0 = d//2 + 1 carry the same amplitude
    1/sqrt(d * C(d, w0)); for w0 = d only the down coefficient exists.
    """
    w0 = d // 2 + 1
    s = zero_layer_state(d)
    c = math.comb(d, w0)
    weight = c * w0 + (c * (d - w0) if w0 < d else 0)
    amp = 1.0 / math.sqrt(weight)
    if w0 < d:
        s.up[w0] = amp
    s.down[w0] = amp
    return s


def _binomials(d: int) -> NDArray[np.float64]:
    return np.array([math.comb(d, w) for w in range(d + 1)], dtype=np.float64)


def _distribution(
    up: NDArray[np.complex128], down: NDArray[np.complex128], b: NDArray[np.float64]
) -> NDArray[np.float64]:
    """C(d,w)[(d-w)|up[w]|^2 + w|down[w]|^2] on raw layer arrays, ``b`` = ``_binomials(d)``."""
    d = up.shape[0] - 1
    w = np.arange(d + 1, dtype=np.float64)
    return b * ((d - w) * np.abs(up) ** 2 + w * np.abs(down) ** 2)


def edge_counting_norm(s: LayerState) -> float:
    """Squared norm of the embedded state: sum_w C(d,w)[(d-w)|up|^2 + w|down|^2]."""
    return float(np.sum(_distribution(s.up, s.down, _binomials(s.d))))


def squared_binomial_product(s: LayerState) -> float:
    """Audit quantity sum_w C(d,w)^2 (|up|^2 + |down|^2); not conserved in general."""
    b = _binomials(s.d)
    return float(np.sum(b * b * (np.abs(s.up) ** 2 + np.abs(s.down) ** 2)))


def reduced_step(s: LayerState, c: MultiportCoeffs) -> LayerState:
    """One walk step on layer coefficients.

    new_up[w]   = t*w*up[w-1]       + [t*(d-w-1) + r]*down[w+1]
    new_down[w] = t*(d-w)*down[w+1] + [t*(w-1)   + r]*up[w-1]

    with out-of-range coefficients contributing zero.  Conserves the
    edge-counting norm.
    """
    if c.degree != s.d:
        raise ValidationError(f"coefficient degree {c.degree} != dimension {s.d}")
    new_up, new_down = _layer_kernel(s.up, s.down, _layer_factors(s.d, c.r, c.t))
    return LayerState(s.d, new_up, new_down)


def _layer_factors(
    d: int, r: complex | NDArray[np.complex128], t: complex | NDArray[np.complex128]
) -> tuple[NDArray[np.complex128], ...]:
    """The four per-layer factors of the ``reduced_step`` formula, w = 0..d.

    ``(t*w, t*(d-w-1) + r, t*(d-w), t*(w-1) + r)``: the weights of up[w-1]
    and down[w+1] in new_up[w], then of down[w+1] and up[w-1] in
    new_down[w].  ``r`` and ``t`` are either scalars or length-(d+1) arrays
    indexed by the layer of the scattering vertex, so one layer (the marked
    vertex of a search) can carry its own coefficients.  They depend only on
    the walk, so a stepping loop computes them once.
    """
    w = np.arange(d + 1)
    return t * w, t * (d - w - 1) + r, t * (d - w), t * (w - 1) + r


def _layer_kernel(
    up: NDArray[np.complex128],
    down: NDArray[np.complex128],
    factors: tuple[NDArray[np.complex128], ...],
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """The ``reduced_step`` formula on raw layer arrays, with no validation."""
    d = up.shape[0] - 1
    up_from_below, up_from_above, down_from_above, down_from_below = factors
    up_prev = np.concatenate(([0.0], up[:d]))  # up[w-1]
    down_next = np.concatenate((down[1:], [0.0]))  # down[w+1]
    new_up = up_from_below * up_prev + up_from_above * down_next
    new_down = down_from_above * down_next + down_from_below * up_prev
    new_up[d] = 0.0
    new_down[0] = 0.0
    return new_up, new_down


def evolve_layers(s: LayerState, c: MultiportCoeffs, n: int) -> LayerState:
    if n < 0:
        raise ValidationError(f"step count must be >= 0 (got {n})")
    out = s.copy()
    for _ in range(n):
        out = reduced_step(out, c)
    return out


def layer_distribution(s: LayerState) -> NDArray[np.float64]:
    """Probability per layer: C(d,w)[(d-w)|up[w]|^2 + w|down[w]|^2]."""
    return _distribution(s.up, s.down, _binomials(s.d))


def layer_distribution_series(
    d: int, c: MultiportCoeffs, init: LayerState, n_max: int
) -> NDArray[np.float64]:
    """Matrix of layer probabilities, row n = distribution after n steps."""
    if init.d != d:
        raise ValidationError(f"initial state dimension {init.d} != {d}")
    if c.degree != d:
        raise ValidationError(f"coefficient degree {c.degree} != dimension {d}")
    if n_max < 0:
        raise ValidationError(f"step count must be >= 0 (got {n_max})")
    b = _binomials(d)
    factors = _layer_factors(d, c.r, c.t)
    out = np.empty((n_max + 1, d + 1), dtype=np.float64)
    up, down = init.up, init.down
    out[0] = _distribution(up, down, b)
    for n in range(1, n_max + 1):
        up, down = _layer_kernel(up, down, factors)
        out[n] = _distribution(up, down, b)
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
    s = init.copy()
    edge[0] = edge_counting_norm(s)
    squared[0] = squared_binomial_product(s)
    for n in range(1, n_max + 1):
        s = reduced_step(s, c)
        edge[n] = edge_counting_norm(s)
        squared[n] = squared_binomial_product(s)
    return edge, squared


def hitting_amplitude_closed_form(d: int, c: MultiportCoeffs) -> complex:
    """Amplitude on one far-corner down-edge after exactly d steps from ``origin_state``.

    Equals [t(d-1) + r] * (d-1)! * t**(d-1) / sqrt(d).  Above d = 20 the
    factorial is folded into log space to avoid float overflow.
    """
    if c.degree != d:
        raise ValidationError(f"coefficient degree {c.degree} != dimension {d}")
    r, t = c.r, c.t
    front = t * (d - 1) + r
    if d <= 20:
        return front * math.factorial(d - 1) * t ** (d - 1) / math.sqrt(d)
    if t == 0:
        return 0.0j
    log_term = math.lgamma(d) + (d - 1) * cmath.log(t) - 0.5 * math.log(d)
    return front * cmath.exp(log_term)


def classical_hitting_probability(d: int) -> float:
    """Probability d!/d**d of the classical walk crossing corner to corner in d steps."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1 (got {d})")
    if d <= 20:
        return math.factorial(d) / d**d
    return math.exp(math.lgamma(d + 1) - d * math.log(d))


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


def hitting_ratio_table(d_max: int) -> NDArray[np.float64]:
    """Rows (d, p_classical, p_quantum, ratio) for d = 2..d_max, diffusion coefficients.

    p_quantum is the squared closed-form hitting amplitude; the ratio grows
    monotonically from 1 at d = 2.
    """
    if d_max < 2:
        raise ValidationError(f"d_max must be >= 2 (got {d_max})")
    rows = np.empty((d_max - 1, 4), dtype=np.float64)
    for i, d in enumerate(range(2, d_max + 1)):
        p_c = classical_hitting_probability(d)
        p_q = abs(hitting_amplitude_closed_form(d, grover_coeffs(d))) ** 2
        rows[i] = (d, p_c, p_q, p_q / p_c)
    return rows
