"""Symmetry-reduced walk on Hamming layers.

States that share one amplitude on every edge of the same (layer, direction)
class are closed under the walk.  Such a state is described by two length
d+1 arrays: ``up[w]`` is the amplitude on each edge leaving a weight-w
vertex toward weight w+1, ``down[w]`` toward weight w-1.  One step costs
O(d), which is what makes the d = 50 runs instant.

The physical norm of the embedded state is the edge-counting form

    N = sum_w  C(d, w) * [ (d - w) |up[w]|^2 + w |down[w]|^2 ]

(each layer-w vertex owns d-w up-edges and w down-edges).  This quantity is
conserved exactly by ``reduced_step``.

Every state is the padded line ``[pad, up[0..d], down[0..d], pad]`` of
length 2d + 4 (``LayerState.line``): ``line[1:-1].reshape(2, d + 1)`` is
[up; down], and for layer w ``line[:d + 1]`` is up[w-1] and
``line[-d - 1:]`` is down[w+1].  The pads enter the line on the next step:
they are what the tails of ``sqrw.scattering`` send into the corners, and
``up[d]`` and ``down[0]`` are what the corners send out onto them.  A step
leaves the pads zero: what leaves the line never returns.  A cube without
tails keeps all four zero (``_require_closed``).

``_layer_walk`` is the only code that steps a line: the layer series, the
detection series, the search, ``reduced_step`` and ``scatter_step`` are each
one call of it.  It steps into one preallocated block of states, two ufunc
calls and no allocation per step, and each reader takes a block whole with
one array expression.  The search and detection readings use ``_abs``
(libm ``hypot``) and ``np.float_power(x, 2)`` (libm ``pow``), which round as
Python's ``abs(z)`` and ``x ** 2`` do, where numpy's ``abs`` and ``** 2`` do not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .multiport import MultiportCoeffs, grover_coeffs, require_valid

__all__ = [
    "MAX_LAYER_DIM",
    "MAX_HITTING_DIM",
    "LayerState",
    "zero_layer_state",
    "origin_state",
    "corner_pair_state",
    "middle_state",
    "edge_counting_norm",
    "reduced_step",
    "layer_distribution",
    "layer_distribution_series",
    "hitting_amplitude_closed_form",
    "classical_hitting_probability",
    "hitting_ratio_table",
]

# Largest dimension of a layer distribution and of ``run_search``.  The
# layer distribution weighs each layer by C(d, w) as a float, which
# overflows above d = 1029; the uniform search start puts 1/(d * 2**d) on
# each edge, which stops being a normal float above d = 1012.
MAX_LAYER_DIM = 1000

# Largest d_max of ``hitting_ratio_table``: the last d where d!/d**d is a normal float.
MAX_HITTING_DIM = 712


@dataclass(eq=False)
class LayerState:
    """Layer coefficients of a symmetric edge state on the padded line of the module docstring.

    ``up`` and ``down`` are views of ``line`` of length d+1, indexed by the
    layer of the vertex the edge leaves.  ``up[d]`` and ``down[0]`` are the
    exits onto the right and left tail; they do not label edges of the cube.
    """

    d: int
    line: NDArray[np.complex128]

    def __post_init__(self) -> None:
        d = self.d
        if d < 1:
            raise ValidationError(f"dimension must be >= 1 (got {d})")
        self.line = np.asarray(self.line, dtype=np.complex128)
        if self.line.shape != (2 * d + 4,):
            raise ValidationError(f"line must have length {2 * d + 4}, got {self.line.shape}")
        self.up, self.down = self.line[1:-1].reshape(2, d + 1)


def zero_layer_state(d: int) -> LayerState:
    return LayerState(d, np.zeros(max(2 * d + 4, 0), np.complex128))  # the constructor rejects d < 1


def _require_closed(s: LayerState) -> None:
    if np.any(s.line[[0, s.d + 1, s.d + 2, -1]]):
        raise ValidationError("pads and exits up[d], down[0] are structural zeros of a tail-free layer state")


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
    _require_layer_dim(d)  # before C(d, w0), which takes seconds at d = 10**6
    w0 = d // 2 + 1
    s = zero_layer_state(d)
    c = math.comb(d, w0)
    weight = c * w0 + (c * (d - w0) if w0 < d else 0)
    amp = 1.0 / math.sqrt(weight)
    if w0 < d:
        s.up[w0] = amp
    s.down[w0] = amp
    return s


def _require_layer_dim(d: int) -> None:
    if d > MAX_LAYER_DIM:
        raise ValidationError(f"layer dimension must be at most {MAX_LAYER_DIM} (got {d})")


def _binomials(d: int) -> NDArray[np.float64]:
    _require_layer_dim(d)
    return np.array([math.comb(d, w) for w in range(d + 1)], dtype=np.float64)


def _distribution(
    up: NDArray[np.complex128], down: NDArray[np.complex128], b: NDArray[np.float64]
) -> NDArray[np.float64]:
    """C(d,w)[(d-w)|up[w]|^2 + w|down[w]|^2] along the last axis, ``b`` = ``_binomials(d)``."""
    d = up.shape[-1] - 1
    w = np.arange(d + 1, dtype=np.float64)
    return b * ((d - w) * np.abs(up) ** 2 + w * np.abs(down) ** 2)


def _abs(z: NDArray[np.complex128]) -> NDArray[np.float64]:
    """|z| per element, rounded as Python's ``abs(complex)``: both are libm ``hypot``."""
    return np.hypot(z.real, z.imag)


def edge_counting_norm(s: LayerState) -> float:
    """Squared norm of the embedded state: sum_w C(d,w)[(d-w)|up|^2 + w|down|^2]."""
    return float(np.sum(_distribution(s.up, s.down, _binomials(s.d))))


def reduced_step(s: LayerState, c: MultiportCoeffs) -> LayerState:
    """One walk step on layer coefficients.

    new_up[w]   = t*w*up[w-1]       + [t*(d-w-1) + r]*down[w+1]
    new_down[w] = t*(d-w)*down[w+1] + [t*(w-1)   + r]*up[w-1]

    with out-of-range coefficients contributing zero.  Conserves the
    edge-counting norm.
    """
    _require_closed(s)
    require_valid(c, degree=s.d)
    states = np.empty((2, len(s.line)), np.complex128)
    return LayerState(s.d, _layer_walk(s.line, _layer_factors(s.d, c.r, c.t), states, lambda block: block)[1])


def _layer_factors(
    d: int,
    r: complex | NDArray[np.complex128],
    t: complex | NDArray[np.complex128],
    tails: MultiportCoeffs | None = None,
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """The factors ``(below, above)`` of the ``reduced_step`` formula, w = 0..d.

    ``below = [t*w, t*(w-1) + r]`` holds the weights of up[w-1] in
    (new_up[w], new_down[w]), ``above = [t*(d-w-1) + r, t*(d-w)]`` those of
    down[w+1]; both are (2, d+1).  ``r`` and ``t`` are either scalars or
    length-(d+1) arrays indexed by the layer of the scattering vertex, so
    one layer (the marked vertex of a search) can carry its own
    coefficients.  Without ``tails`` the factors t*d of the slots new_up[d]
    and new_down[0], which are not edges, are zero.  ``tails``, the
    (d+1)-port coefficients of the two corners, makes layers 0 and d
    scatter with them and four factors tail ports, as ``sqrw.scattering``
    sets out.  The factors depend only on the walk, so a stepping loop
    computes them once.
    """
    if tails is not None:
        r, t = np.full(d + 1, r, np.complex128), np.full(d + 1, t, np.complex128)
        r[[0, d]], t[[0, d]] = tails.r, tails.t
    w = np.arange(d + 1)
    below = np.array([t * w, t * (w - 1) + r], np.complex128)
    above = np.array([t * (d - w - 1) + r, t * (d - w)], np.complex128)
    if tails is None:
        below[0, d] = above[1, 0] = 0.0
    else:
        below[:, 0] = tails.t, tails.r
        above[:, d] = tails.r, tails.t
    return below, above


# States per block of ``_layer_walk`` besides the carried-over first one.
_WALK_BLOCK = 256


def _layer_walk(
    line: NDArray[np.complex128],
    factors: tuple[NDArray[np.complex128], NDArray[np.complex128]],
    out: NDArray,
    read: Callable[[NDArray[np.complex128]], NDArray],
) -> NDArray:
    """Walk ``line`` for ``len(out) - 1`` steps of the ``reduced_step`` formula; return ``out``.

    ``factors`` is ``(below, above)`` from ``_layer_factors``.  The states
    are stepped into one buffer of at most ``_WALK_BLOCK`` + 1 rows, and
    each block of k states, after n .. n + k - 1 steps, is read whole:
    ``out[n : n + k] = read(block)``.  The next block overwrites it, so
    a reader that keeps a block copies it.  The caller allocates ``out``,
    so a step count too large to store fails before any step.  The pads of
    ``line`` enter on the first step only; a step leaves them zero.  No
    validation.
    """
    steps = len(out) - 1
    fac = np.stack(factors)  # (2, 2, n)
    n = fac.shape[2]
    width = 2 * n + 2
    # rows of 2n + 4, so that row.reshape(2, n + 2)[:, :n] is [s[:n]; s[-n:]]
    buf = np.zeros((min(steps, _WALK_BLOCK) + 1, width + 2), np.complex128)
    # per-row views made once: indexing them on every step costs a quarter of the step
    src = list(buf.reshape(len(buf), 2, n + 2)[:, :, None, :n])
    dst = list(buf[:, 1 : width - 1].reshape(len(buf), 2, n))
    prod = np.empty_like(fac)
    below_term, above_term = prod  # below * s[:n] and above * s[-n:]
    buf[0, :width] = line
    first = done = 0
    while True:
        k = min(steps - done, len(buf) - 1)
        for x, y in zip(src[:k], dst[1 : k + 1]):
            np.multiply(fac, x, out=prod)
            np.add(below_term, above_term, out=y)
        out[done + first : done + k + 1] = read(buf[first : k + 1, :width])
        done += k
        if done == steps:
            return out
        buf[0] = buf[k]
        first = 1


def layer_distribution(s: LayerState) -> NDArray[np.float64]:
    """Probability per layer: C(d,w)[(d-w)|up[w]|^2 + w|down[w]|^2]."""
    return _distribution(s.up, s.down, _binomials(s.d))


def layer_distribution_series(
    d: int, c: MultiportCoeffs, init: LayerState, n_max: int
) -> NDArray[np.float64]:
    """Matrix of layer probabilities, row n = distribution after n steps."""
    if init.d != d:
        raise ValidationError(f"initial state dimension {init.d} != {d}")
    _require_closed(init)
    require_valid(c, degree=d)
    if n_max < 0:
        raise ValidationError(f"step count must be >= 0 (got {n_max})")
    b = _binomials(d)
    series = np.empty((n_max + 1, d + 1), dtype=np.float64)
    return _layer_walk(
        init.line, _layer_factors(d, c.r, c.t), series, lambda s: _distribution(s[:, 1 : d + 2], s[:, d + 2 : -1], b)
    )


def hitting_amplitude_closed_form(d: int, c: MultiportCoeffs) -> complex:
    """Amplitude on one far-corner down-edge after exactly d steps from ``origin_state``.

    Equals [t(d-1) + r] * (d-1)! * t**(d-1) / sqrt(d).  Above d = 20 the
    factorial is folded into log space to avoid float overflow.
    """
    require_valid(c, degree=d)
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


def hitting_ratio_table(d_max: int) -> NDArray[np.float64]:
    """Rows (d, p_classical, p_quantum, ratio) for d = 2..d_max, diffusion coefficients.

    p_quantum is the squared closed-form hitting amplitude; the ratio grows
    monotonically from 1 at d = 2.
    """
    if not 2 <= d_max <= MAX_HITTING_DIM:
        raise ValidationError(f"d_max must be in 2..{MAX_HITTING_DIM} (got {d_max})")
    rows = np.empty((d_max - 1, 4), dtype=np.float64)
    for i, d in enumerate(range(2, d_max + 1)):
        p_c = classical_hitting_probability(d)
        p_q = abs(hitting_amplitude_closed_form(d, grover_coeffs(d))) ** 2
        rows[i] = (d, p_c, p_q, p_q / p_c)
    return rows
