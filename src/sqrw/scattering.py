"""The hypercube as a scattering potential between two semi-infinite tails.

One tail of perfectly transmitting two-port vertices (r = 0, t = 1) is
attached to the all-zeros vertex, another to the all-ones vertex, so those
two corners become (d+1)-ports with their own boundary coefficients
(default 2/(d+1) - 1 and 2/(d+1)).  Tail sites are numbered ..., -2, -1 on
the left and d+1, d+2, ... on the right; every tail site carries one
amplitude per travel direction.

The symmetric reduced picture is the layer walk of ``sqrw.layers`` with
its exit slots active: ``down[0]`` leaves vertex 0...0 onto the left tail,
``up[d]`` leaves the far vertex onto the right tail.  The step is the layer
kernel with the corners as parameters, not a second update rule: layers 0
and d scatter with (rb, tb), the incoming tail amplitudes left_in (site -1)
and right_in (site d+1) feed them, and four entries of the factor rows
``below`` (weights of up[w-1]) and ``above`` (weights of down[w+1]) are
tail ports:

    below[0, 0] = tb   (left_in  -> up[0])
    below[1, 0] = rb   (left_in  -> down[0], back onto the left tail)
    above[0, d] = rb   (right_in -> up[d], back onto the right tail)
    above[1, d] = tb   (right_in -> down[d])

The interior formula gives the other corner factors, e.g.
up[0]' = tb * left_in + [(d-1) tb + rb] * down[1].  The right_in input is
zero in the standard source-on-the-left run but is required for exact
unitarity, so it is kept.

Stored tails are truncated at L sites.  A tail site is a two-port of the
same line (``LayerState(d, line, L)``, ``sqrw.layers``), so amplitude moves
ballistically along a tail, one site per step: a run of n steps with
L >= n + 1 never reaches the cut and the truncation is exact; reaching it
raises ``TruncationError``.

Detection probability at step n is the instantaneous weight on the edge
leaving the far vertex onto the right tail (``up[d]``); a cumulative
running sum is the alternative detector reading, emitted next to it by the
CLI since either convention is defensible.

Any start on the edges leaving 0...0 reduces to this walk.  Its exit
amplitudes are linear in the start amplitudes gamma_j on |0...0; j>, and
no permutation of the directions changes them, because a permutation maps
the tailed cube onto itself and fixes both corners and both tails.  A
linear functional that no permutation changes has equal coefficients, so
it is sum(gamma) times one number.  Hence, exactly and at every step, the
exit amplitudes of any such start are sum(gamma)/sqrt(d) times those of
the layer walk from ``origin_state`` (gamma_j = 1/sqrt(d));
``interferometer_amplitude`` is their closed form at step d.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.typing import NDArray

from .errors import TruncationError, ValidationError
from .layers import LayerState, _layer_factors, _layer_walk, zero_layer_state
from .multiport import MultiportCoeffs, require_valid

__all__ = [
    "boundary_coeffs",
    "initial_tail_photon",
    "scatter_step",
    "detection_probability_series",
    "interferometer_amplitude",
]


def boundary_coeffs(d: int) -> MultiportCoeffs:
    """Default (d+1)-port coefficients of the two tail-carrying corners."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1 (got {d})")
    return MultiportCoeffs(r=2.0 / (d + 1) - 1.0, t=2.0 / (d + 1), degree=d + 1)


def _truncation_message(tail_length: int) -> str:
    return (
        f"outgoing amplitude reached the tail cut at length {tail_length}; "
        "increase the tail length beyond the step count"
    )


def _check_tail_length(tail_length: int) -> None:
    if tail_length < 1:
        raise ValidationError(f"tail length must be >= 1 (got {tail_length})")


def initial_tail_photon(d: int, tail_length: int) -> LayerState:
    """Photon at left-tail site -1 heading toward the cube."""
    _check_tail_length(tail_length)
    s = zero_layer_state(d, tail_length)
    s.left_in[0] = 1.0
    return s


def scatter_step(s: LayerState, c: MultiportCoeffs, b: MultiportCoeffs) -> LayerState:
    """One step of ``_layer_walk`` on the tailed line; ``b`` is the (d+1)-port boundary pair."""
    d, L = s.d, s.tail_length
    _check_tail_length(L)
    require_valid(c, degree=d)
    require_valid(b, degree=d + 1)
    if s.left_out[-1] != 0 or s.right_out[-1] != 0:
        raise TruncationError(_truncation_message(L))

    below, above = np.zeros((2, 2, d + 1 + 2 * L), np.complex128)
    below[0] = above[1] = 1.0  # tail two-ports: up[w-1] -> up[w], down[w+1] -> down[w]
    below[:, L : L + d + 1], above[:, L : L + d + 1] = _layer_factors(d, c.r, c.t, b)
    return LayerState(d, next(_layer_walk(s.line, 1, (below, above)))[1], L)


def detection_probability_series(
    d: int,
    c: MultiportCoeffs,
    b: MultiportCoeffs | None = None,
    n_max: int = 100,
    tail_length: int | None = None,
) -> NDArray[np.float64]:
    """|up[d]|^2 after each step for a photon sent in from left-tail site -1.

    Entry n is the instantaneous probability of occupying the detector edge
    after n steps; it is exactly zero through n = d (one layer per step).
    The cumulative detector reading is ``np.cumsum`` of this series.
    Raises ``TruncationError`` exactly when stepping ``scatter_step`` for
    ``n_max`` steps would: when amplitude leaving the cube has time to
    reach the tail cut.
    """
    if b is None:
        b = boundary_coeffs(d)
    if tail_length is None:
        tail_length = n_max + 2
    if n_max < 0:
        raise ValidationError(f"step count must be >= 0 (got {n_max})")
    _check_tail_length(tail_length)
    require_valid(c, degree=d)
    require_valid(b, degree=d + 1)
    # Only step 1 takes amplitude from a tail (the photon at site -1).  What
    # leaves onto a tail never comes back, so the tails are unstored sinks
    # and the tail length is only a number: an exit at step k reaches the
    # cut at step k + L + 1.  The walk is the tail-free line, its pads the
    # tail sites next to the cube: the photon is on the left pad.
    start = zero_layer_state(d).line
    start[0] = 1.0
    series = np.empty(n_max + 1, dtype=np.float64)
    # column d + 1 is up[d] (onto the right tail), d + 2 is down[0] (onto the left);
    # an exit in a state n <= n_max - tail_length - 1 reaches the cut
    n = 0
    for block in _layer_walk(start, n_max, _layer_factors(d, c.r, c.t, b)):
        k = len(block)
        # per element on Python scalars: the array forms round some values differently
        series[n : n + k] = [abs(z) ** 2 for z in block[:, d + 1].tolist()]
        if np.any(block[: max(n_max - tail_length - n, 0), d + 1 : d + 3]):
            raise TruncationError(_truncation_message(tail_length))
        n += k
    return series


def interferometer_amplitude(d: int, gamma: NDArray[np.complex128], c: MultiportCoeffs) -> complex:
    """Closed-form amplitude on the right exit edge after d steps.

    The initial state puts amplitude gamma[j] on each edge |0...0; j>; the
    corners scatter with ``boundary_coeffs``.  All shortest traversals
    contribute t**(d-1) * tb, and there are (d-1)! of them per initial
    direction, so the result is

        sum_j gamma_j * (d-1)! * t**(d-1) * tb

    and depends on gamma only through its sum, which is what makes the
    tailed hypercube act as a two-arm interferometer.  Above d = 20 the
    factorial is folded into log space to avoid float overflow.
    """
    gamma = np.asarray(gamma, dtype=np.complex128)
    if gamma.shape != (d,):
        raise ValidationError(f"gamma must have shape ({d},), got {gamma.shape}")
    require_valid(c, degree=d)
    tb = boundary_coeffs(d).t
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        total = np.sum(gamma)
        if d <= 20:
            amp = complex(total * math.factorial(d - 1) * c.t ** (d - 1) * tb)
        elif c.t == 0:
            amp = 0j
        else:
            amp = complex(total * cmath.exp(math.lgamma(d) + (d - 1) * cmath.log(c.t)) * tb)
        if not (np.isfinite(total) and np.isfinite(np.abs(amp) ** 2)):
            raise ValidationError("gamma must be finite, and so must its sum and |amplitude|**2")
    return amp
