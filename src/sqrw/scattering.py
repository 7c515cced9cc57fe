"""The hypercube as a scattering potential between two semi-infinite tails.

One tail of perfectly transmitting two-port vertices (r = 0, t = 1) is
attached to the all-zeros vertex, another to the all-ones vertex, so those
two corners become (d+1)-ports with their own boundary coefficients
(default 2/(d+1) - 1 and 2/(d+1)).  Tail sites are numbered ..., -2, -1 on
the left and d+1, d+2, ... on the right; every tail site carries one
amplitude per travel direction.

The symmetric reduced picture is the padded line of ``sqrw.layers`` with
its exit slots and pads active.  ``down[0]`` leaves vertex 0...0 onto the
left tail and ``up[d]`` leaves the far vertex onto the right tail; the
left and right pad are what the tails send in (sites -1 and d+1, heading
toward the cube).  The step is the layer kernel with the corners as
parameters, not a second update rule: layers 0 and d scatter with
(rb, tb), and four entries of the factor rows ``below`` (weights of
up[w-1]) and ``above`` (weights of down[w+1]) are tail ports:

    below[0, 0] = tb   (left pad  -> up[0])
    below[1, 0] = rb   (left pad  -> down[0], back onto the left tail)
    above[0, d] = rb   (right pad -> up[d], back onto the right tail)
    above[1, d] = tb   (right pad -> down[d])

The interior formula gives the other corner factors, e.g.
up[0]' = tb * left pad + [(d-1) tb + rb] * down[1].

The tails are not stored.  What leaves onto a tail moves away one site per
step and never returns, so a tail only matters at the cube.

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

from .errors import ValidationError
from .layers import LayerState, _abs, _layer_factors, _layer_walk, zero_layer_state
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


def initial_tail_photon(d: int) -> LayerState:
    """Photon on the left pad: left-tail site -1, heading toward the cube."""
    s = zero_layer_state(d)
    s.line[0] = 1.0
    return s


def scatter_step(s: LayerState, c: MultiportCoeffs, b: MultiportCoeffs) -> LayerState:
    """One step of the tailed cube; ``b`` is the (d+1)-port boundary pair.

    The pads of ``s`` feed the corners, the new exits land in ``up[d]`` and
    ``down[0]``, and the exits of ``s`` leave for good.
    """
    require_valid(c, degree=s.d)
    require_valid(b, degree=s.d + 1)
    states = np.empty((2, len(s.line)), np.complex128)
    return LayerState(s.d, _layer_walk(s.line, _layer_factors(s.d, c.r, c.t, b), states, lambda block: block)[1])


def detection_probability_series(
    d: int, c: MultiportCoeffs, b: MultiportCoeffs | None = None, n_max: int = 100
) -> NDArray[np.float64]:
    """|up[d]|^2 after each step for a photon sent in from left-tail site -1.

    Entry n is the instantaneous probability of occupying the detector edge
    after n steps; it is exactly zero through n = d (one layer per step).
    The cumulative detector reading is ``np.cumsum`` of this series.
    """
    if b is None:
        b = boundary_coeffs(d)
    if n_max < 0:
        raise ValidationError(f"step count must be >= 0 (got {n_max})")
    require_valid(c, degree=d)
    require_valid(b, degree=d + 1)
    return _layer_walk(
        initial_tail_photon(d).line,
        _layer_factors(d, c.r, c.t, b),
        np.empty(n_max + 1),
        lambda block: np.float_power(_abs(block[:, d + 1]), 2),  # column d + 1 is up[d]
    )


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
