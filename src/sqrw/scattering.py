"""The hypercube as a scattering potential between two semi-infinite tails.

One tail of perfectly transmitting two-port vertices (r = 0, t = 1) is
attached to the all-zeros vertex, another to the all-ones vertex, so those
two corners become (d+1)-ports with their own boundary coefficients
(default 2/(d+1) - 1 and 2/(d+1)).  Tail sites are numbered ..., -2, -1 on
the left and d+1, d+2, ... on the right; every tail site carries one
amplitude per travel direction.

The symmetric reduced picture extends the layer arrays by activating their
two structural corner slots: ``down[0]`` becomes the amplitude leaving
vertex 0...0 onto the left tail and ``up[d]`` the amplitude leaving the far
vertex onto the right tail.  Boundary updates are

    up[0]'   = tb * left_in      + [(d-1) tb + rb] * down[1]
    down[0]' = rb * left_in      + d tb * down[1]
    up[d]'   = d tb * up[d-1]    + rb * right_in
    down[d]' = [(d-1) tb + rb] * up[d-1] + tb * right_in

where left_in / right_in are the tail amplitudes about to enter the cube.
The two right_in terms are zero in the standard source-on-the-left run but
are required for exact unitarity, so they are kept.

Tails are truncated at L sites.  Amplitude moves ballistically along a
tail, one site per step, so a run of n steps with L >= n + 1 never reaches
the cut and the truncation is exact; reaching it raises ``TruncationError``.

Detection probability at step n is the instantaneous weight on the edge
leaving the far vertex onto the right tail (``up[d]``); a cumulative
running sum is the alternative detector reading, emitted next to it by the
CLI since either convention is defensible.

Non-symmetric initial states (one amplitude per direction at vertex 0...0)
break the layer reduction, so a full-edge-state variant with tails is also
provided; it backs the interferometer check, where the closed-form traversal
amplitude sum(gamma_j) * (d-1)! * t**(d-1) * tb depends on the initial
direction amplitudes only through their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import TruncationError, ValidationError
from .hypercube import ensure_full_state_fits, state_dimension, zero_full_state
from .layers import LayerState, _layer_factors, _layer_kernel, edge_counting_norm
from .multiport import MultiportCoeffs, require_valid

__all__ = [
    "boundary_coeffs",
    "ScatterState",
    "initial_tail_photon",
    "scatter_from_layer",
    "scatter_layer_part",
    "scatter_norm",
    "scatter_step",
    "detection_probability_series",
    "count_local_maxima",
    "FullTailState",
    "full_tail_from_cube",
    "full_tail_norm",
    "full_tail_step",
    "full_tail_detection_series",
    "interferometer_amplitude",
    "simulate_interferometer_amplitude",
]


def boundary_coeffs(d: int) -> MultiportCoeffs:
    """Default (d+1)-port coefficients of the two tail-carrying corners."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1 (got {d})")
    return MultiportCoeffs(r=2.0 / (d + 1) - 1.0, t=2.0 / (d + 1), degree=d + 1)


def _check_coeffs(d: int, c: MultiportCoeffs, b: MultiportCoeffs | None) -> None:
    require_valid(c)
    if c.degree != d:
        raise ValidationError(f"interior coefficient degree {c.degree} != dimension {d}")
    if b is not None:
        require_valid(b)
        if b.degree != d + 1:
            raise ValidationError(f"boundary coefficient degree {b.degree} != d + 1 = {d + 1}")


def _truncation_message(tail_length: int) -> str:
    return (
        f"outgoing amplitude reached the tail cut at length {tail_length}; "
        "increase the tail length beyond the step count"
    )


@dataclass
class ScatterState:
    """Layer-reduced state extended with two truncated tails.

    ``up``/``down`` are layer arrays with the corner slots active (see the
    module docstring).  Tail arrays are indexed by distance from the cube:
    ``left_in[i]`` / ``left_out[i]`` sit at site -(1+i) and move toward /
    away from the cube; ``right_out[i]`` / ``right_in[i]`` sit at site
    d+1+i and move away / toward.
    """

    d: int
    up: NDArray[np.complex128]
    down: NDArray[np.complex128]
    left_in: NDArray[np.complex128]
    left_out: NDArray[np.complex128]
    right_out: NDArray[np.complex128]
    right_in: NDArray[np.complex128]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValidationError(f"dimension must be >= 1 (got {self.d})")
        for name in ("up", "down", "left_in", "left_out", "right_out", "right_in"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.complex128))
        if self.up.shape != (self.d + 1,) or self.down.shape != (self.d + 1,):
            raise ValidationError("layer arrays must have length d + 1")
        L = self.left_in.shape[0]
        for name in ("left_out", "right_out", "right_in"):
            if getattr(self, name).shape != (L,):
                raise ValidationError("all four tail arrays must share one length")

    @property
    def tail_length(self) -> int:
        return int(self.left_in.shape[0])

    def copy(self) -> "ScatterState":
        return ScatterState(
            self.d,
            self.up.copy(),
            self.down.copy(),
            self.left_in.copy(),
            self.left_out.copy(),
            self.right_out.copy(),
            self.right_in.copy(),
        )


def initial_tail_photon(d: int, tail_length: int) -> ScatterState:
    """Photon at left-tail site -1 heading toward the cube."""
    s = _empty_scatter(d, tail_length)
    s.left_in[0] = 1.0
    return s


def _empty_scatter(d: int, tail_length: int) -> ScatterState:
    if tail_length < 1:
        raise ValidationError(f"tail length must be >= 1 (got {tail_length})")
    z = np.zeros(tail_length, dtype=np.complex128)
    return ScatterState(
        d,
        np.zeros(d + 1, np.complex128),
        np.zeros(d + 1, np.complex128),
        z.copy(),
        z.copy(),
        z.copy(),
        z.copy(),
    )


def scatter_from_layer(layer: LayerState, tail_length: int) -> ScatterState:
    """Place a pure layer state inside empty tails."""
    s = _empty_scatter(layer.d, tail_length)
    s.up[:] = layer.up
    s.down[:] = layer.down
    return s


def scatter_layer_part(s: ScatterState) -> LayerState:
    """The hypercube-proper part of a scattering state (corner slots dropped)."""
    up = s.up.copy()
    down = s.down.copy()
    up[s.d] = 0.0
    down[0] = 0.0
    return LayerState(s.d, up, down)


def scatter_norm(s: ScatterState) -> float:
    """Total squared amplitude: edge-counting layers + both exit edges + tails."""
    total = edge_counting_norm(scatter_layer_part(s))
    total += abs(s.up[s.d]) ** 2 + abs(s.down[0]) ** 2
    for arr in (s.left_in, s.left_out, s.right_out, s.right_in):
        total += float(np.sum(np.abs(arr) ** 2))
    return total


def _boundary_rows(
    up: NDArray[np.complex128],
    down: NDArray[np.complex128],
    left_arriving: complex,
    right_arriving: complex,
    b: MultiportCoeffs,
) -> tuple[complex, complex, complex, complex]:
    """New ``up[0], down[0], up[d], down[d]``: the two (d+1)-port corners."""
    d = up.shape[0] - 1
    rb, tb = b.r, b.t
    return (
        tb * left_arriving + ((d - 1) * tb + rb) * down[1],
        rb * left_arriving + d * tb * down[1],
        d * tb * up[d - 1] + rb * right_arriving,
        ((d - 1) * tb + rb) * up[d - 1] + tb * right_arriving,
    )


def scatter_step(
    s: ScatterState, c: MultiportCoeffs, b: MultiportCoeffs | None
) -> ScatterState:
    """One step with tails.

    ``b`` is the (d+1)-port boundary pair; passing ``None`` decouples the
    tails entirely (corner vertices act as plain degree-d interior vertices,
    which is only meaningful while the tails are empty, and reproduces
    ``reduced_step`` on the layer part exactly).
    """
    d = s.d
    _check_coeffs(d, c, b)
    L = s.tail_length
    if b is None:
        if any(
            np.any(arr != 0) for arr in (s.left_in, s.left_out, s.right_out, s.right_in)
        ) or s.up[d] != 0 or s.down[0] != 0:
            raise ValidationError("decoupled boundaries require empty tails")

    if s.left_out[L - 1] != 0 or s.right_out[L - 1] != 0:
        raise TruncationError(_truncation_message(L))

    out = _empty_scatter(d, L)
    out.up[:], out.down[:] = _layer_kernel(s.up, s.down, _layer_factors(d, c.r, c.t))
    if b is None:
        # Plain hypercube boundaries: the kernel's degree-d corner rows stand.
        return out
    out.up[0], out.down[0], out.up[d], out.down[d] = _boundary_rows(
        s.up, s.down, s.left_in[0], s.right_in[0], b
    )

    # Ballistic tails: one site per step, perfectly transmitting.
    out.left_in[: L - 1] = s.left_in[1:]
    out.left_out[1:] = s.left_out[: L - 1]
    out.left_out[0] = s.down[0]
    out.right_in[: L - 1] = s.right_in[1:]
    out.right_out[1:] = s.right_out[: L - 1]
    out.right_out[0] = s.up[d]
    return out


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
    s = initial_tail_photon(d, tail_length)
    _check_coeffs(d, c, b)
    # Only step 1 takes amplitude from a tail (the photon at site -1).  What
    # leaves onto a tail never comes back, so the tails are unstored sinks:
    # an exit at step k reaches the cut at step k + L + 1.
    factors = _layer_factors(d, c.r, c.t)
    up, down, arriving = s.up, s.down, s.left_in[0]
    series = np.zeros(n_max + 1, dtype=np.float64)
    for n in range(1, n_max + 1):
        new_up, new_down = _layer_kernel(up, down, factors)
        new_up[0], new_down[0], new_up[d], new_down[d] = _boundary_rows(up, down, arriving, 0j, b)
        up, down, arriving = new_up, new_down, 0j
        series[n] = abs(up[d]) ** 2
        if (up[d] != 0 or down[0] != 0) and n + tail_length + 1 <= n_max:
            raise TruncationError(_truncation_message(tail_length))
    return series


def count_local_maxima(series: NDArray[np.float64], floor: float = 1e-12) -> int:
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


# ---------------------------------------------------------------------------
# Full edge state with tails (non-symmetric initial conditions).
# ---------------------------------------------------------------------------


@dataclass
class FullTailState:
    """Full (2**d, d) cube state plus the two exit edges and truncated tails."""

    cube: NDArray[np.complex128]
    exit_left: complex
    exit_right: complex
    left_in: NDArray[np.complex128]
    left_out: NDArray[np.complex128]
    right_out: NDArray[np.complex128]
    right_in: NDArray[np.complex128]

    def __post_init__(self) -> None:
        self.cube = np.asarray(self.cube, dtype=np.complex128)
        state_dimension(self.cube)
        L = self.left_in.shape[0]
        for name in ("left_out", "right_out", "right_in"):
            if getattr(self, name).shape != (L,):
                raise ValidationError("all four tail arrays must share one length")

    @property
    def d(self) -> int:
        return state_dimension(self.cube)

    @property
    def tail_length(self) -> int:
        return int(self.left_in.shape[0])


def full_tail_from_cube(cube: NDArray[np.complex128], tail_length: int) -> FullTailState:
    if tail_length < 1:
        raise ValidationError(f"tail length must be >= 1 (got {tail_length})")
    z = np.zeros(tail_length, dtype=np.complex128)
    return FullTailState(cube.copy(), 0.0, 0.0, z.copy(), z.copy(), z.copy(), z.copy())


def full_tail_norm(s: FullTailState) -> float:
    total = float(np.sum(np.abs(s.cube) ** 2))
    total += abs(s.exit_left) ** 2 + abs(s.exit_right) ** 2
    for arr in (s.left_in, s.left_out, s.right_out, s.right_in):
        total += float(np.sum(np.abs(arr) ** 2))
    return total


def full_tail_step(
    s: FullTailState, c: MultiportCoeffs, b: MultiportCoeffs | None = None
) -> FullTailState:
    """One step of the full walk with tails attached to 0...0 and 1...1."""
    from .evolution import gather_incoming  # local import to keep module load light

    d = s.d
    _check_coeffs(d, c, b)
    if b is None:
        b = boundary_coeffs(d)
    L = s.tail_length
    if s.left_out[L - 1] != 0 or s.right_out[L - 1] != 0:
        raise TruncationError(_truncation_message(L))
    far = (1 << d) - 1
    incoming = gather_incoming(s.cube)
    totals = incoming.sum(axis=1)
    out_cube = (c.r - c.t) * incoming + c.t * totals[:, None]

    rb, tb = b.r, b.t
    total_origin = totals[0] + s.left_in[0]
    total_far = totals[far] + s.right_in[0]
    out_cube[0, :] = (rb - tb) * incoming[0, :] + tb * total_origin
    out_cube[far, :] = (rb - tb) * incoming[far, :] + tb * total_far
    new_exit_left = (rb - tb) * s.left_in[0] + tb * total_origin
    new_exit_right = (rb - tb) * s.right_in[0] + tb * total_far

    out = full_tail_from_cube(out_cube, L)
    out.exit_left = new_exit_left
    out.exit_right = new_exit_right
    out.left_in[: L - 1] = s.left_in[1:]
    out.left_out[1:] = s.left_out[: L - 1]
    out.left_out[0] = s.exit_left
    out.right_in[: L - 1] = s.right_in[1:]
    out.right_out[1:] = s.right_out[: L - 1]
    out.right_out[0] = s.exit_right
    return out


def full_tail_detection_series(
    d: int,
    c: MultiportCoeffs,
    b: MultiportCoeffs | None = None,
    n_max: int = 100,
    tail_length: int | None = None,
) -> NDArray[np.float64]:
    """Reference detection series from the full edge-state walk with tails."""
    ensure_full_state_fits(d)
    if tail_length is None:
        tail_length = n_max + 2
    s = full_tail_from_cube(zero_full_state(d), tail_length)
    s.left_in[0] = 1.0
    series = np.empty(n_max + 1, dtype=np.float64)
    series[0] = abs(s.exit_right) ** 2
    for n in range(1, n_max + 1):
        s = full_tail_step(s, c, b)
        series[n] = abs(s.exit_right) ** 2
    return series


def interferometer_amplitude(
    d: int,
    gamma: NDArray[np.complex128],
    c: MultiportCoeffs,
    b: MultiportCoeffs | None = None,
) -> complex:
    """Closed-form amplitude on the right exit edge after d steps.

    The initial state puts amplitude gamma[j] on each edge |0...0; j>.  All
    shortest traversals contribute t**(d-1) * tb, and there are (d-1)! of
    them per initial direction, so the result is

        sum_j gamma_j * (d-1)! * t**(d-1) * tb

    and depends on gamma only through its sum, which is what makes the
    tailed hypercube act as a two-arm interferometer.
    """
    gamma = np.asarray(gamma, dtype=np.complex128)
    if gamma.shape != (d,):
        raise ValidationError(f"gamma must have shape ({d},), got {gamma.shape}")
    _check_coeffs(d, c, b)
    if b is None:
        b = boundary_coeffs(d)
    return complex(np.sum(gamma) * math.factorial(d - 1) * c.t ** (d - 1) * b.t)


def simulate_interferometer_amplitude(
    d: int,
    gamma: NDArray[np.complex128],
    c: MultiportCoeffs,
    b: MultiportCoeffs | None = None,
) -> complex:
    """Same amplitude from d steps of the full walk with tails."""
    gamma = np.asarray(gamma, dtype=np.complex128)
    if gamma.shape != (d,):
        raise ValidationError(f"gamma must have shape ({d},), got {gamma.shape}")
    ensure_full_state_fits(d)
    cube = zero_full_state(d)
    cube[0, :] = gamma
    s = full_tail_from_cube(cube, d + 2)
    for _ in range(d):
        s = full_tail_step(s, c, b)
    return complex(s.exit_right)
