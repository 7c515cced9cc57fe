"""Marked-vertex search: one vertex reflects with a phase, the rest diffuse.

The marked vertex carries a purely reflecting multiport (t = 0, |r| = 1,
default r = -1) while every other vertex keeps the diffusion coefficients.
The oracle ancilla is folded into this vertex-conditional coin by the usual
phase-kickback identity, so the walk runs on the plain edge space.  Starting
from the uniform superposition over all d * 2**d edges, probability builds
up on the edges around the marked vertex over roughly sqrt(2**d) steps.

``run_search`` never builds the full edge state.  Translation by the marked
vertex commutes with the walk and fixes the uniform start, so the success
series does not depend on which vertex is marked: the mark is moved to
0...0.  The start and the marked coin are then invariant under coordinate
permutations, so the walk stays a layer state (``sqrw.layers``) whose
layer 0 scatters with the marked coefficients (Shenvi, Kempe and Whaley,
PRA 67, 052307).  Success is d |up[0]|^2 on the out-edges of the mark, or
d |down[1]|^2 on its in-edges; each step costs O(d).

``uniform_edge_state`` and ``success_probability`` are the start and the
reading of the same walk on the full edge state, with the mark where it
is; the test suite steps that walk as the reference for ``run_search``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .evolution import vertex_probability
from .evolution import step  # noqa: F401  (perfbench/spans.py wraps it)
from .hypercube import direction_mask, ensure_full_state_fits
from .layers import MAX_LAYER_DIM, _abs, _layer_factors, _layer_walk, zero_layer_state
from .multiport import MultiportCoeffs, grover_coeffs, phase_coeffs, require_valid

__all__ = [
    "SearchConfig",
    "uniform_edge_state",
    "success_probability",
    "run_search",
]


@dataclass(frozen=True)
class SearchConfig:
    """Search run parameters.

    ``metric`` selects the success reading: probability on the edges
    leaving the marked vertex ("out", default) or on the edges entering it
    ("in"); a hit query may be considered answered by either endpoint of
    the occupied edge.
    """

    dim: int
    marked: int
    steps: int
    marked_coeffs: MultiportCoeffs | None = None
    coeffs: MultiportCoeffs | None = None
    metric: str = "out"

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_LAYER_DIM:  # it runs on the layer walk
            raise ValidationError(f"search dimension must be in 1..{MAX_LAYER_DIM} (got {self.dim})")
        if not 0 <= self.marked < (1 << self.dim):
            raise ValidationError(f"marked vertex {self.marked} out of range for d={self.dim}")
        if self.steps < 0:
            raise ValidationError(f"step count must be >= 0 (got {self.steps})")
        if self.marked_coeffs is None:
            object.__setattr__(self, "marked_coeffs", phase_coeffs(self.dim))
        if self.coeffs is None:
            object.__setattr__(self, "coeffs", grover_coeffs(self.dim))
        require_valid(self.marked_coeffs, degree=self.dim)
        require_valid(self.coeffs, degree=self.dim)
        if self.metric not in ("out", "in"):
            raise ValidationError(f"metric must be 'out' or 'in' (got {self.metric!r})")


def uniform_edge_state(d: int) -> NDArray[np.complex128]:
    """Equal amplitude on every directed edge."""
    ensure_full_state_fits(d)
    amp = 1.0 / math.sqrt(d * (1 << d))
    return np.full(((1 << d), d), amp, dtype=np.complex128)


def success_probability(state: NDArray[np.complex128], cfg: SearchConfig) -> float:
    """Probability on the marked vertex's out-edges (or in-edges, per the metric)."""
    if cfg.metric == "out":
        return vertex_probability(state, cfg.marked)
    d = cfg.dim
    total = 0.0
    for a in range(1, d + 1):
        total += abs(state[cfg.marked ^ direction_mask(d, a), a - 1]) ** 2
    return total


def run_search(cfg: SearchConfig) -> NDArray[np.float64]:
    """Success probability after steps 0 .. ``cfg.steps`` on the layer reduction; the peak is its argmax."""
    d = cfg.dim
    r = np.full(d + 1, cfg.coeffs.r, dtype=np.complex128)
    t = np.full(d + 1, cfg.coeffs.t, dtype=np.complex128)
    r[0], t[0] = cfg.marked_coeffs.r, cfg.marked_coeffs.t  # the mark, moved to 0...0
    start = zero_layer_state(d)
    start.up[:d] = start.down[1:] = 1.0 / math.sqrt(d * (1 << d))
    # the mark's d out-edges (up[0] = s[1]) or in-edges (down[1] = s[d + 3]) share one amplitude
    col = 1 if cfg.metric == "out" else d + 3
    series = _layer_walk(start.line, _layer_factors(d, r, t), np.empty(cfg.steps + 1), lambda s: _abs(s[:, col]))
    return cfg.dim * series**2
