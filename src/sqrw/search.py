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

``full_search_series`` runs the same walk on the full edge state with the
mark where it is.  It is exponential in d and is kept as the reference the
tests compare ``run_search`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .evolution import EvolutionConfig, step, vertex_probability
from .hypercube import direction_mask, ensure_full_state_fits
from .layers import MAX_LAYER_DIM, _layer_factors, _layer_kernel
from .multiport import MultiportCoeffs, grover_coeffs, phase_coeffs, require_valid

__all__ = [
    "SearchConfig",
    "SearchResult",
    "uniform_edge_state",
    "success_probability",
    "run_search",
    "full_search_series",
    "MAX_SEARCH_DIM",
]

# Largest dimension ``run_search`` accepts: it runs on the layer walk.
MAX_SEARCH_DIM = MAX_LAYER_DIM


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
        if not 1 <= self.dim <= MAX_SEARCH_DIM:
            raise ValidationError(f"search dimension must be in 1..{MAX_SEARCH_DIM} (got {self.dim})")
        if not 0 <= self.marked < (1 << self.dim):
            raise ValidationError(f"marked vertex {self.marked} out of range for d={self.dim}")
        if self.steps < 0:
            raise ValidationError(f"step count must be >= 0 (got {self.steps})")
        if self.marked_coeffs is None:
            object.__setattr__(self, "marked_coeffs", phase_coeffs(self.dim))
        if self.coeffs is None:
            object.__setattr__(self, "coeffs", grover_coeffs(self.dim))
        require_valid(self.marked_coeffs)
        require_valid(self.coeffs)
        if self.marked_coeffs.degree != self.dim or self.coeffs.degree != self.dim:
            raise ValidationError("coefficient degrees must match the dimension")
        if self.metric not in ("out", "in"):
            raise ValidationError(f"metric must be 'out' or 'in' (got {self.metric!r})")

    def evolution_config(self) -> EvolutionConfig:
        return EvolutionConfig(self.dim, self.coeffs, overrides={self.marked: self.marked_coeffs})


@dataclass(frozen=True)
class SearchResult:
    probabilities: NDArray[np.float64]
    peak_step: int
    peak_probability: float


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


def full_search_series(cfg: SearchConfig) -> NDArray[np.float64]:
    """Success series of the search walk stepped on the full edge state (reference)."""
    evo = cfg.evolution_config()
    state = uniform_edge_state(cfg.dim)
    series = np.empty(cfg.steps + 1, dtype=np.float64)
    series[0] = success_probability(state, cfg)
    for n in range(1, cfg.steps + 1):
        state = step(state, evo)
        series[n] = success_probability(state, cfg)
    return series


def _layer_search_states(
    cfg: SearchConfig,
) -> Iterator[tuple[NDArray[np.complex128], NDArray[np.complex128]]]:
    """Layer arrays ``(up, down)`` of the search walk after 0..cfg.steps steps, mark at 0."""
    d = cfg.dim
    r = np.full(d + 1, cfg.coeffs.r, dtype=np.complex128)
    t = np.full(d + 1, cfg.coeffs.t, dtype=np.complex128)
    r[0], t[0] = cfg.marked_coeffs.r, cfg.marked_coeffs.t
    factors = _layer_factors(d, r, t)
    amp = 1.0 / math.sqrt(d * (1 << d))
    up = np.full(d + 1, amp, dtype=np.complex128)
    down = up.copy()
    up[d] = down[0] = 0.0
    yield up, down
    for _ in range(cfg.steps):
        up, down = _layer_kernel(up, down, factors)
        yield up, down


def run_search(cfg: SearchConfig) -> SearchResult:
    """Walk from the uniform state on the layer reduction, tracking success per step."""
    out = cfg.metric == "out"
    # each of the mark's d out-edges (up[0]) or in-edges (down[1]) has the same amplitude
    watched = np.array(
        [up[0] if out else down[1] for up, down in _layer_search_states(cfg)],
        dtype=np.complex128,
    )
    series = cfg.dim * np.abs(watched) ** 2
    peak_step = int(np.argmax(series))
    return SearchResult(series, peak_step, float(series[peak_step]))
