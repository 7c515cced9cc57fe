"""Gate-level form of one walk step on (position register) x (direction register).

The register state uses the same (2**d, d) array as the full edge state
under the identification |x; a> = |x>|a>.  One step is a cascade of d
conditional bit flips followed by one coin: gate ``a`` flips the a-th
position qubit exactly when the direction register holds |a>, and the coin
mixes the direction register with the vertex matrix at every position.
Applied in that order the cascade-then-coin composition is the same linear
operator as the scattering step.  The flip gates act on disjoint targets
with orthogonal accepting states, so they commute.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .evolution import EvolutionConfig, step
from .hypercube import ensure_full_state_fits, state_dimension, zero_full_state
from .multiport import MultiportCoeffs, multiport_matrix

__all__ = ["apply_phicnot", "apply_coin", "circuit_step", "operator_deviation"]

_GOLDEN = (5**0.5 - 1) / 2


def apply_phicnot(state: NDArray[np.complex128], a: int) -> NDArray[np.complex128]:
    """Flip position bit ``a`` on the |a> direction component; leave the rest alone."""
    d = state_dimension(state)
    if not 1 <= a <= d:
        raise ValidationError(f"direction must be in 1..{d} (got {a})")
    out = state.copy()
    j = a - 1
    src = state.reshape((2,) * d + (d,))
    dst = out.reshape((2,) * d + (d,))
    dst[..., j] = np.flip(src[..., j], axis=j)
    return out


def apply_coin(state: NDArray[np.complex128], coin: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Transform the direction register by ``coin`` at every position."""
    d = state_dimension(state)
    if coin.shape != (d, d):
        raise ValidationError(f"coin must be {d} x {d}, got {coin.shape}")
    return np.einsum("xa,ba->xb", state, coin)


def circuit_step(state: NDArray[np.complex128], coin: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Flip cascade (a = 1..d, ascending) followed by the coin."""
    d = state_dimension(state)
    out = state
    for a in range(1, d + 1):
        out = apply_phicnot(out, a)
    return apply_coin(out, coin)


def operator_deviation(d: int, c: MultiportCoeffs) -> float:
    """Max elementwise difference between the gate step and the scattering step.

    Exact, from d probe states instead of the d * 2**d basis columns.  Probe
    a has amplitude c_x = exp(2 pi i theta_x), with distinct theta_x, on
    edge (x, a) of every vertex x.  Both steps move the amplitude on (x, a)
    to one vertex and then apply a vertex-local coin: the scattering step to
    x ^ m(a), the gate step (a permutation of basis states, then a
    position-diagonal coin) to pi_a(x) for a bijection pi_a.  So distinct
    columns land on distinct vertices, and the difference at vertex y over
    c_{y ^ m(a)} is column (y ^ m(a), a) of the operator difference; as
    |c_x| = 1, the maxima agree.  Every output entry is compared, so a
    column sent to the wrong vertex shows up there: distinct phases do not
    cancel.  Raises ``MemoryCapError`` when the working set exceeds the
    full-state budget.
    """
    # the probe plus two states inside circuit_step (a gate's input and
    # output) or step (the gate result and the stepped copy), the 2**d
    # phases, and the walk's scratch of two blocks of at most 2**14 vertices;
    # counted as three rows, which leaves room to spare
    ensure_full_state_fits(d, columns=3 * (d + 1))
    cfg = EvolutionConfig(d, c)
    coin = multiport_matrix(c)
    # golden-ratio phases: the 2**d points stay distinct, roughly 1 / 2**d apart
    phases = np.exp(2j * np.pi * (np.arange(1 << d) * _GOLDEN % 1.0))
    probe = zero_full_state(d)
    worst = 0.0
    for j in range(d):
        probe[:, j] = phases
        diff = circuit_step(probe, coin)
        diff -= step(probe, cfg)
        worst = max(worst, float(np.max(np.abs(diff))))
        probe[:, j] = 0.0
        del diff  # not live during the next circuit_step
    return worst
