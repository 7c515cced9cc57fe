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
from .hypercube import state_dimension
from .multiport import MultiportCoeffs, multiport_matrix

__all__ = ["apply_phicnot", "apply_coin", "circuit_step", "operator_deviation"]


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
    return state @ coin.T


def circuit_step(state: NDArray[np.complex128], coin: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Flip cascade (a = 1..d, ascending) followed by the coin."""
    d = state_dimension(state)
    out = state
    for a in range(1, d + 1):
        out = apply_phicnot(out, a)
    return apply_coin(out, coin)


def operator_deviation(d: int, c: MultiportCoeffs, cap: int = 8) -> float:
    """Max elementwise difference between the gate step and the scattering step.

    Both operators are compared column by column over the full basis, which
    is the dense-operator equality without materializing either matrix.
    """
    if d > cap:
        raise ValidationError(f"operator comparison capped at d = {cap} (got {d})")
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
