"""Classical baseline: the best a precessing classical vector can do.

A classical magnetic moment at in-plane angle phi0 projected onto direction
2 pi k/K has sign sign(cos(2 pi k/K - phi0)); its z-component and magnitude
never affect the sign, so the in-plane angle is the entire strategy space.
K odd equally spaced directions fit at most (K+1)/2 into any half-plane,
capping the score at (1 + 1/K)/2.  Mixed (stochastic) strategies average
deterministic ones and cannot beat the deterministic maximum.
"""

from __future__ import annotations

import numpy as np

from .spin import _check_odd_k, _reduced_angle

__all__ = ["classical_score", "classical_sweep_max"]


def classical_score(K: int, phi0: float) -> float:
    """Fraction of the K directions with positive projection (ties count 1/2); phi0 is reduced mod 2 pi first."""
    K = _check_odd_k(K)
    proj = np.cos(2 * np.pi * np.arange(K) / K - _reduced_angle(phi0, "phi0"))
    return float(np.where(proj > 1e-12, 1.0, np.where(proj < -1e-12, 0.0, 0.5)).mean())


def classical_sweep_max(K: int) -> float:
    """Exact max of classical_score over phi0, read at the midpoints pi/2 + pi (j + 1/2)/K, j = 0, 1, of two arcs.

    The score is constant between its breakpoints 2 pi k/K +- pi/2, which for odd K are pi/2 + pi j/K.  A turn
    of phi0 by 2 pi/K only relabels the directions, so the score has period 2 pi/K: the two arcs of one period
    take every value there is.
    """
    K = _check_odd_k(K)
    return max(classical_score(K, np.pi / 2 + np.pi * (j + 0.5) / K) for j in (0, 1))
