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

__all__ = ["classical_score", "classical_sweep_max"]


def classical_score(K: int, phi0: float) -> float:
    """Fraction of the K directions with positive projection (ties count 1/2)."""
    if K < 1 or K % 2 == 0:
        raise ValueError(f"K must be a positive odd integer, got {K}")
    proj = np.cos(2 * np.pi * np.arange(K) / K - phi0)
    weights = np.where(proj > 1e-12, 1.0, np.where(proj < -1e-12, 0.0, 0.5))
    return float(weights.mean())


def classical_sweep_max(K: int, samples: int = 100_000) -> float:
    """Max of classical_score over a dense phi0 sweep of [0, 2 pi)."""
    if K < 1 or K % 2 == 0:
        raise ValueError(f"K must be a positive odd integer, got {K}")
    phi0 = 2 * np.pi * np.arange(samples) / samples
    proj = np.cos(2 * np.pi * np.arange(K)[:, None] / K - phi0[None, :])
    weights = np.where(proj > 1e-12, 1.0, np.where(proj < -1e-12, 0.0, 0.5))
    return float(weights.mean(axis=0).max())
