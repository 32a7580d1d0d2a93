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

SWEEP_SAMPLES = 100_000  # equally spaced phi0 values in classical_sweep_max


def _scores(K: int, phi0: np.ndarray) -> np.ndarray:
    """classical_score at each angle of phi0: one (K, len(phi0)) table of projections."""
    if K < 1 or K % 2 == 0:
        raise ValueError(f"K must be a positive odd integer, got {K}")
    if not np.isfinite(phi0).all():
        raise ValueError("phi0 must be finite")
    proj = np.cos(2 * np.pi * np.arange(K)[:, None] / K - phi0[None, :])
    weights = np.where(proj > 1e-12, 1.0, np.where(proj < -1e-12, 0.0, 0.5))
    return weights.mean(axis=0)


def classical_score(K: int, phi0: float) -> float:
    """Fraction of the K directions with positive projection (ties count 1/2)."""
    return float(_scores(K, np.array([float(phi0)]))[0])


def classical_sweep_max(K: int) -> float:
    """Max of classical_score over SWEEP_SAMPLES equally spaced phi0 in [0, 2 pi)."""
    return float(_scores(K, 2 * np.pi * np.arange(SWEEP_SAMPLES) / SWEEP_SAMPLES).max())
