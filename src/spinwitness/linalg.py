"""Dense complex linear algebra shared by every module.

Operators are plain complex ndarrays; states are 1-d kets or square density
matrices.  Everything here is a pure function.  Eigensolves call
`np.linalg.eigh` directly, after `assert_hermitian` where the matrix comes
from a caller; the witness's spectrum is read from its rank-2 factors
(`WitnessOperator.factors`), never eigensolved densely.  Exact arithmetic (the bound table) goes through
`fractions.Fraction` and `binomial_exact`; floats are renderings only.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "assert_hermitian",
    "binomial_exact",
]

HERMITICITY_TOL = 1e-12


def assert_hermitian(op: np.ndarray) -> np.ndarray:
    """Validate Hermiticity (max-entry norm) and return the operator as complex.

    A non-finite entry is rejected: it makes the deviation NaN or infinite.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, reported below
        dev = np.abs(op - op.conj().T).max()
    if not dev <= HERMITICITY_TOL:  # a NaN deviation compares False both ways
        if not np.isfinite(dev):
            raise ValueError("matrix has a non-finite (NaN or infinite) entry")
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e} > {HERMITICITY_TOL:.0e}")
    return op


def binomial_exact(n: int, k: int) -> int:
    """Exact C(n, k) as an arbitrary-precision integer; requires 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial_exact needs nonnegative arguments, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"binomial_exact requires k <= n, got n={n}, k={k}")
    return math.comb(n, k)
