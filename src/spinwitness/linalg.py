"""The two helpers the modules share: a Hermiticity check and exact binomials.

`assert_hermitian` validates a matrix that comes from a caller (a density
matrix, a witness) before anything reads it.  `binomial_exact` is the closed
forms' only source of binomials: the central one of the bound table and
`build_qk_closed_form`, and the signed row C(K, i) that `generalized_witness`
weights f by.  The definition route never reads it.  Exact quantities are
`fractions.Fraction`s; floats are renderings only.
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
