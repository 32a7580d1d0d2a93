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
from typing import Sequence

import numpy as np

__all__ = [
    "assert_hermitian",
    "partial_trace",
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


def partial_trace(op: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all tensor slots not in `keep`; kept slots stay in their order.

    `dims` lists the local dimension of each slot (product must match the
    operator dimension); `keep` is a nonempty proper subset of slot indices.
    Non-contiguous subsets are handled by axis bookkeeping on the reshaped
    tensor — the matrix is never physically permuted.
    """
    op = np.asarray(op, dtype=complex)
    dims = [int(d) for d in dims]
    n = len(dims)
    full = math.prod(dims)
    if op.shape != (full, full):
        raise ValueError(f"operator shape {op.shape} does not match dims {dims}")
    keep = sorted(set(int(i) for i in keep))
    if not keep or len(keep) == n or any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep={keep} must be a nonempty proper subset of slots 0..{n - 1}")
    tensor = op.reshape(dims + dims)
    # Trace highest-numbered slots first so earlier axis numbers stay valid.
    traced = [i for i in range(n) if i not in keep]
    remaining = n
    for slot in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=slot, axis2=remaining + slot)
        remaining -= 1
    d_keep = math.prod(dims[i] for i in keep)
    return tensor.reshape(d_keep, d_keep)


def binomial_exact(n: int, k: int) -> int:
    """Exact C(n, k) as an arbitrary-precision integer; requires 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial_exact needs nonnegative arguments, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"binomial_exact requires k <= n, got n={n}, k={k}")
    return math.comb(n, k)
