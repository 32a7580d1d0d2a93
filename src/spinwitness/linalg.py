"""The helpers the modules share: a Hermiticity check, blockwise deviations and exact binomials.

`assert_hermitian` validates a matrix that comes from a caller (a density
matrix, a witness) before anything reads it.  `_max_over_row_blocks` reduces
a deviation of dense matrices block by block, so that no dim x dim temporary
is formed.  `binomial_exact` is the closed forms' only source of binomials:
the central one of the bound table and `build_qk_closed_form`, and the
signed row C(K, i) that `generalized_witness` weights f by.  The definition
route never reads it.  Exact quantities are `fractions.Fraction`s; floats
are renderings only.
"""

from __future__ import annotations

import math

import numpy as np

from .spin import _integer

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
        dev = _max_over_row_blocks(lambda rows: op[rows] - op[:, rows].conj().T, len(op))
    if not dev <= HERMITICITY_TOL:  # a NaN deviation compares False both ways
        if not np.isfinite(dev):
            raise ValueError("matrix has a non-finite (NaN or infinite) entry")
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e} > {HERMITICITY_TOL:.0e}")
    return op


def _max_over_row_blocks(deviation, n: int) -> float:
    """max |deviation(rows)| over the blocks of 64 rows of an n-row matrix, one block's entries at a time.

    The block maxima are reduced by np.max, which keeps a NaN from any block: Python's max drops one that is not first.
    """
    return float(np.max([np.abs(deviation(slice(i, i + 64))).max() for i in range(0, n, 64)]))


def binomial_exact(n: int, k: int) -> int:
    """Exact C(n, k) as an arbitrary-precision integer; n and k are `spin._integer`s with 0 <= k <= n."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if k > n:
        raise ValueError(f"binomial_exact requires k <= n, got n={n}, k={k}")
    return math.comb(n, k)
