"""The helpers the modules share: a Hermiticity check, blockwise deviations and exact binomials.

`assert_hermitian` validates a matrix that comes from a caller (a density
matrix, a witness) before anything reads it.  `_max_over_row_blocks` reduces
a deviation of dense matrices block by block, so that no dim x dim temporary
is formed.  `binomial_exact` and `_binomial_row` are the closed forms' only
sources of binomials: the first gives the central one of the bound table and
`build_qk_closed_form`, the second the whole row C(K, i) that
`generalized_witness` weights f by, from one exact product per entry.  The
definition route reads neither.  Exact quantities are `fractions.Fraction`s;
floats are renderings only.
"""

from __future__ import annotations

import math

import numpy as np

from .spin import _array, _integer

__all__ = [
    "assert_hermitian",
    "binomial_exact",
]

HERMITICITY_TOL = 1e-12


def assert_hermitian(op: np.ndarray) -> np.ndarray:
    """Validate Hermiticity (max-entry norm) and return the operator as complex.

    The operator is a `spin._array` named "matrix": finite integers, floats or complex numbers, so the deviation
    is never NaN.  A density matrix and a witness's Q are checked here.
    """
    op = _array(op, "matrix")
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    dev = _max_over_row_blocks(lambda rows: op[rows] - op[:, rows].conj().T, len(op))
    if dev > HERMITICITY_TOL:
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


def _binomial_row(n: int) -> list[int]:
    """[C(n, 0), ..., C(n, n)] as exact ints, each from the one before: C(n, i + 1) = C(n, i) (n - i) / (i + 1)."""
    row = [1]
    for i in range(n):
        row.append(row[-1] * (n - i) // (i + 1))
    return row
