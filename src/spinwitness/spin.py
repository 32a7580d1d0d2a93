"""Spin-j matrices, collective operators, and the rotated measurement family.

Conventions (used everywhere downstream): hbar = 1; the local basis of a
spin-j particle is ordered by descending magnetic number, |j, j> first; the
product basis puts particle 1 in the most significant slot.  With that
ordering the fully stretched product states  (x)|j_n, j_n>  and
(x)|j_n, -j_n>  are exactly the first and last basis vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import assert_hermitian, hermitian_eigendecompose

__all__ = [
    "SpinEnsemble",
    "CollectiveOperator",
    "spin_matrices",
    "collective_matrices",
    "collective_operator",
    "direction_operator",
    "direction_phases",
    "rotate_about_z",
]


def _check_half_integer(j) -> float:
    two_j = 2 * float(j)
    if not math.isfinite(two_j) or abs(two_j - round(two_j)) > 1e-12 or round(two_j) < 0:
        raise ValueError(f"spin must be a nonnegative half-integer, got {j}")
    return round(two_j) / 2


@dataclass(frozen=True)
class SpinEnsemble:
    """Ordered list of spins {j_n} with half-integer total spin sum(j_n) = K/2.

    The witness construction needs odd K, i.e. the total spin must be a
    half-integer; integer total spin is rejected at construction (the sign
    measurement then has a zero outcome that breaks the eigenvalue analysis).
    """

    spins: tuple[float, ...]

    def __init__(self, spins: Sequence[float]):
        spins = tuple(_check_half_integer(j) for j in spins)
        if not spins:
            raise ValueError("ensemble needs at least one particle")
        if any(j == 0 for j in spins):
            raise ValueError("spin-0 particles carry no angular momentum; drop them")
        two_total = round(2 * sum(spins))
        if two_total % 2 == 0:
            raise ValueError(
                f"total spin {sum(spins)} is integer (K = {two_total} even); "
                "the witness requires half-integer total spin (odd K)"
            )
        object.__setattr__(self, "spins", spins)

    @property
    def N(self) -> int:
        return len(self.spins)

    @property
    def K(self) -> int:
        """Odd integer with sum(j_n) = K/2."""
        return round(2 * sum(self.spins))

    @property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(round(2 * j + 1) for j in self.spins)

    @property
    def dim(self) -> int:
        return math.prod(self.local_dims)


def spin_matrices(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) for a single spin j, basis ordered m = j, j-1, ..., -j.

    Built from the ladder operators, <j, m+1| J+ |j, m> = sqrt(j(j+1) - m(m+1)).
    j = 0 is permitted and yields 1x1 zero matrices (a trivial tensor factor).
    """
    j = _check_half_integer(j)
    d = round(2 * j + 1)
    m = j - np.arange(d)
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((d, d))
    for i in range(1, d):
        jplus[i - 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jx = ((jplus + jplus.T) / 2).astype(complex)
    jy = (jplus - jplus.T) / 2j
    return jx, jy, jz


@dataclass(frozen=True)
class CollectiveOperator:
    """Total angular momentum J = sum_n J^(j_n) on the full product space."""

    ensemble: SpinEnsemble
    Jx: np.ndarray = field(repr=False)
    Jy: np.ndarray = field(repr=False)
    Jz: np.ndarray = field(repr=False)


def collective_matrices(spins: Sequence[float]) -> list[np.ndarray]:
    """[Jx, Jy, Jz] summed over `spins` on their own product space, first spin most significant.

    Any list of spins is allowed (a subensemble may have integer total spin).
    """
    dims = [round(2 * j + 1) for j in spins]
    dim = math.prod(dims)
    total = [np.zeros((dim, dim), dtype=complex) for _ in range(3)]
    for slot, j in enumerate(spins):
        left, right = np.eye(math.prod(dims[:slot])), np.eye(math.prod(dims[slot + 1 :]))
        for comp, mat in enumerate(spin_matrices(j)):
            total[comp] += np.kron(np.kron(left, mat), right)
    return total


def collective_operator(ensemble: SpinEnsemble) -> CollectiveOperator:
    """Sum of single-particle spin operators, each embedded at its slot."""
    return CollectiveOperator(ensemble, *collective_matrices(ensemble.spins))


def direction_operator(J: CollectiveOperator, k: int, K: int, theta_offset: float = 0.0) -> np.ndarray:
    """In-plane component cos(2 pi k/K + theta) Jx + sin(2 pi k/K + theta) Jy.

    Equals the rotated operator exp(-i a Jz) Jx exp(+i a Jz) at a = 2 pi k/K
    + theta; the K equally spaced directions are the measurement settings.
    """
    if not 0 <= k < K:
        raise ValueError(f"direction index k={k} out of range [0, {K})")
    angle = 2 * np.pi * k / K + theta_offset
    return np.cos(angle) * J.Jx + np.sin(angle) * J.Jy


def direction_phases(ensemble: SpinEnsemble, theta_offset: float = 0.0) -> np.ndarray:
    """The K diagonals ph_k = exp(-i a_k m), a_k = 2 pi k/K + theta, as a (K, dim) array.

    m is the diagonal of the collective Jz (the total magnetic number of each
    basis state), so diag(ph_k) = exp(-i a_k Jz) and the direction-k operator is
    the diagonal conjugation  J_k = diag(ph_k) Jx diag(ph_k)^dag.  Any spectral
    function then rotates the same way: f(J_k) = f(Jx) * outer(ph_k, ph_k^*).
    A non-finite theta_offset is rejected, since every phase would be NaN.
    """
    if not math.isfinite(theta_offset):
        raise ValueError(f"theta_offset must be finite, got {theta_offset}")
    m = np.zeros(1)
    for j in ensemble.spins:
        m = (m[:, None] + (j - np.arange(round(2 * j + 1)))[None, :]).reshape(-1)
    angles = 2 * np.pi * np.arange(ensemble.K) / ensemble.K + theta_offset
    return np.exp(-1j * np.outer(angles, m))


def rotate_about_z(op: np.ndarray, jz: np.ndarray, angle: float) -> np.ndarray:
    """Conjugate op by U = exp(-i * angle * jz), built spectrally from jz.

    jz is diagonal in the package's basis so U is diagonal and exact, but the
    spectral route keeps this correct for any Hermitian generator (the tests
    also rotate about Jx).  The result is re-symmetrized to kill the last-bit
    Hermiticity drift of the triple product.
    """
    op = np.asarray(op, dtype=complex)
    jz = assert_hermitian(jz)
    if op.shape != jz.shape:
        raise ValueError(f"operator shape {op.shape} does not match generator {jz.shape}")
    w, v = hermitian_eigendecompose(jz)
    u = (v * np.exp(-1j * angle * w)) @ v.conj().T
    out = u @ op @ u.conj().T
    return (out + out.conj().T) / 2
