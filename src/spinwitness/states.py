"""State factories: GHZ-like superpositions, their incoherent lookalike,
product states, and seeded random kets.

Kets are the default representation; a density matrix is only materialized
for intrinsically mixed states or after a channel acts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spin import SEED_LIMIT, SpinEnsemble, _array, _integer, _real, assert_hermitian

__all__ = ["QuantumState", "ghz_like", "ghz_mixture", "product_state", "random_ket"]


@dataclass(frozen=True)
class QuantumState:
    """A ket or density matrix tied to its ensemble (exactly one of the two is set).

    Either is a `spin._array` of finite integers, floats or complex numbers: the ket under the name "ket", rho under
    "matrix" (through `assert_hermitian`).  Bool, string and object arrays are a ValueError naming it.
    """

    ensemble: SpinEnsemble
    ket: np.ndarray | None = field(default=None, repr=False)
    rho: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.ket is None) == (self.rho is None):
            raise ValueError("provide exactly one of ket or rho")
        dim = self.ensemble.dim
        if self.ket is not None:
            ket = _array(self.ket, "ket").reshape(-1)
            if ket.shape != (dim,):
                raise ValueError(f"ket length {ket.shape[0]} does not match ensemble dim {dim}")
            if abs(np.linalg.norm(ket) - 1) > 1e-12:
                raise ValueError(f"ket is not normalized: |norm - 1| = {abs(np.linalg.norm(ket) - 1):.3e}")
            object.__setattr__(self, "ket", ket)
        else:
            rho = assert_hermitian(self.rho)
            if rho.shape != (dim, dim):
                raise ValueError(f"density matrix shape {rho.shape} does not match ensemble dim {dim}")
            if abs(np.trace(rho).real - 1) > 1e-12:
                raise ValueError(f"density matrix trace {np.trace(rho).real!r} != 1")
            # The smallest eigenvalue is below -1e-10 exactly when rho + 1e-10 I is
            # not positive definite (up to rounding at the boundary): one Cholesky
            # decides it, with no tridiagonal reduction and a fraction of the flops.
            shifted = rho.copy()
            shifted.flat[:: dim + 1] += 1e-10
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                raise ValueError("density matrix has a significantly negative eigenvalue") from None
            object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.ensemble.dim

    def density(self) -> np.ndarray:
        """The state as a density matrix (projector if stored as a ket)."""
        if self.rho is not None:
            return self.rho
        return np.outer(self.ket, self.ket.conj())


def ghz_like(ensemble: SpinEnsemble, phi: float = 0.0) -> QuantumState:
    """( (x)|j_n, j_n>  +  e^{i phi} (x)|j_n, -j_n> ) / sqrt(2).

    In the package basis the two stretched products are the first and last
    basis vectors, so the ket has exactly two nonzero amplitudes.
    """
    ket = np.zeros(ensemble.dim, dtype=complex)
    ket[0] = 1 / np.sqrt(2)
    ket[-1] = np.exp(1j * _real(phi, "phi")) / np.sqrt(2)
    return QuantumState(ensemble, ket=ket)


def ghz_mixture(ensemble: SpinEnsemble) -> QuantumState:
    """Even incoherent mixture of the two stretched product states.

    Classically correlated: every proper-subset reduced state coincides with
    that of any ghz_like(phi), yet the witness scores it at exactly 1/2.
    """
    diag = np.zeros(ensemble.dim)
    diag[0] = 0.5
    diag[-1] = 0.5
    return QuantumState(ensemble, rho=np.diag(diag).astype(complex))


def product_state(ensemble: SpinEnsemble, local_kets) -> QuantumState:
    """Tensor product of one normalized local ket per particle, local ket n a `spin._array` named "local ket n"."""
    if len(local_kets) != ensemble.N:
        raise ValueError(f"expected {ensemble.N} local kets, got {len(local_kets)}")
    full = np.ones(1, dtype=complex)
    for n, (local, d) in enumerate(zip(local_kets, ensemble.local_dims)):
        local = _array(local, f"local ket {n}").reshape(-1)
        if local.shape != (d,):
            raise ValueError(f"local ket {n} has length {local.shape[0]}, expected {d}")
        if abs(np.linalg.norm(local) - 1) > 1e-12:
            raise ValueError(f"local ket {n} is not normalized")
        full = np.multiply.outer(full, local).reshape(-1)
    return QuantumState(ensemble, ket=full)


def random_ket(ensemble: SpinEnsemble, seed) -> QuantumState:
    """Haar-random unit ket on the ensemble, deterministic under the seed, an integer in [0, 2^128).

    Generator contract (stable across releases): numpy default_rng (PCG64)
    seeded with `seed`; entries are standard normals drawn as one real vector
    followed by one imaginary vector, then normalized.
    """
    rng = np.random.default_rng(_integer(seed, "seed", 0, SEED_LIMIT))
    ket = rng.standard_normal(ensemble.dim) + 1j * rng.standard_normal(ensemble.dim)
    return QuantumState(ensemble, ket=ket / np.linalg.norm(ket))
