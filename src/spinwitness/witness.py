"""The sign-measurement witness: operator constructions and analytic bounds.

The witness averages, over K equally spaced in-plane directions, the spectral
indicator of a positive collective-spin component:

    Q = (1/K) sum_k pos(J_k),   pos = 1 on positive eigenspaces, 1/2 on zero.

For an ensemble with total spin K/2 (K odd) the operator collapses to a rank-2
correction of 1/2 * identity supported on the two GHZ-like combinations of the
stretched product states; `build_qk_direct` and `build_qk_closed_form` realize
both routes independently; the direct route reads Jx through the factored kernel
in `spin`, and `generalized_witness` reads K alone.  `WitnessOperator.factors` reads
the low-rank part of Q - 1/2 back from Q itself, for the see-saw and for the
spectrum check of `verify`, so no caller eigensolves a dense Q.  All scalar
bounds come from `witness_report` in exact rational arithmetic.  `binomial_exact`
and `_binomial_row` are the closed forms' only binomials; the direct route reads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .spin import (SpinEnsemble, _check_odd_k, _integer, _real, _reduced_angle, assert_hermitian,
                   direction_phases, jx_function)
from .states import QuantumState

__all__ = [
    "WitnessFactors",
    "WitnessOperator",
    "WitnessReport",
    "GeneralizedWitness",
    "build_qk_direct",
    "build_qk_closed_form",
    "witness_report",
    "score",
    "phase_for_ghz",
    "generalized_witness",
    "binomial_exact",
]

# Eigenvalues this close to zero count as zero for the dense pos().  Far above
# eigensolver jitter (~1e-14 at desk dimensions), far below any genuine spacing.
# perfbench/tracer.py's TRACED looks up pos_operator; ROADMAP item 6 deletes both.
ZERO_EIGENVALUE_TOL = 1e-9

# Eigenvalues of the projected Q - 1/2 at or below this size are dropped from its factors, and the
# see-saw refuses a witness whose factors leave a Frobenius residual above it: one size for both,
# so that no factor the first drops is counted by the second as a residual too large.
FACTOR_TOL = 1e-9

# A first factor pass that leaves a residual above this takes a second.  The sign witness leaves
# rounding alone, 1.5e-15 to 3.0e-14 on the ensembles `verify` is benchmarked on and 1.1e-13 on a
# lone spin 1023.5, so it never pays the second pass.
_REFINE_TOL = 1e-12


# perfbench/tracer.py's TRACED looks it up; ROADMAP item 6 deletes it.
def pos_operator(op: np.ndarray) -> np.ndarray:
    """Spectral step function: projector on the positive eigenspace + half the zero one.

    pos(-op) = 1 - pos(op) by construction; tr pos(op) = dim/2 whenever the
    spectrum is symmetric.
    """
    w, v = np.linalg.eigh(assert_hermitian(op))
    weights = np.where(w > ZERO_EIGENVALUE_TOL, 1.0, np.where(w < -ZERO_EIGENVALUE_TOL, 0.0, 0.5))
    out = (v * weights) @ v.conj().T
    return (out + out.conj().T) / 2


class WitnessFactors(NamedTuple):
    """Q - 1/2 as vectors @ diag(values) @ vectors^dag, up to a Frobenius residual."""

    vectors: np.ndarray  # (dim, r), orthonormal columns
    values: np.ndarray  # (r,), real, none within FACTOR_TOL of zero
    residual: float  # ||Q - 1/2 - vectors diag(values) vectors^dag||_F


@dataclass(frozen=True)
class WitnessOperator:
    """Q on the ensemble's space: a Hermitian (dim, dim) `spin._array`, checked by `assert_hermitian` as rho is."""

    ensemble: SpinEnsemble
    Q: np.ndarray = field(repr=False)

    def __post_init__(self):
        q = assert_hermitian(self.Q)
        if q.shape != (self.dim, self.dim):
            raise ValueError(f"witness shape {q.shape} does not match ensemble dim {self.dim}")
        object.__setattr__(self, "Q", q)

    @property
    def dim(self) -> int:
        return self.ensemble.dim

    @cached_property
    def factors(self) -> WitnessFactors:
        """Low-rank factors of Q - 1/2, read from Q itself and computed once per witness.

        Q - 1/2 is applied to a seeded Gaussian (dim, min(6, dim)) block; a QR of
        the image gives a basis, and the eigenpairs of Q - 1/2 projected on it with
        |w| > FACTOR_TOL are kept.  Six columns hold the rank-2 witness with room to
        spare; a Q - 1/2 of higher rank shows as a large residual, never as silently
        wrong factors.  A first pass whose residual is above rounding (_REFINE_TOL)
        applies Q - 1/2 to its basis once more before projecting: under a full-rank
        perturbation one pass leaves the kept eigenspace tilted by about the
        perturbation over the smallest kept value, which costs up to a few times
        the best rank-r residual, and the second pass squares that tilt away.  The
        residual comes from the dense difference, since sqrt(||Q - 1/2||^2 - sum w^2)
        cancels to about 1e-8.
        """
        block = np.random.default_rng(0).standard_normal((self.dim, min(6, self.dim)))
        basis, _ = np.linalg.qr(self.Q @ block - block / 2)
        fit = self._ritz(basis)
        if fit.residual > _REFINE_TOL:
            basis, _ = np.linalg.qr(self.Q @ basis - basis / 2)
            fit = self._ritz(basis)
        return fit

    def _ritz(self, basis: np.ndarray) -> WitnessFactors:
        """The factors of Q - 1/2 projected on an orthonormal (dim, b) basis, with their dense residual."""
        w, v = np.linalg.eigh(basis.conj().T @ (self.Q @ basis) - np.eye(basis.shape[1]) / 2)
        keep = np.abs(w) > FACTOR_TOL
        vectors, values = basis @ v[:, keep], w[keep]
        remainder = (vectors * values) @ vectors.conj().T
        remainder -= self.Q
        remainder[np.diag_indices(self.dim)] += 0.5
        return WitnessFactors(vectors, values, float(np.linalg.norm(remainder)))


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


def build_qk_direct(ensemble: SpinEnsemble, theta_offset: float = 0.0) -> WitnessOperator:
    """Average pos(J_k) over the K directions, straight from the definition.

    Each J_k is a diagonal-phase conjugation of Jx (see `direction_phases`), so
    pos(J_k) = pos(Jx) * outer(ph_k, ph_k^*) and one factored pos(Jx) = f(Jx),
    f = [m > 0], serves every direction:  Q = pos(Jx) * sum_k outer(ph_k, ph_k^*) / K.
    Q is formed in place, symmetrized as q + q^dag from q / 2K, so it holds one scratch buffer at a time.
    """
    ph = direction_phases(ensemble, theta_offset)
    q = ph.T @ ph.conj()
    q *= jx_function(ensemble, ensemble.jz_diagonal > 0)
    q /= 2 * ensemble.K
    q += q.conj().T
    return WitnessOperator(ensemble, q)


def build_qk_closed_form(ensemble: SpinEnsemble, theta_offset: float = 0.0) -> WitnessOperator:
    """Assemble the witness from its two extremal GHZ-like eigenvectors.

    The top/bottom eigenvectors at offset theta are
    |P+-> = (|up> +- c |down>)/sqrt(2) with c = (-1)^((K-1)/2) e^{i K theta},
    and the rest of the spectrum is exactly 1/2:

        Q = 1/2 [ 1 + C(K-1, (K-1)/2) (|P+><P+| - |P-><P-|) / 2^(K-1) ].

    |P+><P+| - |P-><P-| = c^* |up><down| + c |down><up|, and the descending-m
    local bases make |up> and |down> the first and last basis vectors, so Q is
    1/2 plus two corner entries.  c takes (e^{i theta})^K, so a large offset keeps its phase.
    theta_offset must be a finite real number (`spin._real`), since c would otherwise be NaN.
    """
    K = ensemble.K
    c = (-1) ** ((K - 1) // 2) * np.exp(1j * _real(theta_offset, "theta_offset")) ** K
    weight = binomial_exact(K - 1, (K - 1) // 2) / 2 ** (K - 1)
    q = np.diag(np.full(ensemble.dim, 0.5 + 0j))
    q[0, -1] = weight * np.conj(c) / 2
    q[-1, 0] = weight * c / 2
    return WitnessOperator(ensemble, q)


@dataclass(frozen=True)
class WitnessReport:
    """Exact scalar bounds for a given K, as rationals; a caller that needs a float takes float() of one.

    P_max       largest witness eigenvalue, reached by the GHZ-like state
    P_sep       maximum over biseparable (any bipartition, any product) states
    P_classical best score of a classical precessing vector, (1 + 1/K)/2
    gap         P_max - P_sep, the detectable margin
    """

    K: int
    P_max: Fraction
    P_sep: Fraction
    P_classical: Fraction
    gap: Fraction


def witness_report(K: int) -> WitnessReport:
    """Exact bound table entries for odd K >= 1.

    P_max = (1 + C/2^(K-1))/2,  P_sep = (1 + C/2^K)/2,  gap = C/2^(K+1),
    with C the central binomial coefficient C(K-1, (K-1)/2); all big-integer
    exact, so the large-K scaling claims do not pass through floats.  K is
    checked on every call; the report of each recent K is cached.
    """
    return _report(_check_odd_k(K))


@lru_cache(maxsize=16)  # small, so that `table --K ...` does not keep every row
def _report(K: int) -> WitnessReport:
    c = binomial_exact(K - 1, (K - 1) // 2)
    p_max = Fraction(1, 2) * (1 + Fraction(c, 2 ** (K - 1)))
    p_sep = Fraction(1, 2) * (1 + Fraction(c, 2**K))
    gap = Fraction(c, 2 ** (K + 1))
    p_classical = Fraction(K + 1, 2 * K)
    assert p_max - p_sep == gap
    return WitnessReport(K, p_max, p_sep, p_classical, gap)


def score(state: QuantumState, witness: WitnessOperator) -> float:
    """Expected fraction of positive outcomes, tr(rho Q) (raw, unclamped).

    The trace is the entrywise sum of rho * Q^T: O(dim^2), with no matrix product.
    """
    if state.ensemble != witness.ensemble:
        raise ValueError(f"state spins {state.ensemble.spins} do not match witness spins {witness.ensemble.spins}")
    if state.ket is not None:
        return float(np.real(state.ket.conj() @ witness.Q @ state.ket))
    return float(np.real(np.sum(state.rho * witness.Q.T)))


def _detected_phi(K: int) -> float:
    """The phase of the GHZ-like state that the zero-offset witness detects."""
    return np.pi * (K - 1) / 2


def phase_for_ghz(phi: float, K: int) -> float:
    """Direction offset that makes the phase-phi GHZ-like state score P_max.

    The witness with offset theta has top eigenvector
    |up> + (-1)^((K-1)/2) e^{i K theta} |down> (up to normalization), so
    matching the phase e^{i phi} gives theta = (phi - (K-1) pi/2)/K, the phase `_detected_phi` subtracted.
    phi is reduced modulo 2 pi through e^{i phi} first, as in `ghz_like`, so any finite phi keeps
    its phase; anything but a finite real number is rejected.  Offsets matter modulo 2 pi/K (a shift relabels the K
    directions): the value returned lies in [0, 2 pi/K), a remainder rounding up to 2 pi/K reading 0.
    """
    K = _check_odd_k(K)
    period = 2 * np.pi / K
    theta = (_reduced_angle(phi, "phi") - _detected_phi(K)) / K % period
    return 0.0 if theta == period else theta


@dataclass(frozen=True)
class GeneralizedWitness:
    """Sign-free variant f0 * 1 + f_odd(J_x) with separable bound f0 + f_K/2."""

    f_K: float
    sep_bound: float


def generalized_witness(ensemble: SpinEnsemble, f0: float, f_odd: Callable[[float], float]) -> GeneralizedWitness:
    """Evaluate the stretched-state coupling f_K = |<up| f_odd(Jx) |down>| from K alone, exactly.

    f0 must be a finite real number (`spin._real`).  f_odd must be an odd function on 0 and the K + 1 levels
    M_i = K/2 - i; it is evaluated once on each, every value it returns is a `spin._real` named f_odd, and oddness is
    checked to 1e-12.  One particle's corner weights <j|P_m|-j> are (-1)^i C(2j, i) / 4^j at m = j - i, so by
    Vandermonde the ensemble's are (-1)^i C(K, i) / 2^K at M_i, and f_K = |sum_i (-1)^i C(K, i) f(M_i)| / 2^K: the
    K-th central difference of f, exact, rounded once.  The row C(K, i) is `_binomial_row`.
    """
    f0 = _real(f0, "f0")
    K = ensemble.K
    levels = K / 2 - np.arange(K + 1.0)
    values = np.array([_real(f_odd(x), "f_odd") for x in (0.0, *levels)])
    if abs(values[0]) > 1e-12:
        raise ValueError("f_odd(0) != 0: not an odd function")
    values = values[1:]
    odd_dev = np.abs(values + values[::-1]) > 1e-12  # levels[::-1] == -levels exactly
    if odd_dev.any():
        raise ValueError(f"f_odd fails oddness at x = {np.abs(levels[odd_dev]).min()}")
    row = _binomial_row(K)
    f_k = float(abs(sum(Fraction(v) * (-1) ** i * row[i] for i, v in enumerate(values))) / 2**K)
    return GeneralizedWitness(f_K=f_k, sep_bound=f0 + f_k / 2)
