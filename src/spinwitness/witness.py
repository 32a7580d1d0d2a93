"""The sign-measurement witness: operator constructions and analytic bounds.

The witness averages, over K equally spaced in-plane directions, the spectral
indicator of a positive collective-spin component:

    Q = (1/K) sum_k pos(J_k),   pos = 1 on positive eigenspaces, 1/2 on zero.

For an ensemble with total spin K/2 (K odd) the operator collapses to a rank-2
correction of 1/2 * identity supported on the two GHZ-like combinations of the
stretched product states; `build_qk_direct` and `build_qk_closed_form` realize
both routes independently.  All scalar bounds come from `witness_report` in
exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .linalg import binomial_exact, hermitian_eigendecompose
from .spin import SpinEnsemble, collective_operator, direction_phases
from .states import QuantumState

__all__ = [
    "ZERO_EIGENVALUE_TOL",
    "WitnessOperator",
    "WitnessReport",
    "GeneralizedWitness",
    "pos_operator",
    "build_qk_direct",
    "build_qk_closed_form",
    "witness_report",
    "score",
    "phase_for_ghz",
    "generalized_witness",
]

# Eigenvalues this close to zero count as zero for pos() and for the spectral
# calculus of odd functions.  Far above eigensolver jitter (~1e-14 at desk
# dimensions), far below any genuine spacing that occurs here.
ZERO_EIGENVALUE_TOL = 1e-9

DIRECT = "direct"
CLOSED_FORM = "closed-form"


def pos_operator(op: np.ndarray) -> np.ndarray:
    """Spectral step function: projector on the positive eigenspace + half the zero one.

    pos(-op) = 1 - pos(op) by construction; tr pos(op) = dim/2 whenever the
    spectrum is symmetric.
    """
    w, v = hermitian_eigendecompose(op)
    weights = np.where(w > ZERO_EIGENVALUE_TOL, 1.0, np.where(w < -ZERO_EIGENVALUE_TOL, 0.0, 0.5))
    out = (v * weights) @ v.conj().T
    return (out + out.conj().T) / 2


@dataclass(frozen=True)
class WitnessOperator:
    ensemble: SpinEnsemble
    K: int
    theta_offset: float
    Q: np.ndarray = field(repr=False)
    construction: str

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


def build_qk_direct(ensemble: SpinEnsemble, theta_offset: float = 0.0) -> WitnessOperator:
    """Average pos(J_k) over the K directions, straight from the definition.

    Each J_k is a diagonal-phase conjugation of Jx (see `direction_phases`), so
    pos(J_k) = pos(Jx) * outer(ph_k, ph_k^*) and one eigensolve of Jx serves
    every direction:  Q = pos(Jx) * sum_k outer(ph_k, ph_k^*) / K.
    """
    K = ensemble.K
    ph = direction_phases(ensemble, theta_offset)
    q = pos_operator(collective_operator(ensemble).Jx) * (ph.T @ ph.conj()) / K
    return WitnessOperator(ensemble, K, theta_offset, (q + q.conj().T) / 2, DIRECT)


def _stretched_pair(ensemble: SpinEnsemble) -> tuple[np.ndarray, np.ndarray]:
    # Descending-m local bases make the all-up / all-down product states the
    # first and last basis vectors.
    up = np.zeros(ensemble.dim, dtype=complex)
    down = np.zeros(ensemble.dim, dtype=complex)
    up[0] = 1.0
    down[-1] = 1.0
    return up, down


def build_qk_closed_form(ensemble: SpinEnsemble, theta_offset: float = 0.0) -> WitnessOperator:
    """Assemble the witness from its two extremal GHZ-like eigenvectors.

    The top/bottom eigenvectors at offset theta are
    (|up> +- s e^{i K theta} |down>)/sqrt(2) with s = (-1)^((K-1)/2), and the
    rest of the spectrum is exactly 1/2:

        Q = 1/2 [ 1 + C(K-1, (K-1)/2) (|P+><P+| - |P-><P-|) / 2^(K-1) ].
    """
    K = ensemble.K
    dim = ensemble.dim
    up, down = _stretched_pair(ensemble)
    sign = (-1) ** ((K - 1) // 2)
    c = sign * np.exp(1j * K * theta_offset)
    p_plus = (up + c * down) / np.sqrt(2)
    p_minus = (up - c * down) / np.sqrt(2)
    weight = binomial_exact(K - 1, (K - 1) // 2) / 2 ** (K - 1)
    q = 0.5 * (np.eye(dim) + weight * (np.outer(p_plus, p_plus.conj()) - np.outer(p_minus, p_minus.conj())))
    return WitnessOperator(ensemble, K, theta_offset, q, CLOSED_FORM)


@dataclass(frozen=True)
class WitnessReport:
    """Exact scalar bounds for a given K; floats are renderings of the rationals.

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

    @property
    def P_max_float(self) -> float:
        return float(self.P_max)

    @property
    def P_sep_float(self) -> float:
        return float(self.P_sep)

    @property
    def P_classical_float(self) -> float:
        return float(self.P_classical)

    @property
    def gap_float(self) -> float:
        return float(self.gap)


def witness_report(K: int) -> WitnessReport:
    """Exact bound table entries for odd K >= 1.

    P_max = (1 + C/2^(K-1))/2,  P_sep = (1 + C/2^K)/2,  gap = C/2^(K+1),
    with C the central binomial coefficient C(K-1, (K-1)/2); all big-integer
    exact, so the large-K scaling claims do not pass through floats.
    """
    if K < 1 or K % 2 == 0:
        raise ValueError(f"K must be a positive odd integer, got {K}")
    c = binomial_exact(K - 1, (K - 1) // 2)
    p_max = Fraction(1, 2) * (1 + Fraction(c, 2 ** (K - 1)))
    p_sep = Fraction(1, 2) * (1 + Fraction(c, 2**K))
    gap = Fraction(c, 2 ** (K + 1))
    p_classical = Fraction(K + 1, 2 * K)
    assert p_max - p_sep == gap
    return WitnessReport(K, p_max, p_sep, p_classical, gap)


def score(state: QuantumState, witness: WitnessOperator) -> float:
    """Expected fraction of positive outcomes, tr(rho Q) (raw, unclamped)."""
    if state.dim != witness.dim:
        raise ValueError(f"state dim {state.dim} does not match witness dim {witness.dim}")
    if state.ket is not None:
        return float(np.real(state.ket.conj() @ witness.Q @ state.ket))
    return float(np.real(np.trace(state.rho @ witness.Q)))


def phase_for_ghz(phi: float, K: int) -> float:
    """Direction offset that makes the phase-phi GHZ-like state score P_max.

    The witness with offset theta has top eigenvector
    |up> + (-1)^((K-1)/2) e^{i K theta} |down> (up to normalization), so
    matching the phase e^{i phi} gives theta = (2 phi - (K-1) pi)/(2K).
    Offsets are only meaningful modulo 2 pi/K (shifting by 2 pi/K relabels the
    K directions); the returned value is reduced into [0, 2 pi/K).
    """
    period = 2 * np.pi / K
    theta = (phi - (K - 1) * np.pi / 2) / K  # halved before dividing, so no finite phi overflows
    return float(theta % period)


@dataclass(frozen=True)
class GeneralizedWitness:
    """Sign-free variant f0 * 1 + f_odd(J_x) with separable bound f0 + f_K/2."""

    f0: float
    f_odd: Callable[[float], float] = field(repr=False)
    f_K: float
    sep_bound: float


def generalized_witness(ensemble: SpinEnsemble, f0: float, f_odd: Callable[[float], float]) -> GeneralizedWitness:
    """Evaluate the stretched-state coupling f_K = |<up| f_odd(Jx) |down>|.

    f_odd must be an odd real function on the spectrum of the collective Jx;
    oddness is spot-checked on the positive eigenvalues (tolerance 1e-12).
    Eigenvalues within the zero tolerance are evaluated at exactly 0, so step
    functions like sign() stay well defined on integer-spin blocks.
    """
    jx = collective_operator(ensemble).Jx
    w, v = hermitian_eigendecompose(jx)
    w = np.where(np.abs(w) < ZERO_EIGENVALUE_TOL, 0.0, w)
    if abs(float(f_odd(0.0))) > 1e-12:
        raise ValueError("f_odd(0) != 0: not an odd function")
    for x in np.unique(np.abs(w[w != 0.0])):
        if abs(float(f_odd(-x)) + float(f_odd(x))) > 1e-12:
            raise ValueError(f"f_odd fails oddness at x = {x}")
    values = np.array([float(f_odd(x)) for x in w])
    f_k = abs((v[0] * values) @ v[-1].conj())  # the [0, -1] entry of f(Jx) = V diag(values) V^dag
    return GeneralizedWitness(f0=float(f0), f_odd=f_odd, f_K=float(f_k), sep_bound=float(f0) + float(f_k) / 2)
