"""Monte-Carlo simulation of the measurement protocol.

One round: draw a direction index k uniformly, measure the sign of the
collective spin component along direction 2 pi k/K + theta, record whether it
came out positive.  The long-run positive fraction estimates tr(rho Q); a
Wilson 95% interval with lower bound above the biseparable bound is the
detection verdict (the decision rule is this package's choice — the math
fixes the bound, not the statistics).

Determinism contract: the round stream comes from a counter-based generator
(numpy Philox) keyed by the seed; round r consumes exactly row r of the
pre-shaped uniform table, so every round's draws are a pure function of
(seed, round index) and results are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import hermitian_eigendecompose
from .spin import SpinEnsemble, collective_matrices, collective_operator, direction_phases
from .states import QuantumState
from .witness import ZERO_EIGENVALUE_TOL, pos_operator, witness_report

__all__ = [
    "ProtocolConfig",
    "ProtocolEstimate",
    "wilson_interval",
    "run_protocol",
    "run_protocol_subensembles",
    "time_schedule",
    "rounds_needed",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class ProtocolConfig:
    ensemble: SpinEnsemble
    state: QuantumState
    rounds: int
    seed: int
    theta_offset: float = 0.0
    subensembles: tuple[tuple[int, ...], ...] | None = None
    stratified: bool = False  # equal trials per k; a variance-reduction deviation from the uniform draw

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.state.ensemble != self.ensemble:
            raise ValueError("state was built for a different ensemble")
        if self.subensembles is not None:
            groups = tuple(tuple(sorted(int(i) for i in g)) for g in self.subensembles)
            flat = [i for g in groups for i in g]
            if sorted(flat) != list(range(self.ensemble.N)):
                raise ValueError(f"subensembles {groups} are not a partition of 0..{self.ensemble.N - 1}")
            object.__setattr__(self, "subensembles", groups)


@dataclass(frozen=True)
class ProtocolEstimate:
    p_hat: float
    rounds: int
    ci_low: float
    ci_high: float
    per_k_counts: tuple[tuple[int, int], ...]  # (positives, trials) for k = 0..K-1


def wilson_interval(positives: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval — correct coverage where Wald collapses."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p_hat = positives / trials
    denom = 1 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2)) / denom
    return float(center - half), float(center + half)


def _uniforms(seed: int, rounds: int, columns: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((rounds, columns))


def _draw_directions(u0: np.ndarray, K: int, stratified: bool) -> np.ndarray:
    if stratified:
        return np.arange(len(u0)) % K
    return np.minimum((u0 * K).astype(np.int64), K - 1)


def _estimate(hits: np.ndarray, ks: np.ndarray, K: int, rounds: int) -> ProtocolEstimate:
    positives = int(hits.sum())
    trials_k = np.bincount(ks, minlength=K)
    pos_k = np.bincount(ks, weights=hits.astype(float), minlength=K)
    low, high = wilson_interval(positives, rounds)
    per_k = tuple((int(pos_k[k]), int(trials_k[k])) for k in range(K))
    return ProtocolEstimate(positives / rounds, rounds, low, high, per_k)


def run_protocol(config: ProtocolConfig) -> ProtocolEstimate:
    """Simulate the single-shot sign measurement, one direction per round.

    pos(J_k) = pos(Jx) * outer(ph_k, ph_k^*), so with M = rho^T * pos(Jx) the
    direction-k positive probability is ph_k . M . ph_k^*: one eigensolve in all.
    """
    ensemble = config.ensemble
    K = ensemble.K
    ph = direction_phases(ensemble, config.theta_offset)
    weighted = config.state.density().T * pos_operator(collective_operator(ensemble).Jx)
    probs = np.clip(((ph @ weighted) * ph.conj()).sum(axis=1).real, 0.0, 1.0)
    u = _uniforms(config.seed, config.rounds, 2)
    ks = _draw_directions(u[:, 0], K, config.stratified)
    hits = u[:, 1] < probs[ks]
    return _estimate(hits, ks, K, config.rounds)


def run_protocol_subensembles(config: ProtocolConfig) -> ProtocolEstimate:
    """Simulate per-group sign measurements postprocessed into the total sign.

    The group observables along one direction commute; each round jointly
    samples all of them in their common (product) eigenbasis from the full
    state's Born distribution — correct even when the state is entangled
    across groups — then adds the sampled components.  A zero total (possible
    only for integer group sums canceling) falls back to a fair coin,
    mirroring pos(0) = 1/2.

    Group eigenbases are fixed: the direction-k group operators are the group
    Jx's conjugated by the group factors of diag(ph_k) (see
    `direction_phases`), and those factors multiply to diag(ph_k).  So each
    group's Jx is eigensolved once, each direction only rotates the state by
    diag(ph_k)^dag before the same Born contraction, and one grid of outcome
    sums serves every k.

    Seed policy: the same Philox table layout as run_protocol (column 0 picks
    k, column 1 picks the outcome) plus a third column for the tie coin, so
    the two simulators agree in distribution but not bit-for-bit.
    """
    if config.subensembles is None:
        raise ValueError("config.subensembles is required here")
    ensemble = config.ensemble
    K = ensemble.K
    groups = config.subensembles
    dims = ensemble.local_dims
    n = ensemble.N
    rho_form = config.state.ket is None
    state = config.state.rho if rho_form else config.state.ket

    eigvals, v_tensors = [], []
    for group in groups:
        w, v = hermitian_eigendecompose(collective_matrices([ensemble.spins[i] for i in group])[0])
        eigvals.append(w)
        v_tensors.append(v.reshape([dims[i] for i in group] + [len(w)]))
    # Born probabilities over the joint eigenbasis, slots contracted in place;
    # state axes come first (rows, then columns for rho), outcome axes after.
    first_out = 2 * n if rho_form else n
    operands = [list(range(first_out))]
    for s, (group, v) in enumerate(zip(groups, v_tensors)):
        operands += [v.conj(), list(group) + [first_out + s]]
        if rho_form:
            operands += [v, [n + i for i in group] + [first_out + s]]
    out_axes = [first_out + s for s in range(len(groups))]
    sums = np.zeros(1)
    for w in eigvals:
        sums = (sums[:, None] + w[None, :]).reshape(-1)

    cum_by_k = []
    for ph in direction_phases(ensemble, config.theta_offset):
        if rho_form:
            rotated = (np.outer(ph.conj(), ph) * state).reshape(dims + dims)
            p = np.einsum(rotated, *operands, out_axes).real
        else:
            p = np.abs(np.einsum((ph.conj() * state).reshape(dims), *operands, out_axes)) ** 2
        cum = np.cumsum(p.reshape(-1))
        cum[-1] = max(cum[-1], 1.0)  # guard the last bin against rounding shortfall
        cum_by_k.append(cum)

    u = _uniforms(config.seed, config.rounds, 3)
    ks = _draw_directions(u[:, 0], K, config.stratified)
    hits = np.empty(config.rounds, dtype=bool)
    for k in range(K):
        rows = np.nonzero(ks == k)[0]
        if rows.size == 0:
            continue
        idx = np.searchsorted(cum_by_k[k], u[rows, 1], side="right")
        idx = np.minimum(idx, len(sums) - 1)
        s = sums[idx]
        hits[rows] = np.where(np.abs(s) <= ZERO_EIGENVALUE_TOL, u[rows, 2] < 0.5, s > 0)
    return _estimate(hits, ks, K, config.rounds)


def time_schedule(K: int, omega: float) -> list[float]:
    """Measurement times t_k = (2 pi / omega) k / K for a spin precessing at omega.

    Measuring the fixed x-component at t_k under H = -omega Jz reproduces the
    direction-k statistics, turning K directions into K wait times.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return [2 * np.pi / omega * k / K for k in range(K)]


def rounds_needed(K: int, power_margin: float) -> int:
    """Smallest round count resolving the detection gap with margin to spare.

    Finds the least n whose Wilson 95% half-width, at success probability
    midway across the gap, drops below gap * power_margin / 2.
    """
    if not 0 < power_margin < 1:
        raise ValueError("power_margin must lie in (0, 1)")
    report = witness_report(K)
    p_mid = float(report.P_sep + report.gap / 2)
    target = report.gap_float * power_margin / 2

    def half_width(n: int) -> float:
        denom = 1 + Z95**2 / n
        return Z95 * np.sqrt(p_mid * (1 - p_mid) / n + Z95**2 / (4 * n**2)) / denom

    lo, hi = 1, 1
    while half_width(hi) >= target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if half_width(mid) < target:
            hi = mid
        else:
            lo = mid + 1
    return lo
