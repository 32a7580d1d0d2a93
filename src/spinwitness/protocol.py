"""Monte-Carlo simulation of the measurement protocol.

One round: draw a direction index k uniformly, measure the sign of the
collective spin component along direction 2 pi k/K + theta, record whether it
came out positive.  The long-run positive fraction estimates tr(rho Q); a
Wilson 95% interval with lower bound above the biseparable bound is the
detection verdict (the decision rule is this package's choice — the math
fixes the bound, not the statistics).

Both samplers reduce the state to the K exact probabilities q_k of a
positive round and share one round sampler (`_sample_signs`).  A round
reports only a sign, so drawing it from q_k is the same per-round
distribution as drawing the full measurement outcome and taking its sign.

Determinism contract: the round stream comes from a counter-based generator
(numpy Philox) keyed by the seed; round r consumes exactly row r of a
two-column uniform table (column 0 picks k, column 1 is compared with q_k),
so every round's draws are a pure function of (seed, round index) and
results are independent of evaluation order.  The table is drawn in fixed
blocks from one generator, which yields the same rows as a single draw.
For one seed the two samplers give the same counts whenever their q_k agree
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

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
_ROUND_BLOCK = 1 << 18  # rounds drawn and tallied at a time; bounds the sampler's memory


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
    per_k_probs: tuple[float, ...]  # exact positive probability each direction was sampled from


def wilson_interval(positives: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval — correct coverage where Wald collapses."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p_hat = positives / trials
    denom = 1 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2)) / denom
    return float(center - half), float(center + half)


def _sample_signs(config: ProtocolConfig, probs: np.ndarray) -> ProtocolEstimate:
    """Draw the rounds against the per-direction positive probabilities and tally them."""
    K = config.ensemble.K
    probs = np.clip(probs, 0.0, 1.0)
    gen = np.random.Generator(np.random.Philox(key=config.seed))
    tally = np.zeros(2 * K, dtype=np.int64)  # entry 2k + hit counts direction k's rounds by outcome
    for start in range(0, config.rounds, _ROUND_BLOCK):
        u = gen.random((min(_ROUND_BLOCK, config.rounds - start), 2))
        if config.stratified:
            ks = np.arange(start, start + len(u)) % K
        else:
            ks = np.minimum((u[:, 0] * K).astype(np.int64), K - 1)
        tally += np.bincount(2 * ks + (u[:, 1] < probs[ks]), minlength=2 * K)
    positives, trials = tally[1::2], tally[0::2] + tally[1::2]
    total = int(positives.sum())
    low, high = wilson_interval(total, config.rounds)
    per_k = tuple((int(positives[k]), int(trials[k])) for k in range(K))
    return ProtocolEstimate(total / config.rounds, config.rounds, low, high, per_k, tuple(float(q) for q in probs))


def run_protocol(config: ProtocolConfig) -> ProtocolEstimate:
    """Simulate the single-shot sign measurement, one direction per round.

    pos(J_k) = pos(Jx) * outer(ph_k, ph_k^*), so with M = rho^T * pos(Jx) the
    direction-k positive probability is ph_k . M . ph_k^*: one eigensolve in all.
    """
    ph = direction_phases(config.ensemble, config.theta_offset)
    weighted = config.state.density().T * pos_operator(collective_operator(config.ensemble).Jx)
    return _sample_signs(config, ((ph @ weighted) * ph.conj()).sum(axis=1).real)


def _apply_group_bases(x: np.ndarray, bases: list[np.ndarray]) -> np.ndarray:
    """Contract the leading axes of x, one group block each, with `bases` in turn.

    Each step reshapes the first block to rows, multiplies by the group matrix
    and leaves its outcome axis last, so after all steps the block order is
    restored and any trailing axes have moved to the front.
    """
    for b in bases:
        x = x.reshape(len(b), -1).T @ b
    return x


def run_protocol_subensembles(config: ProtocolConfig) -> ProtocolEstimate:
    """Simulate per-group sign measurements postprocessed into the total sign.

    The group observables along one direction commute; a round jointly
    measures all of them in their common (product) eigenbasis — correct even
    when the state is entangled across groups — and reports the sign of the
    summed outcome, with a fair coin on a zero sum (mirroring pos(0) = 1/2).
    Only that sign is recorded, so the round is exactly a coin of bias
    q_k = sum_o c(o) p_k(o), where p_k(o) is the Born probability of the joint
    outcome o along direction k and c(o) is 1, 1/2 or 0 as the outcome sum is
    positive, zero or negative.  The q_k go to the same round sampler as
    `run_protocol`, so for one seed the counts match it whenever the two sets
    of q_k agree to rounding; the sampled distribution is that of the
    outcome-by-outcome experiment.

    Group eigenbases are fixed: the direction-k group operators are the group
    Jx's conjugated by the group factors of diag(ph_k) (see
    `direction_phases`), and those factors multiply to diag(ph_k).  So each
    group's Jx is eigensolved once and each direction only rotates the state
    by diag(ph_k)^dag.  The state's slots are put in group order once; each
    group's V^dag is then applied along its own axes by reshape and matrix
    product — all K rotated kets at once, or a density matrix one direction
    at a time on both sides — and never as a dense product basis.
    """
    if config.subensembles is None:
        raise ValueError("config.subensembles is required here")
    ensemble = config.ensemble
    groups = config.subensembles
    dims = ensemble.local_dims
    order = [i for g in groups for i in g]

    bases, sums = [], np.zeros(1)
    for group in groups:
        w, v = hermitian_eigendecompose(collective_matrices([ensemble.spins[i] for i in group])[0])
        bases.append(v)
        sums = (sums[:, None] + w[None, :]).reshape(-1)
    c = np.where(np.abs(sums) <= ZERO_EIGENVALUE_TOL, 0.5, sums > 0)  # sign weight of each outcome sum

    def grouped(a: np.ndarray) -> np.ndarray:  # slots of the last axis into group order
        lead = a.shape[:-1]
        axes = list(range(len(lead))) + [len(lead) + i for i in order]
        return a.reshape(lead + dims).transpose(axes).reshape(lead + (-1,))

    ph = grouped(direction_phases(ensemble, config.theta_offset)).conj()
    row_bases = [v.conj() for v in bases]
    if config.state.ket is not None:
        kets = grouped(config.state.ket)[:, None] * ph.T  # (dim, K): slots first
        p = np.abs(_apply_group_bases(kets, row_bases)) ** 2
        return _sample_signs(config, p.reshape(ensemble.K, -1) @ c)
    rho = grouped(grouped(config.state.rho).T).T
    probs = np.empty(ensemble.K)
    for k in range(ensemble.K):
        rotated = np.outer(ph[k], ph[k].conj()) * rho
        born = _apply_group_bases(rotated, row_bases + bases).reshape(len(sums), -1)
        probs[k] = born.diagonal().real @ c
    return _sample_signs(config, probs)


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
