"""Monte-Carlo simulation of the measurement protocol.

One round: draw a direction index k uniformly, measure the sign of the
collective spin component along direction 2 pi k/K + theta, record whether it
came out positive.  The long-run positive fraction estimates tr(rho Q); a
Wilson 95% interval with lower bound above the biseparable bound is the
detection verdict (the decision rule is this package's choice — the math
fixes the bound, not the statistics).

Both samplers reduce the state to the K exact probabilities q_k of a
positive round with one kernel (`_positive_probabilities`) and share one
round sampler (`_sample_signs`).  A round reports only a sign, so drawing it
from q_k is the same per-round distribution as drawing the full measurement
outcome and taking its sign.  The partition into subensembles cannot change
q_k: along direction k the one-body components J_k^(n) commute and sum to
J_k, so any group's outcome is the sum of its members' outcomes, and the
recorded total sign has the same distribution for every partition,
singletons and the whole ensemble included.

Determinism contract: the round stream comes from a counter-based generator
(numpy Philox) keyed by the seed; round r consumes exactly row r of a
two-column uniform table (column 0 picks k, column 1 is compared with q_k),
so every round's draws are a pure function of (seed, round index) and
results are independent of evaluation order.  The table is drawn in fixed
blocks from one generator, which yields the same rows as a single draw.
For one seed the two samplers give the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigendecompose
from .spin import SpinEnsemble, direction_phases, spin_matrices
from .states import QuantumState
from .witness import witness_report

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


def _apply_slot_bases(x: np.ndarray, bases: list[np.ndarray]) -> np.ndarray:
    """Contract the leading axes of x, one slot block each, with `bases` in turn.

    Each step reshapes the first block to rows, multiplies by the slot matrix
    and leaves its outcome axis last, so after all steps the block order is
    restored and any trailing axes have moved to the front.
    """
    for b in bases:
        x = x.reshape(len(b), -1).T @ b
    return x


def _positive_probabilities(config: ProtocolConfig) -> np.ndarray:
    """q_k = tr(rho pos(J_k)) for k = 0..K-1, from the per-particle eigenbases of Jx.

    The eigenbasis of Jx is the product V = (x) V_n of the local ones and its
    eigenvalues are sums of local ones; K is odd, so no sum is zero.  J_k is
    the conjugation of Jx by diag(ph_k) (see `direction_phases`).  A ket is
    rotated to all K directions at once and each V_n^dag applied along its
    slot; for a density matrix pos(Jx) = V diag(positive) V^dag is built once,
    slot by slot, and each direction is a phase product.  Nothing above one
    particle's dimension is eigensolved.
    """
    ph = direction_phases(config.ensemble, config.theta_offset)
    bases, sums = [], np.zeros(1)
    for j in config.ensemble.spins:
        w, v = hermitian_eigendecompose(spin_matrices(j)[0])
        bases.append(v)
        sums = (sums[:, None] + w[None, :]).reshape(-1)
    positive = sums > 0
    if config.state.ket is not None:
        kets = config.state.ket[:, None] * ph.conj().T  # (dim, K): slots first
        amplitudes = _apply_slot_bases(kets, [v.conj() for v in bases]).reshape(config.ensemble.K, -1)
        return np.abs(amplitudes) ** 2 @ positive
    pos_jx = _apply_slot_bases(np.diag(positive.astype(complex)), [v.T for v in bases] + [v.conj().T for v in bases])
    weighted = config.state.rho.T * pos_jx.reshape(len(sums), -1)
    return ((ph @ weighted) * ph.conj()).sum(axis=1).real


def run_protocol(config: ProtocolConfig) -> ProtocolEstimate:
    """Simulate the single-shot sign measurement of the total J_k, one direction per round.

    The probabilities come from the per-particle kernel: measuring each
    particle's component of J_k and summing the outcomes gives the same
    distribution as measuring J_k, because the components commute and sum to
    it.  So this and `run_protocol_subensembles` draw from the same q_k.
    """
    return _sample_signs(config, _positive_probabilities(config))


def run_protocol_subensembles(config: ProtocolConfig) -> ProtocolEstimate:
    """Simulate per-group sign measurements postprocessed into the total sign.

    The group components of J_k commute; a round jointly measures all of them
    (correct even when the state is entangled across groups) and reports the
    sign of the summed outcome.  Each group's component is itself the sum of
    its particles' commuting components, so a group outcome is the sum of its
    members' outcomes and the summed outcome has the distribution of one
    measurement per particle, whatever the partition.  Only the sign is
    recorded, so the round is a coin of bias q_k, the same q_k as
    `run_protocol`; for one seed the two samplers give the same counts.  The
    partition is checked but never enters the arithmetic.
    """
    if config.subensembles is None:
        raise ValueError("config.subensembles is required here")
    return _sample_signs(config, _positive_probabilities(config))


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
