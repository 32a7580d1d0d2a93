"""Monte-Carlo simulation of the measurement protocol.

One round: draw a direction index k uniformly, measure the sign of the
collective spin component along direction 2 pi k/K + theta, record whether it
came out positive.  The long-run positive fraction estimates tr(rho Q); a
Wilson 95% interval with lower bound above the biseparable bound is the
detection verdict (the decision rule is this package's choice — the math
fixes the bound, not the statistics).

`run_protocol` reduces the state to the K exact probabilities q_k of a
positive round (`_positive_probabilities`) and draws the tallies from them
(`_sample_signs(probs, rounds, seed)`, the one sampler every path runs and the
one place rounds and seed are checked).  For a ket, q_k is the m > 0 mass
(`_positive_mass`) of `outcome_table`, the Born probabilities of every
product Jx outcome along every direction.  `simulate` builds neither: its
GHZ-like states, noisy or mixed, share one q_k for every direction, read from
`spin.level_weights` and the noise model's survival.  A round reports
only a sign, so drawing it from q_k is the same per-round distribution as
drawing the full measurement outcome and taking its sign.  A partition into
subensembles cannot change q_k: along direction k the one-body components
J_k^(n) commute and sum to J_k, so any group's outcome is the sum of its
members' outcomes, and the recorded total sign has the same distribution for
every partition, singletons and the whole ensemble included.  So
`run_protocol(state, rounds, seed, theta_offset)` serves a per-group
measurement too and takes no partition.

Determinism contract: only the K pairs (positives, trials) are kept, so the
sampler draws those tallies from their exact joint law instead of round by
round.  Each round picks k uniformly and is then a Bernoulli(q_k) coin, so the
trials are multinomial(rounds, 1/K each) and, given them, direction k's
positives are binomial(trials_k, q_k).  The draws come from one
counter-based generator (numpy Philox) keyed by the seed, so the counts are a
pure function of (seed, rounds, q) and cost O(K) whatever the round count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import ROUND_LIMIT, SEED_LIMIT, SpinEnsemble
from .spin import _apply_slot_bases, _check_odd_k, _integer, _real, direction_phases, jx_function
from .states import QuantumState
from .witness import witness_report

__all__ = [
    "ProtocolEstimate",
    "wilson_interval",
    "outcome_table",
    "run_protocol",
    "time_schedule",
    "rounds_needed",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class ProtocolEstimate:
    p_hat: float
    rounds: int
    ci_low: float
    ci_high: float
    per_k_counts: tuple[tuple[int, int], ...]  # (positives, trials) for k = 0..K-1
    per_k_probs: tuple[float, ...]  # exact positive probability each direction was sampled from


def _wilson_half_width(p_hat: float, trials: int) -> float:
    """Half-width of the Wilson 95% interval at success fraction p_hat over the trials."""
    return Z95 * np.sqrt(p_hat * (1 - p_hat) / trials + Z95**2 / (4 * trials**2)) / (1 + Z95**2 / trials)


def wilson_interval(positives: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval — correct coverage where Wald collapses.

    The interval always lies in [0, 1] and contains positives / trials; the
    clamps only undo rounding at p_hat = 0 or 1, where an edge lands an ulp
    off.
    """
    positives, trials = _integer(positives, "positives"), _integer(trials, "trials", 1)
    if positives > trials:
        raise ValueError(f"positives={positives} must lie in [0, trials={trials}]")
    p_hat = positives / trials
    center = (p_hat + Z95**2 / (2 * trials)) / (1 + Z95**2 / trials)
    half = _wilson_half_width(p_hat, trials)
    return float(max(0.0, min(center - half, p_hat))), float(min(1.0, max(center + half, p_hat)))


def _sample_signs(probs: np.ndarray, rounds: int, seed: int) -> ProtocolEstimate:
    """Draw the per-direction tallies from their exact law given the K positive probabilities."""
    rounds, seed = _integer(rounds, "rounds", 1, ROUND_LIMIT), _integer(seed, "seed", 0, SEED_LIMIT)
    K = len(probs)
    probs = np.clip(probs, 0.0, 1.0)
    gen = np.random.Generator(np.random.Philox(key=seed))
    trials = gen.multinomial(rounds, np.full(K, 1 / K))
    positives = gen.binomial(trials, probs)
    total = int(positives.sum())
    low, high = wilson_interval(total, rounds)
    per_k = tuple((int(positives[k]), int(trials[k])) for k in range(K))
    return ProtocolEstimate(total / rounds, rounds, low, high, per_k, tuple(float(q) for q in probs))


def outcome_table(state: QuantumState, theta_offset: float = 0.0) -> np.ndarray:
    """Born probabilities |<o| V^T D_k^dag |psi>|^2 of a ket, shaped (K, *local_dims).

    Entry [k, o_1, ..., o_N] is the probability that, along direction k (see
    `direction_phases`), particle n's Jx reads j_n - o_n for every n.  The ket
    is rotated to all K directions and each v_n^T applied along its slot, so
    the cost is O(K dim sum d_n) and no density matrix is formed.
    """
    if state.ket is None:
        raise ValueError("outcome_table needs a ket, not a density matrix")
    ensemble = state.ensemble
    kets = state.ket[:, None] * direction_phases(ensemble, theta_offset).conj().T  # (dim, K): slots first
    amplitudes = _apply_slot_bases(kets, ensemble.jx_eigenbases)
    return (np.abs(amplitudes) ** 2).reshape(ensemble.K, *ensemble.local_dims)


def _positive_mass(table: np.ndarray, ensemble: SpinEnsemble) -> np.ndarray:
    """Each direction's probability of a positive total m: the m > 0 mass of every row of an outcome table.

    Axes before the table's last N + 1, (K, *local_dims), are kept: a stack of tables gives a stack of rows.
    """
    return table.reshape(*table.shape[:table.ndim - ensemble.N], -1) @ (ensemble.jz_diagonal > 0)


def _positive_probabilities(state: QuantumState, theta_offset: float) -> np.ndarray:
    """q_k = tr(rho pos(J_k)) for k = 0..K-1, from the factored Jx = V diag(m) V^T in `spin`.

    K is odd, so pos picks m > 0: for a ket, `_positive_mass` of its outcome
    table; for a density matrix pos(Jx) is built once, each direction a phase product.
    """
    ensemble = state.ensemble
    if state.ket is not None:
        return _positive_mass(outcome_table(state, theta_offset), ensemble)
    ph = direction_phases(ensemble, theta_offset)
    weighted = state.rho.T * jx_function(ensemble, ensemble.jz_diagonal > 0)
    return ((ph @ weighted) * ph.conj()).sum(axis=1).real


def run_protocol(state: QuantumState, rounds: int, seed: int, theta_offset: float = 0.0) -> ProtocolEstimate:
    """Simulate `rounds` single-shot sign measurements of the total J_k, one direction per round.

    The one-body components of J_k commute and sum to it, so the per-particle
    kernel gives its distribution, and a per-group measurement has the same one.
    The sampler checks rounds and seed, and `direction_phases` theta_offset.
    """
    return _sample_signs(_positive_probabilities(state, theta_offset), rounds, seed)


# perfbench/tracer.py's TRACED looks it up; ROADMAP item 6 deletes it.
def run_protocol_subensembles(state: QuantumState, rounds: int, seed: int,
                              theta_offset: float = 0.0) -> ProtocolEstimate:
    """Per-group sign measurements summed into the total sign: no split changes q_k, so `run_protocol`'s counts."""
    return run_protocol(state, rounds, seed, theta_offset)


def time_schedule(K: int, omega: float) -> list[float]:
    """Measurement times t_k = (2 pi / omega) k / K for a spin precessing at omega.

    Measuring the fixed x-component at t_k under H = -omega Jz reproduces the
    direction-k statistics, turning K directions into K wait times.  omega is a positive `spin._real`; one so
    small that a time overflows the float range (2 pi / omega is inf below about 3.5e-308) is a ValueError.
    """
    K = _check_odd_k(K)
    if not (omega := _real(omega, "omega")) > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    times = [2 * np.pi / omega * k / K for k in range(K)]
    if not np.isfinite(times).all():
        raise ValueError(f"omega must be large enough for finite times, got {omega}")
    return times


def rounds_needed(K: int, power_margin: float) -> int:
    """Smallest round count resolving the detection gap with margin to spare.

    Finds the least n whose Wilson 95% half-width, at success probability
    midway across the gap, drops below gap * power_margin / 2.  A count that
    would reach 2^63, the protocol's round limit, raises ValueError.
    """
    if not 0 < (power_margin := _real(power_margin, "power_margin")) < 1:
        raise ValueError("power_margin must lie in (0, 1)")
    report = witness_report(K)
    p_mid = float(report.P_sep + report.gap / 2)
    target = float(report.gap) * power_margin / 2
    lo, hi = 1, 1
    while _wilson_half_width(p_mid, hi) >= target:
        if hi == ROUND_LIMIT - 1:
            raise ValueError(f"power_margin {power_margin!r} at K = {K} needs at least 2^63 rounds, "
                             "the protocol's round limit")
        hi = min(2 * hi, ROUND_LIMIT - 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if _wilson_half_width(p_mid, mid) < target:
            hi = mid
        else:
            lo = mid + 1
    return lo
