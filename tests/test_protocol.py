from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linalg_reference import direction_operator, outcome_table_reference
from spinwitness.protocol import (
    _sample_signs,
    outcome_table,
    rounds_needed,
    run_protocol,
    run_protocol_subensembles,
    time_schedule,
    wilson_interval,
)
from spinwitness.spin import SpinEnsemble, collective_operator, direction_phases, spin_matrices
from spinwitness.states import QuantumState, ghz_like, ghz_mixture, random_ket
from spinwitness.witness import build_qk_closed_form, build_qk_direct, phase_for_ghz, pos_operator, witness_report

E3 = SpinEnsemble((0.5, 0.5, 0.5))
E_MIXED = SpinEnsemble((1, 0.5))

# 1% critical values of chi-square by degrees of freedom (scipy.stats.chi2.ppf(0.99, df))
CHI2_99 = {1: 6.634896601021215, 2: 9.21034037197618, 4: 13.276704135987622, 9: 21.665994333461924}


def chi2_homogeneity(counts_a, counts_b):
    """Pearson chi-square that two samples over the same cells share one distribution (df = cells - 1)."""
    table = np.array([counts_a, counts_b], dtype=float)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / table.sum()
    return float(((table - expected) ** 2 / expected).sum())


# --- Wilson interval ---


def test_wilson_basic_shape():
    low, high = wilson_interval(75, 100)
    assert 0 < low < 0.75 < high < 1


def test_wilson_symmetry_under_complement():
    low, high = wilson_interval(30, 120)
    low2, high2 = wilson_interval(90, 120)
    assert low2 == pytest.approx(1 - high, abs=1e-15)
    assert high2 == pytest.approx(1 - low, abs=1e-15)


def test_wilson_edges_stay_in_unit_interval():
    low, high = wilson_interval(0, 50)
    assert low == pytest.approx(0.0, abs=1e-15)
    assert 0 < high < 0.1
    low, high = wilson_interval(50, 50)
    assert high == pytest.approx(1.0, abs=1e-15)
    assert 0.9 < low < 1


def test_wilson_narrows_with_trials():
    w1 = wilson_interval(60, 100)
    w2 = wilson_interval(600, 1000)
    assert (w2[1] - w2[0]) < (w1[1] - w1[0])


def test_wilson_rejects_zero_trials():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


@pytest.mark.parametrize("positives,trials", [(5, 3), (-1, 10), (2.5, 10), (3, 10.5), (True, 3)])
def test_wilson_rejects_positives_outside_trials(positives, trials):
    # each count is checked on its own, so a non-integer trials count is named alone
    with pytest.raises(ValueError, match="^trials" if isinstance(trials, float) else "positives"):
        wilson_interval(positives, trials)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_wilson_contains_estimate_and_shrinks_with_trials(counts):
    positives, trials = counts
    p_hat = positives / trials
    low, high = wilson_interval(positives, trials)
    assert 0.0 <= low <= p_hat <= high <= 1.0
    low4, high4 = wilson_interval(4 * positives, 4 * trials)  # same p_hat, four times the trials
    assert high4 - low4 < high - low


# --- monolithic protocol ---


def test_protocol_is_deterministic():
    st = ghz_like(E3, phi=np.pi)
    a = run_protocol(st, 50_000, 11)
    b = run_protocol(st, 50_000, 11)
    assert a == b  # bit-for-bit, counts included
    c = run_protocol(st, 50_000, 12)
    assert a.p_hat != c.p_hat


def test_protocol_estimates_known_rate():
    # |up> + e^{i pi}|down> under the zero-offset witness hits exactly 3/4
    st = ghz_like(E3, phi=np.pi)
    est = run_protocol(st, 200_000, 3)
    sigma = np.sqrt(0.75 * 0.25 / 200_000)
    assert abs(est.p_hat - 0.75) < 5 * sigma
    assert est.ci_low < 0.75 < est.ci_high


def test_protocol_counts_are_consistent():
    st = ghz_like(E3, phi=np.pi)
    est = run_protocol(st, 9_999, 5)
    trials = sum(t for _, t in est.per_k_counts)
    positives = sum(p for p, _ in est.per_k_counts)
    assert trials == est.rounds == 9_999
    assert positives == round(est.p_hat * est.rounds)
    assert len(est.per_k_counts) == E3.K


def test_mixture_hovers_at_half():
    est = run_protocol(ghz_mixture(E3), 100_000, 2)
    assert abs(est.p_hat - 0.5) < 5 * np.sqrt(0.25 / 100_000)


def test_theta_offset_matches_phase():
    phi = 1.3
    st = ghz_like(E3, phi=phi)
    est = run_protocol(st, 150_000, 9, theta_offset=phase_for_ghz(phi, 3))
    assert abs(est.p_hat - 0.75) < 5 * np.sqrt(0.75 * 0.25 / 150_000)


BAD_ROUNDS = (0, -1, 2**63, 1e6, 10.0, True, "10")
BAD_SEEDS = (-1, 2**128, 1.5, 3.0, True, None, "3")


def test_config_validation():
    st = ghz_like(E3)
    for rounds in BAD_ROUNDS:
        with pytest.raises(ValueError, match="rounds"):
            run_protocol(st, rounds=rounds, seed=0)
    assert run_protocol(st, rounds=2**63 - 1, seed=0).rounds == 2**63 - 1
    assert type(run_protocol(st, rounds=np.int64(10), seed=0).rounds) is int
    # unchecked, seed=1.5 ran and seed=-1 failed later inside numpy
    for seed in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed"):
            run_protocol(st, rounds=10, seed=seed)
    assert run_protocol(st, rounds=10, seed=2**128 - 1).rounds == 10
    assert run_protocol(st, 50_000, np.int64(3)) == run_protocol(st, 50_000, 3)


@pytest.mark.parametrize("rounds, seed, name",
                         [(r, 0, "rounds") for r in BAD_ROUNDS] + [(10, s, "seed") for s in BAD_SEEDS])
def test_sampler_checks_rounds_and_seed(rounds, seed, name):
    # simulate calls the sampler directly; unchecked, seed -1 ended in numpy's "key must be positive and less
    # than 2**128", rounds 0 in wilson_interval's "trials must be positive", and seed None drew an unseeded run
    with pytest.raises(ValueError, match=name):
        _sample_signs(np.full(3, 0.75), rounds, seed)


# --- subensemble variant ---


def groupwise_probabilities(state, theta, groups):
    """q_k from a joint measurement of each group's component of J_k, with dense group operators.

    The slots are permuted so that each group is contiguous.  A group's
    component is the sum of its members' one-body terms, eigensolved on the
    group's own space; a round is positive when the group outcomes sum above
    zero (a zero sum counts 1/2).  No package kernel is used.
    """
    e = state.ensemble
    dims, n = e.local_dims, e.N
    order = [i for g in groups for i in g]
    rho = state.density().reshape(dims * 2).transpose(order + [n + i for i in order]).reshape(e.dim, e.dim)
    q = []
    for k in range(e.K):
        angle = 2 * np.pi * k / e.K + theta
        values, bases = [], []
        for g in groups:
            group_dims = [dims[i] for i in g]
            op = 0
            for pos, i in enumerate(g):
                jx, jy, _ = spin_matrices(e.spins[i])
                local = np.cos(angle) * jx + np.sin(angle) * jy
                op = op + np.kron(np.kron(np.eye(int(np.prod(group_dims[:pos]))), local),
                                  np.eye(int(np.prod(group_dims[pos + 1:]))))
            w, v = np.linalg.eigh(op)
            values.append(w)
            bases.append(v)
        basis = reduce(np.kron, bases)
        total = reduce(np.add.outer, values).reshape(-1)
        probs = np.sum(basis.conj() * (rho @ basis), axis=0).real  # diag(V^dag rho V)
        q.append(probs @ np.where(total > 1e-9, 1.0, np.where(total < -1e-9, 0.0, 0.5)))
    return np.array(q)


@pytest.mark.parametrize("groups", [((0,), (1, 2)), ((0,), (1,), (2,)), ((0, 1, 2),)])
def test_subensembles_agree_with_monolithic(groups):
    # The sampler takes no partition: every partition's group-wise measurement has the same q_k.
    st = ghz_like(E3, phi=np.pi)
    mono = run_protocol(st, 100_000, 21)
    split = run_protocol_subensembles(st, 100_000, 22)
    np.testing.assert_allclose(split.per_k_probs, groupwise_probabilities(st, 0.0, groups), rtol=0, atol=1e-12)
    pos_a = round(mono.p_hat * mono.rounds)
    pos_b = round(split.p_hat * split.rounds)
    assert chi2_homogeneity([pos_a, mono.rounds - pos_a], [pos_b, split.rounds - pos_b]) < CHI2_99[1]


def test_subensembles_on_mixed_spins():
    st = ghz_like(E_MIXED, phi=np.pi)
    split = run_protocol_subensembles(st, 100_000, 4)
    sigma = np.sqrt(0.75 * 0.25 / 100_000)
    assert abs(split.p_hat - 0.75) < 5 * sigma


def test_subensembles_deterministic():
    st = ghz_like(E3, phi=np.pi)
    a = run_protocol_subensembles(st, 50_000, 7)
    b = run_protocol_subensembles(st, 50_000, 7)
    assert a == b


def test_subensembles_work_on_density_matrices():
    st = ghz_mixture(E3)
    est = run_protocol_subensembles(st, 60_000, 13)
    assert abs(est.p_hat - 0.5) < 5 * np.sqrt(0.25 / 60_000)


# --- per-direction statistics, both samplers ---


@pytest.mark.parametrize("groups", [None, ((0,), (1, 2)), ((0, 2), (1,))])
@pytest.mark.parametrize("form", ["ket", "rho"])
def test_each_direction_matches_its_own_effect(groups, form):
    # Totals alone would not see a k <-> -k mix-up; each direction's count must.  With a
    # partition the reference is its group-wise measurement, which the split sampler stands for.
    e = SpinEnsemble((0.5, 1, 1))
    st = random_ket(e, 17)
    if form == "rho":
        st = QuantumState(e, rho=st.density())
    theta = 0.37
    rounds = 50_000
    sample = run_protocol if groups is None else run_protocol_subensembles
    est = sample(st, rounds, 31, theta)
    J = collective_operator(e)
    rho = st.density()
    if groups is None:
        ref = [np.real(np.trace(rho @ pos_operator(direction_operator(J, k, e.K, theta)))) for k in range(e.K)]
    else:
        ref = groupwise_probabilities(st, theta, groups)
    assert sum(trials for _, trials in est.per_k_counts) == rounds
    for (positives, trials), p in zip(est.per_k_counts, ref):
        assert abs(positives - p * trials) < 5 * np.sqrt(trials * p * (1 - p))


SAMPLERS = pytest.mark.parametrize("sample", [run_protocol, run_protocol_subensembles], ids=["whole", "split"])


@SAMPLERS
@pytest.mark.parametrize("form", ["ket", "rho"])
def test_samplers_eigensolve_single_particles_only(monkeypatch, sample, form):
    st = ghz_like(SpinEnsemble((0.5, 1, 1)), phi=0.4)
    if form == "rho":
        st = QuantumState(st.ensemble, rho=st.density())
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    sample(st, 1_000, 0)
    assert calls == [(2, 2), (3, 3)]  # one solve per spin value


# Mixed-spin ensembles with odd K and dim <= 64, each with a partition of its
# slots into groups (group labels drawn per slot, so groups may interleave).
partitioned_ensembles = (
    st.lists(st.sampled_from([0.5, 1, 1.5, 2, 2.5]), min_size=1, max_size=5)
    .filter(lambda spins: round(2 * sum(spins)) % 2 == 1 and np.prod([2 * j + 1 for j in spins]) <= 64)
    .flatmap(lambda spins: st.tuples(
        st.just(SpinEnsemble(spins)), st.lists(st.integers(0, len(spins) - 1), min_size=len(spins), max_size=len(spins))
    ))
)


def groups_from_labels(labels):
    return tuple(tuple(i for i, lab in enumerate(labels) if lab == g) for g in sorted(set(labels)))


def dense_probabilities_reference(state, theta):
    """q_k from the dense pos(Jx): pos(J_k) = pos(Jx) * outer(ph_k, ph_k^*), one eigensolve at full dimension."""
    ph = direction_phases(state.ensemble, theta)
    weighted = state.density().T * pos_operator(collective_operator(state.ensemble).Jx)
    return ((ph @ weighted) * ph.conj()).sum(axis=1).real


def born_reference(state, theta):
    J = collective_operator(state.ensemble)
    K = state.ensemble.K
    return [np.real(np.trace(state.density() @ pos_operator(direction_operator(J, k, K, theta)))) for k in range(K)]


@settings(max_examples=40, deadline=None)
@given(partitioned_ensembles, st.floats(0, 2 * np.pi), st.sampled_from(["ket", "rho"]), st.integers(0, 2**32 - 1))
def test_split_probabilities_are_exact(ensemble_labels, theta, form, seed):
    ensemble, labels = ensemble_labels
    state = random_ket(ensemble, seed)
    if form == "rho":
        state = QuantumState(ensemble, rho=state.density())
    ref = born_reference(state, theta)
    grouped = groupwise_probabilities(state, theta, groups_from_labels(labels))
    np.testing.assert_allclose(run_protocol_subensembles(state, 10, 0, theta).per_k_probs, grouped, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run_protocol(state, 10, 0, theta).per_k_probs, ref, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(partitioned_ensembles, st.floats(0, 2 * np.pi), st.integers(0, 2**32 - 1))
def test_outcome_table_is_the_born_rule_per_product_outcome(ensemble_labels, theta, seed):
    # run_protocol's q_k is the table's m > 0 mass, with no second copy of the contraction
    ensemble, _ = ensemble_labels
    state = random_ket(ensemble, seed)
    table = outcome_table(state, theta)
    np.testing.assert_allclose(table, outcome_table_reference(state.density(), ensemble, theta), rtol=0, atol=1e-12)
    q = np.clip(table.reshape(ensemble.K, -1) @ (ensemble.jz_diagonal > 0), 0, 1)
    assert run_protocol(state, 10, 0, theta).per_k_probs == tuple(q)


def test_outcome_table_needs_a_ket():
    with pytest.raises(ValueError, match="needs a ket"):
        outcome_table(ghz_mixture(E3))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**128 - 1), st.integers(1, 10**9))
@example(3, 20_000)
def test_split_sampler_shares_the_whole_round_stream(seed, rounds):
    # Same seed, same q_k: the counts are the whole sampler's.
    state = random_ket(SpinEnsemble((0.5, 1, 1)), 5)
    args = (state, rounds, seed, 0.2)
    assert run_protocol_subensembles(*args).per_k_counts == run_protocol(*args).per_k_counts


@SAMPLERS
@pytest.mark.parametrize("form", ["rho", "ket"])
def test_split_sampler_never_calls_einsum(monkeypatch, sample, form):
    def forbidden(*args, **kwargs):
        raise AssertionError("the sampler called numpy.einsum")

    monkeypatch.setattr(np, "einsum", forbidden)
    state = random_ket(E3, 8)
    if form == "rho":
        state = QuantumState(E3, rho=state.density())
    est = sample(state, 1_000, 0)
    np.testing.assert_allclose(est.per_k_probs, born_reference(state, 0.0), rtol=0, atol=1e-12)


def test_split_density_matrix_at_nine_spins():
    e = SpinEnsemble((0.5,) * 9)
    state = QuantumState(e, rho=0.9 * ghz_like(e, phi=0.3).density() + 0.1 * np.eye(e.dim) / e.dim)
    ref = dense_probabilities_reference(state, 0.1)
    np.testing.assert_allclose(run_protocol_subensembles(state, 1_000, 0, 0.1).per_k_probs, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run_protocol(state, 1_000, 0, 0.1).per_k_probs, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_non_finite_offset_is_rejected(theta):
    for sample in (run_protocol, run_protocol_subensembles):
        with pytest.raises(ValueError, match="theta_offset"):
            sample(ghz_like(E3), 10, 0, theta)
    for build in (build_qk_direct, build_qk_closed_form):  # unchecked, the closed form's corners were NaN
        with pytest.raises(ValueError, match="theta_offset"):
            build(E3, theta)


def per_round_reference(probs, rounds, seed):
    """Round-by-round sampler: row r of a two-column uniform table picks k and compares with q_k.
    Returns the per-direction (positives, trials)."""
    K = len(probs)
    probs = np.clip(probs, 0.0, 1.0)
    gen = np.random.Generator(np.random.Philox(key=seed))
    tally = np.zeros(2 * K, dtype=np.int64)  # entry 2k + hit counts direction k's rounds by outcome
    block = 1 << 18
    for start in range(0, rounds, block):
        u = gen.random((min(block, rounds - start), 2))
        ks = np.minimum((u[:, 0] * K).astype(np.int64), K - 1)
        tally += np.bincount(2 * ks + (u[:, 1] < probs[ks]), minlength=2 * K)
    positives, trials = tally[1::2], tally[0::2] + tally[1::2]
    return tuple((int(positives[k]), int(trials[k])) for k in range(K))


def test_tallies_have_the_per_round_law():
    # All 2K cells (direction, sign) at once: trials and positives both enter.
    state = random_ket(SpinEnsemble((0.5, 1, 1)), 23)
    est = run_protocol(state, 200_000, 41, 0.3)
    ref = per_round_reference(np.array(est.per_k_probs), 200_000, 42)
    cells = [[c for pos, n in counts for c in (pos, n - pos)] for counts in (est.per_k_counts, ref)]
    assert chi2_homogeneity(*cells) < CHI2_99[2 * state.ensemble.K - 1]


def test_trials_fit_a_uniform_direction():
    state = random_ket(SpinEnsemble((0.5, 1, 1)), 23)
    rounds = 200_000
    trials = np.array([n for _, n in run_protocol(state, rounds, 43).per_k_counts])
    expected = rounds / len(trials)
    assert trials.sum() == rounds
    assert float(((trials - expected) ** 2 / expected).sum()) < CHI2_99[len(trials) - 1]


def test_largest_round_count_is_sampled():
    # The per-round table would need hours here; the tallies' law takes microseconds.
    est = run_protocol(ghz_like(E3, phi=np.pi), 2**63 - 1, 1)
    assert sum(n for _, n in est.per_k_counts) == 2**63 - 1
    assert all(0 <= pos <= n for pos, n in est.per_k_counts)
    assert abs(est.p_hat - 0.75) < 1e-6


# --- scheduling helpers ---


def test_time_schedule_spacing():
    ts = time_schedule(5, omega=2 * np.pi)
    assert len(ts) == 5
    assert ts[0] == 0.0
    np.testing.assert_allclose(np.diff(ts), 1 / 5, atol=1e-15)
    assert time_schedule(np.int64(5), omega=2 * np.pi) == ts
    with pytest.raises(ValueError):
        time_schedule(5, omega=0.0)


@pytest.mark.parametrize("K", [4, 0, -3, 3.0, True, "3"])
def test_time_schedule_rejects_bad_k(K):
    # unchecked, 4 gave four times, 0 and -3 an empty list and 3.0 a TypeError
    with pytest.raises(ValueError, match="positive odd integer"):
        time_schedule(K, 1.0)


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
def test_time_schedule_rejects_non_finite_omega(omega):
    # unchecked, NaN gives K NaN times and +inf K zeros
    with pytest.raises(ValueError, match="finite"):
        time_schedule(3, omega)


@pytest.mark.parametrize("omega", [1e-320, 5e-324, 6.3e-308])
def test_time_schedule_rejects_omega_with_non_finite_times(omega):
    # positive and finite, yet 2 pi / omega overflowed: 1e-320 and 5e-324 gave [nan, inf, inf], 6.3e-308 a last inf
    with pytest.raises(ValueError, match="omega"):
        time_schedule(3, omega)


def test_rounds_needed_is_tight():
    z = 1.959963984540054
    for K, margin in ((3, 0.5), (5, 0.5), (3, 0.9)):
        n = rounds_needed(K, margin)
        rep = witness_report(K)
        p_mid = float(rep.P_sep + rep.gap / 2)
        target = float(rep.gap) * margin / 2

        def hw(m):
            return z * np.sqrt(p_mid * (1 - p_mid) / m + z**2 / (4 * m**2)) / (1 + z**2 / m)

        # the analytic half-width at n is below target; at n-1 it is not
        assert hw(n) < target <= hw(n - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100).map(lambda i: 2 * i + 1),
       st.floats(-300, 0, exclude_max=True).map(lambda e: 10.0**e).filter(lambda m: m < 1))
@example(3, 1e-9)  # returned 211280235138176892928 rounds, which the sampler rejects
@example(3, 1e-80)  # the doubling search ended in OverflowError converting its count to float
def test_rounds_needed_stays_below_the_round_limit(K, margin):
    z = 1.959963984540054
    rep = witness_report(K)
    p_mid = float(rep.P_sep + rep.gap / 2)
    target = float(rep.gap) * margin / 2

    def hw(m):
        return z * np.sqrt(p_mid * (1 - p_mid) / m + z**2 / (4 * m**2)) / (1 + z**2 / m)

    try:
        n = rounds_needed(K, margin)
    except ValueError as exc:
        assert "2^63" in str(exc)
        assert hw(2**63 - 1) >= target  # no count below the limit reaches the target
    else:
        assert 1 <= n < 2**63 and hw(n) < target


def test_rounds_needed_scaling():
    assert rounds_needed(3, 0.9) < rounds_needed(3, 0.5)  # looser target, fewer rounds
    assert rounds_needed(5, 0.5) > rounds_needed(3, 0.5)  # smaller gap, more rounds
    with pytest.raises(ValueError):
        rounds_needed(3, 0.0)
    with pytest.raises(ValueError):
        rounds_needed(3, 1.0)
