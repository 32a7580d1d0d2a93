import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwitness import protocol
from spinwitness.protocol import (
    ProtocolConfig,
    rounds_needed,
    run_protocol,
    run_protocol_subensembles,
    time_schedule,
    wilson_interval,
)
from spinwitness.spin import SpinEnsemble, collective_operator, direction_operator, direction_phases
from spinwitness.states import QuantumState, ghz_like, ghz_mixture, random_ket
from spinwitness.witness import build_qk_direct, phase_for_ghz, pos_operator, witness_report

E3 = SpinEnsemble((0.5, 0.5, 0.5))
E_MIXED = SpinEnsemble((1, 0.5))

# 1% critical value of chi-square with one degree of freedom
CHI2_1DF_99 = 6.634896601021215


def chi2_homogeneity(pos_a, n_a, pos_b, n_b):
    """Pearson chi-square for two binomial samples sharing one rate."""
    table = np.array([[pos_a, n_a - pos_a], [pos_b, n_b - pos_b]], dtype=float)
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


# --- monolithic protocol ---


def make_config(state, rounds=50_000, seed=0, **kw):
    return ProtocolConfig(ensemble=state.ensemble, state=state, rounds=rounds, seed=seed, **kw)


def test_protocol_is_deterministic():
    st = ghz_like(E3, phi=np.pi)
    a = run_protocol(make_config(st, seed=11))
    b = run_protocol(make_config(st, seed=11))
    assert a == b  # bit-for-bit, counts included
    c = run_protocol(make_config(st, seed=12))
    assert a.p_hat != c.p_hat


def test_protocol_estimates_known_rate():
    # |up> + e^{i pi}|down> under the zero-offset witness hits exactly 3/4
    st = ghz_like(E3, phi=np.pi)
    est = run_protocol(make_config(st, rounds=200_000, seed=3))
    sigma = np.sqrt(0.75 * 0.25 / 200_000)
    assert abs(est.p_hat - 0.75) < 5 * sigma
    assert est.ci_low < 0.75 < est.ci_high


def test_protocol_counts_are_consistent():
    st = ghz_like(E3, phi=np.pi)
    est = run_protocol(make_config(st, rounds=9_999, seed=5))
    trials = sum(t for _, t in est.per_k_counts)
    positives = sum(p for p, _ in est.per_k_counts)
    assert trials == est.rounds == 9_999
    assert positives == round(est.p_hat * est.rounds)
    assert len(est.per_k_counts) == E3.K


def test_stratified_splits_rounds_evenly():
    st = ghz_like(E3, phi=np.pi)
    est = run_protocol(make_config(st, rounds=999, seed=0, stratified=True))
    assert all(t == 333 for _, t in est.per_k_counts)


def test_mixture_hovers_at_half():
    est = run_protocol(make_config(ghz_mixture(E3), rounds=100_000, seed=2))
    assert abs(est.p_hat - 0.5) < 5 * np.sqrt(0.25 / 100_000)


def test_theta_offset_matches_phase():
    phi = 1.3
    st = ghz_like(E3, phi=phi)
    cfg = make_config(st, rounds=150_000, seed=9, theta_offset=phase_for_ghz(phi, 3))
    est = run_protocol(cfg)
    assert abs(est.p_hat - 0.75) < 5 * np.sqrt(0.75 * 0.25 / 150_000)


def test_config_validation():
    st = ghz_like(E3)
    with pytest.raises(ValueError, match="rounds"):
        make_config(st, rounds=0)
    with pytest.raises(ValueError, match="different ensemble"):
        ProtocolConfig(ensemble=E_MIXED, state=st, rounds=10, seed=0)
    with pytest.raises(ValueError, match="partition"):
        make_config(st, subensembles=((0,), (1,)))
    with pytest.raises(ValueError, match="partition"):
        make_config(st, subensembles=((0, 1), (1, 2)))


# --- subensemble variant ---


def test_subensembles_require_groups():
    with pytest.raises(ValueError, match="subensembles"):
        run_protocol_subensembles(make_config(ghz_like(E3)))


@pytest.mark.parametrize("groups", [((0,), (1, 2)), ((0,), (1,), (2,)), ((0, 1, 2),)])
def test_subensembles_agree_with_monolithic(groups):
    st = ghz_like(E3, phi=np.pi)
    mono = run_protocol(make_config(st, rounds=100_000, seed=21))
    split = run_protocol_subensembles(make_config(st, rounds=100_000, seed=22, subensembles=groups))
    pos_a = round(mono.p_hat * mono.rounds)
    pos_b = round(split.p_hat * split.rounds)
    assert chi2_homogeneity(pos_a, mono.rounds, pos_b, split.rounds) < CHI2_1DF_99


def test_subensembles_on_mixed_spins():
    st = ghz_like(E_MIXED, phi=np.pi)
    split = run_protocol_subensembles(
        make_config(st, rounds=100_000, seed=4, subensembles=((0,), (1,)))
    )
    sigma = np.sqrt(0.75 * 0.25 / 100_000)
    assert abs(split.p_hat - 0.75) < 5 * sigma


def test_subensembles_deterministic():
    st = ghz_like(E3, phi=np.pi)
    a = run_protocol_subensembles(make_config(st, seed=7, subensembles=((0,), (1, 2))))
    b = run_protocol_subensembles(make_config(st, seed=7, subensembles=((0,), (1, 2))))
    assert a == b


def test_subensembles_work_on_density_matrices():
    st = ghz_mixture(E3)
    est = run_protocol_subensembles(make_config(st, rounds=60_000, seed=13, subensembles=((0,), (1, 2))))
    assert abs(est.p_hat - 0.5) < 5 * np.sqrt(0.25 / 60_000)


# --- per-direction statistics, both samplers ---


@pytest.mark.parametrize("groups", [None, ((0,), (1, 2)), ((0, 2), (1,))])
@pytest.mark.parametrize("form", ["ket", "rho"])
def test_each_direction_matches_its_own_effect(groups, form):
    # Totals alone would not see a k <-> -k mix-up; each direction's count must.
    e = SpinEnsemble((0.5, 1, 1))
    st = random_ket(e, 17)
    if form == "rho":
        st = QuantumState(e, rho=st.density())
    theta = 0.37
    rounds = 50_000
    cfg = make_config(st, rounds=rounds, seed=31, theta_offset=theta, stratified=True, subensembles=groups)
    est = run_protocol(cfg) if groups is None else run_protocol_subensembles(cfg)
    J = collective_operator(e)
    rho = st.density()
    for k, (positives, trials) in enumerate(est.per_k_counts):
        p = np.real(np.trace(rho @ pos_operator(direction_operator(J, k, e.K, theta))))
        assert trials == rounds // e.K
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
    sample(make_config(st, rounds=1_000, subensembles=((0,), (1, 2))))
    assert calls == [(2, 2), (3, 3), (3, 3)]


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
    cfg = make_config(state, rounds=10, theta_offset=theta, subensembles=groups_from_labels(labels))
    ref = born_reference(state, theta)
    np.testing.assert_allclose(run_protocol_subensembles(cfg).per_k_probs, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run_protocol(cfg).per_k_probs, ref, rtol=0, atol=1e-12)


def test_split_sampler_shares_the_whole_round_stream():
    # Same seed, q_k equal to rounding: the counts are the whole sampler's.
    state = random_ket(SpinEnsemble((0.5, 1, 1)), 5)
    cfg = make_config(state, rounds=20_000, seed=3, theta_offset=0.2, subensembles=((0, 2), (1,)))
    assert run_protocol_subensembles(cfg).per_k_counts == run_protocol(cfg).per_k_counts


@SAMPLERS
@pytest.mark.parametrize("form", ["rho", "ket"])
def test_split_sampler_never_calls_einsum(monkeypatch, sample, form):
    def forbidden(*args, **kwargs):
        raise AssertionError("the sampler called numpy.einsum")

    monkeypatch.setattr(np, "einsum", forbidden)
    state = random_ket(E3, 8)
    if form == "rho":
        state = QuantumState(E3, rho=state.density())
    est = sample(make_config(state, rounds=1_000, subensembles=((0, 2), (1,))))
    np.testing.assert_allclose(est.per_k_probs, born_reference(state, 0.0), rtol=0, atol=1e-12)


def test_split_density_matrix_at_nine_spins():
    e = SpinEnsemble((0.5,) * 9)
    state = QuantumState(e, rho=0.9 * ghz_like(e, phi=0.3).density() + 0.1 * np.eye(e.dim) / e.dim)
    cfg = make_config(state, rounds=1_000, theta_offset=0.1, subensembles=((0, 1, 2, 3), (4, 5, 6, 7, 8)))
    ref = dense_probabilities_reference(state, 0.1)
    np.testing.assert_allclose(run_protocol_subensembles(cfg).per_k_probs, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run_protocol(cfg).per_k_probs, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_non_finite_offset_is_rejected(theta):
    cfg = make_config(ghz_like(E3), rounds=10, theta_offset=theta, subensembles=((0,), (1, 2)))
    for sample in (run_protocol, run_protocol_subensembles):
        with pytest.raises(ValueError, match="theta_offset"):
            sample(cfg)
    with pytest.raises(ValueError, match="theta_offset"):
        build_qk_direct(E3, theta)


@pytest.mark.parametrize("stratified", [False, True])
@pytest.mark.parametrize("groups", [None, ((0,), (1, 2))])
def test_round_blocks_do_not_change_the_estimate(monkeypatch, groups, stratified):
    state = random_ket(SpinEnsemble((0.5, 1, 1)), 2)
    cfg = make_config(state, rounds=1_000, seed=6, theta_offset=0.4, subensembles=groups, stratified=stratified)
    sample = run_protocol if groups is None else run_protocol_subensembles
    whole_block = sample(cfg)
    monkeypatch.setattr(protocol, "_ROUND_BLOCK", 7)
    assert sample(cfg) == whole_block


# --- scheduling helpers ---


def test_time_schedule_spacing():
    ts = time_schedule(5, omega=2 * np.pi)
    assert len(ts) == 5
    assert ts[0] == 0.0
    np.testing.assert_allclose(np.diff(ts), 1 / 5, atol=1e-15)
    with pytest.raises(ValueError):
        time_schedule(5, omega=0.0)


def test_rounds_needed_is_tight():
    z = 1.959963984540054
    for K, margin in ((3, 0.5), (5, 0.5), (3, 0.9)):
        n = rounds_needed(K, margin)
        rep = witness_report(K)
        p_mid = float(rep.P_sep + rep.gap / 2)
        target = rep.gap_float * margin / 2

        def hw(m):
            return z * np.sqrt(p_mid * (1 - p_mid) / m + z**2 / (4 * m**2)) / (1 + z**2 / m)

        # the analytic half-width at n is below target; at n-1 it is not
        assert hw(n) < target <= hw(n - 1)


def test_rounds_needed_scaling():
    assert rounds_needed(3, 0.9) < rounds_needed(3, 0.5)  # looser target, fewer rounds
    assert rounds_needed(5, 0.5) > rounds_needed(3, 0.5)  # smaller gap, more rounds
    with pytest.raises(ValueError):
        rounds_needed(3, 0.0)
    with pytest.raises(ValueError):
        rounds_needed(3, 1.0)
