import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linalg_reference import direction_operator
from spinwitness import witness
from spinwitness.cli import _F_ODD_CHOICES
from spinwitness.spin import (
    SpinEnsemble,
    collective_operator,
    direction_phases,
    jx_function,
    rotate_about_z,
    spin_matrices,
)
from spinwitness.states import QuantumState, ghz_like, ghz_mixture, product_state
from spinwitness.witness import (
    ZERO_EIGENVALUE_TOL,
    WitnessOperator,
    binomial_exact,
    build_qk_closed_form,
    build_qk_direct,
    generalized_witness,
    phase_for_ghz,
    pos_operator,
    score,
    witness_report,
)

E3 = SpinEnsemble((0.5, 0.5, 0.5))
E_MIXED = SpinEnsemble((1, 0.5))
E5 = SpinEnsemble((0.5,) * 5)


def qk_reference(ensemble, theta):
    """The definition as written: K direction operators, K eigensolves."""
    J = collective_operator(ensemble)
    K = ensemble.K
    return sum(pos_operator(direction_operator(J, k, K, theta)) for k in range(K)) / K


# Small ensembles with odd K and dim <= 64.
small_ensembles = (
    st.lists(st.sampled_from([0.5, 1, 1.5, 2, 2.5]), min_size=1, max_size=5)
    .filter(lambda spins: round(2 * sum(spins)) % 2 == 1 and np.prod([2 * j + 1 for j in spins]) <= 64)
    .map(SpinEnsemble)
)


# --- pos operator ---


def test_pos_of_spin_half_jz():
    _, _, jz = spin_matrices(0.5)
    np.testing.assert_allclose(pos_operator(jz), np.diag([1.0, 0.0]), atol=1e-14)


def test_pos_assigns_half_to_zero_eigenvalue():
    _, _, jz = spin_matrices(1)
    np.testing.assert_allclose(pos_operator(jz), np.diag([1.0, 0.5, 0.0]), atol=1e-14)


def test_pos_complement_identity():
    # pos(-A) = 1 - pos(A) for a spectrum without zeros
    J = collective_operator(E3)
    p = pos_operator(J.Jx)
    q = pos_operator(-J.Jx)
    np.testing.assert_allclose(p + q, np.eye(8), atol=1e-12)
    assert np.trace(p).real == pytest.approx(4.0, abs=1e-12)  # symmetric spectrum, no zeros


def test_pos_is_projector_when_no_zero_modes():
    J = collective_operator(E_MIXED)
    p = pos_operator(J.Jy)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)


def hermitian_with_spectrum(eigenvalues, seed):
    rng = np.random.default_rng(seed)
    dim = len(eigenvalues)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    a = (u * np.asarray(eigenvalues)) @ u.conj().T
    return (a + a.conj().T) / 2


# Zero, or at least 1e-2 from it: eigensolver error (~1e-15 here) stays far below
# ZERO_EIGENVALUE_TOL, and the gap around zero keeps the projectors to ~1e-13.
clear_of_zero = st.one_of(st.just(0.0), st.floats(1e-2, 10), st.floats(-10, -1e-2))


@settings(max_examples=60, deadline=None)
@given(st.lists(clear_of_zero, min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_pos_of_the_negated_operator_is_the_complement(eigenvalues, seed):
    a = hermitian_with_spectrum(eigenvalues, seed)
    np.testing.assert_allclose(pos_operator(-a), np.eye(len(eigenvalues)) - pos_operator(a), rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-2, 10), max_size=6), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_pos_has_half_trace_on_a_symmetric_spectrum(positive, zeros, seed):
    eigenvalues = positive + [-x for x in positive] + [0.0] * zeros
    assume(eigenvalues)
    a = hermitian_with_spectrum(eigenvalues, seed)
    assert np.trace(pos_operator(a)).real == pytest.approx(len(eigenvalues) / 2, abs=1e-10)


# --- operator constructions ---


@pytest.mark.parametrize(
    "ensemble",
    [E3, E_MIXED, SpinEnsemble((1.5,)), SpinEnsemble((0.5,) * 9), SpinEnsemble((0.5, 1, 1, 1, 1, 1))],
)
@pytest.mark.parametrize("theta", [0.0, 0.41, 2.2])
def test_direct_equals_closed_form(ensemble, theta):
    d = build_qk_direct(ensemble, theta)
    c = build_qk_closed_form(ensemble, theta)
    assert np.abs(d.Q - c.Q).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(ensemble=small_ensembles, theta=st.floats(allow_nan=False, allow_infinity=False))
@example(ensemble=E3, theta=0.3)
@example(ensemble=E3, theta=1e15)  # the routes differed by 0.054: 2 pi k/K + theta rounded away the offset's phase
@example(ensemble=E3, theta=1e17)  # differed by 0.25
def test_direct_equals_closed_form_at_any_offset(ensemble, theta):
    d = build_qk_direct(ensemble, theta)
    c = build_qk_closed_form(ensemble, theta)
    assert np.abs(d.Q - c.Q).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(ensemble=small_ensembles, theta=st.floats(0, 2 * np.pi))
def test_pos_of_each_direction_is_phase_conjugated_pos_jx(ensemble, theta):
    J = collective_operator(ensemble)
    pos_jx = pos_operator(J.Jx)
    ph = direction_phases(ensemble, theta)
    for k in range(ensemble.K):
        want = pos_operator(direction_operator(J, k, ensemble.K, theta))
        np.testing.assert_allclose(pos_jx * np.outer(ph[k], ph[k].conj()), want, atol=1e-12)
    np.testing.assert_allclose(build_qk_direct(ensemble, theta).Q, qk_reference(ensemble, theta), atol=1e-12)


def closed_form_reference(ensemble, theta):
    """Q = 1/2 [1 + C(K-1, (K-1)/2) (|P+><P+| - |P-><P-|) / 2^(K-1)] from the two dense outer products."""
    K = ensemble.K
    up, down = np.eye(ensemble.dim)[0], np.eye(ensemble.dim)[-1]
    # K * theta rounds before np.exp sees it; e^{i err} puts back that product's exact rounding error
    err = float(Fraction(theta) * K - Fraction(K * theta))
    c = (-1) ** ((K - 1) // 2) * np.exp(1j * K * theta) * np.exp(1j * err)
    p_plus, p_minus = (up + c * down) / np.sqrt(2), (up - c * down) / np.sqrt(2)
    weight = binomial_exact(K - 1, (K - 1) // 2) / 2 ** (K - 1)
    return 0.5 * (np.eye(ensemble.dim) + weight * (np.outer(p_plus, p_plus.conj()) - np.outer(p_minus, p_minus.conj())))


@settings(max_examples=50, deadline=None)
@given(ensemble=small_ensembles, theta=st.floats(-10, 10))
@example(ensemble=SpinEnsemble((1, 2.5)), theta=9.212098136785052)  # the rounded K * theta missed by 1.1e-15
def test_two_corner_closed_form_matches_the_outer_products(ensemble, theta):
    q = build_qk_closed_form(ensemble, theta).Q
    assert q.dtype == complex
    assert np.abs(q - closed_form_reference(ensemble, theta)).max() < 1e-15


def test_direct_route_never_reads_the_binomial(monkeypatch):
    def forbidden(n, k):
        raise AssertionError("the direct route read the closed-form binomial")

    monkeypatch.setattr("spinwitness.witness.binomial_exact", forbidden)
    with pytest.raises(AssertionError):
        build_qk_closed_form(E5)  # the patch is live
    np.testing.assert_allclose(build_qk_direct(E5, 0.3).Q, qk_reference(E5, 0.3), atol=1e-12)


@pytest.mark.parametrize(
    "route, expected",
    [
        (lambda e: build_qk_direct(e, 0.3), [(2, 2), (3, 3)]),  # one solve per spin value
        (lambda e: generalized_witness(e, 0.5, _F_ODD_CHOICES["sign"]), []),  # reads K alone
    ],
    ids=["direct", "generalized"],
)
def test_witness_routes_eigensolve_single_particles_only(monkeypatch, route, expected):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    route(SpinEnsemble((0.5, 1, 1)))
    assert calls == expected


@pytest.mark.parametrize("spins", [(0.5, 1, 1), (1.5, 1.5, 1.5), (0.5, 1, 1, 1), (0.5, 1, 1.5, 1.5), (0.5,) * 5,
                                   (2.5, 2.5, 2.5), (0.5,) * 7, (0.5,) * 9])
def test_the_sign_witness_takes_one_factor_pass(monkeypatch, spins):
    # its first pass leaves rounding alone, below the refinement threshold, so verify pays one projected eigh
    w = build_qk_direct(SpinEnsemble(spins), 0.3)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    assert w.factors.residual < witness._REFINE_TOL
    assert calls == [(6, 6)]


def test_witness_is_half_identity_plus_corner_coupling():
    # the only structure sits in the two stretched corners
    K = E3.K
    w = build_qk_direct(E3, 0.37)
    delta = w.Q - np.eye(8) / 2
    coupling = binomial_exact(K - 1, (K - 1) // 2) / 2**K
    assert abs(abs(delta[0, -1]) - coupling) < 1e-12
    mask = np.ones((8, 8), dtype=bool)
    mask[0, -1] = mask[-1, 0] = False
    assert np.abs(delta[mask]).max() < 1e-12


def test_witness_spectrum():
    rep = witness_report(5)
    want = np.sort(np.r_[1 - float(rep.P_max), np.full(30, 0.5), float(rep.P_max)])
    for build in (build_qk_closed_form, build_qk_direct):
        eigs = np.sort(np.linalg.eigvalsh(build(E5).Q))
        np.testing.assert_allclose(eigs, want, atol=1e-12)


def test_witness_offset_periodicity():
    K = E3.K
    a = build_qk_direct(E3, 0.2)
    b = build_qk_direct(E3, 0.2 + 2 * np.pi / K)
    np.testing.assert_allclose(a.Q, b.Q, atol=1e-12)


def test_witness_symmetries():
    J = collective_operator(E3)
    q = build_qk_direct(E3).Q
    np.testing.assert_allclose(rotate_about_z(q, J.Jz, 2 * np.pi / 3), q, atol=1e-12)
    np.testing.assert_allclose(rotate_about_z(q, J.Jx, np.pi), q, atol=1e-12)


# --- exact bound table ---


def test_report_frozen_small_k():
    r3 = witness_report(3)
    assert (r3.P_max, r3.P_sep, r3.P_classical, r3.gap) == (
        Fraction(3, 4), Fraction(5, 8), Fraction(2, 3), Fraction(1, 8))
    r5 = witness_report(5)
    assert (r5.P_max, r5.P_sep, r5.P_classical, r5.gap) == (
        Fraction(11, 16), Fraction(19, 32), Fraction(3, 5), Fraction(3, 32))
    r7 = witness_report(7)
    assert (r7.P_sep, r7.P_classical) == (Fraction(37, 64), Fraction(4, 7))


def test_report_k_equals_one():
    r = witness_report(1)
    assert r.P_max == 1 and r.P_sep == Fraction(3, 4) and r.gap == Fraction(1, 4)


@pytest.mark.parametrize("K", range(1, 42, 2))
def test_report_internal_identities(K):
    r = witness_report(K)
    c = binomial_exact(K - 1, (K - 1) // 2)
    assert r.P_max == Fraction(1, 2) + Fraction(c, 2**K)
    assert r.P_sep == Fraction(1, 2) + Fraction(c, 2 ** (K + 1))
    assert r.P_max - r.P_sep == r.gap


def test_report_rejects_even_or_nonpositive():
    # unchecked, True gave a report whose K was True
    for bad in (0, 2, -3, 4, True, 3.0):
        with pytest.raises(ValueError, match="positive odd integer"):
            witness_report(bad)
    assert witness_report(np.int64(3)).K == 3


def test_gap_decreases_monotonically():
    gaps = [witness_report(k).gap for k in range(1, 42, 2)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# --- scoring ---


def test_every_basis_product_state_scores_half():
    w = build_qk_direct(E3)
    up = np.array([1, 0], dtype=complex)
    dn = np.array([0, 1], dtype=complex)
    for kets in ([up, up, up], [dn, dn, dn], [up, dn, up]):
        assert score(product_state(E3, kets), w) == pytest.approx(0.5, abs=1e-12)


def test_mixture_scores_exactly_half_at_any_offset():
    for theta in (0.0, 0.5, 1.9):
        w = build_qk_direct(E3, theta)
        assert score(ghz_mixture(E3), w) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("ensemble", [E3, E5, E_MIXED])
def test_score_follows_cosine_law(ensemble):
    # <ghz(phi)| Q(theta) |ghz(phi)> = 1/2 + 2 gap s cos(phi - K theta), s = (-1)^((K-1)/2),
    # for the ket and for its density matrix (tr(rho Q^T) would flip the sign of phi)
    K = ensemble.K
    rep = witness_report(K)
    s = (-1) ** ((K - 1) // 2)
    theta = 0.213
    w = build_qk_direct(ensemble, theta)
    for phi in np.linspace(0, 2 * np.pi, 9):
        ket = ghz_like(ensemble, phi)
        want = 0.5 + 2 * float(rep.gap) * s * np.cos(phi - K * theta)
        for state in (ket, QuantumState(ensemble, rho=np.outer(ket.ket, ket.ket.conj()))):
            assert score(state, w) == pytest.approx(want, abs=1e-12)


def test_score_rejects_dim_mismatch():
    w = build_qk_direct(E3)
    with pytest.raises(ValueError, match="do not match"):
        score(ghz_like(E_MIXED), w)
    # equal dims, different ensembles: compared by dim alone this scored 0.25
    with pytest.raises(ValueError, match="do not match"):
        score(ghz_like(SpinEnsemble((0.5, 1))), build_qk_direct(E_MIXED))


@pytest.mark.parametrize("q, message", [
    (np.eye(4) / 2, "shape"),  # a (4, 4) Q on a dimension-8 ensemble failed inside score's matmul
    (np.triu(np.ones((8, 8))), "not Hermitian"),  # scored 1.4999999999999996
    (np.full((8, 8), np.nan), "non-finite"),  # scored nan
])
def test_witness_operator_checks_its_q(q, message):
    with pytest.raises(ValueError, match=message):
        WitnessOperator(E3, q)


# --- phase matching ---


def test_phase_for_ghz_frozen_examples():
    assert phase_for_ghz(0.0, 3) == pytest.approx(np.pi / 3, abs=1e-15)
    assert phase_for_ghz(np.pi, 3) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("K", [0, 4, -3, True, 3.0])
def test_phase_for_ghz_rejects_bad_k(K):
    # unchecked, K = 0 raised ZeroDivisionError and K = 4 returned 0.4677
    with pytest.raises(ValueError, match="positive odd integer"):
        phase_for_ghz(0.3, K)


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
def test_phase_for_ghz_rejects_a_non_finite_phi(phi):
    # unchecked, every non-finite phi returned nan
    with pytest.raises(ValueError, match="phi must be finite"):
        phase_for_ghz(phi, 3)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 40))
@example(1e17, 1)  # the offset lost the phase: simulate --phi 1e17 read p_hat 0.309, verdict inconclusive
@example(float(np.nextafter(np.pi, 0)), 1)  # returned exactly 2 pi/3, outside [0, 2 pi/K)
def test_phase_for_ghz_is_finite_and_matches_the_doubled_formula(phi, half_k):
    # the doubled formula theta = (2 phi - (K-1) pi)/(2K) holds modulo 2 pi/K: the matched witness scores P_max
    # on the phase-phi state, whose phase ghz_like takes as e^{i phi}, for every finite phi
    K = 2 * half_k + 1
    theta = phase_for_ghz(phi, K)
    assert 0 <= theta < 2 * np.pi / K
    ensemble = SpinEnsemble((K / 2,))
    matched = score(ghz_like(ensemble, phi), build_qk_direct(ensemble, theta))
    assert matched == pytest.approx(float(witness_report(K).P_max), abs=1e-12)


@pytest.mark.parametrize("K", [3, 5])
def test_phase_for_ghz_attains_maximum(K):
    ensemble = SpinEnsemble((0.5,) * K)
    rep = witness_report(K)
    for phi in (0.0, np.pi / 4, np.pi, 3 * np.pi / 2, 5.1):
        theta = phase_for_ghz(phi, K)
        assert 0 <= theta < 2 * np.pi / K
        w = build_qk_closed_form(ensemble, theta)
        assert score(ghz_like(ensemble, phi), w) == pytest.approx(float(rep.P_max), abs=1e-12)


# --- generalized couplings ---


def test_generalized_sign_coupling_frozen():
    sign = lambda x: float(np.sign(x))
    assert generalized_witness(E3, 0.0, sign).f_K == pytest.approx(0.5, abs=1e-10)
    assert generalized_witness(E_MIXED, 0.0, sign).f_K == pytest.approx(0.5, abs=1e-10)
    assert generalized_witness(E5, 0.0, sign).f_K == pytest.approx(0.375, abs=1e-10)


def test_generalized_half_sign_recovers_sep_bound():
    for ensemble in (E3, E5):
        rep = witness_report(ensemble.K)
        gw = generalized_witness(ensemble, 0.5, lambda x: float(np.sign(x)) / 2)
        assert gw.sep_bound == pytest.approx(float(rep.P_sep), abs=1e-10)


def test_generalized_linear_function_is_blind():
    for ensemble in (E3, E5):
        assert generalized_witness(ensemble, 0.0, lambda x: x).f_K == pytest.approx(0.0, abs=1e-10)


def test_generalized_cubic_couples_only_at_k3():
    assert generalized_witness(E3, 0.0, lambda x: x**3).f_K == pytest.approx(0.75, abs=1e-10)
    assert generalized_witness(E5, 0.0, lambda x: x**3).f_K == pytest.approx(0.0, abs=1e-10)


def test_generalized_rejects_non_odd_functions():
    with pytest.raises(ValueError, match="odd"):
        generalized_witness(E3, 0.0, lambda x: x * x)
    with pytest.raises(ValueError, match="odd"):
        generalized_witness(E3, 0.0, lambda x: np.cos(x))


def dense_generalized_reference(ensemble, f_odd):
    """f_K = |f(Jx)[0, -1]| from one dense eigensolve of the collective Jx."""
    w, v = np.linalg.eigh(collective_operator(ensemble).Jx)
    w = np.where(np.abs(w) < ZERO_EIGENVALUE_TOL, 0.0, w)
    values = np.array([float(f_odd(x)) for x in w])
    return abs((v[0] * values) @ v[-1].conj())


@settings(max_examples=25, deadline=None)
@given(ensemble=small_ensembles, name=st.sampled_from(sorted(_F_ODD_CHOICES)))
def test_factored_kernel_matches_the_dense_eigensolve(ensemble, name):
    f_odd = _F_ODD_CHOICES[name]
    gw = generalized_witness(ensemble, 0.5, f_odd)
    assert abs(gw.f_K - dense_generalized_reference(ensemble, f_odd)) < 1e-12
    w, v = np.linalg.eigh(collective_operator(ensemble).Jx)
    for f in (f_odd, lambda x: f_odd(x) + 1j * np.cos(x)):  # complex values keep their imaginary part
        dense = (v * np.array([f(x) for x in w])) @ v.conj().T
        factored = jx_function(ensemble, [f(x) for x in ensemble.jz_diagonal])
        np.testing.assert_allclose(factored, dense, rtol=0, atol=1e-12)


# K <= 9 on small_ensembles, so every level power below is an exact float and every f_K an exact dyadic value.
@settings(max_examples=40, deadline=None)
@given(ensemble=small_ensembles, f0=st.floats(-1, 1))
def test_generalized_coupling_is_the_exact_kth_central_difference(ensemble, f0):
    K = ensemble.K
    for degree in range(1, K, 2):  # an odd monomial below degree K cannot connect |up> to |down>
        gw = generalized_witness(ensemble, f0, lambda x: float(x) ** degree)
        assert gw.f_K == 0.0 and gw.sep_bound == f0
    top = generalized_witness(ensemble, f0, lambda x: float(x) ** K)
    assert top.f_K == float(Fraction(math.factorial(K), 2**K))
    half_sign = generalized_witness(ensemble, f0, _F_ODD_CHOICES["half-sign"])
    assert half_sign.f_K == float(witness_report(K).P_max - Fraction(1, 2))


def test_generalized_coupling_depends_on_k_alone():
    same_k = (SpinEnsemble((0.5,) * 9), SpinEnsemble((1.5, 1.5, 0.5, 1)))
    for f_odd in (*_F_ODD_CHOICES.values(), lambda x: float(np.sin(np.pi * x / 7))):
        first, second = (generalized_witness(e, 0.25, f_odd) for e in same_k)
        assert (first.f_K.hex(), first.sep_bound.hex()) == (second.f_K.hex(), second.sep_bound.hex())


def test_generalized_coupling_reads_no_dense_ensemble_array(monkeypatch):
    def forbidden(self):
        raise AssertionError("generalized_witness read a dense ensemble array")

    for name in ("jx_eigenbases", "jz_diagonal"):
        monkeypatch.setattr(SpinEnsemble, name, property(forbidden))
    ensemble = SpinEnsemble((0.5, 1, 1))
    with pytest.raises(AssertionError):
        ensemble.jz_diagonal  # the patch is live
    assert generalized_witness(ensemble, 0.5, _F_ODD_CHOICES["half-sign"]).sep_bound == float(witness_report(5).P_sep)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generalized_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        generalized_witness(E3, 0.5, lambda x: bad)
    with pytest.raises(ValueError, match="non-finite"):
        generalized_witness(E5, 0.5, lambda x: bad * x if abs(x) > 2 else x)  # bad only at the largest |m|
    with pytest.raises(ValueError, match="f0 must be finite"):
        generalized_witness(E3, bad, np.sign)
