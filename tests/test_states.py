import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_reference import partial_trace_reference
from spinwitness.spin import SpinEnsemble
from spinwitness.states import QuantumState, ghz_like, ghz_mixture, product_state, random_ket

E3 = SpinEnsemble((0.5, 0.5, 0.5))
E_MIXED = SpinEnsemble((1, 0.5))


def test_quantum_state_requires_exactly_one_representation():
    ket = np.zeros(8, dtype=complex)
    ket[0] = 1
    with pytest.raises(ValueError, match="exactly one"):
        QuantumState(E3)
    with pytest.raises(ValueError, match="exactly one"):
        QuantumState(E3, ket=ket, rho=np.eye(8) / 8)


def test_quantum_state_validates_ket():
    with pytest.raises(ValueError, match="length"):
        QuantumState(E3, ket=np.ones(4) / 2)
    with pytest.raises(ValueError, match="normalized"):
        QuantumState(E3, ket=np.ones(8, dtype=complex))


def test_quantum_state_validates_rho():
    with pytest.raises(ValueError, match="trace"):
        QuantumState(E3, rho=np.eye(8, dtype=complex))
    neg = np.diag([1.5, -0.5] + [0.0] * 6).astype(complex)
    with pytest.raises(ValueError, match="negative"):
        QuantumState(E3, rho=neg)
    with pytest.raises(ValueError, match="Hermitian"):
        QuantumState(E3, rho=np.triu(np.ones((8, 8))) / 8)
    with pytest.raises(ValueError, match="shape"):
        QuantumState(E3, rho=np.eye(4, dtype=complex) / 4)


def conjugated_spectrum(spectrum, seed):
    """U diag(spectrum) U^dag for a seeded random unitary U."""
    rng = np.random.default_rng(seed)
    dim = len(spectrum)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rho = (u * spectrum) @ u.conj().T
    return (rho + rho.conj().T) / 2


def assert_psd_verdict(ensemble, rho, accepted):
    if accepted:
        QuantumState(ensemble, rho=rho)
    else:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QuantumState(ensemble, rho=rho)


# The PSD verdict is decided by a Cholesky of rho + 1e-10 I; the reference is the
# smallest eigenvalue itself.  Spectra keep 1e-12 clear of the -1e-10 boundary,
# where both routes are at the mercy of rounding.
psd_cases = st.tuples(
    st.sampled_from([SpinEnsemble((0.5,)), E_MIXED, E3, SpinEnsemble((0.5, 1, 1))]),
    st.floats(-1e-8, 1e-8).filter(lambda low: abs(low + 1e-10) >= 1e-12),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None)
@given(psd_cases)
def test_psd_verdict_matches_smallest_eigenvalue(case):
    ensemble, low, seed = case
    weights = np.random.default_rng(seed).uniform(0.01, 1, ensemble.dim - 1)
    spectrum = np.concatenate([[low], weights / weights.sum() * (1 - low)])
    rho = conjugated_spectrum(spectrum, seed)
    assert_psd_verdict(ensemble, rho, np.linalg.eigvalsh(rho).min() >= -1e-10)


@pytest.mark.parametrize("low,accepted", [(-1.1e-10, False), (-0.9e-10, True)])
def test_psd_verdict_pinned_near_the_threshold(low, accepted):
    rho = conjugated_spectrum(np.array([low] + [1 / 7] * 6 + [1 / 7 - low]), 3)
    assert_psd_verdict(E3, rho, accepted)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_rank_one_rho_is_accepted(n):
    # a pure state's rho is singular: every eigenvalue but one is zero up to rounding
    ensemble = SpinEnsemble((0.5,) * n)
    QuantumState(ensemble, rho=random_ket(ensemble, seed=n).density())


def test_quantum_state_rejects_non_finite_entries():
    # abs(x - 1) > tol is False for NaN, so the norm and trace checks alone let NaN through.
    ket = np.zeros(8, dtype=complex)
    ket[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState(E3, ket=ket)
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState(E3, ket=[np.inf] + [0] * 7)
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState(E3, rho=rho)
    with pytest.raises(ValueError, match="non-finite"):
        ghz_like(E3, phi=np.nan)


def test_density_of_ket_is_projector():
    st = ghz_like(E3)
    rho = st.density()
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)
    np.testing.assert_allclose(np.trace(rho), 1, atol=1e-14)


def test_ghz_like_amplitudes():
    st = ghz_like(E3, phi=0.9)
    ket = st.ket
    assert ket[0] == pytest.approx(1 / np.sqrt(2))
    assert ket[-1] == pytest.approx(np.exp(0.9j) / np.sqrt(2))
    assert np.count_nonzero(ket) == 2


def test_ghz_like_respects_local_dims():
    st = ghz_like(E_MIXED)  # dims (3, 2): stretched states are indices 0 and 5
    assert st.dim == 6
    assert st.ket[0] != 0 and st.ket[5] != 0
    assert np.count_nonzero(st.ket) == 2


def test_ghz_mixture_is_diag_half_half():
    st = ghz_mixture(E3)
    want = np.zeros(8)
    want[0] = want[-1] = 0.5
    np.testing.assert_allclose(np.diag(st.rho).real, want, atol=0)
    np.testing.assert_allclose(st.rho, np.diag(want), atol=0)


@pytest.mark.parametrize("phi", [0.0, 1.1, np.pi])
def test_mixture_is_dephased_ghz(phi):
    # dropping the off-diagonal coherence of any ghz_like gives the mixture
    rho = ghz_like(E3, phi).density().copy()
    rho[0, -1] = 0
    rho[-1, 0] = 0
    np.testing.assert_allclose(rho, ghz_mixture(E3).rho, atol=1e-15)


def test_reduced_states_of_ghz_and_mixture_agree():
    # on any proper subset the coherence term traces away entirely
    rho_ghz = ghz_like(E3, phi=0.4).density()
    rho_mix = ghz_mixture(E3).rho
    dims = list(E3.local_dims)
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        a = partial_trace_reference(rho_ghz, dims, keep)
        b = partial_trace_reference(rho_mix, dims, keep)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_product_state_matches_manual_kron():
    up = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    st = product_state(E3, [up, plus, up])
    want = np.kron(np.kron(up, plus), up)
    np.testing.assert_allclose(st.ket, want, atol=1e-15)


def test_product_state_validation():
    up = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match="expected 3"):
        product_state(E3, [up, up])
    with pytest.raises(ValueError, match="length"):
        product_state(E_MIXED, [up, up])  # first particle is spin-1, needs length 3
    with pytest.raises(ValueError, match="not normalized"):
        product_state(E3, [up, up, np.array([1, 1], dtype=complex)])


def test_random_ket_deterministic_and_normalized():
    e = SpinEnsemble((0.5, 1.5, 0.5))  # dim 16
    a = random_ket(e, seed=7)
    b = random_ket(e, seed=7)
    c = random_ket(e, seed=8)
    np.testing.assert_array_equal(a.ket, b.ket)
    assert np.abs(a.ket - c.ket).max() > 1e-3
    assert np.linalg.norm(a.ket) == pytest.approx(1.0, abs=1e-12)


def test_random_ket_wraps_ensembles():
    st = random_ket(E3, seed=3)
    assert isinstance(st, QuantumState)
    assert st.dim == 8
    rng = np.random.default_rng(3)  # the generator contract: real parts, then imaginary parts
    want = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    np.testing.assert_allclose(st.ket, want / np.linalg.norm(want), rtol=0, atol=1e-15)
