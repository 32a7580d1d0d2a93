import dataclasses
from functools import reduce

import numpy as np
import pytest

from linalg_reference import collective_reference, direction_operator
from spinwitness.spin import (
    SpinEnsemble,
    collective_operator,
    direction_phases,
    jx_function,
    level_weights,
    rotate_about_z,
    spin_matrices,
)
from spinwitness.spin import _jx
from spinwitness.witness import witness_report

SQ2 = np.sqrt(2)


def test_spin_half_is_half_pauli():
    jx, jy, jz = spin_matrices(0.5)
    np.testing.assert_allclose(jx, [[0, 0.5], [0.5, 0]], atol=0)
    np.testing.assert_allclose(jy, [[0, -0.5j], [0.5j, 0]], atol=0)
    np.testing.assert_allclose(jz, [[0.5, 0], [0, -0.5]], atol=0)


def test_spin_one_matrices():
    jx, jy, jz = spin_matrices(1)
    np.testing.assert_allclose(jz, np.diag([1, 0, -1]), atol=0)
    want_x = np.array([[0, SQ2, 0], [SQ2, 0, SQ2], [0, SQ2, 0]]) / 2
    np.testing.assert_allclose(jx, want_x, atol=1e-15)
    np.testing.assert_allclose(jy, np.array([[0, -SQ2, 0], [SQ2, 0, -SQ2], [0, SQ2, 0]]) * 1j / 2, atol=1e-15)


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2.5])
def test_su2_algebra(j):
    jx, jy, jz = spin_matrices(j)
    np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-13)
    np.testing.assert_allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-13)
    np.testing.assert_allclose(jz @ jx - jx @ jz, 1j * jy, atol=1e-13)
    casimir = jx @ jx + jy @ jy + jz @ jz
    np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(round(2 * j + 1)), atol=1e-13)


def test_spin_zero_is_trivial():
    jx, jy, jz = spin_matrices(0)
    for m in (jx, jy, jz):
        assert m.shape == (1, 1)
        assert m[0, 0] == 0


def ladder_loop_reference(j):
    """(Jx, Jy, Jz) with the ladder filled one superdiagonal entry per loop step."""
    d = round(2 * j + 1)
    m = j - np.arange(d)
    jplus = np.zeros((d, d))
    for i in range(1, d):
        jplus[i - 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    return (jplus + jplus.T) / 2, (jplus - jplus.T) / 2j, np.diag(m)


@pytest.mark.parametrize("j", [0.5, 1.5, 3.5, 1023.5])
def test_vectorized_ladder_is_bit_identical_to_the_loop(j):
    # the eigenbases, and so every eigh downstream, read Jx from _jx: the same bits as spin_matrices'
    np.testing.assert_array_equal(_jx(j), spin_matrices(j)[0])
    for got, want in zip(spin_matrices(j), ladder_loop_reference(j)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("spins", [(0.5,) * 2, (0.5,) * 4, (1, 1), (0.5, 0.5, 1)])
def test_even_k_sign_average_is_one_half(spins):
    # directions a and a + pi pair, J_{a+pi} = -J_a and pos(-J) = 1 - pos(J) (the zero level weighted 1/2),
    # so the even-K average that SpinEnsemble rejects is 1/2 exactly; built here from the one-body matrices
    with pytest.raises(ValueError, match="even"):
        SpinEnsemble(spins)
    J, K = collective_reference(spins), round(2 * sum(spins))
    q = 0
    for k in range(K):
        w, v = np.linalg.eigh(direction_operator(J, k, K))
        q = q + (v * np.where(w > 1e-9, 1.0, np.where(w < -1e-9, 0.0, 0.5))) @ v.conj().T / K
    np.testing.assert_allclose(q, np.eye(len(q)) / 2, rtol=0, atol=1e-12)


def test_spin_matrices_reject_non_half_integer():
    with pytest.raises(ValueError):
        spin_matrices(0.3)
    with pytest.raises(ValueError):
        spin_matrices(-0.5)


class TestSpinEnsemble:
    def test_basic_properties(self):
        e = SpinEnsemble((0.5, 1, 1))
        assert e.N == 3
        assert e.K == 5
        assert e.local_dims == (2, 3, 3)
        assert e.dim == 18

    def test_rejects_integer_total(self):
        with pytest.raises(ValueError, match="odd K"):
            SpinEnsemble((0.5, 0.5))
        with pytest.raises(ValueError, match="odd K"):
            SpinEnsemble((1,))

    def test_rejects_empty_and_spin_zero(self):
        with pytest.raises(ValueError):
            SpinEnsemble(())
        with pytest.raises(ValueError, match="spin-0"):
            SpinEnsemble((0.5, 0, 1))

    def test_accepts_single_large_spin(self):
        e = SpinEnsemble((1.5,))
        assert e.K == 3 and e.dim == 4

    def test_dimension_does_not_wrap(self):
        assert SpinEnsemble((0.5,) * 63).dim == 2**63
        assert SpinEnsemble((0.5,) * 65).dim == 2**65

    def test_k_and_dimensions_are_exact_past_float_precision(self):
        # K came from a float sum and 2j + 1 from a float: both round above 2^53, and these odd K read as even
        e = SpinEnsemble((2**51 + 0.5,) * 3)
        assert e.K == 3 * 2**52 + 3 and e.local_dims == (2**52 + 2,) * 3
        e = SpinEnsemble((2.0**52 + 1, 0.5))
        assert e.K == 2**53 + 3 and e.local_dims == (2**53 + 3, 2)
        assert "K" in vars(e)  # cached once, as the dimensions are

    def test_a_spin_whose_double_overflows_is_a_value_error(self):
        # 2j became inf, and round(inf) raised OverflowError
        for call in (lambda: SpinEnsemble((1e308,)), lambda: spin_matrices(1e308)):
            with pytest.raises(ValueError, match=r"spin 1e\+308 is beyond the float range"):
                call()

    def test_frozen_and_hashable(self):
        e = SpinEnsemble((0.5, 0.5, 0.5))
        assert e == SpinEnsemble([0.5, 0.5, 0.5])
        assert hash(e) == hash(SpinEnsemble([0.5, 0.5, 0.5]))

    def test_dimensions_are_computed_once(self):
        # cached on the instance; equality, hashing and immutability read the spins alone
        e = SpinEnsemble((1.5, 1, 1))
        assert e.local_dims is e.local_dims and e.dim == 36
        fresh = SpinEnsemble((1.5, 1, 1))
        assert e == fresh and hash(e) == hash(fresh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.spins = (0.5,)

    def test_jx_eigenbases_are_computed_once_and_read_only(self):
        # shared by every caller of the ensemble, so cached like the dimensions and never writable
        e = SpinEnsemble((0.5, 1, 1))
        bases = e.jx_eigenbases
        assert e.jx_eigenbases is bases
        assert bases[1] is bases[2]  # one solve per spin value, shared by its particles
        assert e == SpinEnsemble((0.5, 1, 1)) and hash(e) == hash(SpinEnsemble((0.5, 1, 1)))
        for v, j in zip(bases, e.spins):
            d = round(2 * j + 1)
            np.testing.assert_allclose(spin_matrices(j)[0] @ v, v * (j - np.arange(d)), atol=1e-14)
            with pytest.raises(ValueError, match="read-only"):
                v[0, 0] = 1
        # V diag(m) V^T is the dense collective Jx
        V = reduce(np.kron, bases)
        np.testing.assert_allclose((V * e.jz_diagonal) @ V.T, collective_operator(e).Jx, atol=1e-13)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5, 3.5, 4, 6.5])
    def test_jx_kernel_is_real(self, j):
        # Jx and Jz are real symmetric and Jy purely imaginary, so every Jx eigenbasis is real orthogonal
        # and a real function of Jx comes back real
        jx, jy, jz = spin_matrices(j)
        assert jx.dtype == jz.dtype == np.float64
        assert jy.dtype == complex and not jy.real.any()
        e = SpinEnsemble((0.5, j) if float(j).is_integer() else (j,))
        for v, j_n in zip(e.jx_eigenbases, e.spins):
            d = round(2 * j_n + 1)
            assert v.dtype == np.float64
            np.testing.assert_allclose(v.T @ v, np.eye(d), rtol=0, atol=1e-14)
            np.testing.assert_allclose(spin_matrices(j_n)[0] @ v, v * (j_n - np.arange(d)), rtol=0, atol=1e-13)
        assert jx_function(e, e.jz_diagonal > 0).dtype == np.float64

    def test_jz_diagonal_is_computed_once_and_read_only(self):
        e = SpinEnsemble((0.5, 1))
        m = e.jz_diagonal
        assert e.jz_diagonal is m
        np.testing.assert_array_equal(m, [1.5, 0.5, -0.5, 0.5, -0.5, -1.5])  # particle 0 most significant
        with pytest.raises(ValueError, match="read-only"):
            m[0] = 0


def test_collective_operator_is_sum_of_embeddings():
    e = SpinEnsemble((0.5, 1, 1))
    J = collective_operator(e)
    jx0, _, _ = spin_matrices(0.5)
    jx1, _, _ = spin_matrices(1)
    want = (
        np.kron(np.kron(jx0, np.eye(3)), np.eye(3))
        + np.kron(np.kron(np.eye(2), jx1), np.eye(3))
        + np.kron(np.kron(np.eye(2), np.eye(3)), jx1)
    )
    np.testing.assert_allclose(J.Jx, want, atol=1e-14)


def test_collective_operator_su2_and_stretched_eigenvalues():
    e = SpinEnsemble((0.5, 0.5, 0.5))
    J = collective_operator(e)
    np.testing.assert_allclose(J.Jx @ J.Jy - J.Jy @ J.Jx, 1j * J.Jz, atol=1e-13)
    diag = np.real(np.diag(J.Jz))
    # particle 1 most significant, descending m: first entry K/2, last -K/2
    assert diag[0] == pytest.approx(1.5)
    assert diag[-1] == pytest.approx(-1.5)
    assert np.abs(J.Jz - np.diag(diag)).max() < 1e-15  # Jz diagonal in the product basis


def test_direction_operator_axes_and_period():
    e = SpinEnsemble((0.5, 1, 1))
    J = collective_operator(e)
    np.testing.assert_allclose(direction_operator(J, 0, 5), J.Jx, atol=0)
    np.testing.assert_allclose(direction_operator(J, 0, 5, np.pi / 2), J.Jy, atol=1e-15)
    a = direction_operator(J, 2, 5, 0.3)
    b = direction_operator(J, 2, 5, 0.3 + 2 * np.pi)
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_direction_operator_equals_rotated_jx():
    e = SpinEnsemble((0.5, 0.5, 0.5))
    J = collective_operator(e)
    K = e.K
    for k in range(K):
        rotated = rotate_about_z(J.Jx, J.Jz, 2 * np.pi * k / K)
        np.testing.assert_allclose(direction_operator(J, k, K), rotated, atol=1e-13)


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5), (0.5, 1, 1), (1.5,)])
def test_direction_phases_are_the_jz_rotation(spins):
    e = SpinEnsemble(spins)
    J = collective_operator(e)
    theta = 0.61
    ph = direction_phases(e, theta)
    assert ph.shape == (e.K, e.dim)
    m = np.real(np.diag(J.Jz))
    for k in range(e.K):
        angle = 2 * np.pi * k / e.K + theta
        np.testing.assert_allclose(ph[k], np.exp(-1j * angle * m), atol=1e-15)
        d = np.diag(ph[k])
        np.testing.assert_allclose(d @ J.Jx @ d.conj().T, direction_operator(J, k, e.K, theta), atol=1e-13)


def test_rotate_about_z_full_turn_and_unitarity():
    e = SpinEnsemble((0.5, 1, 1))
    J = collective_operator(e)
    np.testing.assert_allclose(rotate_about_z(J.Jx, J.Jz, 2 * np.pi), J.Jx, atol=1e-13)
    # spectrum invariant under conjugation
    before = np.linalg.eigvalsh(J.Jx)
    after = np.linalg.eigvalsh(rotate_about_z(J.Jx, J.Jz, 0.7))
    np.testing.assert_allclose(before, after, atol=1e-12)


def test_rotate_about_generic_generator():
    # rotating Jy about Jx by pi flips it
    e = SpinEnsemble((0.5, 0.5, 0.5))
    J = collective_operator(e)
    flipped = rotate_about_z(J.Jy, J.Jx, np.pi)
    np.testing.assert_allclose(flipped, -J.Jy, atol=1e-12)


# --- exact symmetry maps (verify's symmetry line) ---


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5, 3, 3.5])
def test_pi_about_x_is_a_phase_times_reversal(j):
    # exp(-i pi Jx) built spectrally, as rotate_about_z builds its unitary
    w, v = np.linalg.eigh(spin_matrices(j)[0])
    u = (v * np.exp(-1j * np.pi * w)) @ v.conj().T
    d = round(2 * j + 1)
    np.testing.assert_allclose(u, np.exp(-1j * np.pi * j) * np.eye(d)[::-1], atol=1e-13)
    op = np.arange(d * d).reshape(d, d) * (1 + 0.5j)
    op = op + op.conj().T
    np.testing.assert_allclose(rotate_about_z(op, spin_matrices(j)[0], np.pi), op[::-1, ::-1], atol=1e-12)


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5), (0.5, 1, 1), (1.5, 1)])
def test_exact_symmetry_maps_equal_the_spectral_rotations(spins):
    e = SpinEnsemble(spins)
    J = collective_operator(e)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(e.dim, e.dim)) + 1j * rng.normal(size=(e.dim, e.dim))
    h = a + a.conj().T  # invariant under neither map
    reversed_h = h[::-1, ::-1]
    ph = direction_phases(e, 2 * np.pi / e.K)[0]
    phased_h = h * np.outer(ph, ph.conj())
    assert np.abs(reversed_h - h).max() > 0.1 and np.abs(phased_h - h).max() > 0.1
    np.testing.assert_allclose(rotate_about_z(h, J.Jx, np.pi), reversed_h, atol=1e-12)
    np.testing.assert_allclose(rotate_about_z(h, J.Jz, 2 * np.pi / e.K), phased_h, atol=1e-12)


@pytest.mark.parametrize("spins", [
    *[(0.5,) * K for K in (3, 11, 101, 1001)],
    (0.5, 1, 1), (1.5,) * 3, (2.5,) * 3, (0.5, 1, 1, 1.5, 2, 2.5, 3),
])
def test_positive_level_weight_is_p_max_less_half(spins):
    # the level weights from the per-particle eigenbases against the closed form's P_max: |S| = P_max - 1/2
    e = SpinEnsemble(spins)
    w = level_weights(e)
    assert w.shape == (e.K + 1,)
    want = float(witness_report(e.K).P_max) - 0.5
    assert abs(abs(w[: (e.K + 1) // 2].sum()) - want) <= 1e-11 * want


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5), (0.5, 1, 1), (1.5, 1), (0.5, 1.5, 1.5)])
def test_level_weights_are_the_corners_of_the_dense_level_projectors(spins):
    # W(M) = <up| P_M |down>, P_M the projector on the dense collective Jx's eigenspace at level M
    e = SpinEnsemble(spins)
    values, vectors = np.linalg.eigh(collective_operator(e).Jx)
    levels = e.K / 2 - np.arange(e.K + 1)
    want = [(vectors[0] * vectors[-1].conj())[np.abs(values - M) < 1e-9].sum().real for M in levels]
    np.testing.assert_allclose(level_weights(e), want, rtol=0, atol=1e-12)
