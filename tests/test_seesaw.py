import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinwitness import seesaw
from spinwitness.seesaw import (
    Bipartition,
    enumerate_bipartitions,
    seesaw_maximize,
)
from spinwitness.seesaw import _ascend, _half_step, _run_restarts, _side_layout, _start_kets
from spinwitness.spin import SpinEnsemble
from spinwitness.states import QuantumState
from spinwitness.witness import FACTOR_TOL, WitnessOperator, build_qk_direct, score, witness_report

E3 = SpinEnsemble((0.5, 0.5, 0.5))
E_MIXED = SpinEnsemble((1, 0.5))
E5 = SpinEnsemble((0.5,) * 5)

W3 = build_qk_direct(E3)
SEP3 = float(witness_report(3).P_sep)


def balanced(dim):
    ket = np.zeros(dim, dtype=complex)
    ket[0] = ket[-1] = 1 / np.sqrt(2)
    return ket


def basis_vector(dim, i):
    ket = np.zeros(dim, dtype=complex)
    ket[i] = 1
    return ket


def conditioned_reference(q, ensemble, side, psi_other):
    """<psi_other| Q |psi_other> over the other side's slots, as one 2N-axis einsum.

    No slot is permuted: the contraction is index bookkeeping on Q viewed as a
    tensor with one row and one column axis per particle.
    """
    n = ensemble.N
    dims = ensemble.local_dims
    other = [i for i in range(n) if i not in side]
    psi = np.asarray(psi_other, dtype=complex).reshape([dims[i] for i in other])
    operands = [
        psi.conj(), other,
        q.reshape(dims + dims), list(range(n)) + [n + i for i in range(n)],
        psi, [n + i for i in other],
    ]
    m = np.einsum(*operands, list(side) + [n + i for i in side])
    d = math.prod(dims[i] for i in side)
    m = m.reshape(d, d)
    return (m + m.conj().T) / 2


# --- the dense reference: a pair-major layout of Q, one GEMM per conditioning, a d x d eigh ---


def _pair_major(q, bipartition):
    """Q laid out as the (d_J^2, d_C^2) matrix P[(a, b), (c, c')] = <a c| Q |b c'>.

    Each side keeps its slots in sorted order, so a side ket is indexed the
    way `best_kets` reports it.  P is the pair-major layout of subset_J and
    its transpose that of the complement: conditioning either side on a stack
    of kets is one GEMM against it (`_conditioned_stack`).
    """
    ensemble = bipartition.ensemble
    n = ensemble.N
    rows_j, rows_c = bipartition.subset_J, bipartition.complement
    axes = rows_j + tuple(n + i for i in rows_j) + rows_c + tuple(n + i for i in rows_c)
    d_j = bipartition.side_dim(rows_j)
    d_c = bipartition.side_dim(rows_c)
    tensor = q.reshape(ensemble.local_dims + ensemble.local_dims).transpose(axes)
    return np.ascontiguousarray(tensor).reshape(d_j * d_j, d_c * d_c)


def _conditioned_stack(layout, kets):
    """<psi_r| Q |psi_r> over the other side, for each row psi_r of `kets`.

    `layout` is the side's pair-major (d_side^2, d_other^2) matrix and `kets`
    an (R, d_other) stack; the result is the (R, d_side, d_side) stack of
    Hermitian operators on the side.
    """
    r, d_other = kets.shape
    d = math.isqrt(layout.shape[0])
    w = (kets.conj()[:, :, None] * kets[:, None, :]).reshape(r, d_other * d_other)
    m = (w @ layout.T).reshape(r, d, d)
    m += m.conj().transpose(0, 2, 1)
    m /= 2
    return m


def conditioned_operator(witness, bipartition, psi_complement):
    """Reduce the witness onto subset_J given a fixed pure complement state."""
    psi = np.asarray(psi_complement, dtype=complex).reshape(-1)
    d_comp = bipartition.side_dim(bipartition.complement)
    if psi.shape != (d_comp,):
        raise ValueError(f"complement ket has length {psi.shape[0]}, expected {d_comp}")
    if abs(np.linalg.norm(psi) - 1) > 1e-12:
        raise ValueError("complement ket must be unit norm")
    return _conditioned_stack(_pair_major(witness.Q, bipartition), psi[None])[0]


def _top_eigvecs(m, previous):
    """Top eigenvalue of each d x d matrix in the stack, and the next ket.

    The next ket is that row's previous ket projected on the top cluster
    (eigenvalues within DEGENERACY_TOL of the top), normalized; the top
    eigenvector if the projection vanishes.
    """
    w, v = np.linalg.eigh(m)
    cluster = w >= w[:, -1:] - seesaw.DEGENERACY_TOL
    overlaps = np.where(cluster, (v.conj().transpose(0, 2, 1) @ previous[:, :, None])[:, :, 0], 0)
    kets = []
    for row, projected in enumerate(v @ overlaps[:, :, None]):
        norm = np.linalg.norm(projected)
        kets.append(projected[:, 0] / norm if norm > 0 else v[row, :, -1])
    return w[:, -1], np.array(kets)


def layouts_of(witness, bip):
    """The library's per-bipartition input: the side layout of the witness factors and their weights."""
    return _side_layout(witness.factors.vectors, bip), witness.factors.values


# --- bipartition bookkeeping ---


def test_enumerate_counts():
    assert len(enumerate_bipartitions(E_MIXED)) == 1
    assert len(enumerate_bipartitions(E3)) == 3
    assert len(enumerate_bipartitions(E5)) == 15


def test_enumerate_is_canonical_and_unique():
    bips = enumerate_bipartitions(E5)
    seen = set(b.subset_J for b in bips)
    assert len(seen) == 15
    assert all(0 in b.subset_J for b in bips)
    for b in bips:
        assert sorted(b.subset_J + b.complement) == list(range(5))


def test_bipartition_spin_split():
    b = Bipartition(E_MIXED, (0,))
    assert b.side_dim(b.subset_J) == 3
    assert b.side_dim(b.complement) == 2


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition(E3, ())
    with pytest.raises(ValueError):
        Bipartition(E3, (0, 1, 2))
    with pytest.raises(ValueError, match="particle 0"):
        Bipartition(E3, (1,))
    with pytest.raises(ValueError):
        Bipartition(E3, (0, 5))
    with pytest.raises(ValueError):
        enumerate_bipartitions(SpinEnsemble((1.5,)))


@pytest.mark.parametrize("index", [1.7, 1.0, True, "1"])
def test_bipartition_rejects_non_integer_indices(index):
    # int() would quietly make (0, 1.7) the subset (0, 1)
    with pytest.raises(ValueError, match="^subset_J particle index must be an integer"):
        Bipartition(E3, (0, index))
    assert Bipartition(E3, (0, np.int64(1))).subset_J == (0, 1)


# --- conditioning ---


def test_conditioning_on_stretched_complement_is_flat():
    # a stretched complement kills the corner coupling: the conditioned
    # operator is exactly 1/2 * identity, which is why stretched seeds stall
    bip = Bipartition(E3, (0,))
    m = conditioned_operator(W3, bip, basis_vector(4, 0))
    np.testing.assert_allclose(m, np.eye(2) / 2, atol=1e-12)


def test_conditioning_on_balanced_complement_reaches_sep_bound():
    for bip in enumerate_bipartitions(E3):
        d_c = bip.side_dim(bip.complement)
        m = conditioned_operator(W3, bip, balanced(d_c))
        assert np.linalg.eigvalsh(m).max() == pytest.approx(SEP3, abs=1e-12)


def test_conditioned_operator_is_hermitian():
    rng = np.random.default_rng(1)
    bip = Bipartition(E3, (0, 2))
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    m = conditioned_operator(W3, bip, psi)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-13)


def test_conditioned_expectation_matches_full_score_contiguous():
    rng = np.random.default_rng(2)
    bip = Bipartition(E3, (0, 1))
    psi_j = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi_j /= np.linalg.norm(psi_j)
    psi_c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi_c /= np.linalg.norm(psi_c)
    m = conditioned_operator(W3, bip, psi_c)
    via_conditioning = np.real(psi_j.conj() @ m @ psi_j)
    full = QuantumState(E3, ket=np.kron(psi_j, psi_c))
    assert score(full, W3) == pytest.approx(via_conditioning, abs=1e-12)


def test_conditioned_expectation_matches_full_score_interleaved():
    # subset {0, 2} with the complement particle sitting between them
    rng = np.random.default_rng(3)
    bip = Bipartition(E3, (0, 2))
    psi_j = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi_j /= np.linalg.norm(psi_j)
    psi_c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi_c /= np.linalg.norm(psi_c)
    m = conditioned_operator(W3, bip, psi_c)
    via_conditioning = np.real(psi_j.conj() @ m @ psi_j)
    full_tensor = np.einsum("ac,b->abc", psi_j.reshape(2, 2), psi_c)
    full = QuantumState(E3, ket=full_tensor.reshape(-1))
    assert score(full, W3) == pytest.approx(via_conditioning, abs=1e-12)


@st.composite
def split_ensembles(draw):
    """A mixed-spin ensemble of dimension <= 64 and a canonical bipartition of it."""
    two_j = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    while math.prod(t + 1 for t in two_j) > 64:
        two_j.pop()
    if sum(two_j) % 2 == 0:  # the ensemble needs half-integer total spin
        if two_j[-1] > 1:
            two_j[-1] -= 1
        elif len(two_j) > 2:
            two_j.pop()
        else:
            two_j[-1] = 2
    ensemble = SpinEnsemble([t / 2 for t in two_j])
    rest = draw(st.lists(st.integers(1, ensemble.N - 1), max_size=ensemble.N - 2, unique=True))
    return Bipartition(ensemble, (0,) + tuple(rest))


def unit_ket(rng, dim):
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ket / np.linalg.norm(ket)


@settings(max_examples=60, deadline=None)
@given(split_ensembles(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_side_major_kernel_matches_einsum_reference(bip, seed, rows):
    # one GEMM conditions a whole stack of kets; each row must match the einsum
    ensemble = bip.ensemble
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((ensemble.dim,) * 2) + 1j * rng.standard_normal((ensemble.dim,) * 2)
    q = (a + a.conj().T) / 2
    d_j, d_c = bip.side_dim(bip.subset_J), bip.side_dim(bip.complement)
    kets_j = np.array([unit_ket(rng, d_j) for _ in range(rows)])
    kets_c = np.array([unit_ket(rng, d_c) for _ in range(rows)])
    layout = _pair_major(q, bip)
    stack_j = _conditioned_stack(layout, kets_c)
    stack_c = _conditioned_stack(layout.T, kets_j)
    for stack in (stack_j, stack_c):
        np.testing.assert_array_equal(stack, stack.conj().transpose(0, 2, 1))  # exactly Hermitian for eigh
    n = ensemble.N
    dims = ensemble.local_dims
    for psi_j, psi_c, m_j, m_c in zip(kets_j, kets_c, stack_j, stack_c):
        np.testing.assert_allclose(m_j, conditioned_reference(q, ensemble, bip.subset_J, psi_c), rtol=0, atol=1e-12)
        np.testing.assert_allclose(m_c, conditioned_reference(q, ensemble, bip.complement, psi_j), rtol=0, atol=1e-12)
        # each ket sits in its own (possibly interleaved) slots of the product state
        full = np.einsum(
            psi_j.reshape([dims[i] for i in bip.subset_J]), list(bip.subset_J),
            psi_c.reshape([dims[i] for i in bip.complement]), list(bip.complement),
            list(range(n)),
        ).reshape(-1)
        expectation = full.conj() @ q @ full
        assert psi_j.conj() @ m_j @ psi_j == pytest.approx(expectation, abs=1e-12)
        assert psi_c.conj() @ m_c @ psi_c == pytest.approx(expectation, abs=1e-12)


def test_conditioned_operator_validation():
    bip = Bipartition(E3, (0,))
    with pytest.raises(ValueError, match="length"):
        conditioned_operator(W3, bip, np.ones(3) / np.sqrt(3))
    with pytest.raises(ValueError, match="unit norm"):
        conditioned_operator(W3, bip, np.ones(4))


# --- see-saw ---


def test_seesaw_reaches_sep_bound_on_all_bipartitions():
    for bip in enumerate_bipartitions(E3):
        r = seesaw_maximize(W3, bip, restarts=8, seed=0)
        assert r.best_value == pytest.approx(SEP3, abs=1e-9)
        assert r.best_value <= SEP3 + 1e-9
        assert r.upper_bound == pytest.approx(SEP3, abs=1e-12)  # the Schmidt bound is tight
        assert r.converged


def test_seesaw_mixed_spins():
    w = build_qk_direct(E_MIXED)
    r = seesaw_maximize(w, Bipartition(E_MIXED, (0,)), restarts=8, seed=0)
    assert r.best_value == pytest.approx(SEP3, abs=1e-9)  # same K = 3 bound


def test_seesaw_value_is_attained_by_returned_kets():
    bip = Bipartition(E3, (0, 1))
    r = seesaw_maximize(W3, bip, restarts=8, seed=0)
    psi_j, psi_c = r.best_kets
    m = conditioned_operator(W3, bip, psi_c)
    assert np.real(psi_j.conj() @ m @ psi_j) == pytest.approx(r.best_value, abs=1e-10)


def test_seesaw_value_is_scored_against_q_itself():
    # a full-rank perturbation below the residual gate: the factors miss it,
    # and the reported value, the factor value less the residual, lies at most
    # twice the residual below the winning product ket's value of Q
    noise = random_hermitian(43, 8)
    w = dataclasses.replace(W3, Q=W3.Q + 4e-10 * noise / np.linalg.norm(noise))
    assert 1e-10 < w.factors.residual < FACTOR_TOL
    r = seesaw_maximize(w, Bipartition(E3, (0, 2)), restarts=4, seed=0)
    psi_j, psi_c = r.best_kets
    full = QuantumState(E3, ket=np.einsum("ac,b->abc", psi_j.reshape(2, 2), psi_c).reshape(-1))
    assert r.best_value <= score(full, w) <= r.best_value + 2 * w.factors.residual
    assert abs(r.best_value - score(full, W3)) > 1e-12


def product_ket(bip, psi_j, psi_c):
    """psi_J (x) psi_C with each side's ket in its own (possibly interleaved) slots of the product space."""
    dims = bip.ensemble.local_dims
    return np.einsum(
        psi_j.reshape([dims[i] for i in bip.subset_J]), list(bip.subset_J),
        psi_c.reshape([dims[i] for i in bip.complement]), list(bip.complement),
        list(range(bip.ensemble.N)),
    ).reshape(-1)


@settings(max_examples=30, deadline=None)
@given(split_ensembles(), st.integers(0, 2**32 - 1), st.integers(0, 4), st.booleans())
def test_factor_value_is_within_the_residual_of_the_dense_value(split, seed, rank, perturbed):
    # for unit kets a, c: |<ac|Q|ac> - (1/2 + sum_s w_s |a^dag A_s c^*|^2)| <= ||R||_2 <= the Frobenius
    # residual; rank 0 draws the sign witness at a random offset, rank r a random Q - 1/2 of rank r
    ensemble = split.ensemble
    rng = np.random.default_rng(seed)
    if rank:
        q = random_low_rank_witness(seed, ensemble, rank, low=-0.5).Q
    else:
        q = build_qk_direct(ensemble, rng.uniform(0, 2 * np.pi)).Q
    if perturbed:  # full rank, below the residual gate: the factors miss it
        noise = random_hermitian(seed, ensemble.dim)
        q = q + 4e-10 * noise / np.linalg.norm(noise)
    w = low_rank_witness(ensemble, q)
    factors = w.factors
    # the best Frobenius fit of the kept rank drops the smallest eigenvalues of Q - 1/2 (Eckart-Young);
    # under a perturbation one factor pass can miss it by a few times, and the second meets it, up to rounding
    squares = np.sort(np.linalg.eigvalsh(q - np.eye(ensemble.dim) / 2) ** 2)
    best_fit = np.sqrt(squares[: ensemble.dim - len(factors.values)].sum())
    assert factors.residual <= 1.01 * best_fit + 1e-13
    assert factors.residual < FACTOR_TOL
    for bip in enumerate_bipartitions(ensemble):
        layout = _side_layout(factors.vectors, bip)
        pairs = [(unit_ket(rng, bip.side_dim(bip.subset_J)), unit_ket(rng, bip.side_dim(bip.complement)))
                 for _ in range(4)]
        for psi_j, psi_c in pairs:
            model = 0.5 + factors.values @ np.abs(layout @ psi_c.conj() @ psi_j.conj()) ** 2
            full = product_ket(bip, psi_j, psi_c)
            assert abs(np.vdot(full, q @ full).real - model) <= factors.residual + 1e-14
        r = seesaw_maximize(w, bip, restarts=2, seed=seed)
        full = product_ket(bip, *r.best_kets)
        dense = np.vdot(full, q @ full).real
        assert r.best_value <= dense + 1e-14
        assert dense <= r.best_value + 2 * factors.residual + 1e-14


def test_seesaw_never_reads_the_dense_q():
    e = SpinEnsemble((0.5, 1, 1))
    untouched = build_qk_direct(e)
    w = build_qk_direct(e)
    w.factors  # computed from Q, then Q goes
    object.__setattr__(w, "Q", None)
    for bip in enumerate_bipartitions(e):
        got, want = seesaw_maximize(w, bip), seesaw_maximize(untouched, bip)
        assert (got.best_value, got.upper_bound) == (want.best_value, want.upper_bound)
        for ket, ket_want in zip(got.best_kets, want.best_kets):
            np.testing.assert_array_equal(ket, ket_want)


def test_seesaw_deterministic_given_seed():
    bip = Bipartition(E3, (0,))
    a = seesaw_maximize(W3, bip, restarts=8, seed=42)
    b = seesaw_maximize(W3, bip, restarts=8, seed=42)
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_kets[0], b.best_kets[0])


def test_seesaw_trajectory_is_monotone():
    bip = Bipartition(E3, (0, 1))
    rng = np.random.default_rng(17)
    starts_j, starts_c = [], []
    for _ in range(5):
        psi_j = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi_c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        starts_j.append(psi_j / np.linalg.norm(psi_j))
        starts_c.append(psi_c / np.linalg.norm(psi_c))
    for psi_j, psi_c in zip(starts_j, starts_c):
        value, iterations, _, trajectory, _ = _ascend(*layouts_of(W3, bip), psi_j, psi_c, np.inf)
        assert len(trajectory) == iterations and trajectory[-1] == value
        diffs = np.diff(trajectory)
        assert np.all(diffs > -1e-12)


def test_seesaw_never_exceeds_bound_from_many_seeds():
    bip = Bipartition(E3, (0, 2))
    for seed in range(5):
        r = seesaw_maximize(W3, bip, restarts=16, seed=seed)
        assert r.best_value <= SEP3 + 1e-9


def test_seesaw_respects_nonzero_offset():
    w = build_qk_direct(E3, theta_offset=0.77)
    r = seesaw_maximize(w, Bipartition(E3, (0,)), restarts=8, seed=1)
    assert r.best_value == pytest.approx(SEP3, abs=1e-9)


def reference_restart(q, bip, psi_j, psi_c, max_iters, tol, ceiling=np.inf):
    """One restart on the dense reference, one d x d eigh per half-step.

    It stops, converged, as soon as a half-step's value reaches `ceiling`.
    Returns (value, psi_j, psi_c, iterations, converged).
    """
    layout = _pair_major(q, bip)
    value_prev = -np.inf
    for step in range(1, max_iters + 1):
        (value,), (psi_j,) = _top_eigvecs(_conditioned_stack(layout, psi_c[None]), psi_j[None])
        if value >= ceiling:
            return value, psi_j, psi_c, step, True
        (value,), (psi_c,) = _top_eigvecs(_conditioned_stack(layout.T, psi_j[None]), psi_c[None])
        if value >= ceiling or value - value_prev < tol:
            return value, psi_j, psi_c, step, True
        value_prev = value
    return value, psi_j, psi_c, max_iters, False


def sequential_seesaw_reference(q, bip, restarts, max_iters, tol, seed):
    """The restarts one at a time, seeded as `seesaw_maximize` seeds them.

    Returns the per-restart values, iteration counts, converged flags and final kets.
    """
    d_j, d_c = bip.side_dim(bip.subset_J), bip.side_dim(bip.complement)
    runs = []
    rng = np.random.default_rng(seed)
    for restart in range(restarts):
        re, im = rng.standard_normal((2, d_j + d_c))  # every restart takes its row of the draw, restart 0 too
        if restart == 0:
            psi_j, psi_c = balanced(d_j), balanced(d_c)
        else:
            psi_j = re[:d_j] + 1j * im[:d_j]
            psi_c = re[d_j:] + 1j * im[d_j:]
            psi_j /= np.linalg.norm(psi_j)
            psi_c /= np.linalg.norm(psi_c)
        runs.append(reference_restart(q, bip, psi_j, psi_c, max_iters, tol))
    values, kets_j, kets_c, iterations, converged = zip(*runs)
    return np.array(values), np.array(iterations), np.array(converged), list(zip(kets_j, kets_c))


def assert_same_ket_up_to_phase(got, want):
    assert abs(np.vdot(want, got)) == pytest.approx(1.0, abs=1e-10)


def random_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def low_rank_witness(ensemble, q):
    return WitnessOperator(ensemble, q)


def random_low_rank_witness(seed, ensemble, rank=6, low=0.0):
    """1/2 + sum_s w_s p_s p_s^dag with random orthonormal p_s and weights in [low, 1/2]."""
    rng = np.random.default_rng(seed)
    dim = ensemble.dim
    p, _ = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    q = np.eye(dim) / 2 + (p * rng.uniform(low, 0.5, rank)) @ p.conj().T
    return low_rank_witness(ensemble, (q + q.conj().T) / 2)


REFERENCE_ENSEMBLES = [E_MIXED, SpinEnsemble((0.5, 1, 1)), SpinEnsemble((1.5, 1, 1)), E5]


@pytest.mark.parametrize("max_iters", [1, seesaw.MAX_ITERS])  # after one step the values still depend on the seeds
@pytest.mark.parametrize("restarts", [1, 3, 8])  # restart 0 alone, a few, all eight
def test_stacked_seesaw_matches_sequential_reference(monkeypatch, restarts, max_iters):
    public = max_iters == seesaw.MAX_ITERS  # the public call always runs at the default
    monkeypatch.setattr(seesaw, "MAX_ITERS", max_iters)
    rng = np.random.default_rng(23)
    for ensemble in REFERENCE_ENSEMBLES:
        w = build_qk_direct(ensemble, theta_offset=rng.uniform(0, 2 * np.pi))
        for bip in enumerate_bipartitions(ensemble):
            values, iterations, converged, _ = sequential_seesaw_reference(w.Q, bip, restarts, max_iters, 1e-10, seed=5)
            got = _run_restarts(*layouts_of(w, bip), restarts, 5, np.inf)
            np.testing.assert_allclose(got[0], values, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got[1], iterations)
            np.testing.assert_array_equal(got[2], converged)
            if public:
                r = seesaw_maximize(w, bip, restarts=restarts, seed=5)
                assert r.best_value == pytest.approx(values.max(), abs=1e-12)


@pytest.mark.parametrize("max_iters", [1, 200])
def test_stacked_seesaw_matches_reference_on_a_random_operator(monkeypatch, max_iters):
    # a random rank-6 Q - 1/2 has seed-dependent local maxima, so the restarts
    # end at their own values and kets, after their own numbers of steps; at
    # 200 steps, seed 11 puts the best restart 0.015 above the next
    bip = Bipartition(E5, (0, 2))
    w = random_low_rank_witness(57, E5)
    monkeypatch.setattr(seesaw, "MAX_ITERS", max_iters)
    values, iterations, converged, kets = sequential_seesaw_reference(w.Q, bip, 8, max_iters, 1e-10, seed=11)
    got_values, got_iterations, got_converged, best, (psi_j, psi_c) = _run_restarts(
        *layouts_of(w, bip), 8, 11, np.inf
    )
    np.testing.assert_allclose(got_values, values, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got_iterations, iterations)
    np.testing.assert_array_equal(got_converged, converged)
    assert best == int(np.argmax(values))
    assert_same_ket_up_to_phase(psi_j, kets[best][0])
    assert_same_ket_up_to_phase(psi_c, kets[best][1])


def test_stacked_tie_break_matches_reference():
    # a diagonal Q of rank 6 above 1/2 whose top level on subset_J is
    # threefold degenerate within DEGENERACY_TOL: each start moves to its own
    # previous ket's projection on that cluster, so the balanced first start
    # keeps its two members
    bip = Bipartition(E3, (0, 1))
    w = low_rank_witness(E3, np.diag(np.repeat([1.0 - 1e-11, 1.0, 0.5, 1.0 - 2e-11], 2)).astype(complex))
    rng = np.random.default_rng(29)
    starts_j = [balanced(4)] + [unit_ket(rng, 4) for _ in range(7)]
    starts_c = [balanced(2)] + [unit_ket(rng, 2) for _ in range(7)]
    for row, (start_j, start_c) in enumerate(zip(starts_j, starts_c)):
        value, iterations, converged, _, (psi_j, psi_c) = _ascend(*layouts_of(w, bip), start_j, start_c, np.inf)
        want_value, want_j, want_c, steps, done = reference_restart(w.Q, bip, start_j, start_c, 200, 1e-10)
        assert value == pytest.approx(want_value, abs=1e-12)
        assert (iterations, converged) == (steps, done)
        assert_same_ket_up_to_phase(psi_j, want_j)
        assert_same_ket_up_to_phase(psi_c, want_c)
        if row == 0:
            assert_same_ket_up_to_phase(psi_j, balanced(4))


@pytest.mark.parametrize("restarts", [1, 5])
def test_seesaw_winner_is_first_maximum(restarts):
    # Q = 1/2 ties every restart at 1/2 and keeps every start ket, so restart
    # 0 must win with its balanced kets; its Schmidt bound is 1/2, which
    # restart 0's first half-step reaches
    bip = Bipartition(E3, (0,))
    flat = low_rank_witness(E3, np.eye(8, dtype=complex) / 2)
    r = seesaw_maximize(flat, bip, restarts=restarts, seed=3)
    _, want_j, want_c, steps, done = reference_restart(flat.Q, bip, balanced(2), balanced(4), 200, 1e-10,
                                                       ceiling=0.5 - seesaw._ROUNDING)
    assert steps == 1
    assert (r.iterations, r.converged) == (steps, done)
    assert r.best_value == pytest.approx(0.5, abs=1e-15)
    assert_same_ket_up_to_phase(r.best_kets[0], want_j)
    assert_same_ket_up_to_phase(r.best_kets[1], want_c)
    assert_same_ket_up_to_phase(r.best_kets[0], balanced(2))


@pytest.mark.parametrize("fewer", [2, 5, 13])  # a short prefix, a longer one, the whole run again
def test_fewer_restarts_repeat_the_first_ones(fewer):
    # restart r depends only on (seed, r): `fewer` restarts are the first `fewer` of 13
    bip = Bipartition(E5, (0, 2))
    w = random_low_rank_witness(57, E5)
    first = _run_restarts(*layouts_of(w, bip), fewer, 11, np.inf)
    thirteen = _run_restarts(*layouts_of(w, bip), 13, 11, np.inf)
    assert len(set(np.round(thirteen[0], 6))) > 2  # the restarts end at different local maxima
    np.testing.assert_allclose(first[0], thirteen[0][:fewer], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(first[1], thirteen[1][:fewer])
    np.testing.assert_array_equal(first[2], thirteen[2][:fewer])


def test_one_generator_per_call(monkeypatch):
    # restart 0 starts from the balanced kets; the random start kets of the
    # other restarts come from one generator, made only when restart 1 is read
    made = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    gap = random_low_rank_witness(57, E5)
    W3.factors, gap.factors  # drawn once per witness, not per call (see test_factors_are_computed_once_per_witness)
    monkeypatch.setattr(np.random, "default_rng", counting)
    assert seesaw_maximize(W3, Bipartition(E3, (0,)), restarts=32, seed=9).restarts_run == 1
    assert made == []
    assert seesaw_maximize(gap, Bipartition(E5, (0, 2)), restarts=32, seed=9).restarts_run == 32
    assert made == [(9,)]


@pytest.mark.parametrize("seed, d_j, d_c", [(0, 2, 4), (9, 3, 6), (11, 4, 8)])
def test_start_kets_are_the_rows_of_one_draw(seed, d_j, d_c):
    # drawn one row at a time, restart r's kets are row r of the batched draw, bit for bit
    restarts = 7
    draw = np.random.default_rng(seed).standard_normal((restarts, 2, d_j + d_c))
    kets = draw[:, 0] + 1j * draw[:, 1]
    want_j, want_c = (side / np.linalg.norm(side, axis=1, keepdims=True) for side in (kets[:, :d_j], kets[:, d_j:]))
    starts = list(itertools.islice(_start_kets(seed, d_j, d_c), restarts))
    np.testing.assert_array_equal(starts[0][0], balanced(d_j))
    np.testing.assert_array_equal(starts[0][1], balanced(d_c))
    for r in range(1, restarts):
        np.testing.assert_array_equal(starts[r][0], want_j[r])
        np.testing.assert_array_equal(starts[r][1], want_c[r])


@pytest.mark.parametrize("restarts", [2, 8, 32])
def test_a_later_restart_stops_at_the_bound(restarts):
    # Q = 1/2 + 0.3|p><p| with p = (|0> - |1>)/sqrt2 (x) (|00> - |11>)/sqrt2: the balanced
    # kets are orthogonal to both of p's factors, so restart 0 stays at 1/2, and restart 1
    # reaches the Schmidt bound 0.8, where the call stops
    bip = Bipartition(E3, (0,))
    p_j = np.array([1, -1]) / np.sqrt(2)
    p_c = np.array([1, 0, 0, -1]) / np.sqrt(2)
    p = np.kron(p_j, p_c)
    w = low_rank_witness(E3, np.eye(8) / 2 + 0.3 * np.outer(p, p).astype(complex))
    r = seesaw_maximize(w, bip, restarts=restarts, seed=0)
    assert r.restarts_run == 2
    assert r.best_value == pytest.approx(0.8, abs=1e-12)
    assert r.upper_bound == pytest.approx(0.8, abs=1e-12)
    assert_same_ket_up_to_phase(r.best_kets[0], p_j)
    assert_same_ket_up_to_phase(r.best_kets[1], p_c)


@settings(max_examples=40, deadline=None)
@given(split_ensembles(), st.floats(0, 2 * np.pi), st.integers(2, 64))
def test_sign_witness_stops_after_restart_0(bip, offset, restarts):
    # restart 0 meets the Schmidt bound on every bipartition, so the other
    # restarts cannot beat it and do not run
    w = build_qk_direct(bip.ensemble, offset)
    r = seesaw_maximize(w, bip, restarts=restarts, seed=0)
    assert r.restarts_run == 1
    assert r.best_value == pytest.approx(float(witness_report(bip.ensemble.K).P_sep), abs=1e-12)
    assert r.best_value <= r.upper_bound


@settings(max_examples=40, deadline=None)
@given(split_ensembles(), st.floats(0, 2 * np.pi))
def test_sign_witness_stops_at_its_first_half_step(bip, offset):
    # from the balanced kets, restart 0's first half-step already reaches the
    # Schmidt bound, so the call makes that one half-step and nothing else
    w = build_qk_direct(bip.ensemble, offset)
    unstopped = _ascend(*layouts_of(w, bip), balanced(bip.side_dim(bip.subset_J)),
                        balanced(bip.side_dim(bip.complement)), np.inf)
    steps = []
    half_step = seesaw._half_step

    def counting(*args):
        steps.append(args)
        return half_step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seesaw, "_half_step", counting)
        r = seesaw_maximize(w, bip, restarts=32)
    assert len(steps) == 1
    assert (r.iterations, r.converged, r.restarts_run) == (1, True, 1)
    assert r.best_value == pytest.approx(float(witness_report(bip.ensemble.K).P_sep), abs=1e-12)
    assert r.best_value == pytest.approx(unstopped[0], abs=1e-12)


@pytest.mark.parametrize("restarts", [1, 3, 8])  # restart 0 alone, a few, all eight
def test_gap_path_runs_every_restart_once(monkeypatch, restarts):
    # restart 0 of the random rank-6 witness ends below the factor bound, so
    # restarts 1 .. R-1 run too: the winner is the full-restart reference's, and
    # each restart takes two half-steps per iteration of its own, restart 0
    # among them once
    bip = Bipartition(E5, (0, 2))
    w = random_low_rank_witness(57, E5)
    values, iterations, converged, kets = sequential_seesaw_reference(w.Q, bip, restarts, 200, 1e-10, seed=11)
    steps = []
    half_step = seesaw._half_step

    def counting(*args):
        steps.append(args)
        return half_step(*args)

    monkeypatch.setattr(seesaw, "_half_step", counting)
    r = seesaw_maximize(w, bip, restarts=restarts, seed=11)
    best = int(np.argmax(values))
    assert (best != 0) == (restarts == 8) and r.restarts_run == restarts  # restart 6 is the best of the eight
    assert r.best_value == pytest.approx(values[best], abs=1e-12)
    assert (r.iterations, r.converged) == (iterations[best], converged[best])
    assert_same_ket_up_to_phase(r.best_kets[0], kets[best][0])
    assert_same_ket_up_to_phase(r.best_kets[1], kets[best][1])
    assert len(steps) == 2 * iterations.sum()


def test_a_loose_bound_leaves_the_gap_open():
    # 1/2 + |GHZ><GHZ|/4 + 1e-7 |011><011|: the Schmidt bound adds both
    # factors' maxima, which no product ket attains together, so restart 0
    # ends about 7.5e-8 below the bound, far above tol, and every restart runs
    bip = Bipartition(E3, (0,))
    ghz = balanced(8)
    q = np.eye(8, dtype=complex) / 2 + np.outer(ghz, ghz) / 4
    q[3, 3] += 1e-7
    w = low_rank_witness(E3, q)
    assert len(w.factors.values) == 2
    r = seesaw_maximize(w, bip, restarts=5, seed=0)
    assert r.restarts_run == 5
    assert 1e-8 < r.upper_bound - r.best_value < 1e-6
    assert r.best_value == pytest.approx(0.625 + 0.25e-7, abs=1e-12)


def test_seesaw_runs_without_einsum(monkeypatch):
    # the see-saw conditions through the side-major layouts and must not
    # fall back to a 2N-axis einsum per step
    w5 = build_qk_direct(E5)
    sep5 = float(witness_report(5).P_sep)

    def no_einsum(*args, **kwargs):
        raise AssertionError("the see-saw called numpy.einsum")

    monkeypatch.setattr(np, "einsum", no_einsum)
    for bip in enumerate_bipartitions(E5):
        r = seesaw_maximize(w5, bip, restarts=2, seed=0)
        assert r.best_value == pytest.approx(sep5, abs=1e-9)


# --- the witness factors behind the see-saw ---


@settings(max_examples=40, deadline=None)
@given(split_ensembles(), st.floats(0, 2 * np.pi))
def test_direct_witness_factors_are_the_two_ghz_like_levels(bip, offset):
    # Q - 1/2 = (P_max - 1/2)(|P+><P+| - |P-><P-|), read from the direct route
    w = build_qk_direct(bip.ensemble, offset)
    vectors, values, residual = w.factors
    level = float(witness_report(bip.ensemble.K).P_max) - 0.5
    np.testing.assert_allclose(values, [-level, level], rtol=0, atol=1e-12)
    np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(2), rtol=0, atol=1e-12)
    assert residual < 1e-12


def test_seesaw_rejects_a_witness_that_is_not_low_rank():
    w = low_rank_witness(E5, random_hermitian(31, 32))
    assert w.factors.residual > 1
    with pytest.raises(ValueError, match=r"residual of \d\.\d+e\+01 > 1e-09"):
        seesaw_maximize(w, Bipartition(E5, (0, 2)))


def test_a_factor_above_the_tolerance_is_kept_not_counted_as_residual():
    # Q - 1/2 of exact rank 2 with one factor of 5e-9: a drop tolerance above the residual
    # gate dropped that factor, then refused the witness for the residual it left
    rng = np.random.default_rng(5)
    p, q = np.linalg.qr(rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2)))[0].T
    w = low_rank_witness(E5, np.eye(32) / 2 + 0.3 * np.outer(p, p.conj()) + 5e-9 * np.outer(q, q.conj()))
    np.testing.assert_allclose(np.sort(w.factors.values), [5e-9, 0.3], rtol=1e-6)
    assert w.factors.residual < 1e-12
    r = seesaw_maximize(w, Bipartition(E5, (0, 2)), restarts=4, seed=0)
    assert 0.5 <= r.best_value <= r.upper_bound


def test_seesaw_validation():
    # unchecked, restarts=2.5 returned a result, and seed=-5 passed until the
    # restart path handed it to numpy
    bip = Bipartition(E3, (0,))
    for restarts in (0, -1, 2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="^restarts must be an integer"):
            seesaw_maximize(W3, bip, restarts=restarts)
    for seed in (-5, 1.5, True, None):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            seesaw_maximize(W3, bip, seed=seed)
    r = seesaw_maximize(W3, bip, restarts=np.int64(2), seed=np.int64(3))
    assert r.best_value == pytest.approx(SEP3, abs=1e-12)


def test_seesaw_rejects_a_bipartition_of_another_ensemble():
    # (1, 1/2) and (1/2, 1) share dim 6, so unchecked the call scored the
    # witness across the wrong cut: 0.77467 where the right one gives 0.76792
    ensemble = SpinEnsemble((1, 0.5))
    rng = np.random.default_rng(5)
    p = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p /= np.linalg.norm(p)
    w = low_rank_witness(ensemble, np.eye(6) / 2 + 0.3 * np.outer(p, p.conj()))
    with pytest.raises(ValueError, match="do not match"):
        seesaw_maximize(w, enumerate_bipartitions(SpinEnsemble((0.5, 1)))[0])
    r = seesaw_maximize(w, enumerate_bipartitions(ensemble)[0])
    assert r.best_value == pytest.approx(0.7679186648566, abs=1e-12)


@pytest.mark.parametrize("index, atol", [(0, 2e-16), (7, 2e-16), (3, 0)])  # all up, all down, neither
def test_flat_conditioning_keeps_the_previous_ket(index, atol):
    # a stretched complement cancels the two GHZ-like terms (to the rounding of
    # their weights), and a complement orthogonal to both stretched states
    # removes them: the conditioned operator is 1/2 on the whole span, so each
    # previous ket is kept
    bip = Bipartition(E5, (0, 2))
    layout_j, weights = layouts_of(build_qk_direct(E5, 0.7), bip)
    rng = np.random.default_rng(41)
    for _ in range(6):
        previous = unit_ket(rng, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, ket = _half_step(layout_j, weights, basis_vector(8, index), previous)
        np.testing.assert_allclose(value, 0.5, rtol=0, atol=atol)
        assert_same_ket_up_to_phase(ket, previous)


def test_seesaw_eigensolves_are_at_most_seven_by_seven(monkeypatch):
    # (r + 1) x (r + 1) projections for rank r <= 6, and the 6 x 6 factorisation;
    # the dense half-step solved up to 64 x 64 here
    witnesses = [build_qk_direct(SpinEnsemble((0.5,) * 7), 0.3), random_low_rank_witness(57, E5)]
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    for w in witnesses:
        for bip in enumerate_bipartitions(w.ensemble):
            seesaw_maximize(w, bip, restarts=4, seed=0)
    assert {(6, 6), (3, 3), (7, 7)} <= set(shapes)
    assert max(max(shape) for shape in shapes) <= 7


def test_factors_are_computed_once_per_witness(monkeypatch):
    calls = []
    factorize = WitnessOperator.factors.func

    def counting(witness):
        calls.append(witness)
        return factorize(witness)

    counted = functools.cached_property(counting)
    counted.__set_name__(WitnessOperator, "factors")
    monkeypatch.setattr(WitnessOperator, "factors", counted)
    w5 = build_qk_direct(E5)
    for bip in enumerate_bipartitions(E5):
        seesaw_maximize(w5, bip, restarts=2, seed=0)
    assert len(calls) == 1 and calls[0] is w5
    other = build_qk_direct(E5, 0.4)  # a new witness gets its own factors
    seesaw_maximize(other, Bipartition(E5, (0,)), restarts=2, seed=0)
    assert len(calls) == 2 and calls[1] is other


# --- the Schmidt upper bound ---


@settings(max_examples=40, deadline=None)
@given(split_ensembles(), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_no_product_state_exceeds_the_upper_bound(bip, seed, rank):
    # rank 0 draws the sign witness at a random offset, rank r a random Q - 1/2
    # of rank r with weights of both signs
    ensemble = bip.ensemble
    rng = np.random.default_rng(seed)
    if rank:
        w = random_low_rank_witness(seed, ensemble, rank, low=-0.5)
    else:
        w = build_qk_direct(ensemble, rng.uniform(0, 2 * np.pi))
    r = seesaw_maximize(w, bip, restarts=4, seed=seed)
    dims = ensemble.local_dims
    kets_j = [unit_ket(rng, bip.side_dim(bip.subset_J)) for _ in range(16)] + [r.best_kets[0]]
    kets_c = [unit_ket(rng, bip.side_dim(bip.complement)) for _ in range(16)] + [r.best_kets[1]]
    for psi_j, psi_c in zip(kets_j, kets_c):
        full = np.einsum(
            psi_j.reshape([dims[i] for i in bip.subset_J]), list(bip.subset_J),
            psi_c.reshape([dims[i] for i in bip.complement]), list(bip.complement),
            list(range(ensemble.N)),
        ).reshape(-1)
        # 1e-12 covers rounding only: a tight bound and a value on it agree to about 1e-15
        assert np.real(full.conj() @ w.Q @ full) <= r.upper_bound + 1e-12
    assert r.best_value <= r.upper_bound + 1e-12


def test_a_witness_without_positive_factors_is_bounded_by_one_half():
    # no w_s > 0, so the Schmidt bound takes no singular values: 1/2 plus the residual term, exactly
    ghz = balanced(8)
    w = low_rank_witness(E3, np.eye(8, dtype=complex) / 2 - 0.3 * np.outer(ghz, ghz))
    assert (w.factors.values < 0).all()
    r = seesaw_maximize(w, Bipartition(E3, (0,)), restarts=4, seed=0)
    assert r.upper_bound == 0.5 + w.factors.residual
    assert r.best_value <= r.upper_bound


def test_upper_bound_covers_what_the_factors_miss():
    # a 5e-10 bump on |000> is below FACTOR_TOL, so the factors drop it and
    # only the residual term keeps |000> (x) |00> under the bound
    bip = Bipartition(E3, (0,))
    ghz = balanced(8)
    q = np.eye(8, dtype=complex) / 2 + np.outer(ghz, ghz) / 4
    q[0, 0] += 5e-10
    w = low_rank_witness(E3, q)
    assert 1e-10 < w.factors.residual < FACTOR_TOL
    r = seesaw_maximize(w, bip, restarts=4, seed=0)
    value = np.real(q[0, 0])  # the product state |0> (x) |00>
    assert value <= r.upper_bound
    assert value > r.upper_bound - w.factors.residual + 1e-11  # the bound fails without its residual term
    assert r.best_value <= r.upper_bound
