"""Noise channels vs their closed-form score predictions.

The brute-force oracle below applies a depolarizing channel from the Kraus
definition, one particle at a time, without reusing any package code path
beyond basic state plumbing.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linalg_reference import outcome_table_reference, partial_trace_reference
from spinwitness import noise, protocol, witness
from spinwitness.noise import (
    NoiseModel,
    _depolarize,
    _depolarize_slot,
    apply_depolarizing,
    depolarize_table,
    detection_thresholds,
    noisy_score,
)
from spinwitness.protocol import _positive_mass, outcome_table
from spinwitness.spin import SpinEnsemble
from spinwitness.states import QuantumState, ghz_like, random_ket
from spinwitness.witness import build_qk_direct, score, witness_report

E3 = SpinEnsemble((0.5, 0.5, 0.5))
E_MIXED = SpinEnsemble((0.5, 1, 1))


def depolarize_reference(rho, dims, slot, p):
    """p * (identity/d at slot) (x) (reduced rho) + (1-p) rho, built by explicit kron."""
    n = len(dims)
    keep = [i for i in range(n) if i != slot]
    reduced = partial_trace_reference(rho, dims, keep)
    d_left = int(np.prod(dims[:slot]))
    d_slot = dims[slot]
    # reinsert the slot: permute the reduced state's factors around an identity
    # (only needed when the slot is interior; edges are plain krons)
    red_tensor = reduced.reshape([dims[i] for i in keep] * 2)
    m = len(keep)
    full = np.tensordot(red_tensor, np.eye(d_slot) / d_slot, axes=0)
    order = []
    for axis_set in range(2):  # rows then columns
        taken = 0
        for i in range(n):
            if i == slot:
                order.append(2 * m + axis_set)
            else:
                order.append(axis_set * m + taken)
                taken += 1
    full = full.transpose(order[:n] + order[n:])
    dim = int(np.prod(dims))
    return p * full.reshape(dim, dim) + (1 - p) * rho


def dense_depolarize_slot(rho, dims, slot, p):
    """The dense channel kernel: a dim x dim refill from an eye(d) broadcast."""
    left, d, right = int(np.prod(dims[:slot])), dims[slot], int(np.prod(dims[slot + 1:]))
    blocks = rho.reshape(left, d, right, left, d, right)
    reduced = np.trace(blocks, axis1=1, axis2=4)
    refill = reduced[:, None, :, :, None, :] * (np.eye(d) / d)[None, :, None, None, :, None]
    return (p * refill + (1 - p) * blocks).reshape(rho.shape)


def dense_depolarizing(rho, ensemble, model):
    """`apply_depolarizing` with the dense kernels, on a bare density matrix."""
    if model.kind == "global":
        out = model.p_global * np.eye(ensemble.dim) / ensemble.dim + (1 - model.p_global) * rho
    else:
        out = rho
        for slot, p in enumerate(model.p_locals):
            out = dense_depolarize_slot(out, ensemble.local_dims, slot, p)
    return (out + out.conj().T) / 2


@pytest.mark.parametrize("spins", [(1, 0.5), (0.5, 1, 1), (1.5, 1.5, 1.5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_channels_are_bit_identical_to_dense_reference(spins, seed):
    ensemble = SpinEnsemble(spins)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(3))
    rho = sum(w * random_ket(ensemble, seed=10 * seed + i).density() for i, w in enumerate(weights))
    state = QuantumState(ensemble, rho=(rho + rho.conj().T) / 2)
    before = state.rho.copy()
    for model in (NoiseModel(p_global=rng.uniform()),
                  NoiseModel(p_locals=tuple(rng.uniform(size=ensemble.N)))):
        got = apply_depolarizing(state, model).rho
        np.testing.assert_array_equal(got, dense_depolarizing(state.rho, ensemble, model))
    for slot, p in enumerate(rng.uniform(size=ensemble.N)):
        got = _depolarize_slot(state.rho, ensemble.local_dims, slot, p)
        np.testing.assert_array_equal(got, dense_depolarize_slot(state.rho, ensemble.local_dims, slot, p))
    np.testing.assert_array_equal(state.rho, before)  # the input state is not written to


def test_global_channel_mixes_toward_maximally_mixed():
    st = ghz_like(E3, phi=np.pi)
    noisy = apply_depolarizing(st, NoiseModel(p_global=0.3))
    want = 0.3 * np.eye(8) / 8 + 0.7 * st.density()
    np.testing.assert_allclose(noisy.rho, want, atol=1e-14)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
def test_local_channel_matches_kraus_reference(slot, p):
    st = random_ket(E_MIXED, seed=slot + 1)
    ps = [0.0] * 3
    ps[slot] = p
    noisy = apply_depolarizing(st, NoiseModel(p_locals=tuple(ps)))
    want = depolarize_reference(st.density(), list(E_MIXED.local_dims), slot, p)
    np.testing.assert_allclose(noisy.rho, want, atol=1e-13)


def test_local_channels_commute():
    st = random_ket(E3, seed=5)
    a = apply_depolarizing(st, NoiseModel(p_locals=(0.2, 0.0, 0.5)))
    rho = depolarize_reference(st.density(), [2, 2, 2], 2, 0.5)
    rho = depolarize_reference(rho, [2, 2, 2], 0, 0.2)  # reversed application order
    np.testing.assert_allclose(a.rho, rho, atol=1e-13)


# Mixed-spin ensembles of two or more particles (the reference traces out one
# slot and keeps the rest) with odd K and dim <= 64, a state seed and one p per slot.
noisy_cases = (
    st.lists(st.sampled_from([0.5, 1, 1.5, 2, 2.5]), min_size=2, max_size=5)
    .filter(lambda spins: round(2 * sum(spins)) % 2 == 1 and np.prod([2 * j + 1 for j in spins]) <= 64)
    .flatmap(lambda spins: st.tuples(
        st.just(SpinEnsemble(spins)), st.integers(0, 2**32 - 1),
        st.lists(st.floats(0, 1), min_size=len(spins), max_size=len(spins)),
    ))
)


@settings(max_examples=60, deadline=None)
@given(noisy_cases, st.booleans())
def test_local_channel_property(case, mixed):
    ensemble, seed, ps = case
    state = random_ket(ensemble, seed)
    if mixed:  # a rank-2 mixture, so the input is not a projector
        state = QuantumState(ensemble, rho=0.3 * state.density() + 0.7 * random_ket(ensemble, seed + 1).density())
    noisy = apply_depolarizing(state, NoiseModel(p_locals=tuple(ps))).rho
    want = state.density()
    for slot, p in enumerate(ps):
        want = depolarize_reference(want, list(ensemble.local_dims), slot, p)
    np.testing.assert_allclose(noisy, want, rtol=0, atol=1e-13)
    assert np.trace(noisy).real == pytest.approx(1.0, abs=1e-12)
    backward = state  # the same channels one slot at a time, last slot first
    for slot in reversed(range(ensemble.N)):
        single = [0.0] * ensemble.N
        single[slot] = ps[slot]
        backward = apply_depolarizing(backward, NoiseModel(p_locals=tuple(single)))
    np.testing.assert_allclose(backward.rho, noisy, rtol=0, atol=1e-13)


def test_channel_output_is_valid_state():
    st = ghz_like(E_MIXED)
    noisy = apply_depolarizing(st, NoiseModel(p_locals=(0.4, 0.1, 0.9)))
    assert isinstance(noisy, QuantumState)  # QuantumState revalidates trace/positivity
    assert np.trace(noisy.rho).real == pytest.approx(1.0, abs=1e-12)


# Half-integer ensembles of one to six particles, mixed spins included, with
# dim <= 128, each under a global channel or one local channel per particle.
closed_form_cases = (
    st.lists(st.sampled_from([0.5, 1, 1.5, 2, 2.5]), min_size=1, max_size=6)
    .filter(lambda spins: round(2 * sum(spins)) % 2 == 1 and np.prod([2 * j + 1 for j in spins]) <= 128)
    .map(SpinEnsemble)
    .flatmap(lambda ensemble: st.tuples(st.just(ensemble), st.one_of(
        st.floats(0, 1).map(lambda p: NoiseModel(p_global=p)),
        st.lists(st.floats(0, 1), min_size=ensemble.N, max_size=ensemble.N)
        .map(lambda ps: NoiseModel(p_locals=tuple(ps))),
    )))
)


@settings(max_examples=80, deadline=None)
@given(closed_form_cases)
@example((E3, NoiseModel(p_global=0.5)))
@example((SpinEnsemble((0.5,) * 5), NoiseModel(p_locals=(0.1, 0.9, 0.25, 0.0, 1.0))))
def test_closed_form_matches_the_channel(case):
    ensemble, model = case
    state = ghz_like(ensemble, phi=np.pi * (ensemble.K - 1) / 2)  # the state the zero-offset witness detects
    brute = score(apply_depolarizing(state, model), build_qk_direct(ensemble))
    assert abs(noisy_score(ensemble, model) - brute) <= 1e-12


def _forbidden(*args, **kwargs):
    raise AssertionError("the table route read the closed form")


@settings(max_examples=80, deadline=None)
@given(closed_form_cases, st.integers(0, 2**32 - 1), st.floats(-4, 4))
@example((SpinEnsemble((0.5, 1, 1)), NoiseModel(p_locals=(0.3, 0.9, 0.1))), 1, 0.3)
@example((SpinEnsemble((1.5, 1.5, 0.5, 1)), NoiseModel(p_locals=(0.2, 0.0, 1.0, 0.6))), 2, -1.1)
@example((SpinEnsemble((2.5, 2.5, 2.5)), NoiseModel(p_global=0.35)), 3, 2.0)
@example((SpinEnsemble((0.5,) * 7), NoiseModel(p_locals=(0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95))), 4, 0.7)
def test_outcome_table_under_noise_matches_the_channel(case, seed, theta):
    # the stochastic map on a random ket's outcome table is the dense channel's output measured
    # outcome by outcome, and scores what that output scores against the direct witness, at any
    # offset; the table route reads no closed form.  The score alone cannot tell the slots apart:
    # depolarizing slot n at p maps any score s to (1 - p) s + p / 2, whichever slot n is.
    ensemble, model = case
    state = random_ket(ensemble, seed)
    noisy = apply_depolarizing(state, model)
    brute = score(noisy, build_qk_direct(ensemble, theta))
    with pytest.MonkeyPatch.context() as mp:
        for module, name in [(protocol, "witness_report"), (noise, "witness_report"), (noise, "noisy_score"),
                             (witness, "witness_report"), (witness, "binomial_exact")]:
            mp.setattr(module, name, _forbidden)
        table = depolarize_table(outcome_table(state, theta), model)
        via_table = float(np.mean(table.reshape(ensemble.K, -1) @ (ensemble.jz_diagonal > 0)))
    np.testing.assert_allclose(table, outcome_table_reference(noisy.rho, ensemble, theta), rtol=0, atol=1e-12)
    assert abs(via_table - brute) <= 1e-12


def test_depolarize_table_checks_the_model_fits():
    table = outcome_table(ghz_like(E3))
    with pytest.raises(ValueError, match="local model has 2 entries for 3 particles"):
        depolarize_table(table, NoiseModel(p_locals=(0.1, 0.2)))
    # full replacement leaves the uniform table, globally or slot by slot
    for model in (NoiseModel(p_global=1.0), NoiseModel(p_locals=(1.0,) * 3)):
        np.testing.assert_allclose(depolarize_table(table, model), np.full(table.shape, 1 / 8), atol=1e-15)


def two_branch_noisy_score(ensemble, model):
    """The closed form with one survival formula per kind, as `noisy_score` once read: the reference."""
    if model.kind == "global":
        survival = 1 - model.p_global
    else:
        survival = float(np.prod([1 - p for p in model.p_locals]))
    return 0.5 + 2 * survival * (float(witness_report(ensemble.K).P_sep) - 0.5)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(0, 1).map(lambda p: NoiseModel(p_global=p)),
                 st.lists(st.floats(0, 1), min_size=1, max_size=6).map(lambda ps: NoiseModel(p_locals=tuple(ps)))),
       st.integers(1, 6))
@example(NoiseModel(p_global=0.1), 3)
@example(NoiseModel(p_locals=(0.1,)), 1)
def test_one_survival_product_is_bit_identical_to_two_branches(model, n):
    # a product of one float is that float, so the global score keeps every bit; math.prod multiplies in
    # the order np.prod does, so the local one does too
    n = n if model.p_locals is None else len(model.p_locals)
    ensemble = SpinEnsemble((0.5,) + (1,) * (n - 1))  # K = 2n - 1 is odd
    got, want = noisy_score(ensemble, model), two_branch_noisy_score(ensemble, model)
    assert type(got) is float and got == want
    ps = (model.p_global,) if model.p_locals is None else model.p_locals
    assert type(model.survival) is float and model.survival == float(np.prod([1 - p for p in ps]))


GRID = [0.0, 0.1, 0.25, 0.5, 0.9]

# the ensembles of the certify benchmark workload, whose verify runs score GRID as one stack per kind
CERTIFY_SHAPES = [(0.5, 1, 1), (1.5, 1.5, 1.5), (0.5, 1, 1, 1), (0.5, 1, 1.5, 1.5), (0.5,) * 5, (2.5, 2.5, 2.5),
                  (0.5,) * 7]


@pytest.mark.parametrize("kind", ["global", "local"])
@pytest.mark.parametrize("spins", CERTIFY_SHAPES)
def test_one_stacked_channel_call_keeps_every_bit_of_one_call_per_level(spins, kind):
    # verify maps the detected GHZ ket's table at all of GRID in one call, one level per row, and
    # scores the rows with one mask product: each row and each score is the one-level call's, bit for bit
    ensemble = SpinEnsemble(spins)
    table = outcome_table(ghz_like(ensemble, phi=np.pi * (ensemble.K - 1) / 2))
    column = np.array(GRID)[:, None]
    stack = _depolarize(np.broadcast_to(table, (len(GRID), *table.shape)),
                        column if kind == "global" else (column,) * ensemble.N, ensemble.N)
    masses = _positive_mass(stack, ensemble)
    assert stack.shape == (len(GRID), *table.shape) and masses.shape == (len(GRID), ensemble.K)
    for p, row, mass in zip(GRID, stack, masses):
        model = NoiseModel(p_global=p) if kind == "global" else NoiseModel(p_locals=(p,) * ensemble.N)
        one = depolarize_table(table, model)
        assert np.array_equal(row, one), p
        assert np.array_equal(mass, _positive_mass(one, ensemble)), p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(1, 7), st.integers(1, 5),
       st.integers(0, 2**32 - 1), st.data())
def test_stacked_channel_matches_the_table_channel_row_by_row(dims, directions, rows, seed, data):
    # random tables, each direction's outcomes summing to 1, each row with its own levels in [0, 1]
    n = len(dims)
    tables = np.random.default_rng(seed).random((rows, directions, *dims))
    tables /= tables.sum(axis=tuple(range(2, n + 2)), keepdims=True)
    levels = st.lists(st.floats(0, 1), min_size=rows, max_size=rows)
    p_global, p_locals = np.array(data.draw(levels)), np.array([data.draw(levels) for _ in range(n)])
    by_global = _depolarize(tables, p_global[:, None], n)
    by_slot = _depolarize(tables, tuple(p[:, None] for p in p_locals), n)
    for b, table in enumerate(tables):
        assert np.array_equal(by_global[b], depolarize_table(table, NoiseModel(p_global=p_global[b])))
        assert np.array_equal(by_slot[b], depolarize_table(table, NoiseModel(p_locals=tuple(p_locals[:, b]))))


@pytest.mark.parametrize("ensemble", [E3, SpinEnsemble((0.5,) * 5)])
def test_global_closed_form_matches_brute_force(ensemble):
    w = build_qk_direct(ensemble)
    st = ghz_like(ensemble, phi=np.pi * (ensemble.K - 1) / 2)  # the state this witness detects
    for p in GRID:
        model = NoiseModel(p_global=p)
        assert score(apply_depolarizing(st, model), w) == pytest.approx(noisy_score(ensemble, model), abs=1e-10)


@pytest.mark.parametrize("ensemble", [E3, SpinEnsemble((0.5,) * 5)])
def test_local_closed_form_matches_brute_force(ensemble):
    w = build_qk_direct(ensemble)
    st = ghz_like(ensemble, phi=np.pi * (ensemble.K - 1) / 2)
    rng = np.random.default_rng(0)
    grids = [tuple([p] * ensemble.N) for p in GRID] + [tuple(rng.uniform(0, 1, ensemble.N)) for _ in range(3)]
    for ps in grids:
        model = NoiseModel(p_locals=ps)
        assert score(apply_depolarizing(st, model), w) == pytest.approx(noisy_score(ensemble, model), abs=1e-10)


def global_model(p):
    return NoiseModel(p_global=p)


def local_model(*ps):
    return NoiseModel(p_locals=ps)


def test_detection_flips_exactly_at_half_global():
    # dyadic arithmetic: at p = 1/2 the score equals P_sep to the last bit
    rep = witness_report(3)
    assert noisy_score(E3, global_model(0.5)) == float(rep.P_sep)
    assert noisy_score(E3, global_model(0.5 - 1e-12)) > float(rep.P_sep)
    assert noisy_score(E3, global_model(0.5 + 1e-12)) < float(rep.P_sep)


def test_detection_flips_exactly_at_half_survival_local():
    rep = witness_report(3)
    assert noisy_score(E3, local_model(0.5, 0.0, 0.0)) == float(rep.P_sep)
    assert noisy_score(E3, local_model(0.0, 0.5, 0.0)) == float(rep.P_sep)
    # survival prod(1-p) = 0.5 split across particles: 1 - sqrt(2)/2 each on two
    p = 1 - np.sqrt(0.5)
    assert noisy_score(E3, local_model(p, p, 0.0)) == pytest.approx(float(rep.P_sep), abs=1e-12)


def test_thresholds_frozen_values():
    g, loc, limit = detection_thresholds(E3)
    assert g == 0.5
    assert loc == pytest.approx(0.2062994740159002, abs=1e-15)
    assert limit == Fraction(4, 7)


@pytest.mark.parametrize("spins, limit", [
    ((0.5, 1, 1), Fraction(9, 17)), ((1.5, 1.5, 1.5), Fraction(32, 63)), ((2.5, 2.5, 2.5), Fraction(108, 215)),
])
def test_fidelity_threshold_values_above_spin_half(spins, limit):
    assert detection_thresholds(SpinEnsemble(spins))[2] == limit


@pytest.mark.parametrize("spins", [(0.5, 0.5, 0.5), (0.5, 1, 1), (1.5, 1.5, 1.5)])
def test_fidelity_threshold_is_where_the_noisy_ghz_fidelity_crosses_half(spins):
    # the channel applied densely, the fidelity read as <P+| rho |P+>: no closed form involved
    ensemble = SpinEnsemble(spins)
    ghz = ghz_like(ensemble, phi=np.pi * (ensemble.K - 1) / 2)
    limit = float(detection_thresholds(ensemble)[2])

    def fidelity(p):
        rho = apply_depolarizing(ghz, NoiseModel(p_global=p)).rho
        return float(np.real(ghz.ket.conj() @ rho @ ghz.ket))

    assert fidelity(limit - 1e-6) > 0.5
    assert fidelity(limit + 1e-6) <= 0.5


def test_threshold_is_consistent_with_scores():
    _, loc, _ = detection_thresholds(E3)
    rep = witness_report(3)
    eps = 1e-6
    assert noisy_score(E3, local_model(*(loc - eps,) * 3)) > float(rep.P_sep)
    assert noisy_score(E3, local_model(*(loc + eps,) * 3)) < float(rep.P_sep)


def test_noise_model_validation():
    with pytest.raises(ValueError, match="exactly one"):
        NoiseModel()
    with pytest.raises(ValueError, match="exactly one"):
        NoiseModel(p_global=0.1, p_locals=(0.2,))
    with pytest.raises(ValueError):
        NoiseModel(p_global=1.5)
    with pytest.raises(ValueError, match=r"p_locals\[1\]"):
        NoiseModel(p_locals=(0.2, -0.1))
    # float() took strings and bools, and raised a TypeError on a complex level
    for p_global in ("0.5", True, False, 1j):
        with pytest.raises(ValueError, match="^p_global must be a real number"):
            NoiseModel(p_global=p_global)
    for p_locals, bad in [(("0.1", False, 1), 0), ((0.1, False, 1), 1), ((0.1, 0.2, True), 2)]:
        with pytest.raises(ValueError, match=rf"^p_locals\[{bad}\] must be a real number"):
            NoiseModel(p_locals=p_locals)
    for p in (1, 0, np.float64(0.25), np.float32(0.5), np.int64(1), Fraction(1, 3)):
        assert NoiseModel(p_global=p).p_global == float(p)
        assert NoiseModel(p_locals=(p, 0.5)).p_locals == (float(p), 0.5)
    # a scalar raised a TypeError, a string was read one character at a time, and () gave survival 1
    for p_locals in (0.1, np.float64(0.1), "0", "0.1,0.2", b"0", (), [], np.array([])):
        with pytest.raises(ValueError, match="^p_locals must be a nonempty sequence"):
            NoiseModel(p_locals=p_locals)
    assert NoiseModel(p_locals=np.array([0.1, 0.2])).p_locals == (0.1, 0.2)
    assert NoiseModel(p_locals=[0.1]).p_locals == (0.1,)
    with pytest.raises(ValueError, match="local model has"):
        apply_depolarizing(ghz_like(E3), NoiseModel(p_locals=(0.1, 0.2)))
    with pytest.raises(ValueError, match="local model has"):
        noisy_score(E3, NoiseModel(p_locals=(0.1, 0.2)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(0, 1), st.lists(st.floats(0, 1), min_size=3, max_size=3).map(tuple)))
def test_noise_model_kind_follows_the_field_given(p):
    # kind is read from the one field given; deriving it leaves the closed form and the channel as they were
    is_global = isinstance(p, float)
    model = NoiseModel(p_global=p) if is_global else NoiseModel(p_locals=p)
    assert model.kind == ("global" if is_global else "local")
    with pytest.raises(ValueError, match="exactly one"):
        NoiseModel(p_global=p, p_locals=(0.5,) * 3) if is_global else NoiseModel(p_global=0.5, p_locals=p)
    survival = 1 - p if is_global else float(np.prod([1 - q for q in p]))
    assert noisy_score(E3, model) == 0.5 + 2 * survival * (float(witness_report(3).P_sep) - 0.5)
    state = random_ket(E3, 3)
    assert np.array_equal(apply_depolarizing(state, model).rho, dense_depolarizing(state.density(), E3, model))
