"""End-to-end acceptance suite.

Each test is one criterion: an analytic value, an oracle equivalence, or a
statistical check, with its tolerance and runtime budget stated inline.  The
terminal summary (see conftest) prints one pass/fail line per criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from linalg_reference import partial_trace_reference
from spinwitness.classical import classical_sweep_max
from spinwitness.noise import (
    NoiseModel,
    apply_depolarizing,
    detection_thresholds,
    noisy_score,
)
from spinwitness.protocol import run_protocol, run_protocol_subensembles
from spinwitness.seesaw import enumerate_bipartitions, seesaw_maximize
from spinwitness.spin import SpinEnsemble
from spinwitness.states import ghz_like, ghz_mixture
from spinwitness.witness import (
    build_qk_closed_form,
    build_qk_direct,
    generalized_witness,
    phase_for_ghz,
    score,
    witness_report,
)


def central_binomials(max_n):
    """C(2h, h) for 2h <= max_n, via Pascal's rule — independent of the package."""
    row = [1]
    centrals = {0: 1}
    for n in range(1, max_n + 1):
        row = [1] + [row[i - 1] + row[i] for i in range(1, n)] + [1]
        if n % 2 == 0:
            centrals[n] = row[n // 2]
    return centrals


def test_criterion_01_bound_table_exact():
    """witness_report matches the exact rational formulas for K = 1..41 odd; < 1 s."""
    t0 = time.perf_counter()
    centrals = central_binomials(40)
    for K in range(1, 42, 2):
        c = centrals[K - 1]
        rep = witness_report(K)
        assert rep.P_max == Fraction(1, 2) * (1 + Fraction(c, 2 ** (K - 1)))
        assert rep.P_sep == Fraction(1, 2) * (1 + Fraction(c, 2**K))
        assert rep.gap == Fraction(c, 2 ** (K + 1))
        assert rep.P_classical == Fraction(K + 1, 2 * K)
    r3 = witness_report(3)
    assert (r3.P_max, r3.P_sep, r3.gap) == (Fraction(3, 4), Fraction(5, 8), Fraction(1, 8))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"bound table took {elapsed:.2f}s"


CROSS_ENSEMBLES = [
    (0.5, 0.5, 0.5),
    (1.5,),
    (1, 0.5),
    (0.5,) * 5,
    (0.5, 1, 1),
    (0.5,) * 7,
]


def test_criterion_02_direct_vs_closed_form():
    """Two independent constructions agree to 1e-10 on six ensembles; < 30 s."""
    t0 = time.perf_counter()
    for spins in CROSS_ENSEMBLES:
        e = SpinEnsemble(spins)
        dev = np.abs(build_qk_direct(e).Q - build_qk_closed_form(e).Q).max()
        assert dev < 1e-10, f"{spins}: max deviation {dev:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"cross-construction took {elapsed:.2f}s"


SEESAW_ENSEMBLES = [(0.5, 0.5, 0.5), (0.5,) * 5, (1, 0.5), (0.5, 1, 1)]


def test_criterion_03_seesaw_separable_bound():
    """See-saw hits P_sep within 1e-6 on every bipartition, never exceeding it
    by more than 1e-9; every Schmidt upper bound within 1e-9 of P_sep;
    per-ensemble spread < 1e-6; < 2 min."""
    t0 = time.perf_counter()
    for spins in SEESAW_ENSEMBLES:
        e = SpinEnsemble(spins)
        sep = float(witness_report(e.K).P_sep)
        w = build_qk_direct(e)
        results = [seesaw_maximize(w, bip, restarts=32, seed=0) for bip in enumerate_bipartitions(e)]
        values = [r.best_value for r in results]
        for v in values:
            assert abs(v - sep) < 1e-6, f"{spins}: value {v!r} vs bound {sep!r}"
            assert v <= sep + 1e-9, f"{spins}: exceeded the separable bound by {v - sep:.2e}"
        for r in results:
            assert r.upper_bound <= sep + 1e-9, f"{spins}: upper bound {r.upper_bound - sep:.2e} above P_sep"
        assert max(values) - min(values) < 1e-6, f"{spins}: spread {max(values) - min(values):.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"see-saw sweep took {elapsed:.2f}s"


def test_criterion_04_phase_matched_detection():
    """phase_for_ghz makes ghz_like(phi) score P_max within 1e-10, K in {3,5}."""
    for K in (3, 5):
        e = SpinEnsemble((0.5,) * K)
        p_max = float(witness_report(K).P_max)
        for phi in (0.0, np.pi / 4, np.pi, 3 * np.pi / 2):
            w = build_qk_direct(e, theta_offset=phase_for_ghz(phi, K))
            got = score(ghz_like(e, phi), w)
            assert abs(got - p_max) < 1e-10, f"K={K}, phi={phi}: {got!r}"


def proper_subsets(n):
    for mask in range(1, 2**n - 1):
        yield [i for i in range(n) if mask >> i & 1]


def test_criterion_05_reduced_states_indistinguishable():
    """Every proper-subset reduced state of ghz_like equals the mixture's to 1e-12."""
    for n in (3, 5):
        e = SpinEnsemble((0.5,) * n)
        dims = list(e.local_dims)
        rho_mix = ghz_mixture(e).rho
        for phi in (0.0, 0.987):
            rho_ghz = ghz_like(e, phi).density()
            for keep in proper_subsets(n):
                dev = np.abs(
                    partial_trace_reference(rho_ghz, dims, keep) - partial_trace_reference(rho_mix, dims, keep)
                ).max()
                assert dev < 1e-12, f"N={n}, subset {keep}: deviation {dev:.2e}"


NOISE_GRID = (0.0, 0.1, 0.25, 0.5, 0.9)


def test_criterion_06_noise_closed_forms_and_thresholds():
    """Closed forms match brute-force channels to 1e-10 at K = 3, 5; the
    detection boundary is exact in floating point; thresholds are frozen."""
    for K in (3, 5):
        e = SpinEnsemble((0.5,) * K)
        w = build_qk_direct(e)
        st = ghz_like(e, phi=np.pi * (K - 1) / 2)
        for p in NOISE_GRID:
            for model in (NoiseModel(p_global=p), NoiseModel(p_locals=(p,) * K)):
                assert abs(score(apply_depolarizing(st, model), w) - noisy_score(e, model)) < 1e-10
    # boundary cases are dyadic: equality is exact, not approximate
    e3 = SpinEnsemble((0.5, 0.5, 0.5))
    sep3 = float(witness_report(3).P_sep)
    assert noisy_score(e3, NoiseModel(p_global=0.5)) == sep3
    assert noisy_score(e3, NoiseModel(p_locals=(0.5, 0.0, 0.0))) == sep3
    g, loc, limit = detection_thresholds(e3)
    assert g == 0.5
    assert abs(loc - 0.206299) < 1e-6
    assert abs(limit - 4 / 7) < 1e-12


def test_criterion_07_classical_sweep_max():
    """Classical precessing-vector maximum equals (1 + 1/K)/2 within 1e-9."""
    for K in (3, 5, 7, 9):
        got = classical_sweep_max(K)
        assert abs(got - (1 + 1 / K) / 2) < 1e-9, f"K={K}: {got!r}"


def test_criterion_08_gap_scaling_claims():
    """Exact big-integer gaps: ~5% at K=19; below 1% at K=401, with the 1%
    crossing sitting between K=397 and K=399; < 1 s."""
    t0 = time.perf_counter()
    g19 = witness_report(19).gap
    assert g19 == Fraction(48620, 1048576)
    assert abs(float(g19) - 0.046368) < 1e-6
    one_percent = Fraction(1, 100)
    assert witness_report(401).gap < one_percent
    # the crossing is just below 400: the gap is still above 1% at K=397
    assert witness_report(397).gap > one_percent
    assert witness_report(399).gap < one_percent
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"gap arithmetic took {elapsed:.2f}s"


def test_criterion_09_protocol_detection_power():
    """1e5-round runs on the optimal state give ci_low > 0.625 for >= 9 of
    seeds 0..9; the mixture never triggers; the subensemble variant agrees
    with the monolithic one by chi-square at 1%; < 1 min."""
    t0 = time.perf_counter()
    e = SpinEnsemble((0.5, 0.5, 0.5))
    sep = float(witness_report(3).P_sep)
    optimal = ghz_like(e, phi=np.pi)  # the zero-offset witness's top eigenvector
    mixture = ghz_mixture(e)

    detections = 0
    for seed in range(10):
        est = run_protocol(optimal, 100_000, seed)
        if est.ci_low > sep:
            detections += 1
    assert detections >= 9, f"only {detections}/10 seeds detected"

    for seed in range(10):
        est = run_protocol(mixture, 100_000, seed)
        assert est.ci_low <= sep, f"mixture falsely detected at seed {seed}"

    mono = run_protocol(optimal, 100_000, 100)
    split = run_protocol_subensembles(optimal, 100_000, 101)
    table = np.array(
        [[round(mono.p_hat * mono.rounds), mono.rounds - round(mono.p_hat * mono.rounds)],
         [round(split.p_hat * split.rounds), split.rounds - round(split.p_hat * split.rounds)]],
        dtype=float,
    )
    expected = table.sum(axis=1, keepdims=True) @ table.sum(axis=0, keepdims=True) / table.sum()
    chi2 = float(((table - expected) ** 2 / expected).sum())
    assert chi2 < 6.634896601021215, f"chi-square {chi2:.3f} rejects agreement at 1%"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"protocol simulations took {elapsed:.2f}s"


def test_criterion_10_generalized_witness_conditions():
    """Scaled sign recovers P_sep at K = 3, 5; a linear response decouples
    (f_K = 0); a cubic one still couples at K = 3 (f_K > 0)."""
    half_sign = lambda x: float(np.sign(x)) / 2
    for K in (3, 5):
        e = SpinEnsemble((0.5,) * K)
        sep = float(witness_report(K).P_sep)
        gw = generalized_witness(e, 0.5, half_sign)
        assert abs(gw.sep_bound - sep) < 1e-10, f"K={K}: {gw.sep_bound!r} vs {sep!r}"
        assert generalized_witness(e, 0.0, lambda x: x).f_K < 1e-10  # blind
    e3 = SpinEnsemble((0.5, 0.5, 0.5))
    cubic = generalized_witness(e3, 0.0, lambda x: x**3)
    assert cubic.f_K > 1e-6
    assert abs(cubic.f_K - 0.75) < 1e-10
