import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinwitness.classical import classical_score, classical_sweep_max
from spinwitness.spin import _reduced_angle


def table_scores(K, phi0):
    # the score at each angle of phi0 as one (K, len(phi0)) table of projections, as the sweep once read all 2K arcs
    proj = np.cos(2 * np.pi * np.arange(K)[:, None] / K - phi0[None, :])
    weights = np.where(proj > 1e-12, 1.0, np.where(proj < -1e-12, 0.0, 0.5))
    return weights.mean(axis=0)


def table_sweep_max(K):
    # one angle per arc, at the midpoints pi/2 + pi (j + 1/2)/K of all 2K arcs
    return float(table_scores(K, np.pi / 2 + np.pi * (np.arange(2 * K) + 0.5) / K).max())


def brute_score(K, phi0):
    # direct re-statement of the definition, kept separate from the module
    hits = 0.0
    for k in range(K):
        c = np.cos(2 * np.pi * k / K - phi0)
        if c > 1e-12:
            hits += 1
        elif abs(c) <= 1e-12:
            hits += 0.5
    return hits / K


def test_frozen_values_k3():
    # aligned with direction 0: the other two directions point away
    assert classical_score(3, 0.0) == pytest.approx(1 / 3, abs=1e-15)
    # anti-aligned: both others have positive projection
    assert classical_score(3, np.pi) == pytest.approx(2 / 3, abs=1e-15)


@pytest.mark.parametrize("K", [3, 5, 7])
def test_matches_brute_definition(K):
    for phi0 in np.linspace(0, 2 * np.pi, 17):
        assert classical_score(K, phi0) == pytest.approx(brute_score(K, phi0), abs=1e-15)


def test_boundary_angle_counts_half():
    # phi0 = pi/2 puts direction 0 exactly orthogonal (counts 1/2); the other
    # two directions land at +-cos(pi/6), one positive and one negative
    assert classical_score(3, np.pi / 2) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("K", [3, 5, 7, 9])
def test_sweep_max_equals_half_plane_bound(K):
    assert classical_sweep_max(K) == pytest.approx((1 + 1 / K) / 2, abs=1e-9)


def test_sweep_never_exceeds_bound():
    for K in (3, 5, 7):
        bound = (1 + 1 / K) / 2
        for phi0 in np.linspace(0, 2 * np.pi, 1009):
            assert classical_score(K, phi0) <= bound + 1e-12


def test_score_is_periodic():
    assert classical_score(5, 0.4) == pytest.approx(classical_score(5, 0.4 + 2 * np.pi), abs=1e-12)


def test_sweep_max_is_exact_for_every_odd_k():
    # one angle on each of the two arcs of a period: the half-plane bound (K+1)/(2K) to the last bit, no sampling
    for K in range(1, 402, 2):
        assert classical_sweep_max(K) == (K + 1) / (2 * K)


def test_one_period_sweep_matches_the_2k_arc_table():
    # a 2 pi/K turn relabels the directions, so the two arcs of one period give the max of all 2K, bit for bit
    for K in [*range(1, 402, 2), 1001]:
        assert classical_sweep_max(K).hex() == table_sweep_max(K).hex(), K


def _sweep_peak(K):
    tracemalloc.start()
    try:
        assert classical_sweep_max(K) == (K + 1) / (2 * K)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_max_memory_at_k_2001():
    # two angles of K projections each: about 50 KiB, where the (K, 2K) table of all 2K arcs took 191 MiB
    assert _sweep_peak(2001) < 2**20


def test_sweep_max_reaches_a_million_directions():
    # about 24 MiB of K-vectors; the (K, 2K) table would need about 44 TiB here
    assert _sweep_peak(1_000_001) < 64 * 2**20


def test_rejects_even_k():
    with pytest.raises(ValueError):
        classical_score(4, 0.0)
    with pytest.raises(ValueError):
        classical_sweep_max(2)
    for bad in (0, -3, True, 3.0):
        with pytest.raises(ValueError, match="positive odd integer"):
            classical_score(bad, 0.0)
        with pytest.raises(ValueError, match="positive odd integer"):
            classical_sweep_max(bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.floats(allow_nan=False, allow_infinity=False))
@example(1, 1.0000000000000006e17)  # returned 1.0, above P_max = 3/4: 2 pi k/K - phi0 rounded away the angle
@example(1, 1e17)  # returned 0.0
def test_score_takes_one_of_three_values_at_any_angle(half_k, phi0):
    K = 2 * half_k + 1
    score = classical_score(K, phi0)
    assert score in {(K - 1) / (2 * K), 0.5, (K + 1) / (2 * K)}
    assert score.hex() == float(table_scores(K, np.array([_reduced_angle(phi0, "phi0")]))[0]).hex()


@pytest.mark.parametrize("phi0", [float("nan"), float("inf"), -float("inf")])
def test_rejects_non_finite_angle(phi0):
    # unchecked, NaN would score 0.5: every comparison with NaN is false, so each direction reads as a tie
    with pytest.raises(ValueError, match="finite"):
        classical_score(3, phi0)
