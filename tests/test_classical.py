import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinwitness.classical import classical_score, classical_sweep_max


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
    # one angle per constant arc: the half-plane bound (K+1)/(2K) to the last bit, no sampling
    for K in range(1, 402, 2):
        assert classical_sweep_max(K) == (K + 1) / (2 * K)


def test_sweep_max_memory_at_k_2001():
    # 2K angles, not a fixed fine grid: the (K, 2K) tables stay far below what 1e5 samples would need
    tracemalloc.start()
    try:
        assert classical_sweep_max(2001) == 2002 / 4002
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20


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
    assert classical_score(K, phi0) in {(K - 1) / (2 * K), 0.5, (K + 1) / (2 * K)}


@pytest.mark.parametrize("phi0", [float("nan"), float("inf"), -float("inf")])
def test_rejects_non_finite_angle(phi0):
    # unchecked, NaN would score 0.5: every comparison with NaN is false, so each direction reads as a tie
    with pytest.raises(ValueError, match="finite"):
        classical_score(3, phi0)
