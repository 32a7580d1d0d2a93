import math

import numpy as np
import pytest

from linalg_reference import partial_trace_reference
from spinwitness.spin import assert_hermitian
from spinwitness.witness import _binomial_row, binomial_exact


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


# --- binomial, checked against an independently built Pascal triangle ---


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return tri


def test_binomial_matches_pascal_recurrence():
    tri = pascal_triangle(60)
    for n, row in enumerate(tri):
        for k, val in enumerate(row):
            assert binomial_exact(n, k) == val


def test_binomial_is_exact_int_at_large_n():
    # past the 2^53 float cliff; any float path would get this wrong
    v = binomial_exact(200, 100)
    assert isinstance(v, int)
    assert v % 10 == 0 and v > 2**53
    assert binomial_exact(200, 100) == binomial_exact(200, 100)  # deterministic


def test_binomial_row_is_math_comb():
    # each entry is the one before times (n - i) / (i + 1), in exact ints
    for n in range(301):
        assert _binomial_row(n) == [math.comb(n, i) for i in range(n + 1)]


@pytest.mark.parametrize("n,k", [(-1, 0), (3, -1), (2, 5)])
def test_binomial_rejects_bad_args(n, k):
    with pytest.raises(ValueError):
        binomial_exact(n, k)


# --- hermiticity guard ---


def test_assert_hermitian_accepts_and_rejects():
    h = random_hermitian(6, 0)
    out = assert_hermitian(h)
    assert out.dtype == complex
    bad = h.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(bad)
    with pytest.raises(ValueError, match="square"):
        assert_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("fn", [assert_hermitian])
@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, np.nan)])
def test_hermitian_guard_rejects_non_finite(fn, entry):
    # a NaN deviation fails `dev > tol` as well as `dev <= tol`
    with pytest.raises(ValueError, match="non-finite"):
        fn(np.full((2, 2), np.nan))
    h = random_hermitian(3, 1)
    h[1, 1] = entry
    with pytest.raises(ValueError, match="non-finite"):
        fn(h)


@pytest.mark.parametrize("row", [0, 64, 199])
def test_hermitian_guard_sees_a_nan_in_any_row_block(row):
    # the check reduces blocks of 64 rows; Python's max over the block maxima would drop a NaN not in the first
    h = random_hermitian(200, 2)
    h[row, row] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        assert_hermitian(h)
    h[row, row] = 0
    h[row, (row + 100) % 200] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(h)


# --- the partial-trace reference the other tests read ---


def test_partial_trace_kron_factorization():
    a = random_hermitian(2, 1)
    b = random_hermitian(3, 2)
    np.testing.assert_allclose(partial_trace_reference(np.kron(a, b), [2, 3], [0]), a * np.trace(b), atol=1e-13)
    np.testing.assert_allclose(partial_trace_reference(np.kron(a, b), [2, 3], [1]), b * np.trace(a), atol=1e-13)


def test_partial_trace_composes():
    # tracing slot 2 then slot 1 equals tracing both at once
    dims = [2, 3, 2]
    op = random_hermitian(12, 7)
    two_step = partial_trace_reference(partial_trace_reference(op, dims, [0, 1]), [2, 3], [0])
    one_step = partial_trace_reference(op, dims, [0])
    np.testing.assert_allclose(two_step, one_step, atol=1e-13)


def test_partial_trace_preserves_trace():
    dims = [2, 2, 3]
    op = random_hermitian(12, 11)
    reduced = partial_trace_reference(op, dims, [1])
    np.testing.assert_allclose(np.trace(reduced), np.trace(op), atol=1e-13)
