import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinwitness.linalg import assert_hermitian, binomial_exact, partial_trace


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


# --- partial trace against a brute-force permute-and-trace reference ---


def partial_trace_reference(op, dims, keep):
    """Physically permute kept slots to the front, then trace the tail block."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    perm = keep + traced
    tensor = op.reshape(dims + dims)
    tensor = tensor.transpose([*perm, *[n + i for i in perm]])
    d_keep = int(np.prod([dims[i] for i in keep]))
    d_rest = int(np.prod([dims[i] for i in traced]))
    block = tensor.reshape(d_keep, d_rest, d_keep, d_rest)
    return np.einsum("arbr->ab", block)


@pytest.mark.parametrize(
    "dims,keep",
    [
        ([2, 2], [0]),
        ([2, 3], [1]),
        ([2, 3, 2], [0, 2]),  # non-contiguous
        ([2, 2, 2, 2], [1, 3]),
        ([3, 2, 4], [1]),
    ],
)
def test_partial_trace_matches_reference(dims, keep):
    dim = int(np.prod(dims))
    op = random_hermitian(dim, dim)
    got = partial_trace(op, dims, keep)
    want = partial_trace_reference(op, dims, keep)
    np.testing.assert_allclose(got, want, atol=1e-13)


@st.composite
def slot_splits(draw):
    """Local dimensions of 2-4 slots (product <= 64) and a nonempty proper subset to keep."""
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4).filter(lambda d: math.prod(d) <= 64))
    keep = draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims) - 1, unique=True))
    return dims, keep


@settings(max_examples=100, deadline=None)
@given(slot_splits(), st.integers(0, 2**32 - 1))
def test_partial_trace_matches_reference_on_random_splits(split, seed):
    dims, keep = split
    op = random_hermitian(math.prod(dims), seed)
    np.testing.assert_allclose(partial_trace(op, dims, keep), partial_trace_reference(op, dims, keep), rtol=0, atol=1e-12)


def test_partial_trace_kron_factorization():
    a = random_hermitian(2, 1)
    b = random_hermitian(3, 2)
    np.testing.assert_allclose(partial_trace(np.kron(a, b), [2, 3], [0]), a * np.trace(b), atol=1e-13)
    np.testing.assert_allclose(partial_trace(np.kron(a, b), [2, 3], [1]), b * np.trace(a), atol=1e-13)


def test_partial_trace_composes():
    # tracing slot 2 then slot 1 equals tracing both at once
    dims = [2, 3, 2]
    op = random_hermitian(12, 7)
    two_step = partial_trace(partial_trace(op, dims, [0, 1]), [2, 3], [0])
    one_step = partial_trace(op, dims, [0])
    np.testing.assert_allclose(two_step, one_step, atol=1e-13)


def test_partial_trace_preserves_trace():
    dims = [2, 2, 3]
    op = random_hermitian(12, 11)
    reduced = partial_trace(op, dims, [1])
    np.testing.assert_allclose(np.trace(reduced), np.trace(op), atol=1e-13)


def test_partial_trace_rejects_bad_keep():
    op = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        partial_trace(op, [2, 2], [])
    with pytest.raises(ValueError):
        partial_trace(op, [2, 2], [0, 1])
    with pytest.raises(ValueError):
        partial_trace(op, [2, 2], [2])
    with pytest.raises(ValueError):
        partial_trace(op, [2, 3], [0])  # dims mismatch with shape
