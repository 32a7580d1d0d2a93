"""Spin-j matrices, the factored Jx kernel, and the rotated measurement family.

Conventions (used everywhere downstream): hbar = 1; the local basis of a
spin-j particle is ordered by descending magnetic number, |j, j> first; the
product basis puts particle 1 in the most significant slot.  With that
ordering the fully stretched product states  (x)|j_n, j_n>  and
(x)|j_n, -j_n>  are exactly the first and last basis vectors.

Jx and Jz are real symmetric in this basis; only Jy is complex.  Jx is a sum
of one-body terms, so Jx = V diag(m) V^T with V = (x) v_n real orthogonal
(`SpinEnsemble.jx_eigenbases`) and m the Jz diagonal (`SpinEnsemble.jz_diagonal`),
both computed once per ensemble: the library's only route to the spectrum of
Jx.  `level_weights` reads the corner of each spectral projector from the
same bases, with nothing of size dim.  The dense `collective_operator` and `rotate_about_z` are not exported:
they are the references the tests compare against.

The input rules live here too: `_integer`, `_real` and `_array` for one
argument each, and `assert_hermitian` for a caller's matrix (rho, Q).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

__all__ = [
    "SpinEnsemble",
    "assert_hermitian",
    "spin_matrices",
    "jx_function",
    "direction_phases",
    "level_weights",
]


ROUND_LIMIT = 2**63  # rounds and see-saw restarts lie in [1, ROUND_LIMIT): the tallies are int64, islice's stop too
SEED_LIMIT = 2**128  # seeds lie in [0, SEED_LIMIT): the Philox key range


def _integer(x, name: str, low: int = 0, high: int | None = None) -> int:
    """int(x) for an int or numpy integer, not a bool, in [low, high); else a ValueError naming it and the range."""
    top = math.inf if high is None else high
    if isinstance(x, numbers.Integral) and not isinstance(x, bool) and low <= int(x) < top:
        return int(x)
    if high is not None and high > 2**16 and high & (high - 1) == 0:  # 2^63, not its 19 digits
        top = f"2^{high.bit_length() - 1}"
    span = f">= {low}" if high is None else f"in [{low}, {top})"
    raise ValueError(f"{name} must be an integer {span}, got {x!r}")


def _check_odd_k(K) -> int:
    """K as an int, if it is a positive odd `_integer`; else a ValueError."""
    try:
        if (k := _integer(K, "K", 1)) % 2 == 1:
            return k
    except ValueError:
        pass
    raise ValueError(f"K must be a positive odd integer, got {K!r}")


def _real(x, name: str) -> float:
    """float(x) for a finite real number (int, numpy, Fraction), not a bool; else a ValueError naming it."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an int or Fraction beyond the float range; its digits may be too many to print
        raise ValueError(f"{name} must be finite, got a real beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got the non-finite {x!r}")
    return value


def _array(x, name: str) -> np.ndarray:
    """x as a complex array, if it holds finite integers, floats or complex numbers; else a ValueError naming it.

    Bool, string and object arrays are rejected (so are `None` and `Fraction` entries, which make object arrays),
    and so is a ragged sequence, which numpy cannot make an array of.  Finiteness is read after the conversion.
    """
    try:
        a = np.asarray(x)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError(f"{name} must be an array of numbers, got a ragged sequence") from None
    if a.dtype.kind not in "iufc":
        raise ValueError(f"{name} must hold integers, floats or complex numbers, got dtype {a.dtype}")
    a = a.astype(complex, copy=False)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite (NaN or infinite) entry")
    return a


HERMITICITY_TOL = 1e-12


def assert_hermitian(op: np.ndarray) -> np.ndarray:
    """Validate Hermiticity (max-entry norm) and return the operator as complex.

    The operator is an `_array` named "matrix": finite integers, floats or complex numbers, so the deviation
    is never NaN.  A density matrix and a witness's Q are checked here.
    """
    op = _array(op, "matrix")
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    dev = _max_over_row_blocks(lambda rows: op[rows] - op[:, rows].conj().T, len(op))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e} > {HERMITICITY_TOL:.0e}")
    return op


def _max_over_row_blocks(deviation, n: int) -> float:
    """max |deviation(rows)| over the blocks of 64 rows of an n-row matrix, one block's entries at a time.

    The block maxima are reduced by np.max, which keeps a NaN from any block: Python's max drops one that is not first.
    """
    return float(np.max([np.abs(deviation(slice(i, i + 64))).max() for i in range(0, n, 64)]))


def _reduced_angle(angle: float, name: str) -> float:
    """A `_real` angle modulo 2 pi, in [-pi, pi], read off e^{i angle}: np.exp reduces exactly, so no phase is lost."""
    return float(np.angle(np.exp(1j * _real(angle, name))))


def _check_half_integer(j) -> float:
    """A `_real` j as the nearest half-integer, if 2j is a finite float within 1e-12 of a nonnegative integer."""
    two_j = 2 * _real(j, "half-integer spin")
    if not math.isfinite(two_j):
        raise ValueError(f"spin {j!r} is beyond the float range once doubled")
    if abs(two_j - round(two_j)) > 1e-12 or round(two_j) < 0:
        raise ValueError(f"spin must be a nonnegative half-integer, got {j}")
    return round(two_j) / 2


@dataclass(frozen=True)
class SpinEnsemble:
    """Ordered list of spins {j_n} with half-integer total spin sum(j_n) = K/2.

    The witness construction needs odd K, i.e. the total spin must be a
    half-integer; integer total spin is rejected at construction.  For even
    K the witness is trivial: the directions pair as a and a + pi, J_{a+pi} =
    -J_a and pos(-J) = 1 - pos(J), so Q = 1/2 exactly.
    """

    spins: tuple[float, ...]

    def __init__(self, spins: Sequence[float]):
        spins = tuple(_check_half_integer(j) for j in spins)
        if not spins:
            raise ValueError("ensemble needs at least one particle")
        if any(j == 0 for j in spins):
            raise ValueError("spin-0 particles carry no angular momentum; drop them")
        object.__setattr__(self, "spins", spins)
        if self.K % 2 == 0:
            raise ValueError(
                f"total spin {self.K // 2} is integer (K = {self.K} even); "
                "the witness requires half-integer total spin (odd K)"
            )

    @property
    def N(self) -> int:
        return len(self.spins)

    # computed once per ensemble: cached_property writes the instance __dict__, which the frozen
    # dataclass's __setattr__ does not guard, and equality and hashing read `spins` alone
    @cached_property
    def local_dims(self) -> tuple[int, ...]:
        """2 j_n + 1 from the exact integer 2 j_n: a float 2 j_n + 1 rounds above 2^53."""
        return tuple(round(2 * j) + 1 for j in self.spins)

    @cached_property
    def K(self) -> int:
        """Odd integer with sum(j_n) = K/2, from the exact integers 2 j_n: a float sum rounds above 2^53."""
        return sum(d - 1 for d in self.local_dims)

    @cached_property
    def dim(self) -> int:
        return math.prod(self.local_dims)

    @cached_property
    def jx_eigenbases(self) -> tuple[np.ndarray, ...]:
        """Real orthogonal eigenbases v_n of each Jx^(j_n), column i for eigenvalue j_n - i, so Jx = V diag(m) V^T.

        Each distinct spin is solved once, in order of first appearance, and its particles share that one array:
        read-only, since every caller of this ensemble shares them.
        """
        solved = {j: np.linalg.eigh(_jx(j))[1][:, ::-1] for j in dict.fromkeys(self.spins)}
        for v in solved.values():
            v.flags.writeable = False
        return tuple(solved[j] for j in self.spins)

    @cached_property
    def jz_diagonal(self) -> np.ndarray:
        """The collective Jz diagonal m (exact half-integers, never 0): Jx's eigenvalues in `jx_eigenbases` order.

        Read-only, as `jx_eigenbases` is.
        """
        m = reduce(np.add.outer, [j - np.arange(d) for j, d in zip(self.spins, self.local_dims)]).reshape(-1)
        m.flags.writeable = False
        return m


def _jx(j: float) -> np.ndarray:
    """Jx = (J+ + J+^T) / 2 of a checked spin j, from the real ladder <j, m+1| J+ |j, m> = sqrt(j(j+1) - m(m+1))."""
    m = j - np.arange(1, round(2 * j + 1))
    jplus = np.diag(np.sqrt(j * (j + 1) - m * (m + 1)), 1)
    return (jplus + jplus.T) / 2


def spin_matrices(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) for a single spin j, basis ordered m = j, j-1, ..., -j: Jx, Jz real, Jy imaginary.

    j = 0 is permitted and yields 1x1 zero matrices (a trivial tensor factor).
    """
    j = _check_half_integer(j)
    jx = _jx(j)
    jplus = 2 * np.triu(jx)  # J+ again, exactly: halving and doubling move no bits
    return jx, (jplus - jplus.T) / 2j, np.diag(j - np.arange(len(jx)))


# perfbench/tracer.py's TRACED looks up collective_operator, whose return type this is; ROADMAP item 6 deletes both.
@dataclass(frozen=True)
class CollectiveOperator:
    """Total angular momentum J = sum_n J^(j_n) on the full product space."""

    ensemble: SpinEnsemble
    Jx: np.ndarray = field(repr=False)
    Jy: np.ndarray = field(repr=False)
    Jz: np.ndarray = field(repr=False)


# perfbench/tracer.py's TRACED looks it up; ROADMAP item 6 deletes it.
def collective_operator(ensemble: SpinEnsemble) -> CollectiveOperator:
    """Sum of single-particle spin operators, each embedded at its slot (dense)."""
    dims = ensemble.local_dims
    total = [np.zeros((ensemble.dim, ensemble.dim), dtype=complex) for _ in range(3)]
    for slot, j in enumerate(ensemble.spins):
        left, right = np.eye(math.prod(dims[:slot])), np.eye(math.prod(dims[slot + 1 :]))
        for comp, mat in enumerate(spin_matrices(j)):
            total[comp] += np.kron(np.kron(left, mat), right)
    return CollectiveOperator(ensemble, *total)


def direction_phases(ensemble: SpinEnsemble, theta_offset: float = 0.0) -> np.ndarray:
    """The K diagonals ph_k = exp(-i a_k m), a_k = 2 pi k/K + theta, as a (K, dim) array.

    m is the diagonal of the collective Jz (the total magnetic number of each
    basis state), so diag(ph_k) = exp(-i a_k Jz) and the direction-k operator is
    the diagonal conjugation  J_k = diag(ph_k) Jx diag(ph_k)^dag.  Any spectral
    function then rotates the same way: f(J_k) = f(Jx) * outer(ph_k, ph_k^*).
    A finite theta_offset keeps its phase however large (`_reduced_angle`); any other value is rejected (`_real`).
    """
    angles = 2 * np.pi * np.arange(ensemble.K) / ensemble.K + _reduced_angle(theta_offset, "theta_offset")
    return np.exp(-1j * np.outer(angles, ensemble.jz_diagonal))


def level_weights(ensemble: SpinEnsemble) -> np.ndarray:
    """The corner weights W(M) = <up| P_M |down> for the collective Jx levels M = K/2 - i, i = 0..K: K + 1 reals.

    P_M projects on total Jx = M, and |up>, |down> are the two stretched products.  One particle's weight at its
    level j - i is v[0, i] v[-1, i], column i of its `jx_eigenbases` (a product within one column, so eigh's sign
    choice cannot move it), and the levels of the particles add, so W is the convolution of their weights: O(K^2)
    at most, nothing of size dim, and no binomial read.  <up| pos(Jx) |down> is the sum of W over M > 0.
    """
    return reduce(np.convolve, [v[0] * v[-1] for v in ensemble.jx_eigenbases])


def _apply_slot_bases(x: np.ndarray, bases: Sequence[np.ndarray]) -> np.ndarray:
    """Contract the leading axes of x, one slot block each, with `bases` in turn.

    Each step moves the slot's outcome axis last, so after all steps the block
    order is restored and any trailing axes have moved to the front.
    """
    for b in bases:
        x = x.reshape(len(b), -1).T @ b
    return x


def jx_function(ensemble: SpinEnsemble, values: np.ndarray) -> np.ndarray:
    """Dense f(Jx) = V diag(values) V^T, values[i] = f(m_i), in the values' dtype: V is real, applied slot by slot."""
    diag = np.diag(np.asarray(values))
    return _apply_slot_bases(diag, [v.T for v in ensemble.jx_eigenbases] * 2).reshape(len(diag), -1)


# perfbench/tracer.py's TRACED looks it up; ROADMAP item 6 deletes it.
def rotate_about_z(op: np.ndarray, jz: np.ndarray, angle: float) -> np.ndarray:
    """Conjugate op by U = exp(-i * angle * jz), built spectrally from jz.

    jz is diagonal in the package's basis so U is diagonal and exact, but the
    spectral route keeps this correct for any Hermitian generator (the tests
    also rotate about Jx).  The result is re-symmetrized to kill the last-bit
    Hermiticity drift of the triple product.
    """
    op = _array(op, "operator")
    jz = assert_hermitian(jz)
    if op.shape != jz.shape:
        raise ValueError(f"operator shape {op.shape} does not match generator {jz.shape}")
    w, v = np.linalg.eigh(jz)
    u = (v * np.exp(-1j * angle * w)) @ v.conj().T
    out = u @ op @ u.conj().T
    return (out + out.conj().T) / 2
