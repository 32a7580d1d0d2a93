"""Numerical verification of the biseparable bound.

For each bipartition the product-state maximum of the witness expectation is
found by alternating eigenvector iteration: fix one side's ket, reduce the
witness to a conditioned operator on the other side, replace that side's ket
with the top eigenvector, alternate.  Every step is a constrained exact
maximization, so the value sequence is monotone nondecreasing; random
restarts guard against starting in a flat region.

The landscape detail worth knowing: conditioning on a ket with no overlap on
either stretched state of its side, or on a stretched state itself, flattens
the operator to 1/2 * identity, where the iteration has nothing to climb.
The value-moving seeds are balanced superpositions of the side's stretched
states — restart 0 starts there, and on the sign witness its first
half-step already lands on the bound.

The iteration never forms a conditioned operator.  It reads the witness
through its factors Q - 1/2 = sum_s w_s |P_s><P_s| (`WitnessOperator.factors`,
rank 2 for the sign witness) and refuses a witness those factors miss by a
Frobenius residual above FACTOR_TOL.  Laid out per bipartition as matrices
A_s[a, c] = <a c|P_s>, they give the operator conditioned on a ket c as
1/2 + sum_s w_s u_s u_s^dag with u_s = A_s c^*, whose top eigenvectors lie in
span{previous ket, u_1 .. u_r}.  So a half-step is one matrix-vector product
for the u_s, one QR of a d x (r+1) matrix and one (r+1)x(r+1) eigh; the next
ket is the previous one projected on the top eigenvalue cluster.  The
winner's value is read from the same matrices, less the factors' residual:
for unit kets the factor model misses <a c|Q|a c> by at most the spectral
norm of what the factors miss, which the Frobenius residual bounds, so the
reported value is a certified lower bound on a product-state value of Q.

The same matrices bound the bipartition from above.  For unit kets a and c,
|a^dag A_s c^*|^2 <= sigma_max(A_s)^2, the largest Schmidt coefficient of P_s
across the split, the negative-weight terms are <= 0, and what the factors
miss moves a product-state value by at most their residual, so

    <a c|Q|a c> <= 1/2 + sum_{w_s > 0} w_s sigma_max(A_s)^2 + residual.

By convexity the bound holds for every state separable across the split.

Restart 0 runs first, from the balanced stretched superpositions.  The
Schmidt bound without its residual term, 1/2 + sum_{w_s > 0} w_s
sigma_max(A_s)^2, bounds every half-step value of every restart, since every
restart iterates in the same factor model.  So every restart stops as soon
as a half-step comes within rounding (_ROUNDING) of it: no further half-step
could gain more than that.  On the sign witness this is restart 0's first
half-step, and the call reports one iteration.  Once a restart's value is
within the convergence tolerance TOL of the bound, no later restart can beat
it by more than TOL: the call stops after the first restart within TOL of the
bound.  Until then the restarts run one after another, each until it reaches
the bound, an iteration gains less than TOL or MAX_ITERS iterations have run.
Restart r >= 1 starts from row r of one standard-normal stream from
default_rng(seed), drawn as it is read, so restart r depends only on
(seed, r) and a call that stops at restart 0 draws nothing.  The winner is
the first maximum in restart order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .witness import FACTOR_TOL, WitnessOperator
from .spin import ROUND_LIMIT, SEED_LIMIT, SpinEnsemble, _integer

__all__ = [
    "Bipartition",
    "SeeSawResult",
    "enumerate_bipartitions",
    "seesaw_maximize",
]

DEGENERACY_TOL = 1e-9
MAX_ITERS = 200  # most iterations one restart runs
TOL = 1e-10  # a restart converges once an iteration gains less than this
_ROUNDING = 1e-12  # a restart stops once a half-step comes this close to the Schmidt bound less its residual


@dataclass(frozen=True)
class Bipartition:
    """A proper split of the particles; canonical form keeps particle 0 in subset_J."""

    ensemble: SpinEnsemble
    subset_J: tuple[int, ...]

    def __post_init__(self):
        n = self.ensemble.N
        subset = tuple(sorted({_integer(i, "subset_J particle index", 0, n) for i in self.subset_J}))
        if not subset or len(subset) >= n:
            raise ValueError(f"subset_J={subset} must be a proper nonempty subset of 0..{n - 1}")
        if 0 not in subset:
            raise ValueError("canonical bipartitions keep particle 0 in subset_J")
        object.__setattr__(self, "subset_J", subset)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ensemble.N) if i not in self.subset_J)

    def side_dim(self, slots) -> int:
        return math.prod(self.ensemble.local_dims[i] for i in slots)


@dataclass(frozen=True)
class SeeSawResult:
    bipartition: Bipartition
    best_value: float  # the winner's factor-model value less the residual: no more than its value of Q
    upper_bound: float  # no state separable across the bipartition scores above it
    best_kets: tuple[np.ndarray, np.ndarray] = field(repr=False)  # (subset_J side, complement side)
    iterations: int
    converged: bool
    restarts_run: int  # through the first restart within TOL of the Schmidt bound, at most the call's restart count


def enumerate_bipartitions(ensemble: SpinEnsemble) -> list[Bipartition]:
    """All 2^(N-1) - 1 unordered proper bipartitions, particle 0 always in subset_J."""
    n = ensemble.N
    if n < 2:
        raise ValueError("bipartitions need at least two particles")
    out = []
    for mask in range(2 ** (n - 1) - 1):  # the full mask would leave an empty complement
        subset = (0,) + tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
        out.append(Bipartition(ensemble, subset))
    return out


def _side_layout(vectors: np.ndarray, bipartition: Bipartition) -> np.ndarray:
    """The factor vectors as (r, d_J, d_C) matrices A_s[a, c] = <a c|P_s>.

    Each side keeps its slots in sorted order, so a side ket is indexed the
    way `best_kets` reports it.  For a product ket a (x) c the witness reads
    1/2 + sum_s w_s |a^dag A_s c^*|^2, so conditioning either side on a ket
    is one matrix-vector product with A_s or its transpose (`_half_step`).
    """
    ensemble = bipartition.ensemble
    order = bipartition.subset_J + bipartition.complement
    d_j = bipartition.side_dim(bipartition.subset_J)
    d_c = bipartition.side_dim(bipartition.complement)
    tensor = vectors.T.reshape((vectors.shape[1],) + ensemble.local_dims).transpose((0,) + tuple(1 + i for i in order))
    return np.ascontiguousarray(tensor).reshape(-1, d_j, d_c)


def _half_step(layout: np.ndarray, weights: np.ndarray, ket: np.ndarray, previous: np.ndarray):
    """Top eigenvalue and next ket of 1/2 + sum_s w_s u_s u_s^dag, u_s = A_s ket^*.

    `layout` is the side's (r, d, d_other) stack of A_s, `ket` the other
    side's ket and `previous` this side's ket.  The operator maps
    span{previous, u_1 .. u_r} into itself and is 1/2 outside span{u_s}, so
    one QR of the d x (r+1) matrix [previous, u_1 .. u_r] and one
    (r+1)x(r+1) eigh give its top eigenpairs.  The next ket is the previous
    ket projected on the top cluster (eigenvalues within DEGENERACY_TOL of the
    top), normalized: the top eigenvector when the cluster has one member,
    and the previous ket itself when the cluster is the whole span, as when
    every u_s vanishes or their terms cancel.  A previous ket orthogonal to
    the cluster gives way to the top eigenvector.
    """
    u = (layout @ ket.conj()).T
    basis, _ = np.linalg.qr(np.concatenate((previous[:, None], u), axis=1))
    coords = basis.conj().T @ u
    # eigh of the rank-r part alone: a vanishing part then reads exactly 1/2 once shifted
    w, v = np.linalg.eigh((coords * weights) @ coords.conj().T)
    # the previous ket is the first basis vector (up to phase), so its overlaps are v's first row
    projected = v @ np.where(w >= w[-1] - DEGENERACY_TOL, v[0].conj(), 0)
    norm = np.linalg.norm(projected)
    return 0.5 + w[-1], basis @ (projected / norm if norm > 0 else v[:, -1])


def _ascend(layout, weights, psi_j, psi_c, ceiling):
    """One restart on a bipartition's `_side_layout`, from the start kets psi_j and psi_c.

    Half-steps alternate, subset_J's side first, until a half-step's value
    reaches `ceiling`, an iteration gains less than `TOL` or `MAX_ITERS`
    iterations have run.  An iteration is a pair of half-steps, or the one
    half-step that reached `ceiling`; reaching it counts as converged, with
    the kets held at that point.  Returns (value, iterations, converged, the
    list of values per iteration, (psi_j, psi_c) final kets).
    """
    value, trajectory = -np.inf, []
    for _ in range(MAX_ITERS):
        previous = value
        value, psi_j = _half_step(layout, weights, psi_c, psi_j)
        if value < ceiling:
            value, psi_c = _half_step(layout.transpose(0, 2, 1), weights, psi_j, psi_c)
        trajectory.append(value)
        if value >= ceiling or value - previous < TOL:
            return value, len(trajectory), True, trajectory, (psi_j, psi_c)
    return value, MAX_ITERS, False, trajectory, (psi_j, psi_c)


def _start_kets(seed: int, d_j: int, d_c: int):
    """The unit start kets (psi_J, psi_C) of restarts 0, 1, 2, ..., each drawn as it is read.

    Restart 0 starts from the balanced superposition of each side's two
    stretched states.  Restart r >= 1 takes row r of one default_rng(seed)
    standard-normal stream of (2, d_J + d_C) rows, real and imaginary parts,
    split between the sides; row 0 is drawn and dropped.  numpy's stream does
    not depend on how it is chunked, so restart r depends only on (seed, r).
    """
    balanced = np.zeros(d_j + d_c, dtype=complex)
    # each side's first and last basis state
    balanced[0] = balanced[d_j - 1] = balanced[d_j] = balanced[-1] = 1 / math.sqrt(2)
    yield balanced[:d_j], balanced[d_j:]
    rng = np.random.default_rng(seed)
    rng.standard_normal((2, d_j + d_c))  # row 0 belongs to restart 0
    while True:
        re, im = rng.standard_normal((2, d_j + d_c))
        ket = re + 1j * im
        yield tuple(side / np.linalg.norm(side, axis=-1, keepdims=True) for side in (ket[:d_j], ket[d_j:]))


def _run_restarts(layout, weights, restarts, seed, bound):
    """The first `restarts` restarts one at a time, up to the first whose value is within TOL of `bound`.

    Each restart stops as soon as a half-step comes within _ROUNDING of
    `bound`.  Returns per-restart (values, iterations, converged) of the
    restarts that ran, the index of the first maximum in restart order and
    that restart's final kets.
    """
    runs = []
    for psi_j, psi_c in itertools.islice(_start_kets(seed, *layout.shape[1:]), restarts):
        runs.append(_ascend(layout, weights, psi_j, psi_c, bound - _ROUNDING))
        if runs[-1][0] >= bound - TOL:
            break
    values, iterations, converged, _, kets = zip(*runs)
    best = int(np.argmax(values))  # argmax takes the first maximum
    return values, iterations, converged, best, kets[best]


def seesaw_maximize(
    witness: WitnessOperator,
    bipartition: Bipartition,
    restarts: int = 32,
    seed: int = 0,
) -> SeeSawResult:
    """Best product-state witness value over the bipartition, maxed over restarts.

    `upper_bound` is the Schmidt bound of the module docstring, from one
    batched singular-value solve of the factor layout, and is computed
    first.  Restart 0 seeds both sides with the balanced stretched
    superposition (the saturating point); restart r >= 1 takes row r of one
    standard-normal stream from default_rng(seed), so it depends only on
    (seed, r) and a run with more restarts repeats the first ones.  The
    restarts run one at a time on the witness factors.  Every restart stops
    as soon as a half-step comes within rounding of the bound less its
    residual term, which on the sign witness is restart 0's first half-step
    (`iterations` 1).  The call stops at the first restart within `TOL` of
    that bound, since no later restart can beat it by more than `TOL`, and
    `restarts_run` counts the restarts that ran.  The winner is the first
    maximum in restart order.  Its value is its factor-model value less the
    factors' residual, a certified lower bound on the true bipartition
    maximum; the dense Q is never read.  A bipartition of another ensemble,
    a restart count that is not an integer in [1, 2^63), a seed that is not
    an integer in [0, 2^128), and a witness whose factors leave a Frobenius
    residual above FACTOR_TOL are ValueErrors.
    """
    if bipartition.ensemble != witness.ensemble:
        raise ValueError(f"bipartition spins {bipartition.ensemble.spins} do not match "
                         f"witness spins {witness.ensemble.spins}")
    restarts, seed = _integer(restarts, "restarts", 1, ROUND_LIMIT), _integer(seed, "seed", 0, SEED_LIMIT)
    factors = witness.factors
    if factors.residual > FACTOR_TOL:
        raise ValueError(f"Q - 1/2 is not of low rank: its factors leave a Frobenius residual "
                         f"of {factors.residual:.3e} > {FACTOR_TOL:.0e}")
    layout = _side_layout(factors.vectors, bipartition)
    positive = factors.values > 0
    schmidt = np.linalg.svd(layout[positive], compute_uv=False)[:, 0] ** 2
    factor_bound = 0.5 + float(factors.values[positive] @ schmidt)
    values, iterations, converged, best, best_kets = _run_restarts(layout, factors.values, restarts, seed, factor_bound)
    psi_j, psi_c = best_kets
    amplitudes = layout @ psi_c.conj() @ psi_j.conj()  # a^dag A_s c^*
    value = 0.5 + float(factors.values @ np.abs(amplitudes) ** 2) - factors.residual
    return SeeSawResult(bipartition, value, factor_bound + factors.residual, best_kets,
                        iterations[best], converged[best], len(values))
