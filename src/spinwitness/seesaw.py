"""Numerical verification of the biseparable bound.

For each bipartition the product-state maximum of the witness expectation is
found by alternating eigenvector iteration: fix one side's ket, reduce the
witness to a conditioned operator on the other side, replace that side's ket
with the top eigenvector, alternate.  Every step is a constrained exact
maximization, so the value sequence is monotone nondecreasing; random
restarts guard against starting in a flat region.

The landscape detail worth knowing: conditioning on a ket with no overlap on
either stretched state of its side flattens the operator to exactly
1/2 * identity, where the iteration has nothing to climb.  The value-moving
seeds are balanced superpositions of the side's stretched states — restart 0
starts there and lands on the bound in two iterations.

The start kets of restarts r > 0 are row r of one standard-normal draw from
default_rng(seed), filled row by row, so restart r depends only on
(seed, r).  The witness is laid out once per bipartition as a pair-major
matrix, and all restarts run in lockstep as stacks of a fixed number of
entries (`_STACK_ENTRIES`): each half-step conditions the whole stack with one
GEMM and takes its top eigenvectors with one stacked `eigh`.  A restart leaves
the stack when it converges, so every restart keeps its own iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .witness import WitnessOperator
from .spin import SpinEnsemble

__all__ = [
    "Bipartition",
    "SeeSawResult",
    "enumerate_bipartitions",
    "conditioned_operator",
    "seesaw_maximize",
    "grid_certify",
]

DEGENERACY_TOL = 1e-9
_STACK_ENTRIES = 2**15  # entries of one (restarts, d, d) stack: 512 KiB of complex


@dataclass(frozen=True)
class Bipartition:
    """A proper split of the particles; canonical form keeps particle 0 in subset_J."""

    ensemble: SpinEnsemble
    subset_J: tuple[int, ...]

    def __post_init__(self):
        n = self.ensemble.N
        subset = tuple(sorted(set(int(i) for i in self.subset_J)))
        if not subset or len(subset) >= n or any(i < 0 or i >= n for i in subset):
            raise ValueError(f"subset_J={subset} must be a proper nonempty subset of 0..{n - 1}")
        if 0 not in subset:
            raise ValueError("canonical bipartitions keep particle 0 in subset_J")
        object.__setattr__(self, "subset_J", subset)

    @property
    def complement(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ensemble.N) if i not in self.subset_J)

    def side_dim(self, slots) -> int:
        return math.prod(self.ensemble.local_dims[i] for i in slots)


@dataclass(frozen=True)
class SeeSawResult:
    bipartition: Bipartition
    best_value: float
    best_kets: tuple[np.ndarray, np.ndarray] = field(repr=False)  # (subset_J side, complement side)
    iterations: int
    converged: bool


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


def _pair_major(q: np.ndarray, bipartition: Bipartition) -> np.ndarray:
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


def _conditioned_stack(layout: np.ndarray, kets: np.ndarray) -> np.ndarray:
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


def conditioned_operator(witness: WitnessOperator, bipartition: Bipartition, psi_complement: np.ndarray) -> np.ndarray:
    """Reduce the witness onto subset_J given a fixed pure complement state."""
    psi = np.asarray(psi_complement, dtype=complex).reshape(-1)
    d_comp = bipartition.side_dim(bipartition.complement)
    if psi.shape != (d_comp,):
        raise ValueError(f"complement ket has length {psi.shape[0]}, expected {d_comp}")
    if abs(np.linalg.norm(psi) - 1) > 1e-12:
        raise ValueError("complement ket must be unit norm")
    return _conditioned_stack(_pair_major(witness.Q, bipartition), psi[None])[0]


def _top_eigvecs(m: np.ndarray, previous: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpair of each matrix in the stack; inside a degenerate top
    cluster, prefer overlap with that row's previous ket."""
    w, v = np.linalg.eigh(m)
    cluster = w >= w[:, -1:] - DEGENERACY_TOL
    overlaps = np.abs(previous.conj()[:, None, :] @ v)[:, 0, :]
    pick = np.argmax(np.where(cluster, overlaps, -1.0), axis=1)  # argmax takes the lowest index on ties
    return w[:, -1], v[np.arange(len(v)), :, pick]


def _seesaw_stack(layout, psi_j, psi_c, max_iters, tol):
    """Run a stack of restarts in lockstep on the `_pair_major` layout.

    `psi_j` (R, d_J) and `psi_c` (R, d_C) hold the starting kets and are
    overwritten with the final ones.  A restart leaves the active set when
    its value gains less than `tol` or at `max_iters`.  Returns per-restart
    (values, iterations, converged) and the (steps, R) trajectory, NaN once a
    restart has left.
    """
    n = len(psi_j)
    values = np.full(n, -np.inf)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    trajectory = []
    active = np.arange(n)
    for step in range(1, max_iters + 1):
        _, psi_j[active] = _top_eigvecs(_conditioned_stack(layout, psi_c[active]), psi_j[active])
        value, psi_c[active] = _top_eigvecs(_conditioned_stack(layout.T, psi_j[active]), psi_c[active])
        done = value - values[active] < tol
        values[active] = value
        iterations[active] = step
        converged[active[done]] = True
        trajectory.append(np.full(n, np.nan))
        trajectory[-1][active] = value
        active = active[~done]
        if not active.size:
            break
    return values, iterations, converged, np.array(trajectory)


def _start_kets(seed: int, restarts: int, d_j: int, d_c: int) -> tuple[np.ndarray, np.ndarray]:
    """The (restarts, d_J) and (restarts, d_C) stacks of unit start kets.

    Row 0 is the balanced stretched superposition on each side.  Row r > 0 is
    row r of one default_rng(seed) standard-normal draw of shape
    (restarts, 2, d_J + d_C), real and imaginary parts along axis 1, split
    between the sides.  The draw fills row by row, so restart r depends only
    on (seed, r), whatever the restart count or block size.
    """
    draw = np.random.default_rng(seed).standard_normal((restarts, 2, d_j + d_c))
    kets = draw[:, 0] + 1j * draw[:, 1]
    psi_j, psi_c = (side / np.linalg.norm(side, axis=1, keepdims=True) for side in (kets[:, :d_j], kets[:, d_j:]))
    for side in (psi_j, psi_c):
        side[0] = 0
        side[0, [0, -1]] = 1 / np.sqrt(2)
    return psi_j, psi_c


def _run_restarts(layout, d_j, d_c, restarts, max_iters, tol, seed):
    """Every restart, as stacks of at most `_STACK_ENTRIES // max(d_J, d_C)**2` rows.

    Returns per-restart (values, iterations, converged), the index of the
    first maximum in restart order and that restart's kets.
    """
    block = max(1, _STACK_ENTRIES // max(d_j, d_c) ** 2)
    psi_j, psi_c = _start_kets(seed, restarts, d_j, d_c)
    runs = [  # each block's kets are views, overwritten in place with the final ones
        _seesaw_stack(layout, psi_j[start : start + block], psi_c[start : start + block], max_iters, tol)[:3]
        for start in range(0, restarts, block)
    ]
    values, iterations, converged = map(np.concatenate, zip(*runs))
    best = int(np.argmax(values))  # argmax takes the first maximum
    return values, iterations, converged, best, (psi_j[best], psi_c[best])


def seesaw_maximize(
    witness: WitnessOperator,
    bipartition: Bipartition,
    restarts: int = 32,
    max_iters: int = 200,
    tol: float = 1e-10,
    seed: int = 0,
) -> SeeSawResult:
    """Best product-state witness value over the bipartition, maxed over restarts.

    Restart 0 seeds both sides with the balanced stretched superposition (the
    saturating point); restart r > 0 takes row r of one standard-normal draw
    from default_rng(seed), filled row by row, so restart r depends only on
    (seed, r) and a run with more restarts repeats the first ones.  The
    restarts run in lockstep as stacks of a fixed number of entries; the
    winner is the first maximum in restart order.  The returned value is a
    certified lower bound on the true bipartition maximum.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    d_j = bipartition.side_dim(bipartition.subset_J)
    d_c = bipartition.side_dim(bipartition.complement)
    values, iterations, converged, best, best_kets = _run_restarts(
        _pair_major(witness.Q, bipartition), d_j, d_c, restarts, max_iters, tol, seed
    )
    return SeeSawResult(bipartition, float(values[best]), best_kets, int(iterations[best]), bool(converged[best]))


def _bloch_family(dim: int, resolution: int) -> np.ndarray:
    """Kets cos(t/2) |first> + e^{i f} sin(t/2) |last> on a nested angular grid.

    The sweep covers the span of the side's two stretched states: any
    component outside it contributes exactly 1/2 to the witness value, so
    these are the only directions that can move the maximum.  Grid nodes at
    resolution R are a subset of those at 2R (refinement containment).
    """
    thetas = np.pi * np.arange(resolution + 1) / resolution
    phis = 2 * np.pi * np.arange(resolution) / resolution
    t, f = np.meshgrid(thetas, phis, indexing="ij")
    kets = np.zeros((t.size, dim), dtype=complex)
    kets[:, 0] = np.cos(t.ravel() / 2)
    kets[:, -1] = np.exp(1j * f.ravel()) * np.sin(t.ravel() / 2)
    return kets


def grid_certify(witness: WitnessOperator, bipartition: Bipartition, resolution: int) -> float:
    """Exhaustive product-state sweep at the given angular resolution.

    Independent of the see-saw: expectation values are evaluated against the
    actual witness matrix for every grid pair.  Only feasible for small sides
    (both side dimensions must be at most 4).
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    ensemble = bipartition.ensemble
    d_j = bipartition.side_dim(bipartition.subset_J)
    d_c = bipartition.side_dim(bipartition.complement)
    if d_j > 4 or d_c > 4:
        raise ValueError(f"grid sweep limited to side dims <= 4, got {d_j} and {d_c}")
    q_tensor = witness.Q.reshape(ensemble.local_dims + ensemble.local_dims)
    kets_j = _bloch_family(d_j, resolution)
    kets_c = _bloch_family(d_c, resolution)
    best = -np.inf
    chunk = 512
    for start in range(0, kets_c.shape[0], chunk):
        block = kets_c[start : start + chunk]
        n = ensemble.N
        other = [i for i in range(n) if i not in bipartition.subset_J]
        psi = block.reshape((block.shape[0],) + tuple(ensemble.local_dims[i] for i in other))
        operands = [
            psi.conj(), [2 * n] + [i for i in other],
            q_tensor, list(range(n)) + [n + i for i in range(n)],
            psi, [2 * n] + [n + i for i in other],
        ]
        out_idx = [2 * n] + [i for i in bipartition.subset_J] + [n + i for i in bipartition.subset_J]
        conditioned = np.einsum(*operands, out_idx).reshape(block.shape[0], d_j, d_j)
        values = np.einsum("ai,bij,aj->ab", kets_j.conj(), conditioned, kets_j).real
        best = max(best, float(values.max()))
    return best
