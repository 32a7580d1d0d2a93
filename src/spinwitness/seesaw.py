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

    @property
    def j_tilde(self) -> float:
        return sum(self.ensemble.spins[i] for i in self.subset_J)

    @property
    def j_tilde_prime(self) -> float:
        return self.ensemble.K / 2 - self.j_tilde

    def side_dim(self, slots) -> int:
        return math.prod(self.ensemble.local_dims[i] for i in slots)


@dataclass(frozen=True)
class SeeSawResult:
    bipartition: Bipartition
    best_value: float
    best_kets: tuple[np.ndarray, np.ndarray] = field(repr=False)  # (subset_J side, complement side)
    iterations: int
    restarts_used: int
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


def _side_major(q: np.ndarray, bipartition: Bipartition) -> tuple[np.ndarray, np.ndarray]:
    """Q laid out as (d_J, d_C, d_J, d_C) and as its swap (d_C, d_J, d_C, d_J).

    Each side keeps its slots in sorted order, so a side ket is indexed the
    way `best_kets` reports it.  Both layouts are C-contiguous: conditioning
    on either side is then two BLAS products (`_conditioned`).
    """
    ensemble = bipartition.ensemble
    n = ensemble.N
    order = bipartition.subset_J + bipartition.complement
    d_j = bipartition.side_dim(bipartition.subset_J)
    d_c = bipartition.side_dim(bipartition.complement)
    tensor = q.reshape(ensemble.local_dims + ensemble.local_dims).transpose(order + tuple(n + i for i in order))
    layout_j = np.ascontiguousarray(tensor).reshape(d_j, d_c, d_j, d_c)
    layout_c = np.ascontiguousarray(layout_j.transpose(1, 0, 3, 2))
    return layout_j, layout_c


def _conditioned(layout: np.ndarray, psi_other: np.ndarray) -> np.ndarray:
    """<psi_other| Q |psi_other> over the other side, for a side-major layout.

    `layout` has shape (d_side, d_other, d_side, d_other); the result is the
    Hermitian d_side x d_side operator on the side.
    """
    d, d_other = layout.shape[:2]
    t = (layout.reshape(-1, d_other) @ psi_other).reshape(d, d_other, d)
    m = psi_other.conj() @ t  # contracts the other side's row axis, one product per side row
    return (m + m.conj().T) / 2


def conditioned_operator(witness: WitnessOperator, bipartition: Bipartition, psi_complement: np.ndarray) -> np.ndarray:
    """Reduce the witness onto subset_J given a fixed pure complement state."""
    psi = np.asarray(psi_complement, dtype=complex).reshape(-1)
    d_comp = bipartition.side_dim(bipartition.complement)
    if psi.shape != (d_comp,):
        raise ValueError(f"complement ket has length {psi.shape[0]}, expected {d_comp}")
    if abs(np.linalg.norm(psi) - 1) > 1e-12:
        raise ValueError("complement ket must be unit norm")
    layout_j, _ = _side_major(witness.Q, bipartition)
    return _conditioned(layout_j, psi)


def _top_eigvec(m: np.ndarray, previous: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenpair; inside a degenerate top cluster, prefer overlap with the previous ket."""
    w, v = np.linalg.eigh(m)
    cluster = np.nonzero(w >= w[-1] - DEGENERACY_TOL)[0]
    overlaps = np.abs(v[:, cluster].conj().T @ previous)
    pick = cluster[int(np.argmax(overlaps))]  # argmax takes the lowest index on ties
    return float(w[-1]), v[:, pick]


def _balanced_seed(dim: int) -> np.ndarray:
    ket = np.zeros(dim, dtype=complex)
    ket[0] = ket[-1] = 1 / np.sqrt(2)
    return ket


def _seesaw_single(layout_j, layout_c, psi_j, psi_c, max_iters, tol):
    """One restart on the `_side_major` layouts.  Returns (value, psi_j, psi_c, iterations, converged, trajectory)."""
    value_prev = -np.inf
    trajectory = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        m_j = _conditioned(layout_j, psi_c)
        _, psi_j = _top_eigvec(m_j, psi_j)
        m_c = _conditioned(layout_c, psi_j)
        value, psi_c = _top_eigvec(m_c, psi_c)
        trajectory.append(value)
        if value - value_prev < tol:
            converged = True
            break
        value_prev = value
    return trajectory[-1], psi_j, psi_c, iterations, converged, trajectory


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
    saturating point); restart r > 0 draws both kets from the substream
    default_rng([seed, r]), so results are identical for identical
    (seed, restarts) regardless of evaluation order.  The returned value is a
    certified lower bound on the true bipartition maximum.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if max_iters < 1:
        raise ValueError("need at least one iteration")
    if tol <= 0:
        raise ValueError("tol must be positive")
    layout_j, layout_c = _side_major(witness.Q, bipartition)
    d_j = bipartition.side_dim(bipartition.subset_J)
    d_c = bipartition.side_dim(bipartition.complement)
    best = None
    for restart in range(restarts):
        if restart == 0:
            psi_j, psi_c = _balanced_seed(d_j), _balanced_seed(d_c)
        else:
            rng = np.random.default_rng([seed, restart])
            psi_j = rng.standard_normal(d_j) + 1j * rng.standard_normal(d_j)
            psi_c = rng.standard_normal(d_c) + 1j * rng.standard_normal(d_c)
            psi_j /= np.linalg.norm(psi_j)
            psi_c /= np.linalg.norm(psi_c)
        value, psi_j, psi_c, iterations, converged, _ = _seesaw_single(
            layout_j, layout_c, psi_j, psi_c, max_iters, tol
        )
        if best is None or value > best[0]:
            best = (value, psi_j, psi_c, iterations, converged)
    value, psi_j, psi_c, iterations, converged = best
    return SeeSawResult(bipartition, value, (psi_j, psi_c), iterations, restarts, converged)


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
