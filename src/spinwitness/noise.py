"""Depolarizing noise: channels, their closed-form noisy score, detection thresholds.

Both channel flavors shrink the witness score linearly toward 1/2, the value
of featureless states.  Acting on the optimal GHZ-like input, the score that
`noisy_score` returns for the `NoiseModel` that `apply_depolarizing` applies is

    global:  score = 1/2 + 2 (1 - p)        (P_sep - 1/2)
    local:   score = 1/2 + 2 prod(1 - p_n)  (P_sep - 1/2)

so detection (score > P_sep) survives exactly while p < 1/2, respectively
while prod(1 - p_n) > 1/2.

The channel has two forms.  `apply_depolarizing` returns the noisy density
matrix, O(dim^2) per slot, which `noise-sweep` scores as the brute-force
reference.  The witness only reads the outcome probabilities of local Jx
measurements after local z-rotations (the table of `protocol.outcome_table`),
and depolarizing commutes with local unitaries, so on that table the channel
is the stochastic map `depolarize_table`: (1 - p_n) t + p_n mean_n(t) along
each slot's axis, or (1 - p) t + p / dim globally.  `verify` scores its noise
grid that way, with no density matrix: its kernel `_depolarize` maps a stack
of tables at one level per row, so each model's grid is one call.  On a
GHZ-like state every model scales the |up><down| corner by its `survival` and
leaves the rest mirror symmetric under the level flip, which scores 1/2, so
`simulate` reads its noisy states through that one number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spin import SpinEnsemble, _real
from .states import QuantumState
from .witness import witness_report

__all__ = [
    "NoiseModel",
    "apply_depolarizing",
    "depolarize_table",
    "noisy_score",
    "detection_thresholds",
]


def _check_prob(p, name: str) -> float:
    p = _real(p, name)
    if not 0 <= p <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class NoiseModel:
    """Either one global replacement probability or one probability per particle (exactly one is given)."""

    p_global: float | None = None
    p_locals: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.p_global is None) == (self.p_locals is None):
            raise ValueError("provide exactly one of p_global or p_locals")
        if self.p_locals is None:
            object.__setattr__(self, "p_global", _check_prob(self.p_global, "p_global"))
        else:
            try:  # a string would be read one character at a time, and a scalar has no entries
                ps = () if isinstance(self.p_locals, (str, bytes)) else tuple(self.p_locals)
            except TypeError:
                ps = ()
            if not ps:
                raise ValueError(f"p_locals must be a nonempty sequence of probabilities, got {self.p_locals!r}")
            object.__setattr__(self, "p_locals", tuple(_check_prob(p, f"p_locals[{i}]") for i, p in enumerate(ps)))

    @property
    def kind(self) -> str:
        """Which probability field is given: "global" or "local"."""
        return "global" if self.p_global is not None else "local"

    @property
    def survival(self) -> float:
        """The factor the channel scales the |up><down| corner by: 1 - p globally, prod(1 - p_n) locally."""
        ps = (self.p_global,) if self.p_locals is None else self.p_locals
        return math.prod(1 - p for p in ps)


def _check_fits(model: NoiseModel, n: int) -> None:
    if model.kind == "local" and len(model.p_locals) != n:
        raise ValueError(f"local model has {len(model.p_locals)} entries for {n} particles")


def _depolarize_slot(rho: np.ndarray, dims: tuple[int, ...], slot: int, p: float) -> np.ndarray:
    """p * (1_slot / d) (x) tr_slot(rho) + (1 - p) * rho, on the dim x dim matrix.

    rho is viewed as (left, d, right) x (left, d, right) blocks around the slot;
    the identity at the slot touches only its d diagonal blocks, so the cost is
    O(dim^2) with one dim x dim output and no dim x dim temporary.
    """
    left, d, right = math.prod(dims[:slot]), dims[slot], math.prod(dims[slot + 1:])
    blocks = rho.reshape(left, d, right, left, d, right)
    reduced = np.trace(blocks, axis1=1, axis2=4)  # (left, right, left, right)
    refill = p * (reduced * (1 / d))
    out = (1 - p) * blocks
    for i in range(d):
        out[:, i, :, :, i, :] += refill
    return out.reshape(rho.shape)


def apply_depolarizing(state: QuantumState, model: NoiseModel) -> QuantumState:
    """Return the noisy state as a density matrix (channels commute per slot)."""
    ensemble = state.ensemble
    _check_fits(model, ensemble.N)
    out = state.density()
    if model.kind == "global":
        out = (1 - model.p_global) * out
        out.flat[:: ensemble.dim + 1] += model.p_global / ensemble.dim
    else:
        for slot, p in enumerate(model.p_locals):
            out = _depolarize_slot(out, ensemble.local_dims, slot, p)
    out = (out + out.conj().T) / 2
    return QuantumState(ensemble, rho=out)


def _depolarize(tables: np.ndarray, levels, n: int) -> np.ndarray:
    """The depolarizing map on the last n axes of tables, one axis per slot: the kernel of `depolarize_table`.

    levels is one global level or a tuple of one level per slot.  Each level is
    a float or an array broadcast over the leading axes, so one call maps a
    stack of tables at one level per row.  Slot by slot the table becomes
    (1 - p_n) t + p_n mean_n(t) along the slot's axis; globally it becomes
    (1 - p) t + p / dim.
    """
    def spread(p):
        return np.reshape(p, np.shape(p) + (1,) * n)

    if not isinstance(levels, tuple):
        p = spread(levels)
        return (1 - p) * tables + p / math.prod(tables.shape[tables.ndim - n:])
    for axis, p in enumerate(levels, start=tables.ndim - n):
        p = spread(p)
        tables = (1 - p) * tables + p * (tables.sum(axis=axis, keepdims=True) / tables.shape[axis])
    return tables


def depolarize_table(table: np.ndarray, model: NoiseModel) -> np.ndarray:
    """The model's channel on a (K, *local_dims) outcome table of `protocol.outcome_table`.

    Replacing slot n by 1/d_n with probability p_n replaces its outcome by a
    uniform one, so the table becomes (1 - p_n) t + p_n mean_n(t) along the
    slot's axis; globally it becomes (1 - p) t + p / dim.
    """
    n = table.ndim - 1
    _check_fits(model, n)
    return _depolarize(table, model.p_global if model.kind == "global" else model.p_locals, n)


def noisy_score(ensemble: SpinEnsemble, model: NoiseModel) -> float:
    """Closed-form witness score of the phase-matched GHZ-like state after the model's channel.

    score = 1/2 + 2 survival (P_sep - 1/2), with the model's `survival`.
    """
    _check_fits(model, ensemble.N)
    return 0.5 + 2 * model.survival * (float(witness_report(ensemble.K).P_sep) - 0.5)


def detection_thresholds(ensemble: SpinEnsemble) -> tuple[float, float, Fraction]:
    """(global max p, identical-local max p, the GHZ-fidelity witness's global max p).

    Detection requires p_global < 1/2; for identical local noise on all N
    particles it requires p < 1 - 2^(-1/N).  The last entry compares another
    witness, 1/2 - |P+><P+| with |P+> the detected GHZ-like state: globally
    depolarized, the state keeps fidelity (1 - p) + p/dim, which stays above
    1/2 while p < dim/(2(dim - 1)), returned exactly.
    """
    n = ensemble.N
    dim = ensemble.dim
    return 0.5, 1 - 2 ** (-1 / n), Fraction(dim, 2 * (dim - 1))
