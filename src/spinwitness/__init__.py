"""Entanglement detection for spin ensembles with half-integer total spin.

The package builds a collective sign-measurement witness from K equally
spaced transverse directions, provides exact detection bounds as rationals,
closed-form noise robustness, a classical (measure-and-prepare) baseline,
a two-sided (see-saw and Schmidt bound) check of the separable bound on
every bipartition, and a counter-based Monte-Carlo measurement protocol with
Wilson confidence intervals.
"""

from .classical import classical_score, classical_sweep_max
from .noise import (
    NoiseModel,
    apply_depolarizing,
    detection_thresholds,
    noisy_score,
)
from .protocol import (
    ProtocolEstimate,
    rounds_needed,
    run_protocol,
    time_schedule,
    wilson_interval,
)
from .seesaw import (
    Bipartition,
    SeeSawResult,
    enumerate_bipartitions,
    seesaw_maximize,
)
from .spin import SpinEnsemble, assert_hermitian, spin_matrices
from .states import QuantumState, ghz_like, ghz_mixture, product_state, random_ket
from .witness import (
    GeneralizedWitness,
    WitnessOperator,
    WitnessReport,
    binomial_exact,
    build_qk_closed_form,
    build_qk_direct,
    generalized_witness,
    phase_for_ghz,
    score,
    witness_report,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "GeneralizedWitness",
    "NoiseModel",
    "ProtocolEstimate",
    "QuantumState",
    "SeeSawResult",
    "SpinEnsemble",
    "WitnessOperator",
    "WitnessReport",
    "apply_depolarizing",
    "assert_hermitian",
    "binomial_exact",
    "build_qk_closed_form",
    "build_qk_direct",
    "classical_score",
    "classical_sweep_max",
    "detection_thresholds",
    "enumerate_bipartitions",
    "generalized_witness",
    "ghz_like",
    "ghz_mixture",
    "noisy_score",
    "phase_for_ghz",
    "product_state",
    "random_ket",
    "rounds_needed",
    "run_protocol",
    "score",
    "seesaw_maximize",
    "spin_matrices",
    "time_schedule",
    "wilson_interval",
    "witness_report",
    "__version__",
]
