"""Finite-key analysis for GHZ-based conference key agreement with a
two-block parity sieve (classical advantage distillation).

The package combines an analytic key-rate engine, a Monte Carlo protocol
simulator for cross-checking the analytics, classical sampling bounds,
and a desk-scale statevector verifier for the quantum facts the analysis
rests on.
"""

from .bitcore import BitString, binary_entropy
from .ghzsim import (
    DEFAULT_QUBIT_CAP,
    StateVector,
    cad_delayed_measurement_equivalence,
    cad_record_distribution,
    compose,
    ghz_state,
    hadamard_expansion_check,
    hadamard_transform,
    key_min_entropy_check,
    random_pure_state,
    x_basis_parity_distribution,
)
from .keyrate import (
    KeyRateReport,
    epsilon_constants,
    key_length,
    leak_ec,
    min_entropy_bound,
    optimize_m,
    pa_output_length_check,
)
from .protosim import (
    FieldStats,
    NoiseModel,
    ProtocolParams,
    TrialOutcome,
    aggregate,
    analytic_pa,
    analytic_qx,
    postcad_error_rates,
    run_trial,
)
from .sampling import (
    SamplingParams,
    delta_from_epsilon,
    empirical_sampling_failure,
    epsilon_cl_bound,
    epsilon_cl_log_bound,
    sampling_failure_log,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "binary_entropy",
    "DEFAULT_QUBIT_CAP",
    "StateVector",
    "ghz_state",
    "compose",
    "random_pure_state",
    "hadamard_transform",
    "x_basis_parity_distribution",
    "hadamard_expansion_check",
    "cad_record_distribution",
    "cad_delayed_measurement_equivalence",
    "key_min_entropy_check",
    "SamplingParams",
    "sampling_failure_log",
    "epsilon_cl_bound",
    "epsilon_cl_log_bound",
    "delta_from_epsilon",
    "empirical_sampling_failure",
    "NoiseModel",
    "ProtocolParams",
    "TrialOutcome",
    "FieldStats",
    "analytic_qx",
    "analytic_pa",
    "postcad_error_rates",
    "run_trial",
    "aggregate",
    "KeyRateReport",
    "epsilon_constants",
    "min_entropy_bound",
    "leak_ec",
    "key_length",
    "optimize_m",
    "pa_output_length_check",
]
