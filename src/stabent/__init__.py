"""Entanglement entropy estimation for states with large stabilizer dimension.

The package layers up from bit-packed symplectic linear algebra over F2^(2n)
through two state backends (a scalable Clifford tableau and a dense small-n
simulator with Bell difference sampling) to the entropy-bound estimator and
an ensemble distinguisher built on top of it.
"""

from .circuits import (
    Circuit,
    Gate,
    random_clifford_circuit,
    random_clifford_t_circuit,
)
from .distinguisher import (
    DistinguisherResult,
    EnsembleSpec,
    bell_pair_ensemble,
    distinguish,
    magic_product_ensemble,
)
from .estimator import (
    BoundReport,
    EstimatorParams,
    binary_entropy,
    default_epsilon,
    estimate_entropy,
    required_sample_count,
)
from .statevector import (
    CharacteristicDistribution,
    StateVector,
    bell_difference_sample_bits,
    characteristic_distribution,
    entanglement_entropy_oracle,
    simulate_circuit,
)
from .symplectic import (
    Cut,
    Subspace,
    SympVec,
    extract_symplectic_subspace,
    from_pauli_string,
    is_isotropic,
    restrict_to_cut,
    span,
    symplectic_complement,
    symplectic_product,
    to_pauli_string,
)
from .tableau import (
    TABLEAU_CAP,
    Tableau,
    conjugate_vector,
    simulate_clifford,
    weyl_group_from_tableau,
)
from .weyl import (
    DEFAULT_DENSE_CAP,
    CapExceededError,
    StabilizerGroupEstimate,
    weyl_expectation,
    weyl_group_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapExceededError",
    "CharacteristicDistribution",
    "Circuit",
    "Cut",
    "DEFAULT_DENSE_CAP",
    "DistinguisherResult",
    "EnsembleSpec",
    "EstimatorParams",
    "Gate",
    "StabilizerGroupEstimate",
    "StateVector",
    "Subspace",
    "SympVec",
    "TABLEAU_CAP",
    "Tableau",
    "bell_difference_sample_bits",
    "bell_pair_ensemble",
    "binary_entropy",
    "characteristic_distribution",
    "conjugate_vector",
    "default_epsilon",
    "distinguish",
    "entanglement_entropy_oracle",
    "estimate_entropy",
    "extract_symplectic_subspace",
    "from_pauli_string",
    "is_isotropic",
    "magic_product_ensemble",
    "random_clifford_circuit",
    "random_clifford_t_circuit",
    "required_sample_count",
    "restrict_to_cut",
    "simulate_circuit",
    "simulate_clifford",
    "span",
    "symplectic_complement",
    "symplectic_product",
    "to_pauli_string",
    "weyl_expectation",
    "weyl_group_from_tableau",
    "weyl_group_oracle",
]
