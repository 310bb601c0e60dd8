"""Simulator for the bipartite system-apparatus measurement process.

Evolves a joint density operator under the total Hamiltonian
H_system + H_apparatus + H_coupling, checks the non-demolition commutation
conditions, and samples pointer outcomes to exhibit the sharp/repeatable
versus dispersed dichotomy.
"""

from .linalg import (
    DensityOperator,
    HermitianOperator,
    SpectralDecomposition,
    commutator,
    commutator_defect,
    propagator,
    spectral,
    tensor,
)
from .model import (
    BipartiteModel,
    ConditionReport,
    Preparation,
    check_conditions,
    prepare_initial,
    random_model,
    total_hamiltonian,
)
from .dynamics import (
    evolve_exact,
    evolve_stepped,
    exact_trajectory,
    rhs_component_form,
    state_constancy_check,
)
from .measurement import (
    MeasurementRecord,
    PointerObservable,
    aggregate_sigma,
    collapse_after_outcome,
    dispersion_experiment,
    outcome_distribution,
    repeatability_protocol,
    sample_outcome,
)
from .scenarios import (
    Scenario,
    Schedule,
    SweepRow,
    interpolation_sweep,
    oracle_check,
    run_scenario,
)

__version__ = "0.1.0"
