"""Exact invariant-based dynamics of the k-photon supersymmetric Jaynes-Cummings model.

The package builds the truncated-space operator algebra, integrates the
invariant-angle equations, assembles the exact solutions with their
dynamical and geometric phases, and validates everything against an
independent brute-force Schrodinger propagator.
"""

from .adiabatic import (
    AdiabaticScenario,
    berry_phase_cycle,
    berry_phase_numeric,
    build_adiabatic_scenario,
)
from .auxiliary import (
    AuxState,
    AuxTrajectory,
    adiabatic_matched_theta,
    aux_rhs,
    residual_check,
    solve_aux,
)
from .blocks import (
    SubspaceBlock,
    block_components,
    embed_state,
    lambda_value,
    project_block,
    verify_block_closure,
)
from .coherent import CoherentSpec, atomic_inversion, build_coherent_state, solve_block_family
from .errors import (
    CertificationError,
    ConfigurationError,
    CycleError,
    EvaluationError,
    PropagationError,
    SingularityError,
    SusyJCError,
    TruncationError,
    VerificationError,
)
from .evolution import (
    EvolutionOperator,
    ExactSolution,
    PhaseIntegrals,
    PhaseLedger,
    eigenframe_rotation,
    general_solution,
    phase_rate_dynamical,
    phase_rate_geometric,
    rotated_hamiltonian,
    rotated_invariant_residual,
    rotation_parameter,
)
from .fock import (
    EXCITED,
    GROUND,
    FockSpaceSpec,
    Generators,
    build_generators,
    build_hamiltonian,
    build_hamiltonian_susy,
    build_ladder,
    verify_algebra,
)
from .profiles import ModelParams, TimeProfile, constant_params
from .schrodinger import PropagationResult, fidelity, invariant_expectation_drift, propagate

__version__ = "0.1.0"
