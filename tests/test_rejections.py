"""Typed rejections of bad input that the other tests do not reach: each row
is one call, the error type it raises and a fragment of its message."""

import dataclasses
import math

import numpy as np
import pytest

from susyjc import (
    AuxState,
    ConfigurationError,
    FockSpaceSpec,
    SubspaceBlock,
    TimeProfile,
    build_adiabatic_scenario,
    build_coherent_state,
    build_hamiltonian,
    build_hamiltonian_susy,
    constant_params,
    embed_state,
    lambda_value,
    propagate,
    residual_check,
    solve_aux,
)
from susyjc.adiabatic import invariant_from_couplings
from susyjc.coherent import CoherentSpec
from susyjc.evolution import ExactSolution, PhaseIntegrals, embed_block_matrix, general_solution
from susyjc.fock import guarded_indices

SPEC = FockSpaceSpec(cutoff=16, k=3)
K2 = FockSpaceSpec(cutoff=16, k=2)
PARAMS = constant_params(1.0, 3.0, 0.05)
OMEGA = TimeProfile.constant(1.0)


@pytest.fixture(scope="module")
def solved():
    """(block, trajectory) of the m = 0 block of SPEC over (0, 1)."""
    block = SubspaceBlock.for_space(SPEC, 0)
    return block, solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 1.0), PARAMS, block.lam)


def _two_cutoffs(block, traj):
    wide = SubspaceBlock.for_space(FockSpaceSpec(cutoff=20, k=3), 0)  # the same lambda
    half = math.sqrt(0.5)
    return [(half, ExactSolution(block, +1, traj)), (half, ExactSolution(wide, +1, traj))]


# id -> (call on the solved (block, trajectory), error type, message fragment)
REJECTIONS = {
    "scenario-omega-not-positive": (
        lambda block, traj: build_adiabatic_scenario(
            math.pi / 3, TimeProfile.constant(0.0), m=0
        ),
        ConfigurationError,
        "mode frequency must be positive, got 0.0",
    ),
    "coupling-form-at-the-equator": (
        lambda block, traj: invariant_from_couplings(
            build_adiabatic_scenario(math.pi / 2, OMEGA, m=0, g_mod=0.3), 0.0
        ),
        ConfigurationError,
        "coupling form of the invariant undefined",
    ),
    "residual-check-empty-trajectory": (
        lambda block, traj: residual_check(
            dataclasses.replace(traj, times=np.empty(0)), PARAMS, block.lam
        ),
        ConfigurationError,
        "empty trajectory",
    ),
    "lambda-negative-m": (
        lambda block, traj: lambda_value(-1, 3),
        ConfigurationError,
        "m must be nonnegative, got -1",
    ),
    "lambda-k-zero": (
        lambda block, traj: lambda_value(0, 0),
        ConfigurationError,
        "k must be positive, got 0",
    ),
    "embed-state-three-components": (
        lambda block, traj: embed_state(block, np.zeros(3)),
        ConfigurationError,
        "expected a 2-component vector, got shape (3,)",
    ),
    "coherent-xi-nan": (
        lambda block, traj: CoherentSpec(xi=math.nan, m_max=3),
        ConfigurationError,
        "xi must be finite and nonnegative, got nan",
    ),
    "coherent-m-max-negative": (
        lambda block, traj: CoherentSpec(xi=1.0, m_max=-1),
        ConfigurationError,
        "m_max must be nonnegative, got -1",
    ),
    "coherent-solution-count": (
        lambda block, traj: build_coherent_state(CoherentSpec(xi=0.0, m_max=3), 0.0, []),
        ConfigurationError,
        "expected 4 block solutions, got 0",
    ),
    "coherent-solution-branch": (
        lambda block, traj: build_coherent_state(
            CoherentSpec(xi=0.0, m_max=0), 0.0, [ExactSolution(block, -1, traj)]
        ),
        ConfigurationError,
        "block solution branch sigma=-1 does not match the superposition sigma=1",
    ),
    "sigma-zero": (
        lambda block, traj: ExactSolution(block, 0, traj),
        ConfigurationError,
        "sigma must be +1 or -1, got 0",
    ),
    "phase-integrals-lambda": (
        lambda block, traj: PhaseIntegrals([traj], [SubspaceBlock.for_space(SPEC, 1)]),
        ConfigurationError,
        "a trajectory's lambda does not match its block's",
    ),
    "embed-block-matrix-shape": (
        lambda block, traj: embed_block_matrix(block, np.eye(3)),
        ConfigurationError,
        "expected a 2x2 matrix, got shape (3, 3)",
    ),
    "general-solution-empty": (
        lambda block, traj: general_solution([], 0.0),
        ConfigurationError,
        "empty superposition",
    ),
    "general-solution-two-cutoffs": (
        lambda block, traj: general_solution(_two_cutoffs(block, traj), 0.0),
        ConfigurationError,
        "solutions live on different cutoffs: [16, 20]",
    ),
    "fock-index-atom": (
        lambda block, traj: SPEC.index(2, 0),
        ConfigurationError,
        "atom must be 0 (excited) or 1 (ground), got 2",
    ),
    "hamiltonian-k": (
        lambda block, traj: build_hamiltonian(K2, PARAMS, 0.0),
        ConfigurationError,
        "params.k=3 does not match spec.k=2",
    ),
    "hamiltonian-susy-k": (
        lambda block, traj: build_hamiltonian_susy(K2, PARAMS, 0.0),
        ConfigurationError,
        "params.k=3 does not match spec.k=2",
    ),
    "guard-band-empty": (
        lambda block, traj: guarded_indices(SPEC, SPEC.cutoff),
        ConfigurationError,
        "guard 16 leaves no photon levels at cutoff 16",
    ),
    "table-non-finite": (
        lambda block, traj: TimeProfile.table([0.0, 1.0], [0.0, math.inf]),
        ConfigurationError,
        "table profile entries must be finite",
    ),
    "params-k-zero": (
        lambda block, traj: constant_params(1.0, 3.0, 0.05, k=0),
        ConfigurationError,
        "k must be a positive integer, got 0",
    ),
    "propagate-k": (
        lambda block, traj: propagate(K2.basis_state(0, 0), (0.0, 1.0), PARAMS, K2),
        ConfigurationError,
        "params.k=3 does not match spec.k=2",
    ),
}


@pytest.mark.parametrize("case", REJECTIONS, ids=list(REJECTIONS))
def test_a_bad_input_is_a_typed_rejection(case, solved):
    call, error, fragment = REJECTIONS[case]
    with pytest.raises(error) as info:
        call(*solved)
    assert type(info.value) is error
    assert fragment in str(info.value)
