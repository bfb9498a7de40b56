import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susyjc import (
    AuxState,
    ConfigurationError,
    EXCITED,
    FockSpaceSpec,
    PropagationError,
    SubspaceBlock,
    build_generators,
    constant_params,
    embed_state,
    fidelity,
    invariant_expectation_drift,
    propagate,
    solve_aux,
)
from susyjc.evolution import invariant_operator

SPEC = FockSpaceSpec(cutoff=32, k=3)


def test_decoupled_evolution_is_a_phase():
    params = constant_params(1.0, 3.0, 0.0)
    m = 2
    psi0 = SPEC.basis_state(EXCITED, m)
    ts = np.linspace(0.0, 10.0, 21)
    result = propagate(psi0, (0.0, 10.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=ts)
    for t, psi in zip(result.times, result.states):
        expected = np.exp(-1j * (m * 1.0 + 3.0 / 2.0) * t) * psi0
        assert_allclose(psi, expected, atol=1e-9)


def test_nprime_expectation_conserved():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 1)
    psi0 = embed_state(block, [1 / math.sqrt(2), 1j / math.sqrt(2)])
    result = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13)
    assert result.nprime_drift < 1e-8
    assert result.norm_drift < 1e-9


def test_block_confinement():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 2)
    psi0 = embed_state(block, [1.0, 0.0])
    result = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13)
    for psi in result.states:
        outside = psi.copy()
        outside[[block.upper_index, block.lower_index]] = 0.0
        assert np.max(np.abs(outside)) < 1e-10


def test_initial_state_validation():
    params = constant_params(1.0, 3.0, 0.05)
    with pytest.raises(ConfigurationError):
        propagate(np.zeros(SPEC.dim), (0.0, 1.0), params, SPEC)
    top = SPEC.basis_state(EXCITED, SPEC.cutoff - 1)
    with pytest.raises(ConfigurationError):
        propagate(top, (0.0, 1.0), params, SPEC)


def test_norm_drift_rejection():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 0)
    psi0 = embed_state(block, [1.0, 0.0])
    with pytest.raises(PropagationError, match="norm drift"):
        propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-4, atol=1e-6, max_norm_drift=1e-12)


def test_fidelity_cases():
    a = np.zeros(4, dtype=complex)
    a[0] = 1.0
    b = np.zeros(4, dtype=complex)
    b[1] = 1.0
    assert fidelity(a, a) == 1.0
    assert fidelity(a, b) == 0.0
    assert_allclose(fidelity(a, np.exp(1j * 0.7) * a), 1.0, rtol=1e-15)


def test_time_reversibility():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 1)
    psi0 = embed_state(block, [1.0, 0.0])
    fwd = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=[0.0, 20.0])
    end = fwd.states[-1] / np.linalg.norm(fwd.states[-1])
    back = propagate(end, (20.0, 0.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=[20.0, 0.0])
    assert 1.0 - fidelity(back.states[-1], psi0) < 1e-8


def test_invariant_expectation_drift_constant_and_rebuilt():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 0)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, block.lam, rtol=1e-10)

    psi0 = embed_state(block, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    result = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13)

    gen = build_generators(SPEC)
    assert invariant_expectation_drift(gen.Nprime, result) < 1e-8

    def rebuilt(t):
        return invariant_operator(SPEC, traj.state_at(t), block.lam)

    assert invariant_expectation_drift(rebuilt, result) < 1e-6

    # non-conserved control: sigma_z alone drifts O(1) when g != 0
    assert invariant_expectation_drift(gen.sigma_z, result) > 0.1


def test_table_profile_keeps_drift_budget():
    # kinks in H(t) must not degrade the run past the rejection threshold
    from susyjc import ModelParams, TimeProfile

    knots = np.linspace(0.0, 20.0, 11)
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.table(knots, 3.0 + 0.08 * np.sin(0.4 * knots)),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    block = SubspaceBlock.for_space(SPEC, 1)
    psi0 = embed_state(block, [1.0, 0.0])
    result = propagate(psi0, (0.0, 20.0), params, SPEC)
    assert result.norm_drift < 1e-9
    assert result.nprime_drift < 1e-7


def test_refining_tolerance_improves_decoupled_phase():
    params = constant_params(1.0, 3.0, 0.0)
    psi0 = SPEC.basis_state(EXCITED, 1)
    errs = []
    for rtol in (1e-6, 5e-7):
        result = propagate(
            psi0, (0.0, 20.0), params, SPEC, rtol=rtol, atol=rtol * 1e-2,
            max_norm_drift=1e-4, t_eval=[20.0],
        )
        expected = np.exp(-1j * 2.5 * 20.0) * psi0
        errs.append(np.max(np.abs(result.states[-1] - expected)))
    assert errs[1] < errs[0]


def test_oracle_shares_nothing_with_the_analytic_route():
    # the oracle may use operator builders and profiles, never blocks or angles
    import susyjc.schrodinger as oracle

    analytic = {
        "susyjc.auxiliary",
        "susyjc.evolution",
        "susyjc.blocks",
        "susyjc.adiabatic",
        "susyjc.coherent",
    }
    borrowed = sorted(
        name
        for name, value in vars(oracle).items()
        if getattr(value, "__module__", None) in analytic
    )
    assert borrowed == []
