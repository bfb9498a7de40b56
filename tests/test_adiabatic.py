import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susyjc import (
    AuxState,
    ConfigurationError,
    CycleError,
    FockSpaceSpec,
    SubspaceBlock,
    TimeProfile,
    berry_phase_cycle,
    berry_phase_numeric,
    build_adiabatic_scenario,
    constant_params,
    embed_state,
    invariant_expectation_drift,
    propagate,
    solve_aux,
)
from susyjc.adiabatic import (
    conjugated_invariant,
    hamiltonian_invariant_relation_residual,
    invariant_from_couplings,
)
from susyjc.auxiliary import family_sample
from susyjc.evolution import invariant_matrix

OMEGA = TimeProfile.constant(1.0)


def test_scenario_construction_solves_constraint():
    scen = build_adiabatic_scenario(math.pi / 3, OMEGA, m=0, k=3, g_mod=0.05)
    expected = 2.0 - 2 * 0.05 * math.sqrt(6) / math.tan(math.pi / 3)
    assert_allclose(scen.params.omega0(0.0), expected, rtol=1e-14)
    # phase-locked coupling: g = |g| e^{-i phi}
    for t in (0.0, 1.7):
        assert_allclose(scen.params.coupling(t), 0.05 * np.exp(-1j * t), rtol=1e-13)


def test_scenario_equator_needs_no_detuning_solve():
    scen = build_adiabatic_scenario(math.pi / 2, OMEGA, m=0, k=3, g_mod=0.3)
    # cos(theta) = 0 forces k w - w0 - w = 0 for any coupling strength
    assert_allclose(3.0 - scen.params.omega0(0.0) - 1.0, 0.0, atol=1e-12)


def test_scenario_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        build_adiabatic_scenario(0.0, OMEGA, m=0)
    with pytest.raises(ConfigurationError):
        build_adiabatic_scenario(math.pi / 3, TimeProfile.linear(1.0, 0.1), m=0)
    with pytest.raises(ConfigurationError):
        build_adiabatic_scenario(math.pi / 3, OMEGA, m=0, g_mod=-0.1)


def test_scenario_is_fixed_point_of_angle_equations():
    scen = build_adiabatic_scenario(math.pi / 3, OMEGA, m=1, k=3, g_mod=0.05)
    traj = solve_aux(AuxState(scen.theta, 0.0), (0.0, scen.period), scen.params, scen.lam)
    assert np.max(np.abs(traj.thetas - math.pi / 3)) < 1e-8
    for t in np.linspace(0.0, traj.t1, 9):
        dtheta, dphi = traj.rates_at(t)
        assert abs(dtheta) < 1e-10
        assert abs(dphi - 1.0) < 1e-8


def test_h_i_relation_residual():
    scen = build_adiabatic_scenario(math.pi / 3, OMEGA, m=0, k=3, g_mod=0.05)
    for t in (0.0, 1.1, 4.0):
        assert hamiltonian_invariant_relation_residual(scen, t) < 1e-10


def test_h_i_relation_guard_near_equator():
    scen = build_adiabatic_scenario(math.pi / 2, OMEGA, m=0, k=3, g_mod=0.05)
    with pytest.raises(ConfigurationError):
        hamiltonian_invariant_relation_residual(scen, 0.0)


def test_invariant_coupling_form_matches_angle_form():
    scen = build_adiabatic_scenario(math.pi / 3, OMEGA, m=0, k=3, g_mod=0.05)
    for t in (0.0, 0.9, 3.3):
        from_couplings = invariant_from_couplings(scen, t)
        from_angles = invariant_matrix(AuxState(scen.theta, 1.0 * t))
        assert np.max(np.abs(from_couplings - from_angles)) < 1e-12


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3])
@pytest.mark.parametrize("sigma", [+1, -1])
def test_berry_phase_solid_angle_law(theta, sigma):
    scen = build_adiabatic_scenario(theta, OMEGA, m=0, k=3, g_mod=0.05)
    (numeric,) = berry_phase_numeric([scen], sigma)
    formula = berry_phase_cycle(theta, sigma)
    assert abs(numeric - formula) < 1e-3 * max(abs(formula), 1.0)


def test_berry_phase_values():
    assert berry_phase_cycle(0.0, +1) == 0.0
    assert_allclose(berry_phase_cycle(math.pi / 2, +1), -math.pi, rtol=1e-15)
    assert_allclose(berry_phase_cycle(math.pi / 3, -1), math.pi / 2, rtol=1e-15)


def test_berry_phase_sign_antisymmetry():
    for theta in (0.4, 1.1, 2.5):
        assert berry_phase_cycle(theta, +1) == -berry_phase_cycle(theta, -1)


def test_berry_phase_cycle_closure_enforced():
    scen = build_adiabatic_scenario(math.pi / 3, OMEGA, m=0, k=3, g_mod=0.05)
    with pytest.raises(CycleError):
        berry_phase_numeric([dataclasses.replace(scen, period=5.0)], +1)


def test_berry_sweep_matches_the_solo_solves():
    # one family solve for the sweep: each theta's phase is its solo solve's,
    # within the two solves' tolerances
    thetas = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3)
    scenarios = [build_adiabatic_scenario(theta, OMEGA, m=0, k=3, g_mod=0.05) for theta in thetas]
    phases = berry_phase_numeric(scenarios, -1)
    assert len(phases) == len(thetas)
    for scen, phase in zip(scenarios, phases):
        solo = solve_aux(AuxState(scen.theta, 0.0), (0.0, scen.period), scen.params, scen.lam)
        _, _, g = family_sample([solo])(solo.t1)
        assert abs(phase - (-g[0])) <= 1e-9


def test_berry_sweep_profile_evaluations_grow_linearly_in_its_angles(monkeypatch):
    # each angle is a steady run of its own: its profiles are evaluated a
    # fixed number of times per solve, not once per generator call for every
    # run, which made the count grow as the square of the angles
    from susyjc import ModelParams

    calls = []
    evaluate = ModelParams.evaluate

    def counted(self, t):
        calls.append(self)
        return evaluate(self, t)

    monkeypatch.setattr(ModelParams, "evaluate", counted)
    counts = {}
    for size in (8, 64):
        scenarios = [
            build_adiabatic_scenario(theta, OMEGA, m=0, k=3, g_mod=0.05)
            for theta in np.linspace(0.4, 2.7, size)
        ]
        calls.clear()
        berry_phase_numeric(scenarios, +1)
        counts[size] = len(calls)
    assert counts[64] <= 8 * counts[8], counts


def test_berry_sweep_needs_one_period():
    fast = build_adiabatic_scenario(math.pi / 3, TimeProfile.constant(2.0), m=0)
    slow = build_adiabatic_scenario(math.pi / 6, OMEGA, m=0)
    with pytest.raises(ConfigurationError, match="share one period") as err:
        berry_phase_numeric([slow, fast], +1)
    assert str(fast.period) in str(err.value) and str(slow.period) in str(err.value)
    assert berry_phase_numeric([], +1) == []


def test_cycle_error_names_the_theta_that_does_not_close():
    # a window of 5 instead of 2 pi: the first member's cycle fails, by its theta
    scenarios = [
        dataclasses.replace(build_adiabatic_scenario(theta, OMEGA, m=0), period=5.0)
        for theta in (math.pi / 3, math.pi / 2)
    ]
    with pytest.raises(CycleError, match=rf"\(theta0={math.pi / 3}\)$"):
        berry_phase_numeric(scenarios, +1)


def test_berry_phase_coupling_invariance():
    # doubling |g| (with omega0 re-solved to keep theta fixed) leaves the
    # cycle phase unchanged
    theta = math.pi / 3
    phases = []
    for g_mod in (0.05, 0.1):
        scen = build_adiabatic_scenario(theta, OMEGA, m=0, k=3, g_mod=g_mod)
        phases += berry_phase_numeric([scen], +1)
    assert abs(phases[0] - phases[1]) < 1e-8


def test_conjugated_invariant_rejects_an_operator_of_another_cutoff():
    # checked when the invariant is built, not at its first call
    from susyjc import build_generators

    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(FockSpaceSpec(cutoff=16, k=3), 0)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 1.0), params, block.lam)
    sigma_z = build_generators(FockSpaceSpec(cutoff=20, k=3)).sigma_z
    with pytest.raises(ConfigurationError, match="does not match block cutoff 16"):
        conjugated_invariant(block, traj, sigma_z)


def test_conjugated_invariant_drift():
    spec = FockSpaceSpec(cutoff=16, k=3)
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(spec, 0)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, block.lam, rtol=1e-10)

    from susyjc import build_generators
    from susyjc.blocks import project_block

    sigma_z = build_generators(spec).sigma_z
    conjugated = conjugated_invariant(block, traj, sigma_z)

    # conjugating sigma_z reproduces the angle form of the invariant
    for t in (0.0, 3.7, 9.2):
        assert (
            np.max(np.abs(project_block(conjugated(t), block) - invariant_matrix(traj.state_at(t))))
            < 1e-12
        )

    psi0 = embed_state(block, [1 / math.sqrt(2), 1j / math.sqrt(2)])
    result = propagate(psi0, (0.0, 10.0), params, spec, rtol=1e-11, atol=1e-13)
    assert invariant_expectation_drift(conjugated, result) < 1e-6
    # the unconjugated operator is not conserved: control for vacuity
    assert invariant_expectation_drift(sigma_z, result) > 0.1
