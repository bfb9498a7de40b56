import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from susyjc import (
    AuxState,
    ConfigurationError,
    FockSpaceSpec,
    SubspaceBlock,
    SusyJCError,
    block_components,
    build_generators,
    constant_params,
    embed_state,
    fidelity,
    project_block,
    propagate,
    solve_aux,
)
from susyjc.evolution import (
    EvolutionOperator,
    ExactSolution,
    PhaseIntegrals,
    block_hamiltonian,
    coefficients_from_initial,
    eigenframe_rotation,
    general_solution,
    invariant_equation_residual,
    invariant_matrix,
    invariant_operator,
    phase_rate_dynamical,
    phase_rate_geometric,
    rotated_hamiltonian,
    rotated_invariant_residual,
    rotation_parameter,
)
from susyjc.quadrature import spline_derivative

SPEC = FockSpaceSpec(cutoff=32, k=3)


def solved(params, m=0, theta0=math.pi / 3, phi0=0.0, t1=20.0, rtol=1e-10):
    block = SubspaceBlock.for_space(SPEC, m)
    traj = solve_aux(AuxState(theta0, phi0), (0.0, t1), params, block.lam, rtol=rtol)
    return block, traj


def test_rotation_parameter_values():
    assert rotation_parameter(AuxState(0.0, 1.3), 6) == 0
    assert_allclose(
        rotation_parameter(AuxState(math.pi, 0.0), 6), -(math.pi / 2) / math.sqrt(6), rtol=1e-15
    )
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta, phi, lam = rng.uniform(0, math.pi), rng.uniform(-7, 7), rng.integers(1, 400)
        assert_allclose(
            abs(rotation_parameter(AuxState(theta, phi), lam)),
            theta / (2 * math.sqrt(lam)),
            rtol=1e-14,
        )


def test_rotation_closed_form_matches_matrix_exponential():
    gen = build_generators(SPEC)
    rng = np.random.default_rng(5)
    for m in (0, 2, 5):
        block = SubspaceBlock.for_space(SPEC, m)
        for _ in range(20):
            state = AuxState(rng.uniform(0.01, math.pi - 0.01), rng.uniform(-6, 6))
            beta = rotation_parameter(state, block.lam)
            generator = project_block(
                beta * gen.Q - np.conj(beta) * gen.Qdag, block
            )
            assert_allclose(eigenframe_rotation(state), expm(generator), atol=1e-13)


def test_rotation_specific_angles():
    assert_allclose(eigenframe_rotation(AuxState(0.0, 0.4)), np.eye(2), atol=0)
    assert_allclose(
        eigenframe_rotation(AuxState(math.pi, 0.0)), [[0, 1], [-1, 0]], atol=1e-16
    )


def test_rotation_unitary():
    rng = np.random.default_rng(9)
    for _ in range(30):
        v = eigenframe_rotation(AuxState(rng.uniform(0, math.pi), rng.uniform(-9, 9)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-13


def test_rotated_invariant_random_angles():
    rng = np.random.default_rng(17)
    worst = max(
        rotated_invariant_residual(AuxState(rng.uniform(0, math.pi), rng.uniform(-7, 7)))
        for _ in range(100)
    )
    assert worst < 1e-12
    assert rotated_invariant_residual(AuxState(0.0, 0.0)) == 0.0


def test_invariant_block_matches_full_projection():
    block = SubspaceBlock.for_space(SPEC, 2)
    rng = np.random.default_rng(21)
    for _ in range(5):
        state = AuxState(rng.uniform(0, math.pi), rng.uniform(-5, 5))
        full = invariant_operator(SPEC, state, block.lam)
        assert_allclose(project_block(full, block), invariant_matrix(state), atol=1e-14)
        assert np.max(np.abs(full - full.conj().T)) < 1e-15


def test_block_invariant_is_involution():
    state = AuxState(0.7, 1.3)
    eigs = np.sort(np.linalg.eigvalsh(invariant_matrix(state)))
    assert_allclose(eigs, [-1.0, 1.0], atol=1e-14)


def test_block_hamiltonian_matches_full_projection():
    from susyjc import build_hamiltonian

    params = constant_params(1.0, 2.8, 0.05, 0.9)
    block = SubspaceBlock.for_space(SPEC, 1)
    for t in (0.0, 1.7):
        full = build_hamiltonian(SPEC, params, t)
        assert_allclose(project_block(full, block), block_hamiltonian(block, params, t), atol=1e-13)


def test_rotated_hamiltonian_two_paths_agree_on_shell():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=1)
    for t in np.linspace(0.0, 20.0, 21):
        state = traj.state_at(t)
        formula, direct = rotated_hamiltonian(state, traj.rates_at(t), float(t), params, block)
        assert np.max(np.abs(formula - direct)) < 1e-8
        assert max(abs(direct[0, 1]), abs(direct[1, 0])) < 1e-8


def test_rotated_hamiltonian_decoupled_diagonal():
    # g = 0, theta frozen: diagonal (m + 3/2) w -+ tilt terms, both paths
    params = constant_params(1.0, 2.5, 0.0)
    block, traj = solved(params, m=0, theta0=0.8)
    t = 5.0
    state = traj.state_at(t)
    rates = traj.rates_at(t)
    dphi = 3.0 * 1.0 - 2.5
    shift = 0.5 * (2.5 - 3.0) * math.cos(0.8) - 0.5 * dphi * (1 - math.cos(0.8))
    expected = np.diag([1.5 + shift, 1.5 - shift])
    formula, direct = rotated_hamiltonian(state, rates, t, params, block)
    assert_allclose(formula, expected, atol=1e-12)
    assert_allclose(direct, expected, atol=1e-10)


def test_rotated_hamiltonian_off_shell_detects():
    # wrong rates leave visible off-diagonals: the agreement check is non-vacuous
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=1)
    state = traj.state_at(4.0)
    _, direct = rotated_hamiltonian(state, (0.0, 0.0), 4.0, params, block)
    assert max(abs(direct[0, 1]), abs(direct[1, 0])) > 1e-3


def test_eigen_relation_along_trajectory():
    # H_V b_sigma = (rate_d + rate_g) b_sigma with the exp(-i Phi) convention
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=1)
    for t in np.linspace(0.0, 20.0, 11):
        state = traj.state_at(t)
        rates = traj.rates_at(t)
        _, hv = rotated_hamiltonian(state, rates, float(t), params, block)
        for sigma, column in ((+1, 0), (-1, 1)):
            rate = phase_rate_dynamical(sigma, float(t), state, params, block)
            rate += phase_rate_geometric(sigma, state, rates[1])
            basis = np.eye(2)[:, column]
            assert np.max(np.abs(hv @ basis - rate * basis)) < 1e-8


def test_phase_rate_dynamical_cases():
    params = constant_params(1.0, 3.0, 0.0)
    block = SubspaceBlock.for_space(SPEC, 2)
    state = AuxState(math.pi / 2, 0.7)
    for sigma in (+1, -1):
        assert_allclose(
            phase_rate_dynamical(sigma, 0.0, state, params, block), 2 + 1.5, rtol=1e-14
        )

    # sigma-dependent parts cancel in the sum
    params = constant_params(1.0, 2.6, 0.08, 0.5)
    state = AuxState(1.1, -0.4)
    total = phase_rate_dynamical(+1, 0.0, state, params, block) + phase_rate_dynamical(
        -1, 0.0, state, params, block
    )
    assert_allclose(total, 2 * (2 + 1.5) * 1.0, rtol=1e-13)

    # resonance, real g, phi = 0, theta = pi/2
    params = constant_params(1.0, 3.0, 0.05)
    block0 = SubspaceBlock.for_space(SPEC, 0)
    rate = phase_rate_dynamical(+1, 0.0, AuxState(math.pi / 2, 0.0), params, block0)
    assert_allclose(rate, 1.5 - math.sqrt(6) * 0.05, rtol=1e-14)


def test_phase_rate_geometric_cases():
    assert phase_rate_geometric(+1, AuxState(0.0, 0.3), 5.0) == 0.0
    assert_allclose(phase_rate_geometric(+1, AuxState(math.pi / 2, 0.0), 1.0), -0.5)
    state = AuxState(1.234, 0.0)
    assert phase_rate_geometric(+1, state, 0.77) == -phase_rate_geometric(-1, state, 0.77)


def test_geometric_rate_ignores_frequencies_exactly():
    # same (theta, phi, phi-dot) samples, perturbed model: bitwise equal rates
    state = AuxState(0.9, 2.2)
    base = phase_rate_geometric(+1, state, 0.456)
    perturbed = phase_rate_geometric(+1, state, 0.456)
    assert base == perturbed

    params = constant_params(1.0, 2.8, 0.05)
    bumped = constant_params(1.3, 2.1, 0.09)
    block = SubspaceBlock.for_space(SPEC, 1)
    d1 = phase_rate_dynamical(+1, 0.0, state, params, block)
    d2 = phase_rate_dynamical(+1, 0.0, state, bumped, block)
    assert d1 != d2  # the dynamical rate does depend on them


def test_exact_state_initial_and_norm():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=0)
    sol = ExactSolution(block, +1, traj)
    v0 = eigenframe_rotation(traj.state_at(0.0))
    psi0 = sol.state_at(0.0)
    assert_allclose(psi0[block.upper_index], v0[0, 0], atol=1e-14)
    assert_allclose(psi0[block.lower_index], v0[1, 0], atol=1e-14)
    for t in np.linspace(0.0, 20.0, 17):
        assert abs(np.linalg.norm(sol.state_at(t)) - 1.0) < 1e-12


def test_exact_state_oracle_overlap():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=1)
    ts = np.linspace(0.0, 20.0, 21)
    for sigma in (+1, -1):
        sol = ExactSolution(block, sigma, traj)
        result = propagate(sol.state_at(0.0), (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=ts)
        for t, psi in zip(result.times, result.states):
            assert fidelity(sol.state_at(t), psi / np.linalg.norm(psi)) >= 1 - 1e-6


def test_exact_solution_shares_phase_integrals():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=1, t1=5.0)
    phases = PhaseIntegrals([traj], [block])
    for sigma in (+1, -1):
        shared = ExactSolution(block, sigma, traj, phases)
        own = ExactSolution(block, sigma, traj)
        assert shared.phases is phases
        for t in np.linspace(0.0, 5.0, 7):
            assert np.array_equal(shared.state_at(t), own.state_at(t))

    _, other = solved(params, m=1, t1=5.0)
    with pytest.raises(ConfigurationError, match="different trajectory"):
        ExactSolution(block, +1, other, phases)
    with pytest.raises(ConfigurationError, match="different trajectory or block"):
        ExactSolution(SubspaceBlock.for_space(FockSpaceSpec(cutoff=24, k=3), 1), +1, traj, phases)


def test_phase_integrals_need_members_of_one_params_object():
    # int w is fitted once for the family, from its first member's profiles:
    # members with their own profiles would get a wrong phi_d, so they are
    # refused; each one still gets its own integrals alone
    from susyjc.auxiliary import _solve_family

    params = [constant_params(1.0, 2.8, 0.05), constant_params(2.0, 5.8, 0.05)]
    blocks = [SubspaceBlock.for_space(SPEC, m) for m in (0, 1)]
    trajs = _solve_family(AuxState(math.pi / 3, 0.0), (0.0, 2.0), params, [b.lam for b in blocks])
    with pytest.raises(ConfigurationError, match="do not share one params object"):
        PhaseIntegrals(trajs, blocks)
    for block, traj in zip(blocks, trajs):
        _, solo = solved(traj.params, m=block.m, t1=2.0)
        alone, reference = ExactSolution(block, +1, traj), ExactSolution(block, +1, solo)
        for t in (0.7, 2.0):
            assert abs(alone.ledger(t).phi_d - reference.ledger(t).phi_d) < 1e-8


def test_general_solution_single_component():
    params = constant_params(1.0, 3.0, 0.05)
    block, traj = solved(params, m=0, t1=5.0)
    sol = ExactSolution(block, +1, traj)
    assert_allclose(general_solution([(1.0, sol)], 2.0), sol.state_at(2.0), atol=1e-14)


def test_general_solution_decoupled_superposition_vs_oracle():
    params = constant_params(1.0, 2.5, 0.0)
    block, traj = solved(params, m=0, theta0=0.8, t1=20.0)
    comps = [
        (1 / math.sqrt(2), ExactSolution(block, +1, traj)),
        (1 / math.sqrt(2), ExactSolution(block, -1, traj)),
    ]
    psi0 = general_solution(comps, 0.0)
    ts = np.linspace(0.0, 20.0, 21)
    result = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-12, atol=1e-14, t_eval=ts)
    for t, psi in zip(result.times, result.states):
        assert fidelity(general_solution(comps, t), psi / np.linalg.norm(psi)) >= 1 - 1e-10


def test_general_solution_coupled_superposition_vs_oracle():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=1)
    comps = [(0.6, ExactSolution(block, +1, traj)), (0.8j, ExactSolution(block, -1, traj))]
    psi0 = general_solution(comps, 0.0)
    ts = np.linspace(0.0, 20.0, 11)
    result = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=ts)
    for t, psi in zip(result.times, result.states):
        assert fidelity(general_solution(comps, t), psi / np.linalg.norm(psi)) >= 1 - 1e-8
    # on the time grid: bit for bit the stacked scalar calls, time axis first
    grid = general_solution(comps, ts)
    assert grid.shape == (ts.size, 2 * SPEC.cutoff)
    assert np.array_equal(grid, np.stack([general_solution(comps, float(t)) for t in ts]))


def test_general_solution_requires_normalized_coefficients():
    params = constant_params(1.0, 3.0, 0.05)
    block, traj = solved(params, m=0, t1=2.0)
    sol = ExactSolution(block, +1, traj)
    with pytest.raises(ConfigurationError):
        general_solution([(0.5, sol)], 1.0)


def test_coefficient_recovery():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=0, t1=5.0)
    sols = [ExactSolution(block, +1, traj), ExactSolution(block, -1, traj)]
    coeffs = np.array([0.6, 0.8j])
    psi0 = general_solution(list(zip(coeffs, sols)), 0.0)
    assert_allclose(coefficients_from_initial(sols, psi0), coeffs, atol=1e-12)


def test_evolution_operator_properties():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=1)
    prop = EvolutionOperator(block, traj)

    assert_allclose(prop.at(0.0), eigenframe_rotation(traj.state_at(0.0)), atol=1e-14)
    u = prop.at(13.7)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    sols = [ExactSolution(block, +1, traj), ExactSolution(block, -1, traj)]
    u94 = prop.at(9.4)
    for col, sol in enumerate(sols):
        psi = sol.state_at(9.4)
        assert_allclose(u94[:, col], [psi[block.upper_index], psi[block.lower_index]], atol=1e-13)


def test_evolution_operator_satisfies_schrodinger():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=0)
    prop = EvolutionOperator(block, traj)
    errors = []
    for h in (1e-3, 1e-4):
        worst = 0.0
        for t in (2.0, 9.5, 17.0):
            fd = 1j * (prop.at(t + h) - prop.at(t - h)) / (2 * h)
            worst = max(worst, np.max(np.abs(fd - block_hamiltonian(block, params, t) @ prop.at(t))))
        errors.append(worst)
    assert errors[0] < 5e-5
    assert errors[1] < 5e-7  # O(h^2) convergence


@pytest.mark.parametrize("times", [9.4, np.linspace(0.0, 20.0, 41)], ids=["scalar", "grid"])
def test_evolution_operator_samples_its_block_once_per_call(sample_calls, times):
    # both columns come from one call of the (5,) dense output of the solve
    # and one of int w
    block, traj = solved(constant_params(1.0, 2.8, 0.05), m=1)
    prop = EvolutionOperator(block, traj)
    sample_calls.clear()
    prop.at(times)
    assert [(kind, columns) for kind, _, columns in sample_calls] == [("dense", 5), ("int w", 1)]


def test_phase_ledger_geometry_only_depends_on_angles():
    # two models with different couplings/frequencies but the same frozen
    # (theta, phi) trajectory accumulate the same geometric phase
    from susyjc import ModelParams, TimeProfile

    w, theta = 1.0, math.pi / 3
    block = SubspaceBlock.for_space(SPEC, 0)
    ledgers = []
    for gm in (0.05, 0.1):
        omega0 = 2 * w - 2 * gm * math.sqrt(block.lam) / math.tan(theta)
        params = ModelParams(
            omega=TimeProfile.constant(w),
            omega0=TimeProfile.constant(omega0),
            g_mod=TimeProfile.constant(gm),
            g_phase=TimeProfile.linear(0.0, -w),
            k=3,
        )
        traj = solve_aux(AuxState(theta, 0.0), (0.0, 2 * math.pi), params, block.lam, rtol=1e-11)
        ledgers.append(ExactSolution(block, +1, traj).ledger(2 * math.pi).phi_g)
    assert abs(ledgers[0] - ledgers[1]) < 1e-8


def test_phase_integrals_across_table_kinks_match_closed_form():
    # g = 0 with a table omega0: theta is frozen, phi' = k w - w0(t), and
    # both phase rates are piecewise linear in t, so their integrals have
    # closed forms; one spline across the kinks misses them by up to ~7e-8
    from susyjc import ModelParams, TimeProfile

    knots = np.array([0.0, 1.0, 2.5, 4.0])
    values = np.array([3.0, 3.4, 2.8, 3.1])
    w, theta, k = 1.0, math.pi / 3, 3
    params = ModelParams(
        omega=TimeProfile.constant(w),
        omega0=TimeProfile.table(knots, values),
        g_mod=TimeProfile.constant(0.0),
        g_phase=TimeProfile.constant(0.0),
        k=k,
    )
    block = SubspaceBlock.for_space(SPEC, 1)
    traj = solve_aux(AuxState(theta, 0.0), (0.0, 4.0), params, block.lam)
    phases = PhaseIntegrals([traj], [block])

    def omega0_integral(t):
        # exact trapezoids of the piecewise-linear table up to t
        nodes = np.append(knots[knots < t], t)
        heights = np.interp(nodes, knots, values)
        return float(np.sum(np.diff(nodes) * 0.5 * (heights[1:] + heights[:-1])))

    ts = np.array([0.0, 0.4, 1.0, 1.7, 2.5, 3.2, 4.0])
    for sigma in (+1, -1):
        sol = ExactSolution(block, sigma, traj, phases)
        ledger = sol.ledger(ts)
        for i, t in enumerate(ts):
            drive = omega0_integral(t) - k * w * t  # integral of w0 - k w
            phi_d = (block.m + k / 2) * w * t + sigma * 0.5 * math.cos(theta) * drive
            phi_g = sigma * 0.5 * (1 - math.cos(theta)) * drive
            assert abs(ledger.phi_d[i] - phi_d) <= 1e-12, (sigma, t)
            assert abs(ledger.phi_g[i] - phi_g) <= 1e-12, (sigma, t)
            scalar = sol.ledger(float(t))
            assert (scalar.phi_d, scalar.phi_g) == (ledger.phi_d[i], ledger.phi_g[i])


def test_table_profile_solution_vs_oracle():
    # kinked driving, full chain: certified angles -> exact state -> oracle
    from susyjc import ModelParams, TimeProfile

    knots = np.linspace(0.0, 20.0, 21)
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.table(knots, 3.0 + 0.1 * np.sin(0.3 * knots)),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    block = SubspaceBlock.for_space(SPEC, 0)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, block.lam, rtol=1e-10)
    assert invariant_equation_residual(traj, block) < 1e-6

    comps = [(0.6, ExactSolution(block, +1, traj)), (0.8j, ExactSolution(block, -1, traj))]
    psi0 = general_solution(comps, 0.0)
    ts = np.linspace(0.0, 20.0, 21)
    oracle = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=ts)
    for t, psi in zip(oracle.times, oracle.states):
        assert fidelity(general_solution(comps, t), psi / np.linalg.norm(psi)) >= 1 - 1e-6
        # the oracle starts from the exact state, so the global phase is comparable
        assert np.max(np.abs(general_solution(comps, t) - psi)) <= 1e-8


def _driven_params(kind, k, t_final):
    """Near-resonant k-photon parameters with one profile driven by ``kind``."""
    from susyjc import ModelParams, TimeProfile

    knots = np.linspace(0.0, t_final, 6)
    driven = {
        "sinusoid": dict(g_phase=TimeProfile.sinusoid(0.0, 0.4, 0.5)),
        "chirp": dict(g_mod=TimeProfile.chirp(0.05, 0.02, 0.2, 0.01)),
        "table": dict(omega0=TimeProfile.table(knots, k - 0.1 + 0.1 * np.sin(0.3 * knots))),
    }[kind]
    base = dict(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(k - 0.1),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
    )
    return ModelParams(**{**base, **driven}, k=k)


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(
    k=st.integers(1, 3),
    m=st.integers(0, 3),
    theta0=st.floats(0.3, math.pi - 0.3),
    t_final=st.floats(0.5, 5.0),
    kind=st.sampled_from(["sinusoid", "chirp", "table"]),
)
def test_exact_solutions_match_the_oracle_amplitude_by_amplitude(k, m, theta0, t_final, kind):
    _match_the_oracle_amplitude_by_amplitude(k, m, theta0, t_final, kind)


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(
    k=st.integers(1, 3),
    m=st.integers(0, 3),
    theta0=st.one_of(st.floats(0.02, 0.3), st.floats(math.pi - 0.3, math.pi - 0.02)),
    t_final=st.floats(0.5, 5.0),
    kind=st.sampled_from(["sinusoid", "chirp", "table"]),
)
def test_exact_solutions_near_the_poles_match_the_oracle(k, m, theta0, t_final, kind):
    # initial angles within 0.3 of a pole, where the azimuth turns fastest
    _match_the_oracle_amplitude_by_amplitude(k, m, theta0, t_final, kind)


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(
    k=st.integers(1, 3),
    m=st.integers(0, 3),
    theta0=st.one_of(st.floats(0.005, 0.02), st.floats(math.pi - 0.02, math.pi - 0.005)),
    t_final=st.floats(0.5, 5.0),
    kind=st.sampled_from(["sinusoid", "chirp", "table"]),
)
def test_exact_solutions_closest_to_the_poles_match_the_oracle(k, m, theta0, t_final, kind):
    # initial angles within 0.02 of a pole: the azimuth turns fastest there,
    # and near theta = pi the geometric rate grows like 1 / sin(theta)
    _match_the_oracle_amplitude_by_amplitude(k, m, theta0, t_final, kind)


def _match_the_oracle_amplitude_by_amplitude(k, m, theta0, t_final, kind):
    """Both exact solutions within 1e-8 of the oracle, amplitude by amplitude,
    or a typed SusyJCError."""
    # phase-sensitive: the oracle starts from the exact state, so a wrong
    # global phase of either branch shows up as an amplitude error
    spec = FockSpaceSpec(cutoff=16, k=k)
    params = _driven_params(kind, k, t_final)
    block = SubspaceBlock.for_space(spec, m)
    ts = np.linspace(0.0, t_final, 11)
    try:
        traj = solve_aux(AuxState(theta0, 0.0), (0.0, t_final), params, block.lam)
        for sigma in (+1, -1):
            sol = ExactSolution(block, sigma, traj)
            oracle = propagate(
                sol.state_at(0.0), (0.0, t_final), params, spec, rtol=1e-11, atol=1e-13, t_eval=ts
            )
            assert np.max(np.abs(sol.state_at(ts) - oracle.states)) <= 1e-8, sigma
    except SusyJCError:
        return


@pytest.mark.parametrize("k", [1, 2])
def test_generalized_photon_number_end_to_end(k):
    # the k-generalization: eigen-relation and oracle fidelity away from k = 3
    spec = FockSpaceSpec(cutoff=24, k=k)
    params = constant_params(1.0, k * 1.0 - 0.2, 0.05, k=k)
    block = SubspaceBlock.for_space(spec, 1)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 15.0), params, block.lam, rtol=1e-10)

    for t in (2.0, 9.0, 14.5):
        state = traj.state_at(t)
        rates = traj.rates_at(t)
        _, hv = rotated_hamiltonian(state, rates, t, params, block)
        assert max(abs(hv[0, 1]), abs(hv[1, 0])) < 1e-8
        for sigma, column in ((+1, 0), (-1, 1)):
            rate = phase_rate_dynamical(sigma, t, state, params, block)
            rate += phase_rate_geometric(sigma, state, rates[1])
            basis = np.eye(2)[:, column]
            assert np.max(np.abs(hv @ basis - rate * basis)) < 1e-8

    sol = ExactSolution(block, +1, traj)
    ts = np.linspace(0.0, 15.0, 16)
    oracle = propagate(sol.state_at(0.0), (0.0, 15.0), params, spec, rtol=1e-11, atol=1e-13, t_eval=ts)
    for t, psi in zip(oracle.times, oracle.states):
        assert fidelity(sol.state_at(t), psi / np.linalg.norm(psi)) >= 1 - 1e-6


def test_invariant_equation_residual_certified_and_sensitive():
    params = constant_params(1.0, 2.8, 0.05)
    block, traj = solved(params, m=0)
    assert invariant_equation_residual(traj, block) < 1e-6

    from susyjc.auxiliary import AuxTrajectory

    bumped = AuxTrajectory(
        times=traj.times,
        thetas=traj.thetas + 0.01,
        phis=traj.phis,
        params=params,
        lam=traj.lam,
        stats=traj.stats,
        _dense=traj._dense,
    )
    assert invariant_equation_residual(bumped, block) > 1e-4


def _grid_trajectory(kind):
    """(block, trajectory, window end) for the array-vs-scalar equality tests."""
    from susyjc import ModelParams, TimeProfile
    from susyjc.adiabatic import build_adiabatic_scenario, solve_scenario

    if kind == "berry":
        scenario = build_adiabatic_scenario(math.pi / 3, TimeProfile.constant(1.0), m=1, k=3)
        block = SubspaceBlock.for_space(SPEC, scenario.m)
        return block, solve_scenario(scenario), scenario.period
    knots = np.linspace(0.0, 10.0, 11)
    profiles = {
        "constant": {},
        "chirp": dict(g_mod=TimeProfile.chirp(0.05, 0.02, 0.2, 0.01)),
        "table": dict(omega0=TimeProfile.table(knots, 3.0 + 0.1 * np.sin(0.3 * knots))),
        "sinusoid": dict(g_phase=TimeProfile.sinusoid(0.0, 0.4, 0.5)),
    }[kind]
    base = dict(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(2.9),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
    )
    params = ModelParams(**{**base, **profiles}, k=3)
    block, traj = solved(params, m=2, t1=10.0)
    return block, traj, 10.0


GRID_KINDS = ["constant", "chirp", "table", "sinusoid", "berry"]


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_solution_layer_array_call_matches_stacked_scalar_calls(kind):
    # one call on a time grid is bit-identical to stacking the scalar calls,
    # time axis first; the grid hits the window ends (and table knots)
    block, traj, t1 = _grid_trajectory(kind)
    params = traj.params
    ts = np.linspace(0.0, t1, 41)

    state = traj.state_at(ts)
    scalar_states = [traj.state_at(float(t)) for t in ts]
    assert all(type(s.theta) is float and type(s.phi) is float for s in scalar_states)
    assert np.array_equal(state.theta, [s.theta for s in scalar_states])
    assert np.array_equal(state.phi, [s.phi for s in scalar_states])

    for build, stacked in (
        (eigenframe_rotation, [eigenframe_rotation(s) for s in scalar_states]),
        (invariant_matrix, [invariant_matrix(s) for s in scalar_states]),
    ):
        out = build(state)
        assert out.shape == (ts.size, 2, 2) and stacked[0].shape == (2, 2)
        assert np.array_equal(out, np.stack(stacked))
    ham = block_hamiltonian(block, params, ts)
    assert ham.shape == (ts.size, 2, 2)
    assert np.array_equal(ham, np.stack([block_hamiltonian(block, params, float(t)) for t in ts]))

    phases = PhaseIntegrals([traj], [block])
    for sigma in (+1, -1):
        sol = ExactSolution(block, sigma, traj, phases)
        ledger = sol.ledger(ts)
        scalar_ledgers = [sol.ledger(float(t)) for t in ts]
        assert type(scalar_ledgers[0].phi_d) is float
        assert np.array_equal(ledger.phi_d, [lg.phi_d for lg in scalar_ledgers])
        assert np.array_equal(ledger.phi_g, [lg.phi_g for lg in scalar_ledgers])

        amplitudes = sol.block_state_at(ts)
        assert amplitudes.shape == (ts.size, 2)
        assert np.array_equal(amplitudes, np.stack([sol.block_state_at(float(t)) for t in ts]))
        psis = sol.state_at(ts)
        scalar_psis = [sol.state_at(float(t)) for t in ts]
        assert psis.shape == (ts.size, 2 * SPEC.cutoff) and scalar_psis[0].shape == (2 * SPEC.cutoff,)
        assert np.array_equal(psis, np.stack(scalar_psis))
        assert np.array_equal(block_components(block, psis), amplitudes)
        assert np.array_equal(embed_state(block, amplitudes), psis)

    # the evolution operator's columns are the two exact solutions
    prop = EvolutionOperator(block, traj)
    u = prop.at(ts)
    assert u.shape == (ts.size, 2, 2)
    assert np.array_equal(u, np.stack([prop.at(float(t)) for t in ts]))
    for column, sigma in enumerate((+1, -1)):
        sol = ExactSolution(block, sigma, traj, phases)
        assert np.array_equal(u[..., column], sol.block_state_at(ts))

    # invariant_equation_residual: the same as from per-sample matrices
    inv = np.stack([invariant_matrix(AuxState(*angles)) for angles in zip(traj.thetas, traj.phis)])
    ham = np.stack([block_hamiltonian(block, params, float(t)) for t in traj.times])
    dinv = spline_derivative(traj.times, inv, traj.edge_indices)
    expected = float(np.max(np.abs(dinv - 1j * (inv @ ham - ham @ inv))))
    assert invariant_equation_residual(traj, block) == expected
