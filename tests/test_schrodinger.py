import math
import re

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
from susyjc.quadrature import RTOL_FLOOR

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


@pytest.mark.parametrize("late", [21.0, 40.0, math.nan])
def test_t_eval_outside_the_window_is_rejected_naming_the_first_time(late):
    # a time past the window was extrapolated (21) or failed as a norm drift
    # (40), and NaN, which compares False with both ends, came back as NaN
    # states with no rejection; each is a configuration error that names
    # the time, before any solve
    params = constant_params(1.0, 2.8, 0.05)
    psi0 = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    message = rf"^t={late} outside propagation window \[0.0, 20.0\]; 1 of 2 times outside$"
    with pytest.raises(ConfigurationError, match=message):
        propagate(psi0, (0.0, 20.0), params, SPEC, t_eval=[5.0, late])
    with pytest.raises(ConfigurationError, match=r"^t=-1.0 outside"):
        propagate(psi0, (0.0, 20.0), params, SPEC, t_eval=[-1.0, 5.0, late])


@pytest.mark.xfail(
    strict=True,
    raises=PropagationError,
    reason="the dense output's interpolation error on 3.3-unit steps exceeds MAX_NORM_DRIFT",
)
def test_a_lone_basis_state_stays_within_the_default_norm_drift():
    # configs/resonant.ini's profiles and space at the oracle's default
    # tolerances: the interaction frame barely moves a lone basis state, so
    # DOP853 takes 9 steps over [0, 20]; the norm drifts 1.43e-11 at the step
    # ends but 1.067e-9 at the 401 dense samples, past the 1e-9 bound
    params = constant_params(1.0, 3.0, 0.05)
    propagate(SPEC.basis_state(EXCITED, 0), (0.0, 20.0), params, SPEC, 1e-10, 1e-12)


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


def test_invariant_expectation_drift_rejects_a_stack():
    # a stack's states are (R, n_times, dim): one run's drift is not defined on them
    params = constant_params(1.0, 2.8, 0.05)
    psi0 = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    ts = np.linspace(0.0, 1.0, 5)
    stack = propagate(np.array([psi0, psi0]), (0.0, 1.0), params, SPEC, t_eval=ts)
    assert stack.states.shape == (2, 5, SPEC.dim)
    with pytest.raises(ConfigurationError, match=rf"\(2, 5, {SPEC.dim}\)"):
        invariant_expectation_drift(build_generators(SPEC).Nprime, stack)


def test_invariant_expectation_drift_rejects_an_operator_of_another_dimension():
    # a cutoff-20 operator on cutoff-32 states: named up front, not a matmul error
    params = constant_params(1.0, 2.8, 0.05)
    psi0 = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    result = propagate(psi0, (0.0, 1.0), params, SPEC, t_eval=np.linspace(0.0, 1.0, 5))
    small = build_generators(FockSpaceSpec(cutoff=20, k=3)).sigma_z
    with pytest.raises(ConfigurationError, match=r"operator shape \(40, 40\) is not \(64, 64\)"):
        invariant_expectation_drift(small, result)
    with pytest.raises(ConfigurationError, match=r"operator shape \(40, 40\)"):
        invariant_expectation_drift(lambda t: small, result)


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
    # constant profiles, g = 0: the rotating frame removes the whole phase,
    # so the oracle is exact at any tolerance
    psi0 = SPEC.basis_state(EXCITED, 1)
    for rtol in (1e-6, 5e-7):
        result = propagate(
            psi0, (0.0, 20.0), constant_params(1.0, 3.0, 0.0), SPEC, rtol=rtol,
            atol=rtol * 1e-2, max_norm_drift=1e-4, t_eval=[20.0],
        )
        expected = np.exp(-1j * 2.5 * 20.0) * psi0
        assert np.max(np.abs(result.states[-1] - expected)) <= 1e-14

    # an omega0 ramp leaves the phase -i b t^2 / 4 to integrate; its closed
    # form is exp(-i (m w t + (a t + b t^2 / 2) / 2)) for omega0 = a + b t
    from susyjc import ModelParams, TimeProfile

    a, b = 3.0, 0.05
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.linear(a, b),
        g_mod=TimeProfile.constant(0.0),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    errs = []
    for rtol in (1e-6, 5e-7):
        result = propagate(
            psi0, (0.0, 20.0), params, SPEC, rtol=rtol, atol=rtol * 1e-2,
            max_norm_drift=1e-4, t_eval=[20.0],
        )
        expected = np.exp(-1j * (20.0 + (a * 20.0 + b * 20.0**2 / 2) / 2)) * psi0
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_structured_rhs_matches_dense_hamiltonian(k):
    # the oracle applies H as one coefficient product over each level and
    # its Q partner; it must act exactly like the dense matrix, truncated
    # top photon levels included, on one state and on a stack, and with
    # -i folded into the coefficients as the oracle's right-hand side does
    from susyjc import ModelParams, TimeProfile, build_hamiltonian
    from susyjc.fock import build_generators
    from susyjc.schrodinger import _apply_hamiltonian, _Structure

    spec = FockSpaceSpec(cutoff=12, k=k)
    knots = [0.0, 2.5, 5.0, 7.5, 10.0]
    params = ModelParams(
        omega=TimeProfile.sinusoid(1.0, 0.1, 0.4),
        omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
        g_mod=TimeProfile.table(knots, [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=k,
    )
    structure = _Structure.for_space(spec)
    # N' is diagonal too: its vector is the whole matrix the drift check needs
    assert np.array_equal(np.diag(structure.nprime), build_generators(spec).Nprime)
    # Q links are symmetric: a linked level's partner has it as its partner,
    # and the top k excited and bottom k ground levels are their own
    levels, partners = structure.pairs.T
    assert np.array_equal(levels, np.arange(spec.dim))
    linked = partners != levels
    assert np.array_equal(partners[partners[linked]], levels[linked])
    unlinked = np.r_[spec.cutoff - k : spec.cutoff + k]
    assert np.array_equal(np.flatnonzero(~linked), unlinked)
    rng = np.random.default_rng(k)
    top = np.zeros((2, spec.cutoff), dtype=complex)
    top[:, -2 * k :] = 1.0 + 0.5j  # only the levels where truncation cuts the ladder
    bottom = np.zeros((2, spec.cutoff), dtype=complex)
    bottom[1, :k] = 0.3 - 1.0j  # the ground levels below every Q link
    stack = np.array(
        [rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim), top.ravel(), bottom.ravel()]
    )
    for t in (0.0, 1.3, 2.5, 6.1, 10.0):
        omega, omega0, g = params.evaluate(t)
        dense = build_hamiltonian(spec, params, t)
        coefficients = (omega, omega0, g, g.conjugate())
        for factor in (1.0, -1j):
            scaled = tuple(factor * c for c in coefficients)
            want = factor * (stack @ dense.T)
            got = _apply_hamiltonian(structure, scaled, stack)
            assert got.shape == stack.shape
            for row, (g_row, w_row) in enumerate(zip(got, want)):
                error = np.linalg.norm(g_row - w_row)
                assert error <= 1e-13 * np.linalg.norm(w_row), (k, t, factor, row)
                one = _apply_hamiltonian(structure, scaled, stack[row])
                assert np.linalg.norm(one - w_row) <= 1e-13 * np.linalg.norm(w_row)


def _superposition(spec, ms, seed):
    """A normalized state spread over both levels of blocks ``ms``."""
    rng = np.random.default_rng(seed)
    psi = np.zeros(spec.dim, dtype=complex)
    for m in ms:
        block = SubspaceBlock.for_space(spec, m)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi[[block.upper_index, block.lower_index]] = amps
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_matches_matrix_exponential_for_constant_coupled_h(k):
    # detuned (k w != w0) and complex g, so the Q links carry a phase in the
    # rotating frame; the window starts at t0 != 0, so tau = t - t0 counts
    from scipy.linalg import expm

    from susyjc import build_hamiltonian

    spec = FockSpaceSpec(cutoff=14, k=k)
    params = constant_params(1.0, k * 1.0 - 0.2, 0.07, g_phase=0.6, k=k)
    psi0 = _superposition(spec, range(4), seed=k)
    h = build_hamiltonian(spec, params, 0.0)
    t0, t1 = 1.5, 21.5
    ts = np.linspace(t0, t1, 9)
    result = propagate(psi0, (t0, t1), params, spec, t_eval=ts)
    for t, psi in zip(ts, result.states):
        assert np.max(np.abs(psi - expm(-1j * h * (t - t0)) @ psi0)) < 1e-8, (k, t)


@pytest.mark.parametrize("window", [(0.5, 10.0), (9.5, 0.0)], ids=["forward", "backward"])
def test_oracle_matches_lab_frame_integration_on_driven_profiles(window):
    # the chirp, table and sinusoid kinds of the driven scenario, against a
    # lab-frame dense-matrix integration kept here, leg by leg between knots,
    # with H(t) assembled from the operator builders' matrices
    from scipy.integrate import solve_ivp

    from susyjc import ModelParams, TimeProfile, build_ladder

    spec = FockSpaceSpec(cutoff=16, k=3)
    knots = [0.0, 2.5, 5.0, 7.5, 10.0]
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
        g_mod=TimeProfile.table(knots, [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=3,
    )
    psi0 = _superposition(spec, [0, 2, 5], seed=7)
    t0, t1 = window
    ts = np.linspace(t0, t1, 11)

    gen = build_generators(spec)
    a_op, adag = build_ladder(spec)
    number = adag @ a_op
    half_sz = 0.5 * gen.sigma_z
    q, qdag = gen.Q, gen.Qdag

    def lab_rhs(t, y):
        omega, omega0, g = params.evaluate(t)
        return -1j * ((omega * number + omega0 * half_sz + g * q + np.conj(g) * qdag) @ y)

    lo, hi = sorted(window)
    inner = [x for x in knots if lo < x < hi]
    edges = [t0] + (inner if t1 > t0 else inner[::-1]) + [t1]
    want = np.empty((len(ts), spec.dim), dtype=complex)
    y = psi0
    for a, b in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(lab_rhs, (a, b), y, method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
        inside = (ts - a) * (ts - b) <= 0
        want[inside] = sol.sol(ts[inside]).T
        y = sol.y[:, -1]

    result = propagate(psi0, window, params, spec, t_eval=ts)
    for t, psi, ref in zip(ts, result.states, want):
        assert np.max(np.abs(psi - ref)) < 1e-8, t


def test_oracle_work_budget_on_the_resonant_block():
    # resonant.ini's m = 2, sigma = +1 run at its rtol; in the lab frame the
    # solver followed the free phases and needed 2522 right-hand sides
    from susyjc.evolution import ExactSolution

    spec = FockSpaceSpec(cutoff=32, k=3, guard=3)
    params = constant_params(1.0, 3.0, 0.05)
    block = SubspaceBlock.for_space(spec, 2)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, block.lam, rtol=1e-10)
    psi0 = ExactSolution(block, +1, traj).state_at(0.0)
    ts = np.linspace(0.0, 20.0, 201)
    result = propagate(psi0, (0.0, 20.0), params, spec, rtol=1e-10, atol=1e-12, t_eval=ts)
    assert 0 < result.n_steps < result.n_rhs_evaluations < 1000


def _resonant_runs():
    """resonant.ini's six exact initial states, (m, sigma) for m = 0, 1, 2 and
    sigma = +1, -1, in the order the CLI stacks them."""
    from susyjc.evolution import ExactSolution

    spec = FockSpaceSpec(cutoff=32, k=3, guard=3)
    params = constant_params(1.0, 3.0, 0.05)
    states = []
    for m in (0, 1, 2):
        block = SubspaceBlock.for_space(spec, m)
        traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, block.lam, rtol=1e-10)
        states += [ExactSolution(block, sigma, traj).state_at(0.0) for sigma in (+1, -1)]
    return spec, params, np.array(states)


def test_a_one_row_stack_is_the_single_state_call():
    # one state is the R = 1 case of the stacked code, bit for bit
    params = constant_params(1.0, 2.8, 0.05, g_phase=0.4)
    block = SubspaceBlock.for_space(SPEC, 1)
    psi0 = embed_state(block, [1 / math.sqrt(2), 1j / math.sqrt(2)])
    ts = np.linspace(0.0, 20.0, 41)
    one = propagate(psi0, (0.0, 20.0), params, SPEC, t_eval=ts)
    stack = propagate(psi0[None, :], (0.0, 20.0), params, SPEC, t_eval=ts)
    assert one.states.shape == (41, SPEC.dim) and stack.states.shape == (1, 41, SPEC.dim)
    assert np.array_equal(stack.states[0], one.states)
    assert (stack.norm_drift, stack.nprime_drift) == (one.norm_drift, one.nprime_drift)
    assert (stack.n_steps, stack.n_rhs_evaluations) == (one.n_steps, one.n_rhs_evaluations)


def test_stacked_columns_match_their_solo_runs():
    # resonant.ini's six oracle runs as one solve at rtol / sqrt(12): each
    # column agrees with its solo run, and drifts well inside the 1e-9 bound
    # that the solo runs came within 2 % of
    spec, params, initial = _resonant_runs()
    ts = np.linspace(0.0, 20.0, 201)
    stack = propagate(initial, (0.0, 20.0), params, spec, t_eval=ts)
    assert stack.states.shape == (6, 201, spec.dim)
    assert stack.n_rhs_evaluations <= 400  # the six solo runs take 1392
    drifts = np.max(np.abs(np.linalg.norm(stack.states, axis=-1) - 1.0), axis=-1)
    assert np.max(drifts) == stack.norm_drift <= 6e-10
    for psi0, states in zip(initial, stack.states):
        solo = propagate(psi0, (0.0, 20.0), params, spec, t_eval=ts)
        assert np.max(np.abs(states - solo.states)) < 2e-9


@pytest.mark.parametrize("rtol", [1e-13, 4e-14])
def test_a_tight_stack_stays_above_the_solver_floor(rtol):
    # rtol / sqrt(12) is clamped at the solver's floor of 100 eps, below which
    # DOP853 raises a ConfigurationError (4e-14 / sqrt(12) lies below it)
    spec, params, initial = _resonant_runs()
    result = propagate(initial, (0.0, 1.0), params, spec, rtol=rtol, atol=1e-15)
    assert result.norm_drift < 1e-12


def test_a_bad_row_in_a_stack_is_named():
    params = constant_params(1.0, 3.0, 0.05)
    good = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    top = SPEC.basis_state(EXCITED, SPEC.cutoff - 1)
    with pytest.raises(ConfigurationError, match="initial state row 1 must be normalized"):
        propagate(np.array([good, 2 * good, good]), (0.0, 1.0), params, SPEC)
    with pytest.raises(ConfigurationError, match="initial state row 2 occupies the top"):
        propagate(np.array([good, good, top]), (0.0, 1.0), params, SPEC)
    with pytest.raises(ConfigurationError, match=r"expected \(64,\) or \(R, 64\)"):
        propagate(np.array([good[:-1]] * 3), (0.0, 1.0), params, SPEC)


def test_drift_rejection_names_the_worst_column():
    # ground levels 0 .. k - 1 have no Q partner, so with constant profiles
    # they stand still in the rotating frame and cannot drift; the coupled
    # column in between is the only one a loose rtol lets drift
    from susyjc import GROUND

    params = constant_params(1.0, 2.8, 0.05)
    coupled = embed_state(SubspaceBlock.for_space(SPEC, 1), [1.0, 0.0])
    stack = np.array([SPEC.basis_state(GROUND, 0), coupled, SPEC.basis_state(GROUND, 1)])
    with pytest.raises(PropagationError, match=r"norm drift \S+ in column 1 exceeds 1e-12") as exc:
        propagate(stack, (0.0, 20.0), params, SPEC, rtol=1e-4, atol=1e-6, max_norm_drift=1e-12)
    assert exc.value.column == 1
    # one state has no column to name
    with pytest.raises(PropagationError, match=r"norm drift \S+ exceeds") as exc:
        propagate(coupled, (0.0, 20.0), params, SPEC, rtol=1e-4, atol=1e-6, max_norm_drift=1e-12)
    assert exc.value.column is None


def test_guard_band_rejection_names_the_leaking_column():
    # |e, 12> is coupled to |g, 15>, in the guard band from level 13 up, and
    # at resonance its whole amplitude crosses within the window
    spec = FockSpaceSpec(cutoff=16, k=3, guard=3)
    params = constant_params(1.0, 3.0, 0.05)
    stack = np.array([spec.basis_state(EXCITED, 0), spec.basis_state(EXCITED, 12)])
    message = "run rejected: guard-band amplitude 1.000e+00{} exceeds 1e-08"
    with pytest.raises(PropagationError, match=re.escape(message.format(" in column 1"))) as exc:
        propagate(stack, (0.0, 1.0), params, spec)
    assert exc.value.column == 1
    with pytest.raises(PropagationError, match=re.escape(message.format(""))) as exc:
        propagate(stack[1], (0.0, 1.0), params, spec)
    assert exc.value.column is None


@pytest.mark.parametrize(
    "rows,rtol,solver_rtol",
    [
        pytest.param(1, 1e-10, 1e-10 / math.sqrt(2), id="one-state"),
        pytest.param(3, 1e-10, 1e-10 / math.sqrt(6), id="stack"),
        pytest.param(3, 4e-14, RTOL_FLOOR, id="stack-at-the-floor"),
    ],
)
def test_the_solver_steps_the_real_view_at_tolerances_over_sqrt_2r(
    monkeypatch, rows, rtol, solver_rtol
):
    # DOP853 gets the 2 R dim (re, im) floats of the stack, at rtol and atol
    # over sqrt(2R), and the states come back complex in the usual shapes
    from susyjc import schrodinger

    solves = []
    real = schrodinger.integrate_segments

    def recording(rhs, window, y0, params, rtol, atol, failure):
        solves.append((y0, rtol, atol))
        return real(rhs, window, y0, params, rtol, atol, failure)

    monkeypatch.setattr(schrodinger, "integrate_segments", recording)
    params = constant_params(1.0, 2.8, 0.05, g_phase=0.4)
    stack = np.array([
        embed_state(SubspaceBlock.for_space(SPEC, m), [math.cos(0.3), 1j * math.sin(0.3)])
        for m in range(rows)
    ])  # fmt: skip
    initial = stack if rows > 1 else stack[0]
    ts = np.linspace(0.0, 2.0, 9)
    result = propagate(initial, (0.0, 2.0), params, SPEC, rtol=rtol, atol=1e-12, t_eval=ts)

    [(y0, got_rtol, got_atol)] = solves
    assert y0.dtype == np.float64 and y0.flags.c_contiguous and y0.shape == (2 * rows * SPEC.dim,)
    assert np.array_equal(y0.view(complex), stack.reshape(-1))
    assert got_rtol == pytest.approx(solver_rtol, rel=1e-15)
    assert got_atol == pytest.approx(1e-12 / math.sqrt(2 * rows), rel=1e-15)
    assert result.states.dtype == complex
    assert result.states.shape == ((rows,) if rows > 1 else ()) + (ts.size, SPEC.dim)
    assert np.array_equal(result.states[..., 0, :], initial)
