"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Shared scenario solves live in module-scoped fixtures so the whole
suite stays inside its runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from susyjc import (
    AuxState,
    FockSpaceSpec,
    ModelParams,
    SubspaceBlock,
    TimeProfile,
    berry_phase_cycle,
    berry_phase_numeric,
    build_adiabatic_scenario,
    build_generators,
    constant_params,
    fidelity,
    lambda_value,
    project_block,
    propagate,
    solve_aux,
    verify_algebra,
)
from susyjc.auxiliary import residual_check
from susyjc.coherent import CoherentSpec, atomic_inversion, build_coherent_state, solve_block_family
from susyjc.evolution import (
    ExactSolution,
    invariant_equation_residual,
    phase_rate_dynamical,
    phase_rate_geometric,
    rotated_hamiltonian,
    rotated_invariant_residual,
)

SPEC = FockSpaceSpec(cutoff=32, k=3)
WINDOW = (0.0, 20.0)
THETA0 = math.pi / 3

SCENARIOS = {
    "constant-resonant": constant_params(1.0, 3.0, 0.05),
    "detuned-constant": constant_params(1.0, 2.8, 0.05),
    "sinusoidal-omega0": ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.sinusoid(3.0, 0.1, 0.3),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    ),
}


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def trajectories():
    """(scenario, m) -> certified angle trajectory at rtol 1e-10."""
    out = {}
    for name, params in SCENARIOS.items():
        for m in (0, 1, 2):
            block = SubspaceBlock.for_space(SPEC, m)
            out[name, m] = solve_aux(
                AuxState(THETA0, 0.0), WINDOW, params, block.lam, rtol=1e-10, atol=1e-12
            )
    return out


def test_criterion_1_superalgebra_suite():
    t_start = time.perf_counter()
    worst = 0.0
    for cutoff in (16, 32, 64):
        for k in (1, 2, 3):
            residuals = verify_algebra(FockSpaceSpec(cutoff=cutoff, k=k), tol=1e-12)
            assert len(residuals) == 10
            worst = max(worst, max(residuals.values()))
    elapsed = time.perf_counter() - t_start
    report(
        1,
        worst < 1e-12 and elapsed < 10.0,
        f"ten identities, cutoff in (16,32,64), k in (1,2,3): "
        f"max residual {worst:.2e} (< 1e-12), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_block_structure():
    worst_proj = 0.0
    worst_rel = 0.0
    for k in (1, 2, 3):
        spec = FockSpaceSpec(cutoff=20, k=k)
        gen = build_generators(spec)
        for m in range(0, 11):
            lam = lambda_value(m, k)
            assert lam == math.factorial(m + k) // math.factorial(m)  # exact integers
            block = SubspaceBlock.for_space(spec, m)

            proj = project_block(gen.Nprime, block)
            worst_proj = max(worst_proj, float(np.max(np.abs(proj - lam * np.eye(2)))) / lam)

            q = project_block(gen.Q, block)
            qd = project_block(gen.Qdag, block)
            sz2 = np.diag([1.0, -1.0])
            rels = [
                qd @ q - q @ qd - lam * sz2,
                qd @ q + q @ qd - lam * np.eye(2),
                (qd - q) @ (qd - q) + lam * np.eye(2),
            ]
            worst_rel = max(worst_rel, max(float(np.max(np.abs(r))) / lam for r in rels))
    report(
        2,
        worst_proj < 1e-13 and worst_rel < 1e-13,
        f"lambda integer-exact for m <= 10, k <= 3; N' projection residual "
        f"{worst_proj:.2e}, block relations {worst_rel:.2e} (both < 1e-13, "
        f"relative to lambda)",
    )


def test_criterion_3_invariant_certification(trajectories):
    worst_eq = 0.0
    worst_inv = 0.0
    for (name, m), traj in trajectories.items():
        block = SubspaceBlock.for_space(SPEC, m)
        worst_eq = max(worst_eq, residual_check(traj, SCENARIOS[name], block.lam))
        worst_inv = max(worst_inv, invariant_equation_residual(traj, block))
    report(
        3,
        worst_eq < 1e-8 and worst_inv < 1e-6,
        f"three scenarios at rtol 1e-10 over [0, 20]: complex-equation residual "
        f"{worst_eq:.2e} (< 1e-8), invariant-equation block residual {worst_inv:.2e} (< 1e-6)",
    )


def test_criterion_4_exact_solution_fidelity(trajectories):
    t_start = time.perf_counter()
    ts = np.linspace(*WINDOW, 41)
    worst = 0.0
    for (name, m), traj in trajectories.items():
        block = SubspaceBlock.for_space(SPEC, m)
        for sigma in (+1, -1):
            sol = ExactSolution(block, sigma, traj)
            oracle = propagate(
                sol.state_at(0.0), WINDOW, SCENARIOS[name], SPEC,
                rtol=1e-11, atol=1e-13, t_eval=ts,
            )
            for t, psi in zip(oracle.times, oracle.states):
                infid = 1.0 - fidelity(sol.state_at(t), psi / np.linalg.norm(psi))
                worst = max(worst, infid)
    elapsed = time.perf_counter() - t_start
    report(
        4,
        worst < 1e-6 and elapsed < 60.0,
        f"m in (0,1,2), sigma = +-1, three scenarios at cutoff 32: max infidelity "
        f"{worst:.2e} (< 1e-6), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_transformation_identities(trajectories):
    rng = np.random.default_rng(42)
    worst_iv = max(
        rotated_invariant_residual(AuxState(rng.uniform(0.0, math.pi), rng.uniform(-8, 8)))
        for _ in range(100)
    )

    worst_diff = 0.0
    worst_offdiag = 0.0
    for (name, m), traj in trajectories.items():
        block = SubspaceBlock.for_space(SPEC, m)
        for t in np.linspace(*WINDOW, 21):
            state = traj.state_at(t)
            formula, direct = rotated_hamiltonian(
                state, traj.rates_at(t), float(t), SCENARIOS[name], block
            )
            worst_diff = max(worst_diff, float(np.max(np.abs(formula - direct))))
            worst_offdiag = max(worst_offdiag, abs(direct[0, 1]), abs(direct[1, 0]))
    report(
        5,
        worst_iv < 1e-12 and worst_diff < 1e-8 and worst_offdiag < 1e-8,
        f"rotated invariant on 100 random angles: {worst_iv:.2e} (< 1e-12); "
        f"transformed Hamiltonian formula-vs-direct {worst_diff:.2e}, "
        f"off-diagonal {worst_offdiag:.2e} (both < 1e-8)",
    )


def test_criterion_6_berry_phase():
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        for sigma in (+1, -1):
            scen = build_adiabatic_scenario(theta, TimeProfile.constant(1.0), m=0, k=3, g_mod=0.05)
            (numeric,) = berry_phase_numeric([scen], sigma)
            worst = max(worst, abs(numeric - berry_phase_cycle(theta, sigma)))

    phases = []
    for g_mod in (0.05, 0.1):
        scen = build_adiabatic_scenario(math.pi / 3, TimeProfile.constant(1.0), m=0, k=3, g_mod=g_mod)
        phases += berry_phase_numeric([scen], +1)
    drift = abs(phases[0] - phases[1])
    report(
        6,
        worst < 1e-3 and drift < 1e-8,
        f"solid-angle law over four theta, both sigma: max error {worst:.2e} (< 1e-3); "
        f"coupling-perturbation invariance {drift:.2e} (< 1e-8)",
    )


def test_criterion_7_eigen_relation(trajectories):
    # The transformed Hamiltonian applied to a sigma_z eigencolumn returns the
    # total phase rate of that branch: H_V b = (rate_d + rate_g) b, matching
    # the exp(-i Phi) solution convention (sign certified against the
    # brute-force propagator by criterion 4 and the i dU/dt = H U tests).
    worst = 0.0
    for (name, m), traj in trajectories.items():
        block = SubspaceBlock.for_space(SPEC, m)
        for t in np.linspace(*WINDOW, 21):
            state = traj.state_at(t)
            rates = traj.rates_at(t)
            _, hv = rotated_hamiltonian(state, rates, float(t), SCENARIOS[name], block)
            for sigma, column in ((+1, 0), (-1, 1)):
                rate = phase_rate_dynamical(sigma, float(t), state, SCENARIOS[name], block)
                rate += phase_rate_geometric(sigma, state, rates[1])
                basis = np.eye(2)[:, column]
                worst = max(worst, float(np.max(np.abs(hv @ basis - rate * basis))))
    report(
        7,
        worst < 1e-8,
        f"eigen-relation along certified trajectories: max |H_V b - (rate_d + rate_g) b| "
        f"= {worst:.2e} (< 1e-8)",
    )


@pytest.mark.parametrize("xi", [0.5, 1.0])
def test_criterion_8_coherent_state(xi):
    params = SCENARIOS["constant-resonant"]
    cspec = CoherentSpec.for_xi(xi)
    sols = solve_block_family(cspec, SPEC, params, WINDOW, AuxState(THETA0, 0.0))
    ts = np.linspace(*WINDOW, 41)
    psi0 = build_coherent_state(cspec, 0.0, sols)
    norm0 = np.linalg.norm(psi0)
    oracle = propagate(psi0 / norm0, WINDOW, params, SPEC, rtol=1e-11, atol=1e-13, t_eval=ts)

    worst = 0.0
    norm_drift = 0.0
    for i, t in enumerate(ts):
        vec = build_coherent_state(cspec, float(t), sols)
        norm_drift = max(norm_drift, abs(np.linalg.norm(vec) - norm0))
        exact = atomic_inversion(vec / np.linalg.norm(vec))
        ref = atomic_inversion(oracle.states[i] / np.linalg.norm(oracle.states[i]))
        worst = max(worst, abs(exact - ref))
    report(
        8,
        worst < 1e-6 and norm_drift < 1e-10,
        f"xi = {xi}: max atomic-inversion deviation {worst:.2e} (< 1e-6), "
        f"superposition norm drift {norm_drift:.2e} (< 1e-10)",
    )


def test_criterion_9_numerical_hygiene():
    # on a time-dependent drive, so that both parts measure DOP853: the
    # oracle propagates constant profiles exactly, at any tolerance
    params = SCENARIOS["sinusoidal-omega0"]
    block = SubspaceBlock.for_space(SPEC, 1)
    from susyjc import embed_state

    psi0 = embed_state(block, [1.0, 0.0])
    fwd = propagate(psi0, WINDOW, params, SPEC, rtol=1e-11, atol=1e-13, t_eval=[0.0, 20.0])
    end = fwd.states[-1] / np.linalg.norm(fwd.states[-1])
    back = propagate(end, (20.0, 0.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=[20.0, 0.0])
    roundtrip = 1.0 - fidelity(back.states[-1], psi0)

    # halving both tolerance pairs strictly reduces the criterion-4 infidelity
    infidelities = []
    ts = np.linspace(*WINDOW, 21)
    for factor in (1, 2, 4):
        rtol, atol = 1e-5 / factor, 1e-7 / factor
        traj = solve_aux(
            AuxState(THETA0, 0.0), WINDOW, params, block.lam,
            rtol=rtol, atol=atol, certify=False,
        )
        sol = ExactSolution(block, +1, traj)
        oracle = propagate(
            sol.state_at(0.0), WINDOW, params, SPEC,
            rtol=rtol, atol=atol, max_norm_drift=1e-3, t_eval=ts,
        )
        infidelities.append(
            max(
                1.0 - fidelity(sol.state_at(t), psi / np.linalg.norm(psi))
                for t, psi in zip(oracle.times, oracle.states)
            )
        )
    monotone = infidelities[0] > infidelities[1] > infidelities[2]

    report(
        9,
        fwd.norm_drift < 1e-9 and roundtrip < 1e-8 and monotone,
        f"oracle norm drift {fwd.norm_drift:.2e} (< 1e-9); forward-backward "
        f"round-trip infidelity {roundtrip:.2e} (< 1e-8); halving tolerances: "
        f"{infidelities[0]:.2e} > {infidelities[1]:.2e} > {infidelities[2]:.2e}",
    )
