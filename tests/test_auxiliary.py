import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from susyjc import (
    AuxState,
    CertificationError,
    ConfigurationError,
    ModelParams,
    SingularityError,
    SusyJCError,
    TimeProfile,
    adiabatic_matched_theta,
    aux_rhs,
    constant_params,
    lambda_value,
    residual_check,
    solve_aux,
)
from susyjc import auxiliary
from susyjc.auxiliary import (
    _SAMPLE_CAP,
    AuxTrajectory,
    _bisect,
    _frame,
    _printed_residual,
    _solve_family,
    family_sample,
    residual_series,
)
from susyjc.quadrature import segmented_grid, spline_derivative
from susyjc.schrodinger import MAX_AMPLITUDE_ERROR

LAM6 = lambda_value(0, 3)


def test_rhs_decoupled():
    # g = 0: theta frozen, phi advances at the detuning rate
    params = constant_params(1.0, 2.7, 0.0)
    dtheta, dphi = aux_rhs(AuxState(0.9, 0.3), 0.0, params, LAM6)
    assert dtheta == 0.0
    assert_allclose(dphi, 3.0 - 2.7, rtol=1e-14)


@pytest.mark.parametrize(
    "params,expected",
    [
        pytest.param(constant_params(1.0, 3.0, 0.0, k=3), 0.0, id="k3-resonant"),
        pytest.param(constant_params(1.0, 2.9, 0.0, k=3), 0.1, id="k3-detuned"),
        pytest.param(constant_params(0.7, 1.0, 0.0, k=2), 0.4, id="k2-detuned"),
        pytest.param(
            ModelParams(
                omega=TimeProfile.constant(1.0),
                omega0=TimeProfile.table([0.0, 2.0], [3.0, 2.8]),
                g_mod=TimeProfile.constant(0.0),
                g_phase=TimeProfile.constant(0.0),
                k=3,
            ),
            3.0 - 2.9,
            id="table",
        ),
    ],
)
def test_rhs_decoupled_rate_is_detuning(params, expected):
    # g = 0: the cot term drops out and dphi is exactly k omega - omega0,
    # at one time and elementwise over a grid, polar angles included
    omega, omega0, _ = params.evaluate(1.0)
    dtheta, dphi = aux_rhs(AuxState(0.9, 0.3), 1.0, params, LAM6)
    assert dtheta == 0.0
    assert dphi == params.k * omega - omega0
    assert_allclose(dphi, expected, rtol=1e-14, atol=1e-15)

    ts = np.linspace(0.0, 2.0, 9)
    omega, omega0, _ = params.evaluate(ts)
    thetas = np.linspace(0.0, math.pi, 9)
    dthetas, dphis = aux_rhs(AuxState(thetas, np.zeros(9)), ts, params, LAM6)
    assert np.all(dthetas == 0.0)
    assert np.array_equal(dphis, params.k * omega - omega0)


def test_rhs_real_coupling_equator():
    params = constant_params(1.0, 3.0, 0.05)
    dtheta, dphi = aux_rhs(AuxState(math.pi / 2, 0.0), 0.0, params, LAM6)
    assert dtheta == 0.0  # Im(g e^{i phi}) = 0
    assert_allclose(dphi, 0.0, atol=1e-15)


def test_rhs_adiabatic_fixed_point():
    # (k w - w0 - w) sin th = 2|g| sqrt(lam) cos th with phase-locked coupling
    theta, w, g = math.pi / 3, 1.0, 0.05
    omega0 = 2 * w - 2 * g * math.sqrt(LAM6) / math.tan(theta)
    params = ModelParams(
        omega=TimeProfile.constant(w),
        omega0=TimeProfile.constant(omega0),
        g_mod=TimeProfile.constant(g),
        g_phase=TimeProfile.linear(0.0, -w),
        k=3,
    )
    for t in (0.0, 2.0, 7.7):
        dtheta, dphi = aux_rhs(AuxState(theta, w * t), t, params, LAM6)
        assert abs(dtheta) < 1e-14
        assert_allclose(dphi, w, rtol=1e-12)


def test_rhs_singularity_gate():
    params = constant_params(1.0, 3.0, 0.05)
    with pytest.raises(SingularityError):
        aux_rhs(AuxState(1e-10, 0.0), 0.0, params, LAM6)
    # the pole term is absent when the coupling vanishes
    free = constant_params(1.0, 3.0, 0.0)
    dtheta, dphi = aux_rhs(AuxState(0.0, 0.0), 0.0, free, LAM6)
    assert dtheta == 0.0 and dphi == 0.0


def test_rhs_array_singularity_reports_first_polar_sample():
    params = constant_params(1.0, 3.0, 0.05)
    ts = np.linspace(0.0, 4.0, 9)
    thetas = np.full(9, 1.0)
    thetas[5] = 1e-10
    with pytest.raises(SingularityError) as err:
        aux_rhs(AuxState(thetas, np.zeros(9)), ts, params, LAM6)
    assert err.value.time == ts[5]


@pytest.mark.parametrize("kind", ["chirp", "table", "sinusoid"])
def test_rates_at_array_matches_scalar(kind):
    ts = np.linspace(0.0, 10.0, 11)
    profiles = {
        "chirp": dict(g_mod=TimeProfile.chirp(0.05, 0.02, 0.2, 0.01)),
        "table": dict(omega0=TimeProfile.table(ts, 3.0 + 0.1 * np.sin(0.3 * ts))),
        "sinusoid": dict(g_phase=TimeProfile.sinusoid(0.0, 0.4, 0.5)),
    }[kind]
    base = dict(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(2.9),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
    )
    params = ModelParams(**{**base, **profiles}, k=3)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, LAM6, rtol=1e-10)
    times = np.linspace(0.0, 10.0, 97)
    dthetas, dphis = traj.rates_at(times)
    assert dthetas.shape == dphis.shape == times.shape
    for t, dtheta, dphi in zip(times, dthetas, dphis):
        scalar = traj.rates_at(float(t))
        assert isinstance(scalar[0], float) and isinstance(scalar[1], float)
        assert_allclose(scalar, (dtheta, dphi), rtol=0, atol=1e-14)


def test_solve_decoupled_is_stationary():
    params = constant_params(1.0, 3.0, 0.0)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=1e-10)
    assert np.max(np.abs(traj.thetas - math.pi / 3)) < 1e-12
    assert np.max(np.abs(traj.phis)) < 1e-12
    assert residual_check(traj, params, LAM6) < 1e-12


def test_solve_equator_fixed_point():
    params = constant_params(1.0, 3.0, 0.05)
    traj = solve_aux(AuxState(math.pi / 2, 0.0), (0.0, 20.0), params, LAM6, rtol=1e-10)
    assert np.max(np.abs(traj.thetas - math.pi / 2)) < 1e-10
    assert np.max(np.abs(traj.phis)) < 1e-10


def test_solve_certifies_residual():
    params = constant_params(1.0, 2.8, 0.05)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=1e-10)
    assert traj.stats.max_residual <= 100 * 1e-10


def test_phi_continuous_no_wrapping():
    # strong detuning winds phi through many turns without 2 pi jumps
    params = constant_params(1.0, 1.0, 0.01)
    traj = solve_aux(AuxState(math.pi / 2, 0.0), (0.0, 40.0), params, LAM6, rtol=1e-10)
    steps = np.abs(np.diff(traj.phis))
    assert np.max(steps) < 0.2
    assert traj.phis[-1] > 6 * math.pi  # really did wind up


def test_perturbed_trajectory_fails_residual():
    params = constant_params(1.0, 2.8, 0.05)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=1e-10)
    bumped = AuxTrajectory(
        times=traj.times,
        thetas=traj.thetas + 0.01,
        phis=traj.phis,
        params=params,
        lam=traj.lam,
        stats=traj.stats,
        _dense=traj._dense,
    )
    assert residual_check(bumped, params, LAM6) > 1e-3


def test_residual_decreases_with_rtol():
    # a constant drive is integrated exactly at any rtol; a sinusoidal
    # detuning is not, and its residual follows the ODE tolerance
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.sinusoid(2.8, 0.1, 0.7),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    residuals = []
    for rtol in (1e-6, 4e-7, 1.6e-7):
        traj = solve_aux(
            AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=rtol, certify=False
        )
        residuals.append(residual_check(traj, params, LAM6))
    assert residuals[0] > residuals[1] > residuals[2]


def test_rhs_matches_derivative_of_solution():
    # the analytic rate agrees with an independent derivative of the sampled
    # solution to the certification budget (a bare centered difference cannot
    # reach 10*rtol: its truncation + data-noise floor sits near 1e-7)
    params = constant_params(1.0, 2.8, 0.05)
    rtol = 1e-10
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=rtol)
    dtheta_fd = spline_derivative(traj.times, traj.thetas)
    worst = 0.0
    for i in range(0, traj.times.size, 200):
        dtheta, _ = aux_rhs(
            AuxState(traj.thetas[i], traj.phis[i]), float(traj.times[i]), params, LAM6
        )
        worst = max(worst, abs(dtheta - dtheta_fd[i]))
    assert worst < 100 * rtol


def test_singularity_during_integration_reports_time():
    # drive theta into the pole: imaginary coupling pushes theta downward
    params = constant_params(1.0, 3.0, 0.3, math.pi / 2)
    with pytest.raises(SingularityError) as err:
        solve_aux(AuxState(0.35, 0.0), (0.0, 20.0), params, lambda_value(2, 3), rtol=1e-10)
    assert err.value.time is not None


def test_window_validation():
    params = constant_params(1.0, 3.0, 0.05)
    with pytest.raises(ConfigurationError):
        solve_aux(AuxState(1.0, 0.0), (5.0, 5.0), params, LAM6)
    traj = solve_aux(AuxState(1.0, 0.0), (0.0, 1.0), params, LAM6)
    with pytest.raises(ConfigurationError):
        traj.state_at(2.0)


def test_adiabatic_matched_theta_solves_constraint():
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(2.5),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    lam = lambda_value(1, 3)
    theta = adiabatic_matched_theta(params, lam)
    lhs = (3.0 * 1.0 - 2.5 - 1.0) * math.sin(theta)
    rhs = 2 * 0.05 * math.sqrt(lam) * math.cos(theta)
    assert_allclose(lhs, rhs, atol=1e-12)
    with pytest.raises(ConfigurationError):
        adiabatic_matched_theta(constant_params(1.0, 2.5, 0.0), lam)


@pytest.mark.parametrize(
    "omega0,g_mod,m", [(2.5, 0.05, 1), (3.0, 0.3, 0), (1.0, 2.0, 5), (4.9, 1e-4, 2)]
)
def test_adiabatic_matched_theta_matches_brentq(omega0, g_mod, m):
    # bisection finds the root that scipy's brentq finds on the same bracket
    from scipy.optimize import brentq

    params = constant_params(1.0, omega0, g_mod)
    lam = lambda_value(m, 3)
    a, b = 3.0 - omega0 - 1.0, 2.0 * g_mod * math.sqrt(lam)
    def f(theta):
        return a * math.sin(theta) - b * math.cos(theta)

    reference = brentq(f, 1e-12, math.pi - 1e-12, xtol=1e-14, rtol=8.9e-16)
    assert abs(adiabatic_matched_theta(params, lam) - reference) <= 2e-14


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda t: math.cos(t) - t, 0.0, 1.0),
        (lambda t: t**3 - 2.0, -1.0, 5.0),
        (lambda t: math.tanh(40.0 * (t - 1.43)), 1.4, 1.5),
        (lambda t: 1e-9 * (t - 0.7), 0.7 - 3e-12, 2.0),
    ],
)
def test_pole_bisection_matches_brentq(f, a, b):
    # the pole locator's bisection against brentq at its default tolerance
    from scipy.optimize import brentq

    assert abs(_bisect(f, a, b, 2e-12) - brentq(f, a, b)) <= 4e-12


def test_table_profile_certifies_via_segmented_integration():
    # piecewise-linear driving has kinks; certification must hold anyway
    ts = np.linspace(0.0, 20.0, 21)
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.table(ts, 3.0 + 0.1 * np.sin(0.3 * ts)),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=1e-10)
    assert traj.stats.max_residual <= 1e-8
    assert len(traj.edge_indices) == 21  # one segment per table panel
    # sample grid contains every breakpoint exactly
    for idx in traj.edge_indices:
        assert np.min(np.abs(ts - traj.times[idx])) == 0.0


def test_table_profile_grid_at_the_floor_has_exactly_the_floor_samples():
    # four segments share three edge samples; the grid still has 2001
    knots = [0.0, 2.5, 5.0, 7.5, 10.0]
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(3.0),
        g_mod=TimeProfile.table(knots, [0.05, 0.06, 0.04, 0.05, 0.05]),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, LAM6)
    assert traj.times.size == traj.stats.n_samples == 2001
    assert [traj.times[i] for i in traj.edge_indices] == knots


def test_chirp_profile_certifies():
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(2.9),
        g_mod=TimeProfile.chirp(0.05, 0.02, 0.2, 0.01),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=1e-10)
    assert traj.stats.max_residual <= 1e-8


def test_residual_series_shape_and_export_columns():
    params = constant_params(1.0, 2.8, 0.05)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 5.0), params, LAM6, rtol=1e-10)
    series = residual_series(traj, params, LAM6)
    assert series.shape == traj.times.shape
    assert np.all(series >= 0)
    # certification keeps the series it computed, for the CSV column
    assert np.array_equal(traj.residuals, series)
    assert traj.stats.max_residual == np.max(series)
    # other params than the trajectory's own are not answered from the cache
    assert residual_check(traj, constant_params(1.0, 2.9, 0.05), LAM6) > 1e-3


def test_solver_stats_first_try_certification():
    params = constant_params(1.0, 2.8, 0.05)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=1e-10)
    assert traj.stats.refinements == 0
    # the first pass runs one refinement notch below the requested rtol
    assert traj.stats.rtol == 1e-10
    assert traj.stats.effective_rtol == 1e-10 / 16


def test_solver_stats_count_accepted_steps_over_segments(monkeypatch):
    # n_steps counts accepted steps, as PropagationResult does: the same
    # Magnus integration, replayed here segment by segment between the table
    # knots, takes that many steps and evaluations
    integrations = []
    real = auxiliary.magnus

    def recording(*args):
        integrations.append(args)
        return real(*args)

    monkeypatch.setattr(auxiliary, "magnus", recording)
    knots = [0.0, 1.5, 3.0, 4.5, 6.0]
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(3.0),
        g_mod=TimeProfile.table(knots, [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    initial = AuxState(math.pi / 3, 0.0)
    traj = solve_aux(initial, (0.0, 6.0), params, LAM6, rtol=1e-10, atol=1e-12)
    assert traj.stats.refinements == 0 and len(integrations) == 1
    field, _, vectors, kinks, tol, failure, shift = integrations[0]
    assert kinks.tolist() == knots[1:-1] and tol == (1e-10 + 1e-12) / 16
    steps, calls = 0, 0
    for a, b in zip(knots[:-1], knots[1:]):
        sol = real(field, (a, b), vectors, np.empty(0), tol, failure, shift)
        vectors = sol.states[-1, :3].reshape(3, 1)
        steps += sol.times.size - 1
        calls += sol.nfev
    assert (traj.stats.n_steps, traj.stats.n_rhs_evaluations) == (steps, calls)


# the chirp/table/sinusoid drive of the benchmark's driven scenario
DRIVEN = ModelParams(
    omega=TimeProfile.constant(1.0),
    omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
    g_mod=TimeProfile.table([0.0, 2.5, 5.0, 7.5, 10.0], [0.05, 0.08, 0.04, 0.07, 0.05]),
    g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
    k=3,
)


# a coupling that turns at a constant rate, started off its fixed point: the
# drive frame makes h' constant, but n'_z swings about it at |2 h'| ~ 1
LINEAR_PHASE = replace(constant_params(1.0, 3.0, 0.05), g_phase=TimeProfile.linear(0.0, -1.0))


@pytest.mark.parametrize(
    "params,t_final",
    [pytest.param(DRIVEN, 10.0, id="driven"), pytest.param(LINEAR_PHASE, 20.0, id="linear-phase")],
)
def test_driven_phases_match_a_tight_reference_solve(params, t_final):
    # the benchmark's driven family, and a linear coupling phase, m = 2 and
    # 10, at the default rtol, in their drive frames, against DOP853 at
    # rtol 1e-13 on the lab-frame rates of the vector, B and G, integrated
    # through G' as printed
    from scipy.integrate import solve_ivp

    lams = [lambda_value(m, 3) for m in (2, 10)]
    window = (0.0, t_final)
    family = _solve_family(AuxState(math.pi / 3, 0.0), window, [params] * 2, lams)

    def rhs(t, state):
        omega, omega0, g = params.evaluate(t)
        n, b_g = state.reshape(2, 5)[:, :3], []
        for (x, y, z), lam in zip(n, lams):
            hx, hy, hz = math.sqrt(lam) * g.real, math.sqrt(lam) * g.imag, 0.5 * (omega0 - 3 * omega)
            inplane = hx * x + hy * y
            b_g.append((*(2 * np.cross([hx, hy, hz], [x, y, z])), inplane + hz * z,
                        hz * (1 - z) - z * inplane / (1 + z)))
        return np.ravel(b_g)

    n0 = [-math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3), 0.0, 0.0]
    times = np.linspace(*window, 201)
    ref = solve_ivp(rhs, window, n0 * 2, method="DOP853", rtol=1e-13, atol=1e-15, t_eval=times)
    ref = ref.y.reshape(2, 5, -1)
    angles, b, g = family_sample(family)(times)
    theta, phi = angles.theta, angles.phi
    n = np.stack([-np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    assert np.max(np.abs(n - ref[:, :3].transpose(1, 2, 0))) < 1e-9
    assert np.max(np.abs(b - ref[:, 3].T)) < 1e-9
    assert np.max(np.abs(g - ref[:, 4].T)) < 1e-9


def test_solver_stats_record_refinement():
    # at a loose atol, the m = 2 block of a chirp/table/sinusoid drive
    # certifies only after one tighter pass; the stats must say so and keep
    # the requested rtol
    rtol = 1e-10
    traj = solve_aux(
        AuxState(1.0471975511965976, 0.0), (0.0, 10.0), DRIVEN, lambda_value(2, 3),
        rtol=rtol, atol=1e-7,
    )
    assert traj.stats.refinements == 1
    assert traj.stats.effective_rtol == rtol / 16**2  # the first pass is at rtol / 16
    assert traj.stats.rtol == rtol
    assert traj.stats.max_residual <= 100 * rtol


def test_solver_stats_record_the_norm_deviation():
    # the integrated invariant vectors stay unit vectors on the kept grid
    traj = solve_aux(
        AuxState(1.0471975511965976, 0.0), (0.0, 10.0), DRIVEN, lambda_value(10, 3),
        rtol=1e-10, atol=1e-12,
    )
    assert 0.0 <= traj.stats.max_norm_deviation <= 1e-9


def _precession(n0, h, ts):
    """n0 rotated about h by the angle 2 |h| t (Rodrigues): dn/dt = 2 h x n for constant h."""
    size = np.linalg.norm(h)
    axis = h / size
    alpha = 2.0 * size * ts[:, None]
    return (
        n0 * np.cos(alpha)
        + np.cross(axis, n0) * np.sin(alpha)
        + axis * np.dot(axis, n0) * (1.0 - np.cos(alpha))
    )


@pytest.mark.parametrize(
    "k,omega0,g_mod,g_phase,ms",
    [
        pytest.param(1, 0.8, 0.05, 0.7, (2,), id="k1-solo"),
        pytest.param(2, 2.6, 0.05, -1.1, (0, 1, 3), id="k2-family"),
        pytest.param(3, 2.9, 0.05, 2.0, (1,), id="k3-solo"),
        pytest.param(3, 3.2, 0.03, -2.5, (0, 2, 4), id="k3-family"),
    ],
)
def test_constant_profiles_match_the_exact_precession(k, omega0, g_mod, g_phase, ms):
    # constant detuning and complex g: the invariant's vector precesses about
    # h = (sqrt(lam) Re g, sqrt(lam) Im g, (w0 - k w) / 2) at the rate 2 |h|
    params = constant_params(1.0, omega0, g_mod, g_phase, k=k)
    theta0, phi0 = 1.1, 0.4
    lams = [lambda_value(m, k) for m in ms]
    trajs = _solve_family(AuxState(theta0, phi0), (0.0, 10.0), [params] * len(lams), lams)
    g = g_mod * np.exp(1j * g_phase)
    n0 = np.array(
        [-math.sin(theta0) * math.cos(phi0), math.sin(theta0) * math.sin(phi0), math.cos(theta0)]
    )
    for lam, traj in zip(lams, trajs):
        root = math.sqrt(lam)
        h = np.array([root * g.real, root * g.imag, 0.5 * (omega0 - k * 1.0)])
        n = _precession(n0, h, traj.times)
        theta = np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2])
        assert np.min(np.sin(theta)) > 0.1  # the reference azimuth stays well defined
        phi = np.unwrap(np.concatenate([[phi0], np.arctan2(n[:, 1], -n[:, 0])]))[1:]
        assert np.max(np.abs(traj.thetas - theta)) <= 1e-8
        assert np.max(np.abs(traj.phis - phi)) <= 1e-8


@pytest.mark.parametrize(
    "params,lam,n_samples,capped",
    [
        pytest.param(constant_params(1.0, 3.0, 2.0), 1716, _SAMPLE_CAP, True, id="g2-lambda1716-capped"),
        pytest.param(constant_params(1.0, 3.0, 0.05), 1716, 3322, False, id="g0.05-lambda1716-uncapped"),
        pytest.param(constant_params(0.1, 0.0, 0.0), LAM6, 2001, False, id="detuning-0.3-floor"),
    ],
)
def test_solver_stats_record_grid_size_and_cap(params, lam, n_samples, capped):
    # the density rule follows the frame vector's precession rate 2 |h'|,
    # 2 sqrt(lam) |g| at resonance: it asks for more samples than the cap at
    # g = 2, lambda = 1716; at g = 0 the vector stands still in the frame
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, lam, certify=False)
    assert traj.stats.n_samples == traj.times.size == n_samples
    assert traj.stats.sample_cap_hit is capped


# resonant, g = 3: lambda = 1716 precesses too fast to certify on the capped
# grid (8.91e-8 after the first pass and after one refinement: the constant
# drive is integrated exactly, so only the grid's error is left)
CAPPED = constant_params(1.0, 3.0, 3.0)


def _count_passes(monkeypatch):
    """The solver tolerance of each angle integration, as it is made."""
    passes = []
    real = auxiliary.magnus

    def counting(*args, **kwargs):
        passes.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(auxiliary, "magnus", counting)
    return passes


def test_certification_error_names_the_sample_cap(monkeypatch):
    # CAPPED with a slow sweep of the detuning, which the integration does
    # not take exactly: the first refinement lowers the residual by less
    # than a factor of 2, the grid, not the ODE, holds it up, so the error
    # comes after 2 passes
    swept = replace(CAPPED, omega0=TimeProfile.sinusoid(3.0, 1e-3, 0.5))
    passes = _count_passes(monkeypatch)
    with pytest.raises(CertificationError, match=f"capped at {_SAMPLE_CAP} samples$"):
        solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), swept, 1716)
    assert len(passes) == 2 and passes[1] == passes[0] / 16


@pytest.mark.parametrize(
    "window,params,lam",
    [
        pytest.param((0.0, 10.0), CAPPED, 1716, id="capped-grid"),
        pytest.param((0.0, 1e-9), constant_params(1.0, 3.0, 0.05), 60, id="short-window"),
    ],
)
def test_an_exact_integration_is_not_refined(window, params, lam, monkeypatch):
    # a constant drive is integrated exactly, so a tighter pass would take
    # the same steps and give the same residual: a solve that fails its
    # certificate fails after one integration (the short window's residual
    # is the grid's rounding)
    passes = _count_passes(monkeypatch)
    with pytest.raises(CertificationError):
        solve_aux(AuxState(math.pi / 3, 0.0), window, params, lam)
    assert len(passes) == 1


@pytest.mark.parametrize(
    "theta0,params,lam",
    [
        pytest.param(0.02, constant_params(1.0, 3.0, 0.05), 1716, id="near-pole-lambda1716"),
        pytest.param(math.pi / 3, constant_params(400.0 / 3.0, 0.0, 0.0), LAM6, id="g0-detuning400"),
    ],
)
def test_smooth_certificate_needs_no_cap_and_no_refinement(theta0, params, lam):
    # near the pole phi turns fast, and at g = 0 it turns at the detuning;
    # the frame vector does neither, so its grid stays small and the first
    # integration certifies
    traj = solve_aux(AuxState(theta0, 0.0), (0.0, 10.0), params, lam)
    assert traj.stats.refinements == 0 and not traj.stats.sample_cap_hit
    assert traj.stats.n_samples < _SAMPLE_CAP
    assert traj.stats.max_residual <= 1e-8


def test_detuned_coupled_drive_sizes_the_grid_for_its_turn():
    # at detuning 10 the coupling turns in the frame at Delta0 = 10, far
    # faster than the precession 2 |h'| = 1.8: the grid follows the turn
    params = constant_params(1.0, -7.0, 0.05)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, lambda_value(5, 3))
    assert traj.stats.n_samples > 4 * 2001
    assert traj.stats.refinements == 0 and traj.stats.max_residual <= 1e-8


@pytest.mark.parametrize(
    "theta0,t1,params,ms",
    [
        pytest.param(0.02, 10.0, constant_params(1.0, 3.0, 0.05), [10], id="near-pole-lambda1716"),
        pytest.param(math.pi / 3, 5.0, constant_params(1.0, 3.0, 0.05), range(13), id="coherent-xi1"),
        pytest.param(math.pi / 3, 10.0, DRIVEN, [2, 10], id="driven-table-knots"),
    ],
)
def test_density_rule_keeps_the_stencil_error_within_its_budget(theta0, t1, params, ms):
    # the rule sizes the grid so that the sixth-order stencils add at most
    # 10 rtol to the printed residual: on a grid twice as dense their error
    # is 64 times smaller, so each member's worst residual moves by less
    rtol = 1e-10
    lams = [lambda_value(m, 3) for m in ms]
    trajs = _solve_family(AuxState(theta0, 0.0), (0.0, t1), [params] * len(lams), lams, rtol=rtol)
    n = trajs[0].stats.n_samples
    assert n > 2001 and not trajs[0].stats.sample_cap_hit
    edges = np.concatenate([[0.0], params.breakpoints(0.0, t1), [t1]])
    lam_columns = np.array(lams, dtype=float)[None, :]
    worst = []
    for size in (n, 2 * n - 1):
        times, edge_indices = segmented_grid(edges, size)
        states = [traj.state_at(times) for traj in trajs]
        thetas = np.stack([state.theta for state in states], axis=-1)
        phis = np.stack([state.phi for state in states], axis=-1)
        frame = _frame(params, times)
        series = _printed_residual(times, edge_indices, thetas, phis, frame, lam_columns)
        worst.append(np.max(series, axis=0))
    # the rule's grid is the one certification ran on
    assert np.array_equal(worst[0], [traj.stats.max_residual for traj in trajs])
    assert np.max(np.abs(worst[0] - worst[1])) < 10 * rtol


def closed_form_errors(traj: AuxTrajectory, initial: AuxState, t):
    """Largest errors of a constant-drive solve's n, B and G (mod 2 pi) at
    the times t against the closed form: n precesses rigidly about h, B is
    (h . n0) t, and G is half the area that n sweeps, from signed solid
    angles E(p, a, b) (Van Oosterom & Strackee) in the paper's gauge."""
    omega, omega0, g = traj.params.evaluate(0.0)
    root = math.sqrt(traj.lam)
    h = np.array([root * g.real, root * g.imag, (omega0 - traj.params.k * omega) / 2])
    axis = h / np.linalg.norm(h) if h.any() else np.array([0.0, 0.0, 1.0])  # h = 0: n stays
    n0 = np.array([-math.sin(initial.theta) * math.cos(initial.phi),
                   math.sin(initial.theta) * math.sin(initial.phi), math.cos(initial.theta)])
    angle = 2 * np.linalg.norm(h) * t  # Rodrigues: n = R(axis, angle) n0
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    n = n0 * c + np.cross(axis, n0) * s + np.outer(1 - c, axis * (axis @ n0))

    def area(p):  # E(p, n0, n)
        return 2 * np.arctan2(np.cross(n0, n) @ p, 1 + p @ n0 + n @ p + n @ n0)

    g_ref = (area(np.array([0.0, 0.0, 1.0])) + angle * (1 - axis @ n0) - area(axis)) / 2
    angles, b, g_num = family_sample([traj])(t)
    theta, phi = angles.theta[:, 0], angles.phi[:, 0]
    n_num = np.stack([-np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], -1)
    g_diff = (g_num[:, 0] - g_ref + math.pi) % (2 * math.pi) - math.pi
    return np.max(np.abs(n_num - n)), np.max(np.abs(b[:, 0] - (h @ n0) * t)), np.max(np.abs(g_diff))


@pytest.mark.parametrize(
    "drive,m,initial,t_final",
    [
        ((1.0, 3.0, 0.05, 0.0), 2, AuxState(math.pi / 3, 0.0), 10.0),
        ((1.2, 4.1, 0.2, -1.0), 4, AuxState(0.9, 0.4), 3.3),
    ],
)
def test_constant_drive_solve_matches_the_closed_form(drive, m, initial, t_final):
    # a third route, independent of the solve and the oracle, for drives
    # that stay clear of the poles; at rtol 1e-12 the errors read <= 1.1e-12
    params = constant_params(*drive)
    traj = solve_aux(initial, (0.0, t_final), params, lambda_value(m, 3), rtol=1e-12, atol=1e-14)
    errors = closed_form_errors(traj, initial, np.linspace(0.0, t_final, 201))
    assert max(errors) < 1e-11


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    m=st.integers(0, 5),
    omega=st.floats(0.5, 1.5),
    omega0=st.floats(1.0, 5.0),
    g_mod=st.floats(0.0, 0.3),
    g_phase=st.floats(-math.pi, math.pi),
    theta0=st.floats(0.02, math.pi - 0.02),
    phi0=st.floats(-math.pi, math.pi),
    t_final=st.floats(0.5, 5.0),
)
# ROADMAP item 6's constant-drive reproduction: within 1 + cos theta <= 6.2e-4
# of the south pole, where G was 2.05e-7 off while G' was integrated
@example(m=5, omega=1.1546, omega0=4.6986, g_mod=0.294, g_phase=-2.1004,
         theta0=1.1677, phi0=0.7157, t_final=4.6761)  # fmt: skip
def test_constant_drives_match_the_closed_form_or_raise_a_typed_error(
    m, omega, omega0, g_mod, g_phase, theta0, phi0, t_final
):
    # ROADMAP item 11's ranges, with no draw left out: n, B and G (mod 2 pi)
    # within the oracle's amplitude bound of the closed form, at the default
    # tolerances, or a typed error
    params = constant_params(omega, omega0, g_mod, g_phase)
    initial = AuxState(theta0, phi0)
    try:
        traj = solve_aux(initial, (0.0, t_final), params, lambda_value(m, 3))
    except SusyJCError:
        return
    errors = closed_form_errors(traj, initial, np.linspace(0.0, t_final, 201))
    assert max(errors) < MAX_AMPLITUDE_ERROR


def test_largest_coupled_lambda_that_certifies_within_the_cap():
    # resonant drive, g = 0.05: every m up to 146 certifies on the capped
    # grid; the drive is constant, so one Magnus step is exact and no
    # refinement is needed.  From m = 147 the grid error there exceeds the
    # bound, and the error names the cap
    params = constant_params(1.0, 3.0, 0.05)
    initial = AuxState(math.pi / 3, 0.0)
    traj = solve_aux(initial, (0.0, 10.0), params, lambda_value(146, 3))
    assert traj.stats.sample_cap_hit and traj.stats.max_residual <= 1e-8
    assert traj.stats.refinements == 0
    # no oracle reaches m = 146; the closed form checks n, B and G there
    errors = closed_form_errors(traj, initial, np.linspace(0.0, 10.0, 201))
    assert max(errors) < MAX_AMPLITUDE_ERROR
    with pytest.raises(CertificationError, match=f"capped at {_SAMPLE_CAP} samples$"):
        solve_aux(initial, (0.0, 10.0), params, lambda_value(147, 3))


def test_window_error_names_first_outside_time_not_the_grid():
    params = constant_params(1.0, 3.0, 0.05)
    traj = solve_aux(AuxState(1.0, 0.0), (0.0, 1.0), params, LAM6)
    grid = np.linspace(0.0, 1.0, 201)
    grid[150] = 1.5
    with pytest.raises(ConfigurationError) as err:
        traj.state_at(grid)
    message = str(err.value)
    assert message == "t=1.5 outside trajectory window [0.0, 1.0]; 1 of 201 times outside"
    with pytest.raises(ConfigurationError, match=r"^t=-0.5 outside trajectory window \[0.0, 1.0\]$"):
        traj.state_at(-0.5)
    # NaN compares False with both ends of the window: it is outside too
    with pytest.raises(ConfigurationError, match=r"^t=nan outside trajectory window \[0.0, 1.0\]$"):
        traj.state_at(math.nan)
    with pytest.raises(ConfigurationError, match=r"^t=nan outside .*; 2 of 3 times outside$"):
        traj.state_at([0.5, math.nan, math.inf])


def test_family_certification_error_names_a_lambda_and_the_sample_cap():
    # the capped solve above, with a slow member beside it: the message
    # locates the failing member; a solo solve names no lambda
    with pytest.raises(CertificationError) as err:
        _solve_family(AuxState(math.pi / 3, 0.0), (0.0, 10.0), [CAPPED] * 2, [LAM6, 1716])
    message = str(err.value)
    theta0 = math.pi / 3
    assert message.endswith(
        f"on a grid capped at {_SAMPLE_CAP} samples (lambda=1716.0, theta0={theta0})"
    )


def test_family_evaluates_its_dense_output_once_per_pass(sample_calls):
    # one (n, 4M) sample block per certification pass, whatever the number
    # of members; the grid is sized from the profiles, with no probe
    lams = [lambda_value(m, 3) for m in (0, 5, 10)]
    # a loose atol makes the family of a non-constant drive refine
    family = _solve_family(
        AuxState(math.pi / 3, 0.0), (0.0, 10.0), [DRIVEN] * len(lams), lams, atol=1e-7
    )
    stats = family[0].stats
    assert stats.refinements >= 1
    blocks = [(size, columns) for kind, size, columns in sample_calls if kind == "dense"]
    assert blocks == [(stats.n_samples, 4 * len(lams))] * (1 + stats.refinements)


def test_family_singularity_error_names_the_member_at_the_pole():
    # imaginary coupling drives theta into the pole; the larger lambda gets
    # there first, and the error names it, not the family's first member
    params = constant_params(1.0, 3.0, 0.3, math.pi / 2)
    lams = [LAM6, lambda_value(2, 3)]
    with pytest.raises(SingularityError, match=r"\(lambda=60\.0, theta0=0\.35\)$") as err:
        _solve_family(AuxState(0.35, 0.0), (0.0, 20.0), [params] * len(lams), lams)
    assert err.value.time is not None
    with pytest.raises(SingularityError) as solo:
        solve_aux(AuxState(0.35, 0.0), (0.0, 20.0), params, lams[1])
    assert "lambda" not in str(solo.value)


def test_pole_time_belongs_to_the_trajectory():
    # an imaginary coupling turns the lambda = 60 vector about y, through the
    # pole at t = theta0 / (2 sqrt(lam) |g|); the error reports that time,
    # whether the member is solved alone or inside a family
    params = constant_params(1.0, 3.0, 0.3, math.pi / 2)
    lam = lambda_value(2, 3)
    times = []
    for lams in ([LAM6, lam], [lam]):
        with pytest.raises(SingularityError) as err:
            _solve_family(AuxState(0.35, 0.0), (0.0, 20.0), [params] * len(lams), lams)
        times.append(err.value.time)
    assert abs(times[0] - times[1]) <= 1e-6
    assert abs(times[1] - 0.35 / (0.6 * math.sqrt(lam))) <= 1e-6


@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(
    theta0=st.floats(0.3, math.pi - 0.3),
    g=st.floats(0.01, 0.08),
    detuning=st.floats(-0.2, 0.2),
    ms=st.sets(st.integers(0, 6), min_size=1, max_size=7),
    t_final=st.floats(0.2, 2.0),
)
def test_family_members_match_their_solo_solves(theta0, g, detuning, ms, t_final):
    # one batched solve of an m-subset gives every member the trajectory of
    # its own solve_aux, or a typed error
    params = constant_params(1.0, 3.0 - detuning, g)
    lams = [lambda_value(m, 3) for m in sorted(ms)]
    initial = AuxState(theta0, 0.0)
    try:
        family = _solve_family(initial, (0.0, t_final), [params] * len(lams), lams)
    except SusyJCError:
        return
    assert [member.lam for member in family] == [float(lam) for lam in lams]
    for lam, member in zip(lams, family):
        try:
            solo = solve_aux(initial, (0.0, t_final), params, lam)
        except SusyJCError:
            continue
        got = member.state_at(solo.times)
        assert np.max(np.abs(got.theta - solo.thetas)) <= 1e-7
        assert np.max(np.abs(got.phi - solo.phis)) <= 1e-7


def test_family_members_start_from_their_own_angles():
    # an (M,) initial gives each member its own start, as its solo solve;
    # M equal entries build the scalar start's state bit for bit
    params = constant_params(1.0, 3.0, 0.05)
    lams = [LAM6, lambda_value(1, 3)]
    starts = [(math.pi / 3, 0.0), (2.0, 0.5)]
    initial = AuxState(np.array([s[0] for s in starts]), np.array([s[1] for s in starts]))
    family = _solve_family(initial, (0.0, 8.0), [params] * len(lams), lams)
    for (theta0, phi0), lam, member in zip(starts, lams, family):
        solo = solve_aux(AuxState(theta0, phi0), (0.0, 8.0), params, lam)
        got = member.state_at(solo.times)
        assert (member.thetas[0], member.phis[0]) == (theta0, phi0)
        assert np.max(np.abs(got.theta - solo.thetas)) <= 1e-9
        assert np.max(np.abs(got.phi - solo.phis)) <= 1e-9
    shared = _solve_family(AuxState(math.pi / 3, 0.0), (0.0, 8.0), [params] * 2, lams)
    copies = _solve_family(AuxState(np.full(2, math.pi / 3), np.zeros(2)), (0.0, 8.0), [params] * 2, lams)
    for a, b in zip(shared, copies):
        assert np.array_equal(a.thetas, b.thetas) and np.array_equal(a.phis, b.phis)


def test_family_start_at_a_pole_names_that_member():
    params = constant_params(1.0, 3.0, 0.05)
    lams = [LAM6, lambda_value(1, 3)]
    initial = AuxState(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(SingularityError, match=r"\(lambda=24\.0, theta0=0\.0\)$") as err:
        _solve_family(initial, (0.0, 1.0), [params] * len(lams), lams)
    assert err.value.time == 0.0
    with pytest.raises(ConfigurationError, match="do not fit 2 members"):
        _solve_family(AuxState(np.ones(3), 0.0), (0.0, 1.0), [params] * len(lams), lams)


def test_family_start_at_a_pole_names_its_theta_before_integrating(monkeypatch):
    # two members of equal lambda, one params object each: the coupled second
    # member starts at the pole, and the error tells it by its theta before
    # any integration
    integrations = []
    monkeypatch.setattr(auxiliary, "magnus", lambda *args: integrations.append(args))
    params = [constant_params(1.0, 3.0, 0.05), constant_params(1.0, 2.9, 0.05)]
    initial = AuxState(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(SingularityError, match=r"\(lambda=6\.0, theta0=0\.0\)$") as err:
        _solve_family(initial, (0.0, 1.0), params, [LAM6, LAM6])
    assert err.value.time == 0.0 and integrations == []


def test_an_uncoupled_member_may_start_at_a_pole_beside_a_coupled_one():
    # the pole is live only for a coupled member: an uncoupled one at theta = 0
    # stands still there, as in its solo solve, and the coupled one runs as alone
    coupled, free = constant_params(1.0, 3.0, 0.05), constant_params(1.0, 2.5, 0.0)
    initial = AuxState(np.array([1.0, 0.0]), 0.0)
    family = _solve_family(initial, (0.0, 5.0), [coupled, free], [LAM6, LAM6])
    assert np.all(family[1].thetas == 0.0)
    solo = solve_aux(AuxState(1.0, 0.0), (0.0, 5.0), coupled, LAM6)
    assert np.max(np.abs(family[0].state_at(solo.times).theta - solo.thetas)) <= 1e-9
    assert [member.params for member in family] == [coupled, free]


def test_members_with_their_own_profiles_match_their_solo_solves():
    # distinct params objects: each member keeps its own Delta0 frame, kinks
    # and certification frame; the grid and kinks are the union of theirs,
    # and the detuned middle member's turn sets the grid's density
    params = [DRIVEN, constant_params(1.0, -7.0, 0.05, 0.3), constant_params(1.5, 3.0, 0.04)]
    lams = [lambda_value(2, 3), LAM6, lambda_value(1, 3)]
    starts = np.array([math.pi / 3, 1.2, 2.0])
    family = _solve_family(AuxState(starts, 0.0), (0.0, 10.0), params, lams)
    kinks = DRIVEN.breakpoints(0.0, 10.0)
    assert set(kinks) <= set(family[0].times[list(family[0].edge_indices)])
    for theta0, member_params, lam, member in zip(starts, params, lams, family):
        solo = solve_aux(AuxState(theta0, 0.0), (0.0, 10.0), member_params, lam)
        assert member.params is member_params and member.stats.max_residual <= 1e-8
        assert member.stats.n_samples >= solo.stats.n_samples
        got = member.state_at(solo.times)
        assert np.max(np.abs(got.theta - solo.thetas)) <= 1e-8
        assert np.max(np.abs(got.phi - solo.phis)) <= 1e-8
        # the certificate's residuals are the member's own, on its own frame
        own = residual_series(member, member_params, lam)
        assert np.array_equal(own, member.residuals)


def test_params_must_fit_the_members():
    params = constant_params(1.0, 3.0, 0.05)
    with pytest.raises(ConfigurationError, match="1 params objects do not fit 2 members"):
        _solve_family(AuxState(1.0, 0.0), (0.0, 1.0), [params], [LAM6, LAM6])
