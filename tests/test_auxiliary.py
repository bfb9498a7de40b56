import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from susyjc.auxiliary import _SAMPLE_CAP, AuxTrajectory, _solve_family, residual_series
from susyjc.quadrature import spline_derivative

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
    params = constant_params(1.0, 2.8, 0.05)
    residuals = []
    for rtol in (1e-6, 5e-7, 2.5e-7):
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


def test_solver_stats_first_try_certification():
    params = constant_params(1.0, 2.8, 0.05)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, LAM6, rtol=1e-10)
    assert traj.stats.refinements == 0
    assert traj.stats.effective_rtol == traj.stats.rtol == 1e-10


def test_solver_stats_record_refinement():
    # the m = 10 block of a chirp/table/sinusoid drive certifies only after
    # one tighter pass; the stats must say so and keep the requested rtol
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
        g_mod=TimeProfile.table([0.0, 2.5, 5.0, 7.5, 10.0], [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=3,
    )
    rtol = 1e-10
    traj = solve_aux(
        AuxState(1.0471975511965976, 0.0), (0.0, 10.0), params, lambda_value(10, 3),
        rtol=rtol, atol=1e-12,
    )
    assert traj.stats.refinements == 1
    assert traj.stats.effective_rtol == rtol / 16
    assert traj.stats.rtol == rtol
    assert traj.stats.max_residual <= 100 * rtol


@pytest.mark.parametrize(
    "omega,n_samples,capped",
    [
        pytest.param(5.0, _SAMPLE_CAP, True, id="detuning-15-capped"),
        pytest.param(4.0, 49784, False, id="detuning-12-uncapped"),
        pytest.param(0.1, 2001, False, id="detuning-0.3-floor"),
    ],
)
def test_solver_stats_record_grid_size_and_cap(omega, n_samples, capped):
    # g = 0: the angle rate is the detuning k omega - omega0 = 3 omega, and
    # the density rule asks for more samples than the cap from 15 on
    params = constant_params(omega, 0.0, 0.0)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, LAM6)
    assert traj.stats.n_samples == traj.times.size == n_samples
    assert traj.stats.sample_cap_hit is capped


def test_certification_error_names_the_sample_cap():
    params = constant_params(400.0 / 3.0, 0.0, 0.0)
    with pytest.raises(CertificationError, match=f"capped at {_SAMPLE_CAP} samples"):
        solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, LAM6)


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


def test_family_certification_error_names_a_lambda_and_the_sample_cap():
    # the decoupled detuning-400 solve above, as a two-member family: the
    # message locates the failing member; a solo solve names no lambda
    params = constant_params(400.0 / 3.0, 0.0, 0.0)
    with pytest.raises(CertificationError) as err:
        _solve_family(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, [LAM6, lambda_value(1, 3)])
    message = str(err.value)
    assert message.endswith(f"on a grid capped at {_SAMPLE_CAP} samples (lambda=6.0)")


def test_family_singularity_error_names_the_member_at_the_pole():
    # imaginary coupling drives theta into the pole; the larger lambda gets
    # there first, and the error names it, not the family's first member
    params = constant_params(1.0, 3.0, 0.3, math.pi / 2)
    lams = [LAM6, lambda_value(2, 3)]
    with pytest.raises(SingularityError, match=r"\(lambda=60\.0\)$") as err:
        _solve_family(AuxState(0.35, 0.0), (0.0, 20.0), params, lams)
    assert err.value.time is not None
    with pytest.raises(SingularityError) as solo:
        solve_aux(AuxState(0.35, 0.0), (0.0, 20.0), params, lams[1])
    assert "lambda" not in str(solo.value)


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
        family = _solve_family(initial, (0.0, t_final), params, lams)
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
