import ast
import importlib
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline

import susyjc

from susyjc import (
    AuxState,
    FockSpaceSpec,
    ModelParams,
    SubspaceBlock,
    TimeProfile,
    embed_state,
    lambda_value,
    propagate,
    solve_aux,
)
from susyjc import magnus, quadrature
from susyjc.auxiliary import _solve_family
from susyjc.errors import ConfigurationError
from susyjc.evolution import PhaseIntegrals
from susyjc.magnus import MagnusSolution
from susyjc.quadrature import (
    RTOL_FLOOR,
    Dop853Solution,
    cumulative_antiderivative,
    dop853,
    integrate_segments,
    segmented_grid,
    spline_derivative,
)

# the chirp/table/sinusoid drive of the benchmark's driven scenario
DRIVEN = ModelParams(
    omega=TimeProfile.constant(1.0),
    omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
    g_mod=TimeProfile.table([0.0, 2.5, 5.0, 7.5, 10.0], [0.05, 0.08, 0.04, 0.07, 0.05]),
    g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
    k=3,
)


def test_kinked_solution_single_time_matches_array_column():
    # a kink is a step boundary: the solve over DRIVEN's table knots is one
    # Magnus solution whose step times hold each knot once, and scalar,
    # array and one-element calls agree bit for bit at and between them
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), DRIVEN, lambda_value(2, 3))
    dense = traj._dense
    assert isinstance(dense, MagnusSolution) and traj.stats.refinements == 0
    assert np.all(np.diff(dense.times) > 0)
    for knot in (2.5, 5.0, 7.5):
        assert np.count_nonzero(dense.times == knot) == 1, knot
    assert dense.times.size - 1 == traj.stats.n_steps and dense.nfev == traj.stats.n_rhs_evaluations
    # interior edges, both ends, and times inside segments
    times = np.array([0.0, 1.1, 2.5, 2.5 + 1e-9, 4.2, 5.0, 7.5, 9.3, 10.0 - 1e-12, 10.0])
    rows = dense(times)  # time first: the frame vector x, y, z, then B, G
    assert rows.shape == (times.size, 5)
    for i, t in enumerate(times):
        single = dense(t)
        assert single.shape == (5,)
        assert np.array_equal(single, rows[i]), t
        assert np.array_equal(dense(float(t)), rows[i]), t
        one = dense(times[i : i + 1])
        assert one.shape == (1, 5)
        assert np.array_equal(one[0], rows[i]), t
    # a knot takes the state the solver restarted from
    for knot in (2.5, 5.0, 7.5):
        assert np.array_equal(dense(knot), dense.states[np.flatnonzero(dense.times == knot)[0]])
    assert dense(times[:0]).shape == (0, 5)


def test_a_step_boundary_belongs_to_the_step_that_starts_there_in_ascending_time():
    # two steps whose dense rows miss the next state by 1 (delta row 1, not
    # 10): at its end a step gives states[i] + 1, at its start states[i]
    coefficients = np.zeros((2, 7, 1))
    coefficients[:, 0] = 1.0
    states = np.array([[0.0], [10.0], [20.0]])
    forward = Dop853Solution([0.0, 1.0, 2.0], states, coefficients, 0, None)
    assert [forward(t)[0] for t in (0.0, 1.0, 2.0)] == [0.0, 10.0, 11.0]
    backward = Dop853Solution([2.0, 1.0, 0.0], states, coefficients, 0, None)
    assert [backward(t)[0] for t in (0.0, 1.0, 2.0)] == [11.0, 1.0, 0.0]
    assert np.array_equal(backward(np.array([0.0, 1.0, 2.0]))[:, 0], [11.0, 1.0, 0.0])


@pytest.mark.parametrize("window", [(0.0, 10.0), (10.0, 0.0)], ids=["forward", "backward"])
def test_a_knot_belongs_to_the_segment_that_starts_there(monkeypatch, window):
    # integrate_segments joins DRIVEN's four runs into one solution; at each
    # knot it gives, bit for bit, the value of the run over the segment that
    # starts there in ascending time, and inside a segment that run's value
    def rhs(t, y):
        omega, omega0, g = DRIVEN.evaluate(t)
        return [omega0 * y[1] - g.real * y[2], -omega0 * y[0], g.real * y[0] - omega * y[2]]

    def failed(message, time):
        return AssertionError(message)

    def solve():
        y0 = np.array([0.6, 0.0, 0.8])
        kinks = DRIVEN.breakpoints(0.0, 10.0)
        return integrate_segments(rhs, window, y0, kinks, 1e-10, 1e-12, failed)

    runs = [run for _, run in _captured_runs(monkeypatch, solve)]
    joined = solve()
    assert len(runs) == 4 and joined.nfev == sum(run.nfev for run in runs)
    assert joined.times.size - 1 == sum(run.times.size - 1 for run in runs)
    assert np.array_equal(joined.times[[0, -1]], window)
    # the runs in ascending time: segment i is [2.5 i, 2.5 (i + 1)]
    ascending = runs if window[0] < window[1] else runs[::-1]
    for i, run in enumerate(ascending):
        start = 2.5 * i
        assert np.count_nonzero(joined.times == start) == 1
        inside = np.linspace(start, start + 2.5, 13)[1:-1]
        assert np.array_equal(joined(start), run(start)), start
        assert np.array_equal(joined(np.array([start])), run(np.array([start]))), start
        assert np.array_equal(joined(inside), run(inside)), start
    assert np.array_equal(joined(10.0), ascending[-1](10.0))


@pytest.mark.parametrize(
    "edges", [[0.0, 10.0], [0.0, 2.5, 5.0, 7.5, 10.0], [0.0, 0.3, 7.1, 9.9, 10.0]]
)
@pytest.mark.parametrize("n", [2001, 4590, 60001])
def test_segmented_grid_has_exactly_n_samples(edges, n):
    times, edge_indices = segmented_grid(np.array(edges), n)
    assert times.size == n
    assert [times[i] for i in edge_indices] == edges
    # each segment is uniform
    for a, b in zip(edge_indices[:-1], edge_indices[1:]):
        assert np.ptp(np.diff(times[a : b + 1])) <= 1e-12 * (edges[-1] - edges[0])


def test_segmented_grid_gives_a_short_segment_eight_samples():
    # 0.01 of the window would get 2 of 2000 gaps; it gets 7, the grid 5 more
    times, edge_indices = segmented_grid(np.array([0.0, 9.99, 10.0]), 2001)
    assert edge_indices == (0, 1998, 2005) and times.size == 2006


def test_only_quadrature_integrates_or_splines():
    # segments are handled in one module: no other module binds the oracle's
    # ODE solver or the per-segment stencils, and the angle route's Magnus
    # scheme has one home of its own
    homes = {
        quadrature.dop853: "susyjc.quadrature",
        quadrature._segment_derivative: "susyjc.quadrature",
        quadrature._spacing: "susyjc.quadrature",
        magnus._exponent: "susyjc.magnus",
    }
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(susyjc.__path__, "susyjc.")
    ]
    for worker, home in homes.items():
        binders = {
            module.__name__
            for module in modules
            if any(value is worker for value in vars(module).values())
        }
        assert binders == {home}, worker.__name__


def test_only_evolution_integrates_phases():
    # PhaseIntegrals is the one home of the phase integrals: no other module
    # binds the running integral or the geometric rate
    for home, name in (
        ("susyjc.quadrature", "cumulative_antiderivative"),
        ("susyjc.evolution", "phase_rate_geometric"),
    ):
        target = getattr(importlib.import_module(home), name)
        binders = {
            info.name
            for info in pkgutil.iter_modules(susyjc.__path__, "susyjc.")
            if any(value is target for value in vars(importlib.import_module(info.name)).values())
        }
        assert binders - {home} <= {"susyjc.evolution"}, name
        assert "susyjc.evolution" in binders, name


def test_multi_column_antiderivative_matches_per_column_calls():
    # (n, K) integrands share one fit per segment, and each column is bit for
    # bit its own 1-D call, at scalar and array times, across the kinks
    ts, edge_indices = segmented_grid(np.array([0.0, 2.5, 5.0, 7.5, 10.0]), 400)
    ys = np.stack(
        [np.sin(1.3 * ts) + np.abs(ts - 5.0), np.cos(ts) * np.abs(ts - 2.5), np.exp(-0.1 * ts)],
        axis=1,
    )
    together = cumulative_antiderivative(ts, ys, edge_indices)
    alone = [cumulative_antiderivative(ts, ys[:, j], edge_indices) for j in range(ys.shape[1])]
    times = np.array([0.0, 1.1, 2.5, 2.5 + 1e-9, 4.2, 5.0, 7.5, 9.3, 10.0 - 1e-12, 10.0])
    grid = together(times)
    assert grid.shape == (times.size, ys.shape[1])
    for j, column in enumerate(alone):
        assert np.array_equal(grid[:, j], column(times)), j
    for i, t in enumerate(times):
        single = together(float(t))
        assert single.shape == (ys.shape[1],)
        assert np.array_equal(single, grid[i]), t
        assert np.array_equal(single, [column(float(t)) for column in alone]), t


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["1-D", "2-D", "3-D"])
def test_antiderivative_matches_closed_forms_across_kinks(shape):
    # sin(j t) + |t - 5| on the segmented floor grid, a kink at the edge
    # t = 5: each column's running integral is its closed form, at any time
    # in the window, in the shapes of the integrand's trailing axes
    ts, edge_indices = segmented_grid(np.array([0.0, 2.5, 5.0, 7.5, 10.0]), 2001)
    rates = np.arange(1.0, 1.0 + np.prod(shape, dtype=int))
    kink = np.abs(ts - 5.0)[:, None]
    ys = np.sin(np.multiply.outer(ts, rates)) + kink
    ours = cumulative_antiderivative(ts, ys.reshape(ts.shape + shape), edge_indices)
    times = np.concatenate([np.linspace(0.0, 10.0, 997), [2.5, 5.0, 5.0 + 1e-9, 7.5]])
    ramp = np.where(times <= 5.0, 5.0 * times - times**2 / 2, 12.5 + (times - 5.0) ** 2 / 2)
    exact = (1.0 - np.cos(np.multiply.outer(rates, times))) / rates[:, None] + ramp
    got = ours(times)
    assert got.shape == times.shape + ((rates.size,) if shape else ())
    assert np.max(np.abs(got - (exact.T if shape else exact[0]))) <= 1e-12
    at = (1.0 - np.cos(rates * 7.3)) / rates + 12.5 + 2.3**2 / 2  # one scalar time
    assert np.shape(ours(7.3)) == np.shape(got[0])
    assert np.max(np.abs(ours(7.3) - (at if shape else at[0]))) <= 1e-12


def test_phase_integrals_fit_once_per_segment(monkeypatch):
    # the phases come with the solve; int w, the one running integral left
    # to quadrature, takes one pass per smooth segment
    knots = np.array([0.0, 2.5, 5.0, 7.5, 10.0])
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
        g_mod=TimeProfile.table(knots, [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=3,
    )
    block = SubspaceBlock(m=2, k=3, cutoff=8)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, block.lam)
    fits = []
    real = quadrature._spacing

    def counted(ts, fewest):
        if fewest == 6:  # a segment of the running integral (the stencils check 7)
            fits.append(ts.size)
        return real(ts, fewest)

    monkeypatch.setattr(quadrature, "_spacing", counted)
    PhaseIntegrals([traj], [block])
    assert len(fits) == len(traj.edge_indices) - 1 == 4
    assert sum(fits) == traj.times.size + 3  # each interior edge sample starts and ends a fit


def test_phase_integrals_integrate_a_fast_omega_on_the_certification_grid():
    # int w is the one quadrature on the certification grid, which is sized
    # for the angles, not for w: w = 1 + a sin(f t) at f = 20 turns faster
    # than the m = 10 precession, and int w must still be exact to 1e-11
    a, f = 0.1, 20.0
    params = ModelParams(
        omega=TimeProfile.sinusoid(1.0, a, f),
        omega0=TimeProfile.constant(3.0),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    block = SubspaceBlock(m=10, k=3, cutoff=16)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, block.lam)
    assert traj.times.size > 2001  # above the floor: the rule, not the floor, sized it
    ts = np.linspace(0.0, 10.0, 1001)
    _, phi_d, _ = PhaseIntegrals([traj], [block]).sample(ts)
    # phi_d(+1) + phi_d(-1) = 2 (m + k/2) int w
    omega_integral = (phi_d[:, 0, 0] + phi_d[:, 0, 1]) / (2.0 * (block.m + block.k / 2.0))
    exact = ts + a * (1.0 - np.cos(f * ts)) / f
    assert np.max(np.abs(omega_integral - exact)) < 1e-11


def _captured_runs(monkeypatch, solve):
    """(args, result) of every DOP853 run that ``solve()`` makes."""
    runs = []

    def recording(rhs, span, y0, rtol, atol):
        result = dop853(rhs, span, y0, rtol, atol)
        runs.append(((rhs, tuple(span), np.array(y0), rtol, atol), result))
        return result

    monkeypatch.setattr(quadrature, "dop853", recording)
    solve()
    monkeypatch.undo()
    assert runs
    return runs


# the acceptance suite's sinusoidal omega0: smooth and time-dependent, so the
# oracle integrates it in one segment (constant profiles it does not integrate)
SINUSOIDAL = ModelParams(
    omega=TimeProfile.constant(1.0),
    omega0=TimeProfile.sinusoid(3.0, 0.1, 0.3),
    g_mod=TimeProfile.constant(0.05),
    g_phase=TimeProfile.constant(0.0),
    k=3,
)


def _stacked_oracle(window, params=SINUSOIDAL):
    spec = FockSpaceSpec(cutoff=16, k=3, guard=3)
    turn = [math.cos(0.4), math.sin(0.4) * 1j]
    stack = np.array([embed_state(SubspaceBlock.for_space(spec, m), turn) for m in (0, 1, 2)])
    t_eval = np.linspace(min(window), max(window), 11)
    return lambda: propagate(stack, window, params, spec, t_eval=t_eval)


def _bloch_family():
    """DOP853 on a real state with a Python right-hand side: three frame
    vectors of the resonant drive, dn/dt = 2 h x n, with B and G beside."""
    roots = np.array([2.0 * math.sqrt(lambda_value(m, 3)) * 0.05 for m in (0, 1, 2)])

    def rhs(t, y):
        x, yy, z = y[:3], y[3:6], y[6:9]
        return np.concatenate([0 * x, -roots * z, roots * yy, 0.5 * roots * x, 0 * x])

    a = math.pi / 3
    y0 = np.concatenate([np.repeat([-math.sin(a), 0.0, math.cos(a)], 3), np.zeros(6)])
    return quadrature.dop853(rhs, (0.0, 10.0), y0, 1e-10 / 16 / math.sqrt(3), 1e-12 / 16 / math.sqrt(3))


@pytest.mark.parametrize(
    "solve,segments",
    [
        pytest.param(_bloch_family, 1, id="bloch-family-real"),
        pytest.param(_stacked_oracle((0.0, 5.0)), 1, id="stacked-oracle-forward"),
        pytest.param(_stacked_oracle((5.0, 0.0)), 1, id="stacked-oracle-backward"),
        pytest.param(_stacked_oracle((0.0, 10.0), DRIVEN), 4, id="table-kinked-window"),
    ],
)
def test_dop853_takes_the_steps_of_scipy(monkeypatch, solve, segments):
    # scipy's solve_ivp is the reference: the same accepted step times and
    # right-hand-side calls, and dense output equal to rounding, on a real
    # (5M,) Bloch family vector, the stacked oracle's (re, im) view both
    # ways and the oracle's window cut at table knots
    runs = _captured_runs(monkeypatch, solve)
    assert len(runs) == segments
    for (rhs, span, y0, rtol, atol), ours in runs:
        ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=rtol, atol=atol, dense_output=True)
        assert np.array_equal(ours.times, ref.t)
        assert ours.nfev == ref.nfev
        assert ours.states.dtype == ref.y.dtype
        assert np.array_equal(ours.states, ref.y.T)
        times = np.linspace(span[0], span[1], 333)
        scale = np.max(np.abs(ref.sol(times)))
        assert np.max(np.abs(ours(times) - ref.sol(times).T)) <= 1e-14 * scale
        assert np.max(np.abs(ours(times[100]) - ref.sol(times[100]))) <= 1e-14 * scale


def test_dop853_rejects_an_rtol_below_its_floor():
    # the callers clamp at the floor; the solver itself does not clamp quietly
    with pytest.raises(ConfigurationError, match="below the DOP853 floor"):
        dop853(lambda t, y: -y, (0.0, 1.0), np.ones(2), 0.5 * RTOL_FLOOR, 1e-12)
    ours = dop853(lambda t, y: -y, (0.0, 1.0), np.ones(2), RTOL_FLOOR, 1e-15)
    assert abs(ours.states[-1, 0] - math.exp(-1.0)) < 1e-14


def test_dop853_rejects_a_complex_state():
    # the port is real: a complex problem is integrated through its real view
    with pytest.raises(ConfigurationError, match="real states"):
        dop853(lambda t, y: 1j * y, (0.0, 1.0), np.array([1.0 + 0j, 0.5j]), 1e-10, 1e-12)


def test_dop853_on_an_empty_window_stays_put():
    ours = dop853(lambda t, y: -y, (2.0, 2.0), np.array([1.0, 0.5]), 1e-10, 1e-12)
    assert ours.times.tolist() == [2.0] and ours.nfev == 1 and ours.message is None
    assert np.array_equal(ours(2.0), [1.0, 0.5])
    assert ours(np.array([2.0, 2.0])).shape == (2, 2)


def test_dop853_stops_where_scipy_does_when_the_solution_blows_up():
    # y' = y^2, y(0) = 1 blows up at t = 1: the step falls under the spacing
    # of the floats there, and the run stops with scipy's message, at
    # scipy's time, after scipy's steps (and its dense output's calls)
    rhs = lambda t, y: y**2
    ours = dop853(rhs, (0.0, 2.0), [1.0], 1e-10, 1e-12)
    ref = solve_ivp(rhs, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True)
    assert ours.message == ref.message == "Required step size is less than spacing between numbers."
    assert ours.times[-1] == 1.0000000000082259 and ours.times.size == 270
    assert np.array_equal(ours.times, ref.t) and ours.nfev == ref.nfev


def test_dop853_stops_on_a_nan_state():
    # a NaN state gives a NaN step size, which compares False with the step
    # floor, so only a floor test that catches NaN ends the run: it stops at
    # once with the floor's message, where it started
    ours = dop853(lambda t, y: -y, (0.0, 1.0), np.array([1.0, math.nan]), 1e-8, 1e-10)
    assert ours.message == "Required step size is less than spacing between numbers."
    assert ours.times.tolist() == [0.0]


def test_a_failed_segment_raises_the_callers_failure_at_the_time_reached(monkeypatch):
    # the blow-up past a kink at 0.5: the first segment finishes, the second
    # stops, and its message and time go to ``failure``
    spans = []

    def recording(rhs, span, y0, rtol, atol):
        spans.append(tuple(span))
        return dop853(rhs, span, y0, rtol, atol)

    monkeypatch.setattr(quadrature, "dop853", recording)
    with pytest.raises(RuntimeError) as info:
        integrate_segments(
            lambda t, y: y**2, (0.0, 2.0), np.array([1.0]), np.array([0.5]), 1e-10, 1e-12, RuntimeError
        )
    assert spans == [(0.0, 0.5), (0.5, 2.0)]
    assert info.value.args == ("Required step size is less than spacing between numbers.", 1.000000000007991)


def _spline_derivative_reference(ts, ys, edge_indices):
    """Quintic-spline derivative per segment, an edge taking the next segment's value."""
    out = np.empty_like(ys)
    for a, b in zip(edge_indices[:-1], edge_indices[1:]):
        spline = make_interp_spline(ts[a : b + 1], ys[a : b + 1], k=5)
        out[a : b + 1] = spline.derivative()(ts[a : b + 1])
    return out


@pytest.mark.parametrize(
    "edges",
    [[0.0, 10.0], [0.0, 2.5, 5.0, 7.5, 10.0], [0.0, 0.3, 7.1, 9.99, 10.0]],
    ids=["smooth", "kinked", "short-segments"],
)
def test_stencil_derivative_matches_the_spline_derivative(edges):
    # sixth-order stencils against the quintic splines they replace, and
    # both against the exact derivative, with a kink at every interior edge
    ts, edge_indices = segmented_grid(np.array(edges), 2001)
    kinks = sum(np.abs(ts - e) for e in edges[1:-1])
    ys = np.stack([np.sin(1.3 * ts) + kinks, np.cos(0.7 * ts) * np.exp(-0.1 * ts)], axis=1)
    slope = sum(np.where(ts >= e, 1.0, -1.0) for e in edges[1:-1])  # an edge takes the right side
    exact = np.stack(
        [
            1.3 * np.cos(1.3 * ts) + slope,
            -np.exp(-0.1 * ts) * (0.7 * np.sin(0.7 * ts) + 0.1 * np.cos(0.7 * ts)),
        ],
        axis=1,
    )
    ours = spline_derivative(ts, ys, edge_indices)
    splined = _spline_derivative_reference(ts, ys, edge_indices)
    assert ours.shape == ys.shape
    assert np.max(np.abs(ours - exact)) < 1e-9
    assert np.max(np.abs(ours - splined)) < 1e-8
    # complex samples with trailing axes: each entry is its own series
    waves = np.exp(1j * np.multiply.outer(ts, [[0.5, 1.0], [1.5, 2.0]]))
    dwaves = spline_derivative(ts, waves, edge_indices)
    assert dwaves.shape == waves.shape and dwaves.dtype == complex
    assert np.max(np.abs(dwaves - 1j * np.array([[0.5, 1.0], [1.5, 2.0]]) * waves)) < 1e-9


def test_stencils_need_a_uniform_segment_of_seven_samples():
    ts = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ConfigurationError, match="not uniform"):
        spline_derivative(ts**2, np.sin(ts))
    with pytest.raises(ConfigurationError, match="not uniform"):
        cumulative_antiderivative(np.geomspace(1.0, 2.0, 50), np.sin(ts))
    # a kinked grid read as one segment is not uniform either
    grid, _ = segmented_grid(np.array([0.0, 0.3, 10.0]), 200)
    with pytest.raises(ConfigurationError, match="not uniform"):
        spline_derivative(grid, np.sin(grid))
    with pytest.raises(ConfigurationError, match="6 samples is shorter than 7"):
        spline_derivative(ts[:6], ts[:6])
    assert np.allclose(spline_derivative(ts[:7], 3.0 * ts[:7]), 3.0)
    # a short segment far from t = 0 is uniform up to the rounding of its times
    tiny = np.linspace(5.0, 5.0 + 1e-9, 8)
    assert np.ptp(np.diff(tiny)) > 1e-6 * 1e-9 / 7
    assert np.allclose(spline_derivative(tiny, 2.0 * tiny), 2.0, rtol=1e-3)  # rounding / h


def test_importing_the_cli_loads_no_scipy():
    # numpy and the standard library are the whole runtime
    src = str(Path(susyjc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import susyjc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # not at the top and not inside a function: a lazy import would hide
    # its cost from the start-up time while every run still pays it
    package = Path(susyjc.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
