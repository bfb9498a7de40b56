import importlib
import math
import pkgutil

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline

import susyjc

from susyjc import AuxState, ModelParams, SubspaceBlock, TimeProfile, lambda_value, solve_aux
from susyjc import quadrature
from susyjc.evolution import PhaseIntegrals
from susyjc.quadrature import PiecewiseDense, _spline, cumulative_antiderivative, segmented_grid


def test_piecewise_dense_single_time_matches_array_column():
    knots = np.array([0.0, 2.5, 5.0, 7.5, 10.0])
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
        g_mod=TimeProfile.table(knots, [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=3,
    )
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 10.0), params, lambda_value(2, 3))
    dense = traj._dense
    assert isinstance(dense, PiecewiseDense) and len(dense.solutions) == 4
    # interior edges, both ends, and times inside segments
    times = np.array([0.0, 1.1, 2.5, 2.5 + 1e-9, 4.2, 5.0, 7.5, 9.3, 10.0 - 1e-12, 10.0])
    columns = dense(times)  # theta, phi, B, G
    assert columns.shape == (4, times.size)
    for i, t in enumerate(times):
        single = dense(t)
        assert single.shape == (4,)
        assert np.array_equal(single, columns[:, i]), t
        assert np.array_equal(dense(float(t)), columns[:, i]), t
        one = dense(times[i : i + 1])
        assert one.shape == (4, 1)
        assert np.array_equal(one[:, 0], columns[:, i]), t


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
    # segments are handled in one module: no other module binds the ODE
    # solver or the spline constructor
    binders = {
        info.name
        for info in pkgutil.iter_modules(susyjc.__path__, "susyjc.")
        for value in vars(importlib.import_module(info.name)).values()
        if value is solve_ivp or value is make_interp_spline
    }
    assert binders == {"susyjc.quadrature"}


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
    assert grid.shape == (ys.shape[1], times.size)
    for j, column in enumerate(alone):
        assert np.array_equal(grid[j], column(times)), j
    for i, t in enumerate(times):
        single = together(float(t))
        assert single.shape == (ys.shape[1],)
        assert np.array_equal(single, grid[:, i]), t
        assert np.array_equal(single, [column(float(t)) for column in alone]), t


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["1-D", "2-D", "3-D"])
def test_antiderivative_matches_scipy_bit_for_bit(shape):
    # on one segment the running integral is scipy's spline antiderivative,
    # less its start value, column by column
    ts = np.linspace(0.0, 3.0, 60)
    ys = np.sin(np.multiply.outer(ts, np.arange(1.0, 1.0 + np.prod(shape, dtype=int))))
    ours = cumulative_antiderivative(ts, ys.reshape(ts.shape + shape))
    theirs = _spline(ts, ys).antiderivative()
    times = np.linspace(0.0, 3.0, 41)
    expected = (theirs(times) - theirs(ts[0])).T
    assert np.array_equal(ours(times), expected if shape else expected[0])


def test_phase_integrals_fit_once_per_segment(monkeypatch):
    # the phases come with the solve; int w, the one running integral left
    # to quadrature, takes one spline fit per smooth segment
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

    def counted(*args, **kwargs):
        fits.append(args[0].size)
        return make_interp_spline(*args, **kwargs)

    monkeypatch.setattr(quadrature, "make_interp_spline", counted)
    PhaseIntegrals([traj], [block])
    assert len(fits) == len(traj.edge_indices) - 1 == 4
    assert sum(fits) == traj.times.size + 3  # each interior edge sample starts and ends a fit
