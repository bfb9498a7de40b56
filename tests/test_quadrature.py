import importlib
import math
import pkgutil

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline

import susyjc

from susyjc import AuxState, ModelParams, TimeProfile, lambda_value, solve_aux
from susyjc.quadrature import PiecewiseDense


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
    columns = dense(times)
    assert columns.shape == (2, times.size)
    for i, t in enumerate(times):
        single = dense(t)
        assert single.shape == (2,)
        assert np.array_equal(single, columns[:, i]), t
        assert np.array_equal(dense(float(t)), columns[:, i]), t
        one = dense(times[i : i + 1])
        assert one.shape == (2, 1)
        assert np.array_equal(one[:, 0], columns[:, i]), t


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
