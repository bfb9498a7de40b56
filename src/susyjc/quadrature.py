"""The one module that splits work at the profiles' kinks.

Table knots (``params.breakpoints``) cut a window into segments on which
H(t) is smooth.  The ODE solves of the angle route and the oracle, the sample
grid (its edges at ``edge_indices``), the spline derivatives and the running
integral of the mode frequency are split at them here and nowhere else.
Quintic splines give O(h^5) derivatives, which keeps certification residuals
well below the ODE tolerances they audit, and O(h^6) running integrals.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline

from .errors import ConfigurationError

SPLINE_ORDER = 5  # quintic; fewer samples than that lower it to len(ts) - 1


class PiecewiseDense:
    """Dense output stitched from per-segment integrations at profile kinks.

    ``edges`` is ascending; ``solutions[i]`` interpolates on
    [edges[i], edges[i+1]], and an edge belongs to the segment it starts.
    Works for any state dimension and dtype.
    """

    def __init__(self, edges, solutions):
        self.edges = np.asarray(edges, dtype=float)
        self.solutions = solutions
        first = solutions[0](self.edges[:1])
        self._rows, self._dtype = first.shape[0], first.dtype

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        idx = np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, len(self.solutions) - 1)
        out = np.empty((self._rows, t.size), dtype=self._dtype)
        for seg in np.unique(idx):
            mask = idx == seg
            out[:, mask] = self.solutions[seg](t[mask])
        return out[:, 0] if scalar else out


def check_window(t, a: float, b: float, name: str) -> np.ndarray:
    """``t`` as a float array, or a ConfigurationError naming the first time
    outside the window between a and b (and, for an array, how many are)."""
    t = np.asarray(t, dtype=float)
    lo, hi = min(a, b), max(a, b)
    outside = (t < lo - 1e-12) | (t > hi + 1e-12)
    if outside.any():
        count = f"; {outside.sum()} of {t.size} times outside" if t.ndim else ""
        first = t[outside].flat[0]
        raise ConfigurationError(f"t={first} outside {name} window [{lo}, {hi}]{count}")
    return t


def integrate_segments(rhs, window, y0, params, rtol, atol, failure):
    """DOP853 with dense output over ``window``, restarted at every profile kink.

    ``window`` may run backward (t1 < t0).  Returns ``(dense, n_steps,
    n_rhs_evaluations, steps)``: a :class:`PiecewiseDense`, the accepted
    steps and the right-hand-side calls, both summed over the segments, and
    ``steps = (times, states)``, the solver's step boundaries in integration
    order (each segment's, its first and last included) and the states
    there, one column per time.  A failed segment raises
    ``failure(message, time)`` at the time the solver reached.
    """
    t0, t1 = float(window[0]), float(window[1])
    kinks = params.breakpoints(min(t0, t1), max(t0, t1))
    points = np.concatenate([[t0], kinks if t1 >= t0 else kinks[::-1], [t1]])
    solutions, times, states = [], [], []
    y, n_steps, n_rhs = y0, 0, 0
    for span in zip(points[:-1], points[1:]):
        sol = solve_ivp(rhs, span, y, method="DOP853", rtol=rtol, atol=atol, dense_output=True)
        if not sol.success:
            raise failure(sol.message, float(sol.t[-1]))
        solutions.append(sol.sol)
        times.append(sol.t)
        states.append(sol.y)
        y = sol.y[:, -1]
        n_steps += sol.t.size - 1
        n_rhs += sol.nfev
    steps = (np.concatenate(times), np.concatenate(states, axis=1))
    if t1 < t0:
        points, solutions = points[::-1], solutions[::-1]
    return PiecewiseDense(points, solutions), n_steps, n_rhs, steps


def segmented_grid(edges: np.ndarray, n: int) -> tuple[np.ndarray, tuple]:
    """Sample grid of n points containing every edge exactly, and ``edge_indices``:
    each segment gets its share of the n - 1 gaps by length, but at least 7."""
    shares = np.round((n - 1) * (edges - edges[0]) / (edges[-1] - edges[0]))
    gaps = np.maximum(7, np.diff(shares).astype(int))
    bounds = tuple(accumulate(gaps.tolist(), initial=0))
    pieces = [np.linspace(a, b, c + 1) for a, b, c in zip(edges[:-1], edges[1:], gaps)]
    # neighbouring segments share their edge sample
    times = np.concatenate([pieces[0]] + [piece[1:] for piece in pieces[1:]])
    return times, bounds


def _spline(ts: np.ndarray, ys: np.ndarray):
    return make_interp_spline(ts, ys, k=min(SPLINE_ORDER, ts.size - 1), axis=0)


def _bounds(edge_indices, size: int) -> list:
    """Sample indices of the segment edges; the whole grid is one segment if None."""
    return [0, size - 1] if edge_indices is None else list(edge_indices)


def _real_derivative(ts: np.ndarray, ys: np.ndarray, edge_indices) -> np.ndarray:
    bounds = _bounds(edge_indices, ts.size)
    pieces = [
        _spline(ts[a : b + 1], ys[a : b + 1]).derivative()(ts[a : b + 1])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    if len(pieces) == 1:  # no kinks: spare the copy of a whole sample block
        return pieces[0]
    # an edge sample takes the value of the segment that starts there
    return np.concatenate([piece[:-1] for piece in pieces[:-1]] + [pieces[-1]])


def spline_derivative(ts: np.ndarray, ys: np.ndarray, edge_indices=None) -> np.ndarray:
    """d(ys)/dt sampled at ts; ys may have trailing axes (splined along axis 0).

    With ``edge_indices`` each smooth segment gets its own spline: one
    global spline would ring across the kinks.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys)
    if np.iscomplexobj(ys):
        re = _real_derivative(ts, ys.real, edge_indices)
        return re + 1j * _real_derivative(ts, ys.imag, edge_indices)
    return _real_derivative(ts, ys, edge_indices)


def cumulative_antiderivative(ts: np.ndarray, ys: np.ndarray, edge_indices=None):
    """Callable F with F(ts[0]) = 0 and F' interpolating (ts, ys).

    ``ys`` is (n,) or (n, K), time first; the K columns share one spline fit
    per segment.  With ``edge_indices`` each smooth segment gets its own
    spline, and F carries the integral over the segments before it, so it
    stays continuous across the edges.  F(t) has shape ys.shape[1:] at a
    scalar t and ys.shape[1:] + (n_t,) over an array of n_t times.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    columns = ys.reshape(ts.size, -1)
    bounds = _bounds(edge_indices, ts.size)
    pieces = []
    carried = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        anti = _spline(ts[a : b + 1], columns[a : b + 1]).antiderivative()
        base = anti(ts[a])
        # PiecewiseDense passes an array of n_t times and wants (K, n_t) back
        pieces.append(lambda t, anti=anti, shift=carried - base: (anti(t) + shift).T)
        carried = carried + (anti(ts[b]) - base)
    dense = PiecewiseDense(ts[bounds], pieces)
    return dense if ys.ndim > 1 else lambda t: dense(t)[0]
