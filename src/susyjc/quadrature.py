"""Derivatives and antiderivatives of smooth functions on dense sample grids,
and dense output of ODE solutions stitched across profile kinks.

Quintic splines give O(h^5) derivatives and O(h^6) running integrals, which
keeps certification residuals well below the ODE tolerances they audit.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import make_interp_spline

SPLINE_ORDER = 5  # quintic; fewer samples than that lower it to len(ts) - 1


def spline_derivative(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """d(ys)/dt sampled at ts; ys may have trailing axes (splined along axis 0)."""
    ts = np.asarray(ts, dtype=float)
    order = min(SPLINE_ORDER, ts.size - 1)
    if np.iscomplexobj(ys):
        re = make_interp_spline(ts, np.real(ys), k=order, axis=0).derivative()(ts)
        im = make_interp_spline(ts, np.imag(ys), k=order, axis=0).derivative()(ts)
        return re + 1j * im
    return make_interp_spline(ts, ys, k=order, axis=0).derivative()(ts)


def cumulative_antiderivative(ts: np.ndarray, ys: np.ndarray):
    """Callable F with F(ts[0]) = 0 and F' interpolating (ts, ys)."""
    ts = np.asarray(ts, dtype=float)
    order = min(SPLINE_ORDER, ts.size - 1)
    anti = make_interp_spline(ts, np.asarray(ys, dtype=float), k=order).antiderivative()
    f0 = anti(ts[0])

    def integral(t):
        t = np.asarray(t, dtype=float)
        out = anti(t) - f0
        return out if out.ndim else float(out)

    return integral


class PiecewiseDense:
    """Dense output stitched from per-segment integrations at profile kinks.

    ``edges`` is ascending; ``solutions[i]`` interpolates on
    [edges[i], edges[i+1]].  Works for any state dimension and dtype.
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
        if t.size == 1:
            # one time (every scalar state_at): its segment's own output
            out = self.solutions[idx[0]](t)
        else:
            out = np.empty((self._rows, t.size), dtype=self._dtype)
            for seg in np.unique(idx):
                mask = idx == seg
                out[:, mask] = self.solutions[seg](t[mask])
        return out[:, 0] if scalar else out
