"""Integration of the invariant-angle equations.

The invariant is parameterized by a polar angle theta(t) and an azimuth
phi(t).  Their coupled complex equations reduce to the real pair

    dtheta/dt = -2 sqrt(lam) Im(g e^{i phi})
    dphi/dt   = (k w - w0) - 2 sqrt(lam) Re(g e^{i phi}) cot(theta)

This reduction is an implementation artifact: every accepted trajectory is
re-certified against the complex equations as printed (residual_check),
with derivatives taken by spline differentiation of the solution samples,
independent of the right-hand side above.

The azimuthal equation has genuine poles at theta in {0, pi}.  Integration
raises SingularityError there whenever the cot coefficient is nonzero; no
regularization is applied, since masking the pole would corrupt geometric
phases.  (With g identically zero the pole term is absent and polar initial
angles are legitimate.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import CertificationError, ConfigurationError, SingularityError
from .profiles import ModelParams
from .quadrature import PiecewiseDense, spline_derivative

THETA_MIN = 1e-8  # |sin theta| below this at a live pole is a singularity
_MIN_SAMPLES = 2001  # smallest solve_aux grid
_SAMPLE_CAP = 60001  # largest solve_aux grid; denser dynamics is certified or rejected on it
_RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy raises a smaller rtol to this, with a warning


@dataclass(frozen=True)
class AuxState:
    """Invariant angles at one instant, or elementwise arrays of them; phi is
    continuous (never wrapped)."""

    theta: float
    phi: float


@dataclass(frozen=True)
class SolverStats:
    """Work and tolerances of one angle solve.

    ``rtol``/``atol`` are the requested tolerances; ``refinements`` counts
    the re-integrations (each at rtol/atol / 16) that certification forced,
    and ``effective_rtol`` is the rtol handed to the solver for the
    integration actually kept.  ``n_samples`` is the size of the certified
    sample grid, and ``sample_cap_hit`` marks a grid cut down to the sample
    cap.

    A block family integrated in one solve (``_solve_family``) shares
    ``n_steps``, ``n_rhs_evaluations``, ``refinements`` and
    ``effective_rtol`` (the family's rtol / sqrt(M), see there) among its M
    members; ``max_residual``, ``n_samples`` and ``sample_cap_hit`` are each
    member's own.
    """

    n_steps: int
    n_rhs_evaluations: int
    rtol: float
    atol: float
    max_residual: float = math.nan
    refinements: int = 0
    effective_rtol: float = math.nan
    n_samples: int = 0
    sample_cap_hit: bool = False


def aux_rhs(state: AuxState, t, params: ModelParams, lam):
    """(dtheta/dt, dphi/dt) at one time or elementwise over arrays of times/angles.

    ``lam`` is a number or an array that broadcasts against the angles (one
    lambda per family member).  Scalar input gives plain floats (for the ODE
    solver), array input gives arrays.  Raises SingularityError at a live
    pole, stamped with the time of the first offending sample (and, for an
    array ``lam``, naming that sample's lambda).
    """
    omega, omega0, g = params.evaluate(t)
    root = np.sqrt(lam) if isinstance(lam, np.ndarray) else math.sqrt(lam)
    rotated = g * np.exp(1j * state.phi)
    dtheta = -2.0 * root * rotated.imag
    coeff = 2.0 * root * rotated.real
    sin_t = np.sin(state.theta)
    live = coeff != 0.0
    pole = live & (np.abs(sin_t) < THETA_MIN)
    if pole.any():
        first = int(np.argmax(pole))
        when = float(np.broadcast_to(t, pole.shape).flat[first])
        worst = abs(float(np.broadcast_to(sin_t, pole.shape).flat[first]))
        member = ""
        if isinstance(lam, np.ndarray):
            member = f" (lambda={float(np.broadcast_to(lam, pole.shape).flat[first])})"
        raise SingularityError(
            f"azimuthal equation singular at t={when}: |sin theta|={worst:.3e}{member}",
            time=when,
        )
    # where the coupling term vanishes the pole is absent: divide by 1, not sin
    cot_term = coeff * np.cos(state.theta) / np.where(live, sin_t, 1.0)
    dphi = (params.k * omega - omega0) - cot_term
    if dphi.ndim == 0:
        return float(dtheta), float(dphi)
    return dtheta, dphi


@dataclass(frozen=True)
class AuxTrajectory:
    """Sampled angle solution plus the dense interpolant that produced it.

    ``edge_indices`` marks segment boundaries in ``times`` when the model
    profiles have interior kinks (table breakpoints); derivative-based
    checks treat each segment separately.
    """

    times: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    params: ModelParams
    lam: float
    stats: SolverStats
    edge_indices: tuple | None = None
    _dense: object = field(repr=False, default=None)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def _check_window(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = min(self.t0, self.t1), max(self.t0, self.t1)
        outside = (t < lo - 1e-12) | (t > hi + 1e-12)
        if outside.any():
            count = f"; {outside.sum()} of {t.size} times outside" if t.ndim else ""
            first = t[outside].flat[0]
            raise ConfigurationError(f"t={first} outside trajectory window [{lo}, {hi}]{count}")
        return t

    def state_at(self, t) -> AuxState:
        """Angles from the dense ODE output: floats at scalar t, arrays over an array of times."""
        theta, phi = self._dense(self._check_window(t))
        return AuxState(theta, phi) if theta.ndim else AuxState(float(theta), float(phi))

    def rates_at(self, t):
        """(dtheta/dt, dphi/dt) at scalar or array t, from :func:`aux_rhs`."""
        return aux_rhs(self.state_at(t), t, self.params, self.lam)


def solve_aux(
    initial: AuxState,
    window: tuple[float, float],
    params: ModelParams,
    lam: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    certify: bool = True,
) -> AuxTrajectory:
    """Adaptive integration of the angle equations over ``window``.

    The trajectory is sampled densely enough that quintic-spline
    interpolation stays below the certification budget even for fast
    (large-lambda) dynamics, and is certified by substituting the sampled
    angles into the printed complex equations: max residual <= 100 * rtol.
    When the solver's own dense-output error dominates, the integration is
    transparently refined beyond the requested tolerance until the
    certificate holds (CertificationError if it cannot be met).
    """
    return _solve_family(initial, window, params, [lam], rtol, atol, certify)[0]


class _MemberRows:
    """One member's (theta, phi) rows of a family's dense output: rows j and
    M + j of the (2M,) state, taken as a view."""

    def __init__(self, dense, member: int, members: int):
        self._dense = dense
        self._rows = slice(member, None, members)

    def __call__(self, t):
        return self._dense(t)[self._rows]


def _solve_family(
    initial: AuxState,
    window: tuple[float, float],
    params: ModelParams,
    lams,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    certify: bool = True,
) -> list[AuxTrajectory]:
    """:func:`solve_aux` for M lambdas from the same initial angles, in one solve.

    The state is (2M,): the M thetas, then the M phis, so scipy's per-step
    cost is paid once per step for the whole family.  Its error norm is an
    RMS over all 2M components, so the solver gets rtol/sqrt(M) and
    atol/sqrt(M): no member's local error exceeds what a solo solve allows.
    Each member keeps its own sample grid, polar check and certificate; if
    any member fails certification, the whole family is re-integrated at
    rtol/16.  The solver's rtol never goes below scipy's floor of 100 eps
    (the last refinement of a family can ask for less).  Errors raised for
    one member name its lambda.  M = 1 is :func:`solve_aux` exactly (scalar
    right-hand side, unscaled tolerances).
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ConfigurationError(f"window must satisfy t1 > t0, got {window}")
    members = len(lams)
    solo = members == 1
    shrink = math.sqrt(members)
    lam_vec = np.asarray(lams, dtype=float)

    if solo:
        lam = lams[0]

        def rhs(t, y):
            return aux_rhs(AuxState(y[0], y[1]), t, params, lam)

    else:

        def rhs(t, y):
            state = AuxState(y[:members], y[members:])
            return np.concatenate(aux_rhs(state, t, params, lam_vec))

    def located(message, member_lam):
        return message if solo else f"{message} (lambda={float(member_lam)})"

    # Table profiles are only piecewise smooth; integrating segment by
    # segment keeps the solver and the certification splines away from the
    # kinks ("predictable error behavior").
    edges = np.concatenate([[t0], params.breakpoints(t0, t1), [t1]])

    def integrate(rt, at):
        y0 = [initial.theta] * members + [initial.phi] * members
        solver_rtol = max(rt / shrink, _RTOL_FLOOR)
        solutions = []
        n_steps = 0
        nfev = 0
        for a, b in zip(edges[:-1], edges[1:]):
            sol = solve_ivp(
                rhs,
                (a, b),
                y0,
                method="DOP853",
                rtol=solver_rtol,
                atol=at / shrink,
                dense_output=True,
            )
            if not sol.success:
                raise SingularityError(
                    f"angle integration failed: {sol.message}", time=sol.t[-1]
                )
            solutions.append(sol.sol)
            y0 = sol.y[:, -1]
            n_steps += len(sol.t)
            nfev += sol.nfev
        return PiecewiseDense(edges, solutions), n_steps, nfev, solver_rtol

    dense, n_steps, total_nfev, solver_rtol = integrate(rtol, atol)

    # Sample density rule, per member: spline-derivative error
    # ~ (h * rate)^5 * rate must sit an order below the certification
    # budget of 10 * rtol.
    probe = np.linspace(t0, t1, 257)
    probed = dense(probe)
    rates = aux_rhs(
        AuxState(probed[:members], probed[members:]),
        probe,
        params,
        lam if solo else lam_vec[:, None],
    )
    peaks = np.max(np.abs(rates), axis=(0, 2))
    budget = max(10.0 * rtol, 1e-13)
    grids = []
    for peak in peaks:
        rate = max(1.0 / (t1 - t0), float(peak))
        # factor 4: the nonlinear dynamics carries harmonics well above the
        # raw rate estimate, and truncation error scales as h^5
        n_auto = 4 * int(np.ceil((t1 - t0) * rate * (rate / budget) ** 0.2))
        n = int(np.clip(n_auto, _MIN_SAMPLES, _SAMPLE_CAP))
        times, edge_indices = _segmented_grid(edges, n)
        coupled = bool(np.any(np.abs(params.g_mod(times)) > 0))
        grids.append((times, edge_indices, coupled, n_auto > _SAMPLE_CAP))

    rtol_i, atol_i = rtol, atol
    refinements = 0
    while True:
        trajs = []
        residuals = []
        # one member's grid at a time: the union of the grids would hold
        # all 2M rows on every member's samples at once
        for j, (lam_j, (times, edge_indices, coupled, _)) in enumerate(zip(lams, grids)):
            member_dense = dense if solo else _MemberRows(dense, j, members)
            thetas, phis = np.array(member_dense(times))

            if coupled and np.min(np.abs(np.sin(thetas))) < THETA_MIN:
                worst = times[int(np.argmin(np.abs(np.sin(thetas))))]
                raise SingularityError(
                    located(f"trajectory reached a polar angle singularity near t={worst}", lam_j),
                    time=worst,
                )

            traj = AuxTrajectory(
                times=times,
                thetas=thetas,
                phis=phis,
                params=params,
                lam=float(lam_j),
                stats=SolverStats(n_steps, total_nfev, rtol, atol),
                edge_indices=edge_indices,
                _dense=member_dense,
            )
            trajs.append(traj)
            residuals.append(residual_check(traj, params, lam_j))
        if not certify or max(residuals) <= 100.0 * rtol or rtol_i < rtol / 1000.0:
            break
        rtol_i /= 16.0
        atol_i /= 16.0
        refinements += 1
        dense, n_steps, nfev, solver_rtol = integrate(rtol_i, atol_i)
        total_nfev += nfev

    out = []
    for traj, residual, (times, _, _, capped) in zip(trajs, residuals, grids):
        if certify and residual > 100.0 * rtol:
            cap = f" on a grid capped at {_SAMPLE_CAP} samples" if capped else ""
            raise CertificationError(
                located(
                    f"angle trajectory residual {residual:.3e} exceeds "
                    f"100*rtol={100 * rtol:.3e}{cap}",
                    traj.lam,
                )
            )
        stats = SolverStats(
            n_steps,
            total_nfev,
            rtol,
            atol,
            max_residual=residual,
            refinements=refinements,
            effective_rtol=solver_rtol,
            n_samples=times.size,
            sample_cap_hit=capped,
        )
        out.append(replace(traj, stats=stats))
    return out


def _segmented_grid(edges: np.ndarray, n: int) -> tuple[np.ndarray, tuple]:
    """Sample grid of ~n points containing every segment edge exactly."""
    span = edges[-1] - edges[0]
    pieces = []
    edge_indices = [0]
    end = 0
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        count = max(8, int(round(n * (b - a) / span)))
        seg = np.linspace(a, b, count)
        if i == 0:
            pieces.append(seg)
            end = count - 1
        else:
            pieces.append(seg[1:])
            end += count - 1
        edge_indices.append(end)
    return np.concatenate(pieces), tuple(edge_indices)


def _segmented_derivative(ts: np.ndarray, ys: np.ndarray, edge_indices) -> np.ndarray:
    """Spline derivative per smooth segment (the angles have kinks at profile
    breakpoints; one global spline would ring across them)."""
    if edge_indices is None or len(edge_indices) <= 2:
        return spline_derivative(ts, ys)
    out = np.empty_like(ys)
    for a, b in zip(edge_indices[:-1], edge_indices[1:]):
        out[a : b + 1] = spline_derivative(ts[a : b + 1], ys[a : b + 1])
    return out


def residual_series(traj: AuxTrajectory, params: ModelParams, lam: float) -> np.ndarray:
    """Per-sample max modulus of the two complex angle equations.

    Both equations are evaluated verbatim, with theta-dot and phi-dot taken
    from spline derivatives of the sampled solution (independent of the
    real-form right-hand side used to integrate):

        E1 = th' cos(th) e^{-i phi} - i ph' sin(th) e^{-i phi}
             + i [ (k w - w0) sin(th) e^{-i phi} - 2 g sqrt(lam) cos(th) ]
        E2 = th' - i sqrt(lam) [ g e^{i phi} - g* e^{-i phi} ]
    """
    ts = traj.times
    theta = traj.thetas
    phi = traj.phis
    dtheta = _segmented_derivative(ts, theta, traj.edge_indices)
    dphi = _segmented_derivative(ts, phi, traj.edge_indices)

    omega, omega0, g = params.evaluate(ts)
    root = math.sqrt(lam)
    det = params.k * omega - omega0

    e_m = np.exp(-1j * phi)
    eq1 = (
        dtheta * np.cos(theta) * e_m
        - 1j * dphi * np.sin(theta) * e_m
        + 1j * (det * np.sin(theta) * e_m - 2.0 * g * root * np.cos(theta))
    )
    eq2 = dtheta - 1j * root * (g * np.exp(1j * phi) - np.conj(g) * e_m)
    return np.maximum(np.abs(eq1), np.abs(eq2))


def residual_check(traj: AuxTrajectory, params: ModelParams, lam: float) -> float:
    """Max complex residual of the printed angle equations along a trajectory."""
    if traj.times.size == 0:
        raise ConfigurationError("empty trajectory")
    return float(np.max(residual_series(traj, params, lam)))


def adiabatic_matched_theta(params: ModelParams, lam: float) -> float:
    """Initial polar angle solving the steady-azimuth constraint at t = 0.

    Solves (k w - w0 - w) sin(theta) = 2 |g| sqrt(lam) cos(theta) for theta
    in (0, pi) by bisection.  Requires a nonzero coupling modulus.
    """
    omega, omega0, g = params.evaluate(0.0)
    b = 2.0 * abs(g) * math.sqrt(lam)
    a = params.k * omega - omega0 - omega
    if b == 0.0:
        raise ConfigurationError("adiabatic matching needs |g| > 0 at the initial time")

    def f(theta):
        return a * math.sin(theta) - b * math.cos(theta)

    eps = 1e-12
    return float(brentq(f, eps, math.pi - eps, xtol=1e-14, rtol=8.9e-16))
