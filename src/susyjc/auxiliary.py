"""Integration of the invariant-angle equations.

The invariant is parameterized by a polar angle theta(t) and an azimuth
phi(t), or equivalently by the unit vector

    n = (-sin th cos phi, sin th sin phi, cos th),    I = n . sigma

on the block.  The invariant equation dI/dt = i[I, H] is then the linear
precession dn/dt = 2 h x n about h = (sqrt(lam) Re g, sqrt(lam) Im g,
(w0 - k w)/2), read off the block Hamiltonian.  This vector form is what
gets integrated: it is linear, has no chart and no pole.  It is integrated
in the frame that rotates about z at Delta0 = k w(t0) - w0(t0), the frame
of H's uncoupled diagonal at t0 in which the oracle
(:mod:`susyjc.schrodinger`) runs too: there n' = R_z(-Delta0 (t - t0)) n
obeys dn'/dt = 2 h' x n' with g' = g e^{+i Delta0 (t - t0)} and
h'_z = (w0 - k w + Delta0)/2, and stands still wherever the drive is
resonant and uncoupled.  A block family of M lambdas is one (3M,) state.

The dense output is read back as angles, (2M,) rows for every reader:
theta = atan2(hypot(x', y'), z') and phi = atan2(y', -x') + Delta0 (t - t0).
phi is continuous (never wrapped): at any time it takes the branch nearest
the unwrapped phi at the start of the accepted solver step that holds the
time, and those step values are unwrapped from phi0 along the solve.  Away
from the poles no accepted step turns the azimuth by pi at the tolerances
used here, so this branch is the continuous one.  The conversion is
elementwise, so a scalar time and a grid give the same values.

The real angle pair

    dtheta/dt = -2 sqrt(lam) Im(g e^{i phi})
    dphi/dt   = (k w - w0) - 2 sqrt(lam) Re(g e^{i phi}) cot(theta)

stays the home of the angle rates (:func:`aux_rhs`: the density rule's
probe, ``rates_at`` and the phase integrands).  Neither it nor the vector
form is trusted: every accepted trajectory is re-certified against the
complex angle equations as printed (residual_check), with derivatives taken
by spline differentiation of the solution samples.

The angle chart has genuine poles at theta in {0, pi}, where the azimuth is
undefined.  A coupled trajectory whose |sin theta| drops below THETA_MIN
raises SingularityError at the time it does so, located on the vector
output between the samples of the certification grid; no regularization is
applied, since masking the pole would corrupt geometric phases.  (With g
identically zero the pole term is absent and polar initial angles are
legitimate.)

Table profiles have kinks.  The integration, the sample grid and the spline
derivatives of the certification are each split at them by
:mod:`susyjc.quadrature`; this module never handles a segment itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .errors import CertificationError, ConfigurationError, SingularityError
from .profiles import ModelParams
from .quadrature import PiecewiseDense, integrate_segments, segmented_grid, spline_derivative

THETA_MIN = 1e-8  # |sin theta| below this at a live pole is a singularity
_MIN_SAMPLES = 2001  # smallest solve_aux grid
_SAMPLE_CAP = 60001  # largest solve_aux grid; denser dynamics is certified or rejected on it
_RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy raises a smaller rtol to this, with a warning
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AuxState:
    """Invariant angles at one instant, or elementwise arrays of them; phi is
    continuous (never wrapped)."""

    theta: float
    phi: float


@dataclass(frozen=True)
class SolverStats:
    """Work and tolerances of one angle solve.

    ``n_steps`` counts the solver's accepted steps and ``n_rhs_evaluations``
    its right-hand-side calls, both summed over the segments between profile
    kinks (as ``PropagationResult`` counts them for the oracle).
    ``rtol``/``atol`` are the requested tolerances.  The first integration
    runs at rtol/16 and atol/16; ``refinements`` counts the re-integrations
    (each a further /16) that certification forced, and ``effective_rtol``
    is the rtol handed to the solver for the integration actually kept.
    ``n_samples`` is the size of the certified sample grid, and
    ``sample_cap_hit`` marks a grid cut down to the sample cap.
    ``max_norm_deviation`` is the largest ||n| - 1| of the integrated
    invariant vector on that grid.

    A block family integrated in one solve (``_solve_family``) shares
    everything but ``max_residual`` and ``max_norm_deviation`` among its M
    members: the work, the refinements, ``effective_rtol`` (the family's
    rtol / sqrt(M), see there) and the one sample grid with its size and
    cap flag.  ``max_residual`` and ``max_norm_deviation`` are each
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
    max_norm_deviation: float = math.nan


def aux_rhs(state: AuxState, t, params: ModelParams, lam):
    """(dtheta/dt, dphi/dt) at one time or elementwise over arrays of times/angles.

    ``lam`` is a number or an array that broadcasts against the angles (one
    lambda per family member).  Scalar input gives plain floats, array input
    gives arrays.  Raises SingularityError at a live pole, stamped with the
    time of the first offending sample (and, for an array ``lam``, naming
    that sample's lambda).
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
    profiles have interior kinks (table breakpoints); the spline derivatives
    and the phase integrals pass it to :mod:`susyjc.quadrature`, which
    treats each segment separately.  ``residuals`` is the
    :func:`residual_series` on ``times`` for the trajectory's own params
    and lam, as certification computed it (None on a hand-built trajectory).

    ``_dense`` is the dense output of the solve that produced the
    trajectory: (2M,) rows, the M thetas then the M phis of its members
    (M = 1 for :func:`solve_aux`).  ``_member`` is this trajectory's index
    j among them, so its angles are rows j and M + j.
    """

    times: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    params: ModelParams
    lam: float
    stats: SolverStats
    edge_indices: tuple | None = None
    residuals: np.ndarray | None = None
    _dense: object = field(repr=False, default=None)
    _member: int = field(repr=False, default=0)

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
        rows = self._dense(self._check_window(t))
        theta, phi = rows[self._member], rows[rows.shape[0] // 2 + self._member]
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
    """Adaptive integration of the angle equations over ``window``, as the
    invariant's vector in the rotating frame (see the module docstring).

    The trajectory is sampled densely enough that quintic-spline
    interpolation stays below the certification budget even for fast
    (large-lambda) dynamics, and is certified by substituting the sampled
    angles into the printed complex equations: max residual <= 100 * rtol.
    When the solver's own dense-output error dominates, the integration is
    transparently refined beyond the requested tolerance until the
    certificate holds (CertificationError if it cannot be met).
    """
    return _solve_family(initial, window, params, [lam], rtol, atol, certify)[0]


def family_angles(trajectories):
    """The angles of K consecutive members of one solve, from one call of its
    dense output: ``angles(t)`` is an AuxState of (K,) arrays, or of (K, n_t)
    arrays over n_t times.

    The trajectories must share one dense output (by identity) and carry
    consecutive member indices, in the solve's order (ConfigurationError
    otherwise); a single trajectory is always its own family.
    """
    first = trajectories[0]
    rows = slice(first._member, first._member + len(trajectories))
    members = enumerate(trajectories, first._member)
    if any(traj._dense is not first._dense or traj._member != j for j, traj in members):
        raise ConfigurationError(
            "trajectories are not the members of one family solve, in its order"
        )

    def angles(t) -> AuxState:
        sample = first._dense(first._check_window(t))
        return AuxState(sample[rows], sample[sample.shape[0] // 2 :][rows])

    return angles


def _bloch_rhs(params: ModelParams, lams, t0: float, delta0: float):
    """dn'/dt = 2 h' x n' for the (3M,) state of M unit vectors: the M x's,
    the M y's, then the M z's.

    h' = (sqrt(lam) Re g', sqrt(lam) Im g', (w0 - k w + Delta0)/2), with
    g' = g exp(+i Delta0 (t - t0)): the invariant's vector in the frame that
    rotates about z at Delta0.  For M = 1 it runs on Python floats.
    """
    solo = len(lams) == 1
    k = params.k
    # 2 sqrt(lam), so that the components below are 2 h' directly
    roots = 2.0 * math.sqrt(lams[0]) if solo else 2.0 * np.sqrt(np.asarray(lams, dtype=float))

    def rhs(t, n):
        omega, omega0, g = params.evaluate(t)
        g = g * cmath.exp(1j * delta0 * (t - t0))
        hx, hy, hz = roots * g.real, roots * g.imag, omega0 - k * omega + delta0
        x, y, z = n.tolist() if solo else n.reshape(3, -1)
        rate = (hy * z - hz * y, hz * x - hx * z, hx * y - hy * x)
        return rate if solo else np.concatenate(rate)

    return rhs


def _angle_chart(steps, phi0: float, t0: float, delta0: float):
    """``to_angles(n, t)``: the (2M, n_t) angle rows (thetas, then lab-frame
    phis) of a (3M, n_t) block of rotating-frame vectors at the times t.

    theta = atan2(hypot(x, y), z) and phi = atan2(y, -x) + Delta0 (t - t0).
    phi is taken on the branch nearest the unwrapped phi at the start of the
    accepted solver step that contains t.  These bases are unwrapped from
    phi0 along ``steps``, the solve's (times, states) at its step boundaries
    (:func:`susyjc.quadrature.integrate_segments`), across the segments.
    The conversion is elementwise, so any set of times gives the same values.
    """
    nodes, states = steps
    x, y, _ = np.split(states, 3)
    start = np.full((x.shape[0], 1), float(phi0))
    bases = np.unwrap(np.concatenate([start, np.arctan2(y, -x)], axis=1), axis=1)[:, 1:]
    last = nodes.size - 1

    def to_angles(n, t):
        x, y, z = np.split(n, 3)
        base = bases[:, np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, last)]
        turn = np.arctan2(y, -x) - base
        phi = base + (turn - _TWO_PI * np.round(turn / _TWO_PI)) + delta0 * (t - t0)
        return np.concatenate([np.arctan2(np.hypot(x, y), z), phi])

    return to_angles


def _first_pole(vectors: PiecewiseDense, times, n):
    """(time, member) of the earliest |sin theta| < THETA_MIN, or None.

    A pole is at a sample, or between two samples across which a member's
    in-plane part (x, y) reverses direction.  There it is located as the
    point of the path where (x, y) is perpendicular to the chord between the
    two samples: the crossing itself when the path runs through the pole,
    its closest approach to the pole otherwise.
    """
    members = n.shape[0] // 3
    x, y = n[:members], n[members : 2 * members]
    found = [(times[i], j) for j, i in zip(*np.nonzero(np.hypot(x, y) < THETA_MIN))]
    reversed_ = x[:, :-1] * x[:, 1:] + y[:, :-1] * y[:, 1:] < 0
    for j, i in zip(*np.nonzero(reversed_)):
        cx, cy = x[j, i + 1] - x[j, i], y[j, i + 1] - y[j, i]

        def along(t, j=j, cx=cx, cy=cy):
            v = vectors(t)
            return v[j] * cx + v[members + j] * cy

        t = brentq(along, times[i], times[i + 1])
        v = vectors(t)
        if math.hypot(v[j], v[members + j]) < THETA_MIN:
            found.append((t, j))
    return min(found) if found else None


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

    The state is (3M,): the M members' invariant vectors (see the module
    docstring), so scipy's per-step cost is paid once per step for the whole
    family.  Its error norm is an RMS over all 3M components, so the solver
    gets rtol/sqrt(M) and atol/sqrt(M): no member's local error exceeds what
    a solo solve allows.  The first integration runs at rtol/16 and
    atol/16, one refinement notch below the request.  The family shares one
    sample grid, sized by the density rule for its fastest member.  Each
    certification pass evaluates the vectors on it once, (3M, n), checks the
    poles over that block, converts it to the (2M, n) angles, and takes the
    spline derivatives of all M thetas in one call and of all M phis in
    another.  Each member is then certified on its own; if any fails, the
    whole family is re-integrated at a further rtol/16.  The solver's rtol
    never goes below scipy's floor of 100 eps (the last refinement of a
    family can ask for less).  Errors raised for one member name its lambda.
    M = 1 is :func:`solve_aux` exactly (Python-float right-hand side,
    unscaled tolerances).
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ConfigurationError(f"window must satisfy t1 > t0, got {window}")
    members = len(lams)
    solo = members == 1
    shrink = math.sqrt(members)
    lam_vec = np.asarray(lams, dtype=float)
    omega, omega0, _ = params.evaluate(t0)
    delta0 = params.k * omega - omega0  # the frame of H's uncoupled diagonal at t0
    rhs = _bloch_rhs(params, lams, t0, delta0)
    sin_t = math.sin(initial.theta)
    n0 = [-sin_t * math.cos(initial.phi), sin_t * math.sin(initial.phi), math.cos(initial.theta)]

    def located(message, member_lam):
        return message if solo else f"{message} (lambda={float(member_lam)})"

    def failed(message, time):
        return SingularityError(f"angle integration failed: {message}", time=time)

    def integrate(rt, at):
        y0 = np.repeat(n0, members)
        solver_rtol = max(rt / (16.0 * shrink), _RTOL_FLOOR)
        found = integrate_segments(
            rhs, (t0, t1), y0, params, solver_rtol, at / (16.0 * shrink), failed
        )
        vectors, n_steps, nfev, steps = found
        to_angles = _angle_chart(steps, initial.phi, t0, delta0)
        pieces = [lambda t, sol=sol: to_angles(sol(t), t) for sol in vectors.solutions]
        return vectors, to_angles, PiecewiseDense(vectors.edges, pieces), n_steps, nfev, solver_rtol

    vectors, to_angles, dense, n_steps, total_nfev, solver_rtol = integrate(rtol, atol)

    # Sample density rule, sized for the fastest member: spline-derivative
    # error ~ (h * rate)^5 * rate must sit an order below the certification
    # budget of 10 * rtol.
    probe = np.linspace(t0, t1, 257)
    probed = AuxState(*np.split(dense(probe), 2))
    rates = aux_rhs(probed, probe, params, lams[0] if solo else lam_vec[:, None])
    budget = max(10.0 * rtol, 1e-13)
    rate = max(1.0 / (t1 - t0), float(np.max(np.abs(rates))))
    # factor 4: the nonlinear dynamics carries harmonics well above the
    # raw rate estimate, and truncation error scales as h^5
    n_auto = 4 * int(np.ceil((t1 - t0) * rate * (rate / budget) ** 0.2))
    capped = n_auto > _SAMPLE_CAP
    n = int(np.clip(n_auto, _MIN_SAMPLES, _SAMPLE_CAP))
    times, edge_indices = segmented_grid(dense.edges, n)
    coupled = bool(np.any(np.abs(params.g_mod(times)) > 0))
    omega, omega0, g = params.evaluate(times)
    detuning = params.k * omega - omega0

    def certify_pass(vectors, to_angles, dense):
        # one (3M, n) vector block per pass; member j's trajectory holds views
        # of its angle rows j and M + j
        block = vectors(times)
        pole = _first_pole(vectors, times, block) if coupled else None
        if pole is not None:
            worst, j = pole
            message = f"trajectory reached a polar angle singularity near t={worst}"
            raise SingularityError(located(message, lams[j]), time=float(worst))
        thetas, phis = np.split(to_angles(block, times), 2)
        norms = np.sqrt(np.sum(block.reshape(3, members, -1) ** 2, axis=0))
        deviations = np.max(np.abs(norms - 1.0), axis=1)
        dthetas = spline_derivative(times, thetas.T, edge_indices)
        dphis = spline_derivative(times, phis.T, edge_indices)
        trajs = [
            AuxTrajectory(
                times=times,
                thetas=thetas[j],
                phis=phis[j],
                params=params,
                lam=float(lam_j),
                stats=SolverStats(n_steps, total_nfev, rtol, atol),
                edge_indices=edge_indices,
                residuals=_printed_residual(
                    thetas[j], phis[j], dthetas[:, j], dphis[:, j], detuning, g, lam_j
                ),
                _dense=dense,
                _member=j,
            )
            for j, lam_j in enumerate(lams)
        ]
        return trajs, [residual_check(traj, params, traj.lam) for traj in trajs], deviations

    rtol_i, atol_i, refinements = rtol, atol, 0
    while True:
        trajs, residuals, deviations = certify_pass(vectors, to_angles, dense)
        if not certify or max(residuals) <= 100.0 * rtol or rtol_i < rtol / 1000.0:
            break
        del trajs  # frees the rejected pass before the next one samples
        rtol_i /= 16.0
        atol_i /= 16.0
        refinements += 1
        vectors, to_angles, dense, n_steps, nfev, solver_rtol = integrate(rtol_i, atol_i)
        total_nfev += nfev

    stats = SolverStats(
        n_steps,
        total_nfev,
        rtol,
        atol,
        refinements=refinements,
        effective_rtol=solver_rtol,
        n_samples=times.size,
        sample_cap_hit=capped,
    )
    for traj, residual in zip(trajs, residuals):
        if certify and residual > 100.0 * rtol:
            cap = f" on a grid capped at {_SAMPLE_CAP} samples" if capped else ""
            raise CertificationError(
                located(
                    f"angle trajectory residual {residual:.3e} exceeds "
                    f"100*rtol={100 * rtol:.3e}{cap}",
                    traj.lam,
                )
            )
    return [
        replace(traj, stats=replace(stats, max_residual=r, max_norm_deviation=float(d)))
        for traj, r, d in zip(trajs, residuals, deviations)
    ]


def _printed_residual(theta, phi, dtheta, dphi, detuning, g, lam) -> np.ndarray:
    """Per-sample max modulus of the two complex angle equations as printed,

        E1 = th' cos(th) e^{-i phi} - i ph' sin(th) e^{-i phi}
             + i [ (k w - w0) sin(th) e^{-i phi} - 2 g sqrt(lam) cos(th) ]
        E2 = th' - i sqrt(lam) [ g e^{i phi} - g* e^{-i phi} ]

    with ``detuning`` = k w - w0 and ``g`` sampled alongside the angles.
    """
    root = math.sqrt(lam)
    e_m = np.exp(-1j * phi)
    eq1 = (
        dtheta * np.cos(theta) * e_m
        - 1j * dphi * np.sin(theta) * e_m
        + 1j * (detuning * np.sin(theta) * e_m - 2.0 * g * root * np.cos(theta))
    )
    eq2 = dtheta - 1j * root * (g * np.exp(1j * phi) - np.conj(g) * e_m)
    return np.maximum(np.abs(eq1), np.abs(eq2))


def residual_series(traj: AuxTrajectory, params: ModelParams, lam: float) -> np.ndarray:
    """:func:`_printed_residual` along ``traj`` for ``params`` and ``lam``.

    theta-dot and phi-dot are spline derivatives of the sampled solution,
    independent of the real-form right-hand side used to integrate.
    """
    omega, omega0, g = params.evaluate(traj.times)
    detuning = params.k * omega - omega0
    dtheta = spline_derivative(traj.times, traj.thetas, traj.edge_indices)
    dphi = spline_derivative(traj.times, traj.phis, traj.edge_indices)
    return _printed_residual(traj.thetas, traj.phis, dtheta, dphi, detuning, g, lam)


def residual_check(traj: AuxTrajectory, params: ModelParams, lam: float) -> float:
    """Max complex residual of the printed angle equations along a trajectory.

    Reuses ``traj.residuals`` when ``params`` and ``lam`` are the
    trajectory's own, which is how certification calls it.
    """
    if traj.times.size == 0:
        raise ConfigurationError("empty trajectory")
    own = traj.residuals is not None and params is traj.params and lam == traj.lam
    series = traj.residuals if own else residual_series(traj, params, lam)
    return float(np.max(series))


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
