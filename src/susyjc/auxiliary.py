"""Integration of the invariant-angle equations.

The invariant is parameterized by a polar angle theta(t) and an azimuth
phi(t), or equivalently by the unit vector

    n = (-sin th cos phi, sin th sin phi, cos th),    I = n . sigma

on the block.  The invariant equation dI/dt = i[I, H] is then the linear
precession dn/dt = 2 h x n about h = (sqrt(lam) Re g, sqrt(lam) Im g,
(w0 - k w)/2), with no chart and no pole.  This is what gets integrated, by
exact rotations (the sixth-order Magnus scheme of
:func:`susyjc.magnus.magnus`), in each run's drive frame, which turns
about z at Delta = -(arg g)'(t0): n' = R_z(Delta (t - t0)) n obeys
dn'/dt = 2 h' x n' with g' = g e^{+i Delta (t - t0)} and
h'_z = (w0 - k w + Delta)/2.  For a drive of constant phase this is the lab
frame.  Under a constant drive, and in the Berry scenarios, whose coupling
turns at a constant rate, h' is constant there, and the solve is one step
in closed form, the rotation about h' however many turns n makes, with no
step search.

The exact solutions carry exp(-i (phi_d + phi_g)), the Lewis-Riesenfeld
construction, with phi_g a Berry-type geometric phase.  Both phase rates
are functions of n,

    B' = h.n,    G' = -(phi'/2)(1 - cos th)
                    = h_z (1 - z) - z (h_x x + h_y y) / (1 + z),

and phi_d(sigma) = (m + k/2) int w + sigma B, phi_g(sigma) = sigma G
(:class:`susyjc.evolution.PhaseIntegrals`).  B + G is the phase of each
step's SU(2) rotation, so the solve has it in closed form; B' = h.n is
linear in n, and B is stepped with n by the same Magnus scheme (exact when
h' is constant); G is their difference.  The paper
gauge's pole of G' at theta = pi is not integrated through: it leaves only
a 2 pi ambiguity, which the chart resolves.  Readers sample the one dense
output, (n_t, 5M): B and G are its last 2M columns, and :func:`_angle_chart`
gives theta = atan2(hypot(x', y'), z'), phi = atan2(y', -x') + Delta (t - t0)
and G, phi and G on the branches continuous along the certification grid.
The certificate works in its own frame, which turns at
Delta0 = k w(t0) - w0(t0) (:func:`_frame`), where the grid rule resolves
the motion.

One solve carries M members, each with its own lambda (which scales the
coupling by sqrt(lam)), its own start or a shared one, and its own profiles
(:func:`_solve_family`): the blocks m of a propagate or coherent run share
one params object and differ only in lambda, and the thetas of a Berry sweep
each have their own.  :func:`solve_aux` is M = 1.

The chart rates (theta', phi') keep their home in :func:`aux_rhs`.  No
route is trusted: every accepted trajectory is certified against the
complex angle equations as printed, by sixth-order finite-difference
derivatives of two smooth functions of the sampled angles
(:func:`_printed_residual`; :func:`residual_check` reports its maximum).
That is the sample grid's one job.

The chart has genuine poles at theta in {0, pi}.  A coupled trajectory
whose |sin theta| drops below THETA_MIN raises SingularityError at that
time: at a sample before certification, between the grid's samples after
it, since locating a pole there trusts the grid to resolve the motion; no
regularization is applied, as masking the pole would corrupt geometric
phases.  (With g identically zero polar initial angles are legitimate.)
The grid and the derivatives are split at table kinks by
:mod:`susyjc.quadrature`, which owns the rtol floor, and the integration
takes the kinks as step boundaries; the pole locator finds its root by
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import CertificationError, ConfigurationError, SingularityError
from .magnus import MagnusSolution, magnus
from .profiles import ModelParams
from .quadrature import RTOL_FLOOR, check_window, segmented_grid, spline_derivative

THETA_MIN = 1e-8  # |sin theta| below this at a live pole is a singularity
_MIN_SAMPLES = 2001  # smallest solve_aux grid
_SAMPLE_CAP = 60001  # largest solve_aux grid; denser dynamics is certified or rejected on it
_CHUNK = 1 << 14  # most samples, over all members, that one certification derivative takes
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

    ``n_steps`` counts the accepted Magnus steps of the integration kept,
    over all segments between profile kinks, and ``n_rhs_evaluations`` the
    node times of their candidate steps (nine per candidate), at which a
    time-dependent run's profiles are evaluated, summed over every
    integration of the solve.  A steady solve is one step in closed form
    and evaluates at no node: 1 and 0.  ``rtol``/``atol``
    are the requested tolerances; the first
    integration runs at rtol/16 and atol/16, ``refinements`` counts the
    re-integrations (each a further /16) that certification forced, and
    ``effective_rtol`` is the solver rtol of the integration kept.
    ``n_samples`` is the size of the certified grid, ``sample_cap_hit``
    marks a grid cut down to the cap, and ``max_norm_deviation`` is the
    largest ||n| - 1| of the integrated vector on it.  The members of one
    family solve (``_solve_family``) share everything but ``max_residual``
    and ``max_norm_deviation``.
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


def aux_rhs(state: AuxState, t, params: ModelParams, lam: float):
    """(dtheta/dt, dphi/dt) at one time or elementwise over arrays of times/angles:

        dtheta/dt = -2 sqrt(lam) Im(g e^{i phi})
        dphi/dt   = (k w - w0) - 2 sqrt(lam) Re(g e^{i phi}) cot(theta)

    Scalar input gives plain floats, array input gives arrays.  Raises
    SingularityError at a live pole, stamped with the time of the first
    offending sample.
    """
    omega, omega0, g = params.evaluate(t)
    root = math.sqrt(lam)
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
        raise SingularityError(
            f"azimuthal equation singular at t={when}: |sin theta|={worst:.3e}", time=when
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

    ``edge_indices`` marks the segment edges in ``times`` at the profiles'
    kinks, for :mod:`susyjc.quadrature`.  ``residuals`` is the
    :func:`residual_series` on ``times`` for the trajectory's own params
    and lam, as certification computed it (None on a hand-built one).
    ``_dense`` is its solve's (5M,) dense output, ``_chart`` the solve's
    chart (:func:`_angle_chart`), and ``_member`` its column among the M
    members.
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
    _chart: object = field(repr=False, default=None)
    _member: int = field(repr=False, default=0)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def _check_window(self, t):
        return check_window(t, self.t0, self.t1, "trajectory")

    def state_at(self, t) -> AuxState:
        """Angles from the dense ODE output: floats at scalar t, arrays over an array of times."""
        t = self._check_window(t)
        theta, phi = (angles[..., self._member] for angles in self._chart(self._dense(t), t)[:2])
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
    invariant's frame vector with B and G alongside (module docstring),
    certified against the printed complex equations on its sample grid: max
    residual <= 100 * rtol.  While the solver's error dominates, it is
    refined beyond the requested tolerance (CertificationError if that fails).
    """
    return _solve_family(initial, window, [params], [lam], rtol, atol, certify)[0]


def family_sample(trajectories):
    """``sample(t)``: (angles, B, G) of K consecutive members of one solve
    from one call of its dense output, (K,) arrays each, or (n_t, K) over
    n_t times.  The trajectories must share one dense output (by identity)
    and carry consecutive member indices in the solve's order
    (ConfigurationError otherwise); one trajectory is its own family.
    """
    first = trajectories[0]
    columns = slice(first._member, first._member + len(trajectories))
    members = enumerate(trajectories, first._member)
    if any(traj._dense is not first._dense or traj._member != j for j, traj in members):
        raise ConfigurationError(
            "trajectories are not the members of one family solve, in its order"
        )

    def sample(t):
        t = first._check_window(t)
        state = first._dense(t)
        theta, phi, g = first._chart(state, t)
        b = np.split(state, 5, axis=-1)[3]
        return AuxState(theta[..., columns], phi[..., columns]), b[..., columns], g[..., columns]

    return sample


class _Run(NamedTuple):
    """Members lo..hi-1 of a family solve, consecutive, that share one params
    object; ``drive`` is the rate Delta of their integration frame (module
    docstring), ``detuning`` the rate Delta0 of their certification frame
    (:func:`_frame`)."""

    params: ModelParams
    drive: float
    detuning: float
    lo: int
    hi: int


def _steady(params: ModelParams) -> bool:
    """Whether h' is constant in the drive frame: constant profiles, and a
    coupling phase that is constant or linear in time."""
    fixed = (params.omega, params.omega0, params.g_mod)
    steady_phase = params.g_phase.kind in ("constant", "linear")
    return steady_phase and all(p.kind == "constant" for p in fixed)


def _generator(runs, lams, t0: float):
    """The generators 2 h' of the M members' frame vectors (module
    docstring), each run in its drive frame: the (3, M) array itself,
    evaluated once at t0, when every run is steady (:func:`_steady`), as its
    generator is constant and :func:`susyjc.magnus.magnus` then solves it
    in closed form, and otherwise ``generators(t)``, (3, ..., M) over times
    t of any shape, which evaluates every run's profiles once for all its
    members, as arrays.
    """
    roots = 2.0 * np.sqrt(lams)  # so that the components below are 2 h'

    def generators(t):
        out = np.empty((3,) + np.shape(t) + (roots.size,))
        for run in runs:
            omega, omega0, g = run.params.evaluate(t)
            g = g * np.exp(1j * run.drive * (np.asarray(t) - t0))
            x, y, z = out[..., run.lo : run.hi]
            x[...] = np.multiply.outer(g.real, roots[run.lo : run.hi])
            y[...] = np.multiply.outer(g.imag, roots[run.lo : run.hi])
            z[...] = np.expand_dims(omega0 - run.params.k * omega + run.drive, -1)
        return out

    if all(_steady(run.params) for run in runs):
        return generators(t0)
    return generators


def _angle_chart(spins, times, phi0: np.ndarray, t0: float, drives, detunings):
    """``(to_chart, thetas, phis)``: ``to_chart(n, t)`` gives the (n_t, M)
    thetas, lab-frame phis and geometric phases G of the M members in solve
    states n, (n_t, 5M) at times t ((M,) at one t); ``thetas`` and ``phis``
    are (n, M) on the certification grid ``times``, where the solve gives the
    vectors and B + G in ``spins``, (n, 4M) (``MagnusSolution.spin``).
    Member j's solve frame turns at ``drives[j]`` and its certification frame
    at ``detunings[j]``.

    phi and G are each taken on the branch nearest their values at the grid
    sample at or before t, which are unwrapped along the grid from phi0 and
    0 in the certification frame (phi~ = phi - Delta0 tau, and the frame's
    total phase B + G + Delta0 tau / 2), where the grid resolves the motion:
    one Magnus step may span many turns.  phi~ is read back from the grid's
    phis, and only the branch of B + G is read, so the chart keeps it in
    single precision.  The conversion is elementwise: any set of times
    gives the same values.
    """
    members = phi0.size

    def azimuth(x, y, tau):  # phi~
        return np.arctan2(y, -x) + (drives - detunings) * tau

    def frame_phase(total, tau):  # B + G in the certification frame
        return total + 0.5 * detunings * tau

    grid_tau = (times - t0)[:, None]
    x, y, z, totals = np.split(spins, 4, axis=-1)
    phis = _unwrap(phi0, azimuth(x, y, grid_tau)) + detunings * grid_tau
    turns = _unwrap(np.zeros(members), frame_phase(totals, grid_tau))
    # a phase past single precision's range (an inf branch) turns far
    # faster than rounding lets any grid certify
    with np.errstate(over="ignore"):
        turns = turns.astype(np.float32)
    last = times.size - 1

    def to_chart(n, t):
        x, y, z, b, g = np.split(n, 5, axis=-1)
        tau = np.expand_dims(t - t0, -1)
        j = np.clip(np.searchsorted(times, t, side="right") - 1, 0, last)
        phi = azimuth(x, y, tau)
        phi = phi + _turns_to(phis[j] - detunings * (times[j, None] - t0), phi) + detunings * tau
        g = g + _turns_to(turns[j], frame_phase(b + g, tau))
        return np.arctan2(np.hypot(x, y), z), phi, g

    return to_chart, np.arctan2(np.hypot(x, y), z), phis


def _turns_to(target, angle):
    """The multiple of 2 pi that takes ``angle`` nearest to ``target``."""
    return _TWO_PI * np.round((target - angle) / _TWO_PI)


def _unwrap(first, angles):
    """(n, M) ``angles`` made continuous down the first axis from ``first``:
    each moved by the multiple of 2 pi that puts it nearest the one before."""
    steps = np.diff(angles, axis=0, prepend=first[None])
    return angles - _TWO_PI * np.cumsum(np.round(steps / _TWO_PI), axis=0)


def _poles(times, n, live: np.ndarray):
    """The poles that the samples show among the ``live`` (coupled) members,
    an (M,) mask, in the solve's vectors ``n``, (n_t, 4M) on ``times`` from
    ``vectors.spin`` (x and y columns first): ``found``, the (time, member)
    of each sample with |sin theta| < THETA_MIN, and ``reversals``, the
    (i, j, cx, cy) arrays of the samples i, i + 1 across which member j's
    (x, y) reverses direction, with the chord between them, in time order.
    """
    members = live.size
    x, y = n[:, :members], n[:, members : 2 * members]
    found = [(times[i], j) for i, j in zip(*np.nonzero((np.hypot(x, y) < THETA_MIN) & live))]
    i, j = np.nonzero((x[:-1] * x[1:] + y[:-1] * y[1:] < 0) & live)
    return found, (i, j, x[i + 1, j] - x[i, j], y[i + 1, j] - y[i, j])


def _first_pole(vectors: MagnusSolution, times, found, reversals, members: int):
    """(time, member) of the earliest pole of :func:`_poles`' ``found`` and
    ``reversals`` that start before them, or None.  A reversal holds a pole
    where (x, y) is perpendicular to its chord, located by bisection: the
    crossing itself, or the closest approach.
    """
    first = min(found, default=(math.inf, 0))[0]
    for i, j, cx, cy in zip(*reversals):
        if times[i] >= first:
            break

        def along(t, j=j, cx=cx, cy=cy):
            v = vectors.spin(t)
            return v[j] * cx + v[members + j] * cy

        t = _bisect(along, times[i], times[i + 1], 2e-12)
        v = vectors.spin(t)
        if math.hypot(v[j], v[members + j]) < THETA_MIN:
            found.append((t, j))
    return min(found) if found else None


def _frame(params: ModelParams, times):
    """(Delta0 tau, k w - w0 - Delta0, g e^{i Delta0 tau}) on a time grid:
    the solve's frame, with Delta0 = k w - w0 at tau = t - times[0] = 0.  A
    detuning, or its turn over the grid, past the float range is a
    ConfigurationError."""
    omega, omega0, g = params.evaluate(times)
    with np.errstate(over="ignore", invalid="ignore"):
        detuning = params.k * omega - omega0
        turn = detuning[0] * (times - times[0])
    if not (np.isfinite(detuning).all() and math.isfinite(turn[-1])):
        raise ConfigurationError(
            f"detuning k w - w0 = {float(np.max(np.abs(detuning))):.3g} over the window "
            f"({times[0]}, {times[-1]}) is out of floating-point range"
        )
    return turn, detuning - detuning[0], g * np.exp(1j * turn)


def _solve_family(
    initial: AuxState,
    window: tuple[float, float],
    params,
    lams,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    certify: bool = True,
) -> list[AuxTrajectory]:
    """:func:`solve_aux` for M members in one solve: member j has the params
    object ``params[j]`` and the lambda ``lams[j]``, and starts from
    ``initial``'s float angles, shared, or from entry j of its (M,) arrays.

    Consecutive members that share one params object (by identity) form a
    run.  A run's profiles are evaluated for all its members at once
    (:func:`_generator`), and the run has one drive frame (module
    docstring) and one certification :func:`_frame` on the shared grid.  The
    blocks m of a propagate or coherent run are one run, as they differ only
    in lambda; a Berry sweep's thetas are one run each.  The grid's edges and the
    integration's kinks are the union of all runs' kinks.

    The state is (5M,): the M members' frame vectors, then their B and G,
    both zero at t0 (module docstring), and the family steps together: a
    step is kept when its worst member's error is within the solver's
    rtol + atol (the vectors are of unit length), so each member's solver
    tolerance is the one its solo solve takes.  When every run is steady,
    the profiles are evaluated once, at t0, and the integration is one
    exact step in closed form, with no step search
    (:func:`susyjc.magnus.magnus`).  The first integration runs at rtol/16
    and atol/16, one refinement notch below the request.

    The family shares one sample grid, sized before the solve for the run
    and member that need the densest; a window whose floor grid's spacings
    overflow or underflow when multiplied together, as the sizing rule's
    derivative does, is a ConfigurationError.  Each certification pass
    evaluates the solve on it once, (n, 5M), checks the poles at the
    samples, converts the vector columns to the (n, M) thetas and phis and
    certifies each member
    (:func:`_printed_residual`); if any fails, the whole family is
    re-integrated at a further rtol/16, up to three times.  It stops
    earlier when the tighter pass would take the same steps
    (``MagnusSolution.settled``), as the closed-form step of a steady
    family would at any tolerance, and, on a grid cut to the cap, as soon as a
    refinement lowers the worst residual by less than a factor of 2, since
    the grid's error then holds it up.  The
    solver's rtol is clamped at the floor of 100 eps
    (``quadrature.RTOL_FLOOR``).  Errors raised for one member of a family
    name its lambda and its initial theta.  The poles between samples are
    located on the certified grid of the last pass (:func:`_first_pole`).
    M = 1 is :func:`solve_aux` exactly.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ConfigurationError(f"window must satisfy t1 > t0, got {window}")
    lams = np.asarray(lams, dtype=float)
    members = len(lams)
    params = list(params)
    if len(params) != members:
        raise ConfigurationError(f"{len(params)} params objects do not fit {members} members")
    try:
        theta0, phi0 = np.broadcast_arrays(initial.theta, initial.phi, np.zeros(members))[:2]
    except ValueError as exc:
        raise ConfigurationError(f"initial angles do not fit {members} members: {exc}") from exc

    def located(message, j):
        if members == 1:
            return message
        return f"{message} (lambda={float(lams[j])}, theta0={float(theta0[j])})"

    def at_pole(time, j):
        message = f"trajectory reached a polar angle singularity near t={time}"
        return SingularityError(located(message, j), time=float(time))

    # each run integrated in its drive frame, certified in the frame of its
    # H's uncoupled diagonal at t0
    firsts = [j for j in range(members) if j == 0 or params[j] is not params[j - 1]]
    runs = []
    for lo, hi in zip(firsts, firsts[1:] + [members]):
        omega, omega0, _ = params[lo].evaluate(t0)
        drive = -params[lo].g_phase.rate(t0)
        runs.append(_Run(params[lo], drive, params[lo].k * omega - omega0, lo, hi))
    sizes = [run.hi - run.lo for run in runs]
    drives = np.repeat([run.drive for run in runs], sizes)
    detunings = np.repeat([run.detuning for run in runs], sizes)

    # Sample density rule, per run from its profiles on the floor grid: a
    # component of amplitude a at rate w of the frame vector costs the
    # certificate's sixth-order stencils a derivative error ~ a w (h w)^6,
    # kept within 10 * rtol, an order below the bound.  The vector precesses
    # at 2 |h'| (a = 1); h''s coupling part c = 2 sqrt(lam) |g| turns at
    # Delta0 + (arg g)', a wobble of a = c / w.  The densest run sets the grid.
    kinks = np.unique(np.concatenate([run.params.breakpoints(t0, t1) for run in runs]))
    edges = np.concatenate([[t0], kinks, [t1]])
    times, edge_indices = segmented_grid(edges, _MIN_SAMPLES)
    gaps = np.diff(times)
    small, large = float(gaps.min()), float(gaps.max())
    # np.gradient below divides by products of two spacings
    if not (small * small > 0.0 and 2.0 * large * large < math.inf):
        raise ConfigurationError(
            f"window {window} is out of floating-point range for its {times.size}-sample grid: "
            f"spacings {small:.3g} to {large:.3g}"
        )
    frames = [_frame(run.params, times) for run in runs]
    budget = max(10.0 * rtol, 1e-13)

    def density(run, frame):
        coupling = 2.0 * math.sqrt(lams[run.lo : run.hi].max()) * np.abs(frame[2])
        precession = float(np.max(np.hypot(frame[1], coupling)))
        phase_rate = np.gradient(run.params.g_phase(times), times)
        turning = float(np.max(np.abs(run.detuning + phase_rate)))
        rates = precession * (precession / budget) ** (1 / 6)
        rates = max(rates, (precession + turning) * (float(np.max(coupling)) / budget) ** (1 / 6))
        # factor 2: the motion's harmonics sit above these rates; more than
        # the cap, infinity included, counts as the cap
        return 2 * math.ceil(min((t1 - t0) * rates, _SAMPLE_CAP))

    n_auto = max(density(run, frame) for run, frame in zip(runs, frames))
    capped = n_auto > _SAMPLE_CAP
    if n_auto > _MIN_SAMPLES:
        times, edge_indices = segmented_grid(edges, min(n_auto, _SAMPLE_CAP))
        frames = [_frame(run.params, times) for run in runs]
    live = np.repeat([bool(np.any(frame[2] != 0)) for frame in frames], sizes)  # coupled members
    starts = list(zip(theta0.tolist(), phi0.tolist()))
    polar = [j for j, (a, _) in enumerate(starts) if live[j] and abs(math.sin(a)) < THETA_MIN]
    if polar:
        raise at_pole(t0, polar[0])

    generators = _generator(runs, lams, t0)
    # math, not numpy, trigonometry: a shared start gives M copies of one vector
    n0 = [(-math.sin(a) * math.cos(b), math.sin(a) * math.sin(b), math.cos(a)) for a, b in starts]

    def failed(message, time):
        return SingularityError(f"angle integration failed: {message}", time=time)

    step = max(1, _CHUNK // times.size)  # members per certification derivative
    chunks = [
        (frame, slice(j, min(j + step, run.hi)))
        for frame, run in zip(frames, runs)
        for j in range(run.lo, run.hi, step)
    ]
    def tolerances(r):
        """Pass r's (rtol, tol): the request / 16**(r + 1) (docstring)."""
        solver_rtol = max(rtol / 16.0 ** (r + 1), RTOL_FLOOR)
        return solver_rtol, solver_rtol + atol / 16.0 ** (r + 1)  # |n| = 1

    total_nfev, previous = 0, math.inf
    for refinements in range(4):
        solver_rtol, tol = tolerances(refinements)
        vectors = magnus(generators, window, np.transpose(n0), kinks, tol, failed, drives)
        total_nfev += vectors.nfev
        block = vectors.spin(times)  # (n, 4M)
        found, reversals = _poles(times, block, live)
        if found:
            raise at_pole(*_first_pole(vectors, times, found, reversals, members))
        # (n, M) each; member j keeps views of column j
        to_chart, thetas, phis = _angle_chart(block, times, phi0, t0, drives, detunings)
        norms = np.sqrt(np.sum(block[:, : 3 * members].reshape(-1, 3, members) ** 2, axis=1))
        deviations = np.max(np.abs(norms - 1.0), axis=0)
        del block, norms
        series = np.hstack(
            [
                _printed_residual(times, edge_indices, thetas[:, c], phis[:, c], frame, lams[c])
                for frame, c in chunks
            ]
        )
        residuals = np.max(series, axis=0).tolist()
        worst = max(residuals)
        if not certify or worst <= 100.0 * rtol or refinements == 3:
            break
        if capped and worst > 0.5 * previous:
            break  # the capped grid's error, not the ODE's, holds the residual up
        if vectors.settled <= tolerances(refinements + 1)[1]:
            break  # a tighter pass would take these same steps
        previous = worst
        del thetas, phis, series  # frees the rejected pass before the next one samples

    stats = SolverStats(
        vectors.times.size - 1,
        total_nfev,
        rtol,
        atol,
        refinements=refinements,
        effective_rtol=solver_rtol,
        n_samples=times.size,
        sample_cap_hit=capped,
    )
    for j, residual in enumerate(residuals):
        if certify and residual > 100.0 * rtol:
            cap = f" on a grid capped at {_SAMPLE_CAP} samples" if capped else ""
            raise CertificationError(
                located(
                    f"angle trajectory residual {residual:.3e} exceeds "
                    f"100*rtol={100 * rtol:.3e}{cap}",
                    j,
                )
            )
    # locating a pole between samples trusts the grid to resolve the motion:
    # it waits for the certificate, or a solve that skips it
    pole = _first_pole(vectors, times, [], reversals, members)
    if pole is not None:
        raise at_pole(*pole)
    return [
        AuxTrajectory(
            times=times,
            thetas=thetas[:, j],
            phis=phis[:, j],
            params=member_params,
            lam=float(lam),
            stats=replace(stats, max_residual=residual, max_norm_deviation=float(deviation)),
            edge_indices=edge_indices,
            residuals=series[:, j],
            _dense=vectors,
            _chart=to_chart,
            _member=j,
        )
        for j, (member_params, lam, residual, deviation) in enumerate(
            zip(params, lams, residuals, deviations)
        )
    ]


def _printed_residual(times, edge_indices, theta, phi, frame, lam) -> np.ndarray:
    """Per-sample max modulus of the two complex angle equations as printed,

        E1 = th' cos(th) e^{-i phi} - i ph' sin(th) e^{-i phi}
             + i [ (k w - w0) sin(th) e^{-i phi} - 2 g sqrt(lam) cos(th) ]
        E2 = th' - i sqrt(lam) [ g e^{i phi} - g* e^{-i phi} ]

    on sampled angles ((n,), or (n, K) with K ``lam`` values), with
    ``frame`` = :func:`_frame` on ``times``.  The derivatives are
    sixth-order finite differences of s~ = sin(th) e^{-i phi~} and
    c = cos(th), phi~ = phi - Delta0 tau: the frame vector's -(x' + i y')
    and z', smooth near a pole and at rest under free precession.  The first two terms of E1 are
    d/dt (sin th e^{-i phi}), so E1 has the modulus of

        E1 e^{i Delta0 tau} = s~' + i ((k w - w0 - Delta0) s~ - 2 g' sqrt(lam) c),

    and th' = c Re(s~' e^{i phi~}) - sin(th) c' needs no division.
    """
    columns = (...,) + (None,) * (np.ndim(theta) - 1)  # the frame's (n,) parts as (n, 1)
    turn, offset, g_frame = (part[columns] for part in frame)
    root = np.sqrt(lam)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    e_m = np.exp(-1j * (phi - turn))  # e^{-i phi~}
    s = sin_t * e_m
    derivatives = spline_derivative(times, np.stack([s.real, s.imag, cos_t], axis=-1), edge_indices)
    ds, dc = derivatives[..., 0] + 1j * derivatives[..., 1], derivatives[..., 2]
    eq1 = ds + 1j * (offset * s - 2.0 * root * g_frame * cos_t)
    dtheta = cos_t * (ds * np.conj(e_m)).real - sin_t * dc
    rotated = g_frame * np.conj(e_m)  # g e^{i phi}
    eq2 = dtheta - 1j * root * (rotated - np.conj(rotated))
    return np.maximum(np.abs(eq1), np.abs(eq2))


def residual_series(traj: AuxTrajectory, params: ModelParams, lam: float) -> np.ndarray:
    """:func:`_printed_residual` along ``traj`` for ``params`` and ``lam``: its
    derivatives come from the samples, not from the integrated right-hand side."""
    frame = _frame(params, traj.times)
    return _printed_residual(traj.times, traj.edge_indices, traj.thetas, traj.phis, frame, lam)


def residual_check(traj: AuxTrajectory, params: ModelParams, lam: float) -> float:
    """Max complex residual of the printed angle equations along a trajectory."""
    if traj.times.size == 0:
        raise ConfigurationError("empty trajectory")
    return float(np.max(residual_series(traj, params, lam)))


def adiabatic_matched_theta(params: ModelParams, lam: float) -> float:
    """Initial polar angle solving the steady-azimuth constraint at t = 0.

    The root in (0, pi) of (k w - w0 - w) sin(theta) = 2 |g| sqrt(lam)
    cos(theta), in closed form.  Requires a nonzero coupling modulus.
    """
    omega, omega0, g = params.evaluate(0.0)
    b = 2.0 * abs(g) * math.sqrt(lam)
    if b == 0.0:
        raise ConfigurationError("adiabatic matching needs |g| > 0 at the initial time")
    return math.atan2(b, params.k * omega - omega0 - omega)


def _bisect(f, a: float, b: float, xtol: float) -> float:
    """A root of f between a and b, across which f changes sign, to xtol
    (or to the resolution of floats)."""
    a, b = float(a), float(b)
    negative = f(a) < 0
    while abs(b - a) > xtol:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        value = f(mid)
        if value == 0:
            return mid
        if (value < 0) == negative:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
