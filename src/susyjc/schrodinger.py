"""Brute-force propagation of the time-dependent Schrodinger equation.

This propagator serves as ground truth for the invariant-based solutions
and deliberately shares nothing with them beyond the operator builders:
it advances the Schrodinger equation on the full truncated space.  The norm
is never renormalized; its drift is a diagnostic and runs exceeding the
drift bound are rejected.

H never couples a level to more than one other: adag a and sigma_z are
diagonal, and Q = adag^k sigma_- links excited level m to ground level
m + k only.  So every level has one partner across its Q link (the top k
excited and bottom k ground levels are their own), and H is a direct sum
of 2 x 2 blocks [[a, b], [b*, d]] on the links.  With all four profiles of
kind constant, H is time-independent and e^{-iH tau} is one Rabi rotation
per link (Rabi, Phys. Rev. 51, 652 (1937)): with mu = (a + d) / 2,
delta = (a - d) / 2, r = hypot(delta, |b|) and s = sin(r tau) / r (tau at
r = 0),

    psi_i(t) = exp(-i mu tau) [(cos r tau - i delta s) psi_i - i b s psi_p],

elementwise over the level i and its partner p (``_rotated``).  Nothing is
integrated; no eigendecomposition and no complex matrix product is formed.

Any other kind, even one whose values stay constant, is integrated by an
adaptive Runge-Kutta scheme (DOP853) in the interaction picture of H's
uncoupled diagonal frozen at the window start t0, E = w(t0) adag a +
w0(t0) sigma_z / 2: the integrated amplitudes are c(t) = exp(iE(t - t0))
psi(t), so the solver does not have to follow the fast free phases
exp(-i(m w +- w0/2) t) of the populated levels, only the slow coupled
dynamics.  It obeys

    dc/dt = -i exp(iE tau) (H(t) - E) exp(-iE tau) c,    tau = t - t0,

in which the diagonal part stays H_diag(t) - E and every Q link, which
spans the same gap k w(t0) - w0(t0), only picks up one scalar phase, so the
right-hand side is one application of adag a, sigma_z / 2, Q and Qdag with
-i times w - w(t0), w0 - w0(t0), g exp(i gap tau) and its conjugate
(``_apply_hamiltonian``).  The states are returned in the lab frame,
psi(t) = exp(-iE(t - t0)) c(t).  Both routes are standard quantum
mechanics and borrow nothing from the invariant theory, and every check
runs on their lab-frame states.

Several runs share one propagation: an (R, dim) stack of initial states is
propagated as R columns.  DOP853 integrates them as one (R dim,) state, so
the solver's per-step cost is paid once per step for all of them.  The
solver steps its real view, 2 R dim interleaved (re, im) floats: real
per-step BLAS products stay on one thread at these sizes, where complex
ones wake a spinning helper thread.  The time-first (n_t, 2 R dim) dense
sample is read, as a view, as (n_t, R, dim) amplitudes, and each run's
lab-frame states are written from it.  DOP853's error norm is an RMS over
all components, and an entry's complex error is at most sqrt(2) times the
larger of its parts, so the solver gets rtol/sqrt(2R) and atol/sqrt(2R): no
column's local error criterion is looser than its solo complex run's.
Every check runs on each column, and a rejection names the worst one.  One
state is the R = 1 case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PropagationError
from .fock import FockSpaceSpec, build_generators, build_ladder
from .profiles import ModelParams
from .quadrature import RTOL_FLOOR, check_window, integrate_segments


MAX_NORM_DRIFT = 1e-9
MAX_LEAKAGE = 1e-8  # largest amplitude allowed in the guard band
# largest max_t |psi_exact - psi_oracle| a caller should accept: ten times the
# oracle's own error, and, unlike an infidelity, sensitive to a block's phase
MAX_AMPLITUDE_ERROR = 1e-8


@dataclass(frozen=True)
class PropagationResult:
    """Lab-frame states on ``times`` plus the run's diagnostics and work.

    ``states`` is (n_times, dim) for one initial state and (R, n_times, dim)
    for a stack of R.  ``norm_drift`` and ``nprime_drift`` are the worst
    column's.  ``n_steps`` (accepted solver steps) and ``n_rhs_evaluations``
    count the one integration of all columns, summed over the segments
    between profile kinks; both are 0 for constant profiles, which are
    propagated exactly.
    """

    times: np.ndarray
    states: np.ndarray  # (n_times, dim), or (R, n_times, dim) for a stack
    norm_drift: float
    nprime_drift: float
    n_steps: int
    n_rhs_evaluations: int


@dataclass(frozen=True)
class _Structure:
    """H(t)'s pieces, and N', as the constants that the right-hand side and
    the exact rotation apply.

    In the atom-major basis adag a, sigma_z and N' are diagonal.  Q = adag^k
    sigma_- only links excited level m to ground level m + k, and Qdag = Q^T
    links them back with the same real entries.  So each of adag a, sigma_z
    / 2, Q and Qdag weights a level and its partner across its link (the top
    k excited and bottom k ground levels are their own, with weight 0).  All
    are read off the operator builders' matrices, not re-derived: adag a's
    diagonal is the squared superdiagonal of the ladder's a, and the links
    are Q's nonzero entries.
    """

    number: np.ndarray  # diagonal of adag a
    half_sz: np.ndarray  # diagonal of sigma_z / 2
    pairs: np.ndarray  # (dim, 2): each level's index and its partner's
    basis: np.ndarray  # (4, 2 dim): the (level, partner) weights of adag a, sz/2, Q, Qdag
    nprime: np.ndarray  # diagonal of N', for the drift diagnostic only

    @classmethod
    def for_space(cls, spec: FockSpaceSpec) -> "_Structure":
        gen = build_generators(spec)
        a, _ = build_ladder(spec)
        # (adag a)[i, i] = a[i - 1, i]^2, and 0 at i = 0, which has no level below
        number = np.concatenate([[0.0], np.diagonal(a, offset=1).real ** 2])
        half_sz = 0.5 * np.diagonal(gen.sigma_z).real
        ground, excited = np.nonzero(gen.Q)  # Q[ground m + k, excited m]
        pairs = np.stack([np.arange(spec.dim)] * 2, axis=-1)
        pairs[ground, 1], pairs[excited, 1] = excited, ground
        basis = np.zeros((4, spec.dim, 2), dtype=complex)
        basis[0, :, 0], basis[1, :, 0] = number, half_sz
        basis[2, ground, 1] = basis[3, excited, 1] = gen.Q[ground, excited].real
        return cls(
            number=number,
            half_sz=half_sz,
            pairs=pairs,
            basis=basis.reshape(4, -1),
            nprime=np.diagonal(gen.Nprime).real,
        )


def _apply_hamiltonian(structure: _Structure, coefficients, y: np.ndarray) -> np.ndarray:
    """c0 adag a y + c1 (sigma_z / 2) y + c2 Q y + c3 Qdag y: the four
    ``coefficients`` times the basis give each level's (level, partner)
    weights, applied by one gather, one product and one sum over the pair.
    (w, w0, g, g*) gives H y.  The operators act on the last axis, so ``y``
    may be one state or a stack of them."""
    weights = np.dot(coefficients, structure.basis).reshape(-1, 2)
    pairs = np.take(y, structure.pairs, axis=-1)  # (..., dim, 2)
    pairs *= weights
    return np.add(pairs[..., 0], pairs[..., 1])


def _rotated(structure: _Structure, coefficients, columns: np.ndarray, tau: np.ndarray):
    """e^{-iH tau} applied to each of the (R, dim) ``columns`` at each of the
    times ``tau`` since the window start, as (R, n_t, dim): H is constant,
    with ``coefficients`` (w, w0, g, g*), so each level turns with its
    partner by the closed-form Rabi rotation of the module docstring.  A
    level that no column populates, nor its partner, stays 0, so only the
    others are turned."""
    partner = structure.pairs[:, 1]
    live = np.flatnonzero(np.any(columns, axis=0) | np.any(columns[:, partner], axis=0))
    weights = np.dot(coefficients, structure.basis).reshape(-1, 2)
    own, other, link = weights[live, 0].real, weights[partner[live], 0].real, weights[live, 1]
    mean, half = 0.5 * (own + other), 0.5 * (own - other)
    rate = np.hypot(half, np.abs(link))
    angle = np.outer(tau, rate)
    sine = np.repeat(tau[:, None], live.size, axis=1)  # sin(r tau) / r -> tau at r = 0
    np.divide(np.sin(angle), rate, out=sine, where=rate > 0)
    phase = np.exp(-1j * np.outer(tau, mean))
    stay = np.cos(angle) - 1j * half * sine
    stay *= phase
    cross = (-1j * link) * sine
    cross *= phase
    states = np.zeros((len(columns), tau.size, partner.size), dtype=complex)
    turned = stay * columns[:, None, live]
    turned += cross * columns[:, None, partner[live]]
    states[..., live] = turned
    return states


def propagate(
    initial: np.ndarray,
    window: tuple[float, float],
    params: ModelParams,
    spec: FockSpaceSpec,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: np.ndarray | None = None,
    max_norm_drift: float = MAX_NORM_DRIFT,
) -> PropagationResult:
    """Propagate normalized initial states under the Schrodinger equation.

    ``initial`` is one state, (dim,), or a stack of R states, (R, dim).
    With all four profiles of kind constant, each is rotated exactly, link
    by link, and ``rtol`` and ``atol`` go unused.  Otherwise the stack is
    integrated as one real solve of its 2 R dim (re, im) parts at
    rtol/sqrt(2R) and atol/sqrt(2R) (module docstring), the solver's rtol
    clamped at ``quadrature.RTOL_FLOOR`` (100 eps).  Each state must be
    finite, normalized and keep at least ``spec.guard`` photon levels free
    below the cutoff; a row that is not is a ``ConfigurationError`` that
    names it.  Because H never couples across blocks, any column that
    populates the guard band (amplitude above ``MAX_LEAKAGE``) flags a
    propagation bug and rejects the run, as does a column whose norm drifts
    beyond ``max_norm_drift``, NaN included; the ``PropagationError`` names
    the worst column (``column``, None for one state).  A ``t_eval`` time outside the window is a ConfigurationError.
    """
    if params.k != spec.k:
        raise ConfigurationError(f"params.k={params.k} does not match spec.k={spec.k}")
    psi0 = np.array(initial, dtype=complex)  # a contiguous copy: its real view is y0
    stacked = psi0.ndim == 2
    if psi0.shape[-1:] != (spec.dim,) or psi0.ndim > 2 or psi0.size == 0:
        raise ConfigurationError(
            f"initial state has shape {psi0.shape}, expected ({spec.dim},) or (R, {spec.dim})"
        )
    columns = psi0.reshape(-1, spec.dim)
    n_runs = len(columns)
    top = spec.cutoff - spec.guard
    for i, psi in enumerate(columns):
        name = f"initial state row {i}" if stacked else "initial state"
        if not np.all(np.isfinite(psi)):
            raise ConfigurationError(f"{name} has a non-finite amplitude")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ConfigurationError(f"{name} must be normalized")
        if np.any(np.abs(psi.reshape(2, spec.cutoff)[:, top:]) > 1e-12):
            raise ConfigurationError(
                f"{name} occupies the top {spec.guard} guard levels; "
                f"support must stay below photon level {top}"
            )

    structure = _Structure.for_space(spec)
    t0, t1 = float(window[0]), float(window[1])
    t_eval = np.linspace(t0, t1, 401) if t_eval is None else t_eval
    t_eval = check_window(t_eval, t0, t1, "propagation")
    profiles = (params.omega, params.omega0, params.g_mod, params.g_phase)
    if all(profile.kind == "constant" for profile in profiles):
        omega, omega0, g = params.evaluate(t0)
        coefficients = (omega, omega0, g, g.conjugate())
        states = _rotated(structure, coefficients, columns, t_eval - t0)
        n_steps = n_rhs_evaluations = 0
    else:
        states, dense = _integrated(structure, params, spec, psi0, (t0, t1), t_eval, rtol, atol)
        n_steps, n_rhs_evaluations = dense.times.size - 1, dense.nfev

    norm_drifts = np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0), axis=-1)
    _reject_above("norm drift", norm_drifts, max_norm_drift, stacked)
    guard = states.reshape(n_runs, len(t_eval), 2, spec.cutoff)[..., top:]
    leakage = np.max(np.abs(guard), axis=(1, 2, 3))
    _reject_above("guard-band amplitude", leakage, MAX_LEAKAGE, stacked)

    expectations = (np.abs(states) ** 2) @ structure.nprime
    nprime_drift = float(np.max(np.abs(expectations - expectations[:, :1])))

    return PropagationResult(
        times=t_eval,
        states=states if stacked else states[0],
        norm_drift=float(np.max(norm_drifts)),
        nprime_drift=nprime_drift,
        n_steps=n_steps,
        n_rhs_evaluations=n_rhs_evaluations,
    )


def _reject_above(what: str, values: np.ndarray, bound: float, stacked: bool) -> None:
    """A PropagationError naming the worst column's value of ``what`` unless
    every column's is at most ``bound``; NaN is not, and is the worst."""
    worst = int(np.argmax(values))  # the first NaN, if any
    if not values[worst] <= bound:
        where = f" in column {worst}" if stacked else ""
        raise PropagationError(
            f"run rejected: {what} {values[worst]:.3e}{where} exceeds {bound:g}",
            worst if stacked else None,
        )


def _integrated(structure, params, spec, psi0, window, t_eval, rtol, atol):
    """The lab-frame (R, n_t, dim) states of DOP853's integration of the
    ``psi0`` stack in the t0-diagonal frame (module docstring), and the
    solver's dense output."""
    t0 = window[0]
    n_runs = psi0.size // spec.dim
    # E is H's uncoupled diagonal at t0, and gap = E[ground m + k] -
    # E[excited m] on every Q link
    omega_ref, omega0_ref, _ = params.evaluate(t0)
    energies = omega_ref * structure.number + omega0_ref * structure.half_sz
    gap = spec.k * omega_ref - omega0_ref

    def rhs(t, c):  # c: the (re, im) view of the (R dim,) stack
        omega, omega0, g = params.evaluate(t)
        g_rot = g * cmath.exp(1j * gap * (t - t0))
        minus_i_h = (  # -i times H(t) - E's coefficients in the frame
            -1j * (omega - omega_ref),
            -1j * (omega0 - omega0_ref),
            -1j * g_rot,
            -1j * g_rot.conjugate(),
        )
        hc = _apply_hamiltonian(structure, minus_i_h, c.view(complex).reshape(n_runs, -1))
        return hc.reshape(-1).view(float)

    def failed(message, time):
        return PropagationError(f"integration failed: {message}", None, time)

    shrink = math.sqrt(2 * n_runs)
    solver_rtol = max(rtol / shrink, RTOL_FLOOR)
    kinks = params.breakpoints(min(window), max(window))
    dense = integrate_segments(
        rhs, window, psi0.reshape(-1).view(float), kinks, solver_rtol, atol / shrink, failed
    )
    rotating = dense(t_eval).view(complex).reshape(t_eval.size, n_runs, spec.dim)
    phases = np.exp(-1j * np.outer(t_eval - t0, energies))
    states = np.empty((n_runs,) + phases.shape, dtype=complex)
    for run, out in enumerate(states):
        np.multiply(rotating[:, run], phases, out=out)
    return states, dense


def fidelity(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """|<psi1|psi2>|; global phase drops out."""
    return float(abs(np.vdot(np.asarray(psi1), np.asarray(psi2))))


def invariant_expectation_drift(op, result: PropagationResult) -> float:
    """Max deviation of <psi(t)|O(t)|psi(t)> from its initial value.

    ``op`` may be a constant full-space complex array or a callable
    t -> array (for invariants rebuilt from a trajectory at each sample).
    ``result`` holds one run.  A stack's (R, n_times, dim) states, or an op
    (a callable's first value) that is not (dim, dim), are a ConfigurationError.
    """
    if result.states.ndim != 2:
        raise ConfigurationError(
            f"expected the states of one run, (n_times, dim), got shape {result.states.shape}"
        )
    values = []
    for t, psi in zip(result.times, result.states):
        mat = np.asarray(op(float(t)) if callable(op) else op)
        if not values and mat.shape != 2 * psi.shape:  # (dim, dim)
            raise ConfigurationError(f"operator shape {mat.shape} is not {2 * psi.shape}")
        values.append(np.real(np.vdot(psi, mat @ psi)))
    values = np.asarray(values)
    return float(np.max(np.abs(values - values[0])))
