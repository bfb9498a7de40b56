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
spans the same gap k w(t0) - w0(t0), only picks up one scalar phase: the
generator is linear in the four real scalars w - w(t0), w0 - w0(t0) and the
real and imaginary parts of g_rot = g exp(i gap tau).  The states are
returned in the lab frame, psi(t) = exp(-iE(t - t0)) c(t).  Both routes are
standard quantum mechanics and borrow nothing from the invariant theory,
and every check runs on their lab-frame states.

Several runs share one propagation: an (R, dim) stack of initial states is
propagated as R columns.  Both routes touch only the live levels, the L
levels that some column populates and their Q partners (``_live_levels``):
H never couples them to the others, which stay exactly 0.  DOP853
integrates the live amplitudes of all columns as one state, so the solver's
per-step cost is paid once per step for all of them.  It steps their real
view, 2 R L interleaved (re, im) floats: real per-step BLAS products stay on
one thread at these sizes, where complex ones wake a spinning helper
thread.  Each right-hand side evaluates the profiles once, takes the
product of the four scalars with a fixed (4, 2L, 2L) real table
(``_live_generators``) and right-multiplies the (R, 2L) view by it.  The
time-first dense sample is read, as a view, as (n_t, R, L) amplitudes, and
the lab-frame states are scattered from it into the full (R, n_t, dim)
arrays, on which the norm-drift, guard-band and N' checks run.

DOP853's error norm is an RMS over all components, and an entry's complex
error is at most sqrt(2) times the larger of its parts, so a full-space
solve at rtol/sqrt(2R) and atol/sqrt(2R) gives no column a looser local
error criterion than its solo complex run's.  The live solve keeps that
criterion: the 2 R (dim - L) other components are exactly 0 at every stage,
so they add nothing to the sum of squares, only to the count it is divided
by.  Scaling rtol and atol by sqrt(dim / L) as well divides each scaled
error by the same factor, and the RMS over 2 R L components is then the
full-space one: the solver takes the same steps.  Its initial-step
estimate (Hairer, Norsett & Wanner) is unchanged too, as its RMS norms are
the same.  The solver's rtol is clamped at ``RTOL_FLOOR``.  Every check
runs on each column, and a rejection names the worst one.  One state is
the R = 1 case.
"""

from __future__ import annotations

import cmath
import functools
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
_SAMPLE_BLOCK = 64  # states per block of the |psi|^2 pass; bounds its complex temporaries


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
    are Q's nonzero entries.  One read-only instance per space is kept.
    """

    number: np.ndarray  # diagonal of adag a
    half_sz: np.ndarray  # diagonal of sigma_z / 2
    pairs: np.ndarray  # (dim, 2): each level's index and its partner's
    basis: np.ndarray  # (4, 2 dim): the (level, partner) weights of adag a, sz/2, Q, Qdag
    nprime: np.ndarray  # diagonal of N', for the drift diagnostic only

    @classmethod
    @functools.lru_cache(maxsize=16)
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
        nprime = np.diagonal(gen.Nprime).real.copy()
        for array in (number, half_sz, pairs, basis, nprime):
            array.flags.writeable = False
        return cls(number, half_sz, pairs, basis.reshape(4, -1), nprime)


def _live_levels(structure: _Structure, columns: np.ndarray) -> np.ndarray:
    """The levels, ascending, that some of the (R, dim) ``columns`` populates,
    or whose Q partner it populates.  The set is closed under the partner
    map, and H never couples it to the other levels, which stay 0."""
    populated = np.any(columns, axis=0)
    return np.flatnonzero(populated | populated[structure.pairs[:, 1]])


def _live_generators(structure: _Structure, live: np.ndarray) -> np.ndarray:
    """The (4, 2L, 2L) real table T over the L ``live`` levels: with the
    scalars s = (w, w0, Re g, Im g), the (R, 2L) interleaved (re, im) view of
    their amplitudes times s . T is the view of -i H applied to them."""
    size = live.size
    own = np.arange(size)
    partner = np.searchsorted(live, structure.pairs[live, 1])
    weights = structure.basis.reshape(4, -1, 2)[:, live]
    h = np.zeros((4, size, size), dtype=complex)  # adag a, sz/2, Q and Qdag on the live levels
    h[:, own, own] = weights[..., 0]
    h[:, own, partner] += weights[..., 1]
    # -i (w adag a + w0 sz/2 + g Q + g* Qdag) with g = u + i v
    minus_i_h = np.stack([-1j * h[0], -1j * h[1], -1j * (h[2] + h[3]), h[2] - h[3]])
    # an entry z of row i, column j maps (re, im) of amplitude j to
    # (Re z re - Im z im, Im z re + Re z im) of amplitude i; the table is
    # transposed for the right-multiplication
    z = minus_i_h.transpose(0, 2, 1)
    table = np.empty((4, size, 2, size, 2))
    table[:, :, 0, :, 0] = table[:, :, 1, :, 1] = z.real
    table[:, :, 1, :, 0] = -z.imag
    table[:, :, 0, :, 1] = z.imag
    return table.reshape(4, 2 * size, 2 * size)


def _rotated(structure: _Structure, coefficients, columns: np.ndarray, tau: np.ndarray):
    """e^{-iH tau} applied to each of the (R, dim) ``columns`` at each of the
    times ``tau`` since the window start, as (R, n_t, dim): H is constant,
    with ``coefficients`` (w, w0, g, g*), so each level turns with its
    partner by the closed-form Rabi rotation of the module docstring.  A
    level that no column populates, nor its partner, stays 0, so only the
    others are turned."""
    partner = structure.pairs[:, 1]
    live = _live_levels(structure, columns)
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
    by link, and ``rtol`` and ``atol`` go unused.  Otherwise the stack's L
    live levels are integrated as one real solve of their 2 R L (re, im)
    parts at rtol and atol times sqrt(dim / L) / sqrt(2R), which keeps the
    error criterion of a full-space solve at rtol/sqrt(2R) and atol/sqrt(2R)
    (module docstring), the solver's rtol clamped at
    ``quadrature.RTOL_FLOOR`` (100 eps).  Each state must be
    finite, normalized and keep at least ``spec.guard`` photon levels free
    below the cutoff; a row that is not is a ``ConfigurationError`` that
    names it.  Because H never couples across blocks, any column that
    populates the guard band (amplitude above ``MAX_LEAKAGE``) flags a
    propagation bug and rejects the run, as does a column whose norm drifts
    beyond ``max_norm_drift``, NaN included; the ``PropagationError`` names
    the worst column (``column``, None for one state).  A ``t_eval`` time
    outside the window, or an empty ``t_eval``, is a ConfigurationError.
    """
    if params.k != spec.k:
        raise ConfigurationError(f"params.k={params.k} does not match spec.k={spec.k}")
    psi0 = np.array(initial, dtype=complex)
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

    t0, t1 = float(window[0]), float(window[1])
    t_eval = np.linspace(t0, t1, 401) if t_eval is None else t_eval
    t_eval = check_window(t_eval, t0, t1, "propagation")
    if t_eval.ndim != 1 or t_eval.size == 0:
        raise ConfigurationError(
            f"t_eval must be a non-empty 1-d array of times, got shape {t_eval.shape}"
        )
    structure = _Structure.for_space(spec)
    profiles = (params.omega, params.omega0, params.g_mod, params.g_phase)
    if all(profile.kind == "constant" for profile in profiles):
        omega, omega0, g = params.evaluate(t0)
        coefficients = (omega, omega0, g, g.conjugate())
        states = _rotated(structure, coefficients, columns, t_eval - t0)
        n_steps = n_rhs_evaluations = 0
    else:
        states, dense = _integrated(structure, params, spec, columns, (t0, t1), t_eval, rtol, atol)
        n_steps, n_rhs_evaluations = dense.times.size - 1, dense.nfev

    # |psi|^2, rounded as np.linalg.norm rounds it: the one full-size
    # temporary of the three checks, filled a few samples at a time
    samples = states.reshape(-1, spec.dim)
    populations = np.empty(samples.shape)
    for start in range(0, len(samples), _SAMPLE_BLOCK):
        part = samples[start : start + _SAMPLE_BLOCK]
        populations[start : start + _SAMPLE_BLOCK] = (part.conj() * part).real
    populations = populations.reshape(states.shape)
    norm_drifts = np.max(np.abs(np.sqrt(populations.sum(axis=-1)) - 1.0), axis=-1)
    _reject_above("norm drift", norm_drifts, max_norm_drift, stacked)
    guard = populations.reshape(n_runs, t_eval.size, 2, spec.cutoff)[..., top:]
    leakage = np.sqrt(np.max(guard, axis=(1, 2, 3)))
    _reject_above("guard-band amplitude", leakage, MAX_LEAKAGE, stacked)

    expectations = populations @ structure.nprime
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


def _integrated(structure, params, spec, columns, window, t_eval, rtol, atol):
    """The lab-frame (R, n_t, dim) states of DOP853's integration of the live
    levels of the (R, dim) ``columns`` in the t0-diagonal frame (module
    docstring), and the solver's dense output."""
    t0 = window[0]
    n_runs = len(columns)
    live = _live_levels(structure, columns)
    size = 2 * live.size  # real components of one column
    table = _live_generators(structure, live).reshape(4, -1)
    # E is H's uncoupled diagonal at t0, and gap = E[ground m + k] -
    # E[excited m] on every Q link
    omega_ref, omega0_ref, _ = params.evaluate(t0)
    energies = omega_ref * structure.number[live] + omega0_ref * structure.half_sz[live]
    gap = spec.k * omega_ref - omega0_ref

    def rhs(t, c):  # c: the (re, im) view of the (R, L) live amplitudes
        omega, omega0, g = params.evaluate(t)
        g_rot = g * cmath.exp(1j * gap * (t - t0))
        scalars = (omega - omega_ref, omega0 - omega0_ref, g_rot.real, g_rot.imag)
        generator = np.dot(scalars, table).reshape(size, size)
        return np.dot(c.reshape(n_runs, size), generator).reshape(-1)

    def failed(message, time):
        return PropagationError(f"integration failed: {message}", None, time)

    # the full-space error criterion over 2 R L components (module docstring)
    scale = math.sqrt(spec.dim / live.size) / math.sqrt(2 * n_runs)
    solver_rtol = max(rtol * scale, RTOL_FLOOR)
    kinks = params.breakpoints(min(window), max(window))
    y0 = columns[:, live].reshape(-1).view(float)
    dense = integrate_segments(rhs, window, y0, kinks, solver_rtol, atol * scale, failed)
    rotating = dense(t_eval).view(complex).reshape(t_eval.size, n_runs, live.size)
    phases = np.exp(-1j * np.outer(t_eval - t0, energies))
    states = np.zeros((n_runs, t_eval.size, spec.dim), dtype=complex)
    states[..., live] = rotating.transpose(1, 0, 2) * phases
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
