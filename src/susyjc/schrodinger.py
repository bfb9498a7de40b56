"""Brute-force propagation of the time-dependent Schrodinger equation.

This integrator serves as ground truth for the invariant-based solutions
and deliberately shares nothing with them beyond the operator builders:
it advances the Schrodinger equation on the full truncated space with an
adaptive Runge-Kutta scheme.  The norm is never renormalized; its drift is
a diagnostic and runs exceeding the drift bound are rejected.

The integration runs in the interaction picture of H's uncoupled diagonal
frozen at the window start t0, E = w(t0) adag a + w0(t0) sigma_z / 2: the
integrated amplitudes are c(t) = exp(iE(t - t0)) psi(t), so the solver does
not have to follow the fast free phases exp(-i(m w +- w0/2) t) of the
populated levels, only the slow coupled dynamics.  It obeys

    dc/dt = -i exp(iE tau) (H(t) - E) exp(-iE tau) c,    tau = t - t0,

in which the diagonal part stays H_diag(t) - E and every Q link, which
spans the same gap k w(t0) - w0(t0), only picks up one scalar phase.  The
states are returned in the lab frame, psi(t) = exp(-iE(t - t0)) c(t), and
every check runs on them.  The frame is standard quantum mechanics and
borrows nothing from the invariant theory.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PropagationError
from .fock import FockSpaceSpec, Operator, build_generators, build_ladder
from .profiles import ModelParams
from .quadrature import integrate_segments


MAX_NORM_DRIFT = 1e-9
MAX_LEAKAGE = 1e-8  # largest amplitude allowed in the guard band


@dataclass(frozen=True)
class PropagationResult:
    """Lab-frame states on ``times`` plus the run's diagnostics and work.

    ``n_steps`` (accepted solver steps) and ``n_rhs_evaluations`` are summed
    over the segments between profile kinks.
    """

    times: np.ndarray
    states: np.ndarray  # shape (n_times, dim)
    norm_drift: float
    nprime_drift: float
    n_steps: int
    n_rhs_evaluations: int


@dataclass(frozen=True)
class _Structure:
    """H(t)'s pieces, and N', as the vectors the right-hand side applies.

    In the atom-major basis adag a, sigma_z and N' are diagonal.  Q = adag^k
    sigma_- only links excited level m to ground level m + k (flat index
    cutoff + k further on), and Qdag = Q^T links them back with the same
    real entries, so one vector ``q`` serves both links.  All are read off
    the operator builders' matrices, not re-derived: adag a's diagonal is
    the squared superdiagonal of the ladder's a.
    """

    number: np.ndarray  # diagonal of adag a
    half_sz: np.ndarray  # diagonal of sigma_z / 2
    q: np.ndarray  # Q[cutoff + k + m, m] = Qdag[m, cutoff + k + m], m = 0 .. cutoff - k - 1
    nprime: np.ndarray  # diagonal of N', for the drift diagnostic only

    @classmethod
    def for_space(cls, spec: FockSpaceSpec) -> "_Structure":
        gen = build_generators(spec)
        a, _ = build_ladder(spec)
        # (adag a)[i, i] = a[i - 1, i]^2, and 0 at i = 0, which has no level below
        number = np.concatenate([[0.0], np.diagonal(a.matrix, offset=1).real ** 2])
        return cls(
            number=number,
            half_sz=0.5 * np.diagonal(gen.sigma_z.matrix).real,
            q=np.diagonal(gen.Q.matrix, offset=-(spec.cutoff + spec.k)).real,
            nprime=np.diagonal(gen.Nprime.matrix).real,
        )


def _apply_hamiltonian(structure: _Structure, omega, omega0, g, y: np.ndarray) -> np.ndarray:
    """H y for H = w adag a + (w0/2) sigma_z + g Q + g* Qdag: one diagonal
    scaling plus the two k-shifted slice updates of Q and Qdag."""
    n = structure.q.size
    hy = (omega * structure.number + omega0 * structure.half_sz) * y
    hy[-n:] += (g * structure.q) * y[:n]
    hy[:n] += (g.conjugate() * structure.q) * y[-n:]
    return hy


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
    """Integrate the Schrodinger equation from a normalized initial state.

    The initial state must keep at least ``spec.guard`` photon levels free
    below the cutoff; because H never couples across blocks, any population
    reaching the guard band (amplitude above ``MAX_LEAKAGE``) flags an
    integration bug and rejects the run, as does a norm drift beyond
    ``max_norm_drift``.
    """
    if params.k != spec.k:
        raise ConfigurationError(f"params.k={params.k} does not match spec.k={spec.k}")
    psi0 = np.asarray(initial, dtype=complex)
    if psi0.shape != (spec.dim,):
        raise ConfigurationError(f"initial state has shape {psi0.shape}, expected ({spec.dim},)")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ConfigurationError("initial state must be normalized")

    occupied = np.abs(psi0.reshape(2, spec.cutoff)) > 1e-12
    top = spec.cutoff - spec.guard
    if np.any(occupied[:, top:]):
        raise ConfigurationError(
            f"initial state occupies the top {spec.guard} guard levels; "
            f"support must stay below photon level {top}"
        )

    structure = _Structure.for_space(spec)
    t0, t1 = float(window[0]), float(window[1])

    # the rotating frame (module docstring): E is H's uncoupled diagonal at
    # t0, and gap = E[ground m + k] - E[excited m] on every Q link
    omega_ref, omega0_ref, _ = params.evaluate(t0)
    energies = omega_ref * structure.number + omega0_ref * structure.half_sz
    gap = spec.k * omega_ref - omega0_ref

    def rhs(t, c):
        omega, omega0, g = params.evaluate(t)
        g_rot = g * cmath.exp(1j * gap * (t - t0))
        hc = _apply_hamiltonian(structure, omega - omega_ref, omega0 - omega0_ref, g_rot, c)
        hc *= -1j
        return hc

    if t_eval is None:
        t_eval = np.linspace(t0, t1, 401)
    t_eval = np.asarray(t_eval, dtype=float)

    def failed(message, time):
        return PropagationError(f"integration failed: {message}")

    dense, n_steps, n_rhs, _ = integrate_segments(rhs, (t0, t1), psi0, params, rtol, atol, failed)
    rotating = dense(t_eval).T
    states = rotating * np.exp(-1j * np.outer(t_eval - t0, energies))
    norms = np.linalg.norm(states, axis=1)
    norm_drift = float(np.max(np.abs(norms - 1.0)))
    if norm_drift > max_norm_drift:
        raise PropagationError(
            f"run rejected: norm drift {norm_drift:.3e} exceeds {max_norm_drift:g}"
        )

    guard_pop = np.max(np.abs(states.reshape(len(states), 2, spec.cutoff)[:, :, top:]))
    if guard_pop > MAX_LEAKAGE:
        raise PropagationError(
            f"run rejected: guard-band amplitude {guard_pop:.3e} exceeds {MAX_LEAKAGE:g}"
        )

    expectations = (np.abs(states) ** 2) @ structure.nprime
    nprime_drift = float(np.max(np.abs(expectations - expectations[0])))

    return PropagationResult(
        times=t_eval,
        states=states,
        norm_drift=norm_drift,
        nprime_drift=nprime_drift,
        n_steps=n_steps,
        n_rhs_evaluations=n_rhs,
    )


def fidelity(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """|<psi1|psi2>|; global phase drops out."""
    return float(abs(np.vdot(np.asarray(psi1), np.asarray(psi2))))


def invariant_expectation_drift(op, result: PropagationResult) -> float:
    """Max deviation of <psi(t)|O(t)|psi(t)> from its initial value.

    ``op`` may be a constant matrix/Operator or a callable t -> matrix (for
    invariants rebuilt from a trajectory at each sample).
    """
    values = []
    for t, psi in zip(result.times, result.states):
        mat = op(float(t)) if callable(op) else op
        mat = mat.matrix if isinstance(mat, Operator) else np.asarray(mat)
        values.append(np.real(np.vdot(psi, mat @ psi)))
    values = np.asarray(values)
    return float(np.max(np.abs(values - values[0])))
