"""Brute-force propagation of the time-dependent Schrodinger equation.

This integrator serves as ground truth for the invariant-based solutions
and deliberately shares nothing with them beyond the operator builders:
it advances dpsi/dt = -i H(t) psi on the full truncated space with an
adaptive Runge-Kutta scheme.  The norm is never renormalized; its drift is
a diagnostic and runs exceeding the drift bound are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigurationError, PropagationError
from .fock import FockSpaceSpec, Operator, build_generators, build_ladder
from .profiles import ModelParams
from .quadrature import PiecewiseDense


MAX_NORM_DRIFT = 1e-9
MAX_LEAKAGE = 1e-8  # largest amplitude allowed in the guard band


@dataclass(frozen=True)
class PropagationResult:
    times: np.ndarray
    states: np.ndarray  # shape (n_times, dim)
    norm_drift: float
    nprime_drift: float


@dataclass(frozen=True)
class _Structure:
    """H(t)'s pieces in the form the right-hand side applies them.

    In the atom-major basis adag a and sigma_z are diagonal, Q = adag^k
    sigma_- only links excited level m to ground level m + k (flat index
    cutoff + k further on) and Qdag the reverse.  All four are read off
    the operator builders' matrices, not re-derived.
    """

    number: np.ndarray  # diagonal of adag a
    half_sz: np.ndarray  # diagonal of sigma_z / 2
    q: np.ndarray  # Q[cutoff + k + m, m], m = 0 .. cutoff - k - 1
    qdag: np.ndarray  # Qdag[m, cutoff + k + m]
    nprime: np.ndarray  # dense N', for the drift diagnostic only

    @classmethod
    def for_space(cls, spec: FockSpaceSpec) -> "_Structure":
        gen = build_generators(spec)
        a, adag = build_ladder(spec)
        shift = spec.cutoff + spec.k
        return cls(
            number=np.diagonal(adag.matrix @ a.matrix).real,
            half_sz=0.5 * np.diagonal(gen.sigma_z.matrix).real,
            q=np.diagonal(gen.Q.matrix, offset=-shift).real,
            qdag=np.diagonal(gen.Qdag.matrix, offset=shift).real,
            nprime=gen.Nprime.matrix,
        )


def _apply_hamiltonian(structure: _Structure, omega, omega0, g, y: np.ndarray) -> np.ndarray:
    """H y for H = w adag a + (w0/2) sigma_z + g Q + g* Qdag: one diagonal
    scaling plus the two k-shifted slice updates of Q and Qdag."""
    n = structure.q.size
    hy = (omega * structure.number + omega0 * structure.half_sz) * y
    hy[-n:] += (g * structure.q) * y[:n]
    hy[:n] += (g.conjugate() * structure.qdag) * y[-n:]
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

    def rhs(t, y):
        omega, omega0, g = params.evaluate(t)
        hy = _apply_hamiltonian(structure, omega, omega0, g, y)
        hy *= -1j
        return hy

    t0, t1 = float(window[0]), float(window[1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 401)
    t_eval = np.asarray(t_eval, dtype=float)

    # integrate between profile kinks (table breakpoints) so adaptive steps
    # never straddle a non-smooth point of H(t)
    lo, hi = min(t0, t1), max(t0, t1)
    edges = np.concatenate([[lo], params.breakpoints(lo, hi), [hi]])
    n_legs = len(edges) - 1
    legs = list(zip(edges[:-1], edges[1:], range(n_legs)))
    if t1 < t0:
        legs = [(b, a, i) for a, b, i in reversed(legs)]

    solutions: list = [None] * n_legs
    y = psi0
    for a, b, i in legs:
        sol = solve_ivp(
            rhs, (a, b), y, method="DOP853", rtol=rtol, atol=atol, dense_output=True
        )
        if not sol.success:
            raise PropagationError(f"integration failed: {sol.message}")
        solutions[i] = sol.sol
        y = sol.y[:, -1]

    states = PiecewiseDense(edges, solutions)(t_eval).T
    sol_t = t_eval
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

    expectations = np.einsum("ti,ij,tj->t", states.conj(), structure.nprime, states).real
    nprime_drift = float(np.max(np.abs(expectations - expectations[0])))

    return PropagationResult(
        times=sol_t, states=states, norm_drift=norm_drift, nprime_drift=nprime_drift
    )


def fidelity(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """|<psi1|psi2>|; global phase drops out."""
    return float(abs(np.vdot(np.asarray(psi1), np.asarray(psi2))))


def expectation(op, psi: np.ndarray) -> float:
    mat = op.matrix if isinstance(op, Operator) else np.asarray(op)
    psi = np.asarray(psi)
    return float(np.real(np.vdot(psi, mat @ psi)))


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
