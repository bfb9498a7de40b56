"""Exact block-level evolution built from the invariant angles.

Within one block the invariant is

    I(theta, phi) = [[cos th,            -sin th e^{+i phi}],
                     [-sin th e^{-i phi}, -cos th          ]]

and the rotation

    V(theta, phi) = [[cos(th/2),            sin(th/2) e^{+i phi}],
                     [-sin(th/2) e^{-i phi}, cos(th/2)          ]]

brings it to diag(+1, -1).  V is the closed form of the 2x2 exponential of
beta Q - beta* Qdag with beta = -(th/2) e^{-i phi} / sqrt(lam); its sign
conventions are certified in the tests against a brute-force matrix
exponential.  Exact solutions are V applied to a sigma_z eigencolumn times
exp(-i (Phi_d + Phi_g)), the Lewis-Riesenfeld construction with Phi_g a
Berry-type geometric phase.  The angle solve integrates both phases
(:class:`PhaseIntegrals`); ``phase_rate_dynamical`` and
``phase_rate_geometric`` keep the chart form of their rates.  The running
integral of w and the derivative in :func:`invariant_equation_residual` are
sixth-order quadrature and finite differences of the samples
(:mod:`susyjc.quadrature`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auxiliary import AuxState, AuxTrajectory, family_sample
from .blocks import SubspaceBlock, embed_state
from .errors import ConfigurationError
from .fock import FockSpaceSpec, build_generators
from .profiles import ModelParams
from .quadrature import cumulative_antiderivative, spline_derivative

SIGMA_Z2 = np.diag([1.0 + 0j, -1.0 + 0j])


def rotation_parameter(state: AuxState, lam: float) -> complex:
    """Coefficient of Q in the rotation exponent: -(theta/2) e^{-i phi} / sqrt(lam)."""
    return -(state.theta / 2.0) * np.exp(-1j * state.phi) / math.sqrt(lam)


def _stack2x2(a, b, c, d) -> np.ndarray:
    """Complex [[a, b], [c, d]]: (2, 2) for scalar entries, (n, 2, 2) for arrays."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    out = np.empty(a.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def eigenframe_rotation(state: AuxState) -> np.ndarray:
    """2x2 unitary rotating the block invariant onto sigma_z (stacked for array angles)."""
    c = np.cos(state.theta / 2.0)
    s = np.sin(state.theta / 2.0)
    ph = np.exp(1j * state.phi)
    return _stack2x2(c, s * ph, -s * np.conj(ph), c)


def eigenframe_rotation_derivative(
    state: AuxState, dtheta: float, dphi: float
) -> np.ndarray:
    """Analytic d/dt of :func:`eigenframe_rotation` given the angle rates."""
    c = math.cos(state.theta / 2.0)
    s = math.sin(state.theta / 2.0)
    ph = np.exp(1j * state.phi)
    half = 0.5 * dtheta
    return np.array(
        [
            [-s * half, (c * half + 1j * s * dphi) * ph],
            [(-c * half + 1j * s * dphi) * np.conj(ph), -s * half],
        ],
        dtype=complex,
    )


def invariant_matrix(state: AuxState) -> np.ndarray:
    """Block form of the invariant at the given angles (stacked for array angles)."""
    sin_t = np.sin(state.theta)
    cos_t = np.cos(state.theta)
    ph = np.exp(1j * state.phi)
    return _stack2x2(cos_t, -sin_t * ph, -sin_t * np.conj(ph), -cos_t)


def invariant_operator(spec: FockSpaceSpec, state: AuxState, lam: float) -> np.ndarray:
    """Full-space invariant -(sin th / sqrt(lam))(e^{-i phi} Q + e^{i phi} Qdag) + cos th sigma_z."""
    gen = build_generators(spec)
    coeff = -math.sin(state.theta) / math.sqrt(lam)
    return coeff * (
        np.exp(-1j * state.phi) * gen.Q + np.exp(1j * state.phi) * gen.Qdag
    ) + math.cos(state.theta) * gen.sigma_z


def rotated_invariant_residual(state: AuxState) -> float:
    """Max entry of V^dag I V - diag(1, -1); the rotation must diagonalize exactly."""
    v = eigenframe_rotation(state)
    return float(np.max(np.abs(v.conj().T @ invariant_matrix(state) @ v - SIGMA_Z2)))


def block_hamiltonian(block: SubspaceBlock, params: ModelParams, t) -> np.ndarray:
    """2x2 restriction of H(t) to the block, ordered (upper, lower); (n, 2, 2) for array t."""
    omega, omega0, g = params.evaluate(t)
    root = math.sqrt(block.lam)
    upper = block.m * omega + 0.5 * omega0
    lower = (block.m + block.k) * omega - 0.5 * omega0
    return _stack2x2(upper, np.conj(g) * root, g * root, lower)


def rotated_hamiltonian(
    state: AuxState,
    rates: tuple[float, float],
    t: float,
    params: ModelParams,
    block: SubspaceBlock,
) -> tuple[np.ndarray, np.ndarray]:
    """The transformed Hamiltonian V^dag H V - i V^dag dV/dt, both ways.

    Returns ``(formula, direct)``: the diagonal closed form

        w N_block + (w/2)(sigma_z - 1)
        + [ -sqrt(lam) Re(g e^{i phi}) sin th + ((w0 - k w)/2) cos th
            - (phi'/2)(1 - cos th) ] sigma_z

    (N_block = diag(m + k/2, m + k/2 + 1)), and the direct evaluation using
    the analytic rotation derivative.  The two agree, and the direct form is
    diagonal, exactly when the angle rates satisfy the angle equations.
    """
    dtheta, dphi = rates
    omega, omega0, g = params.evaluate(t)
    root = math.sqrt(block.lam)
    sin_t = math.sin(state.theta)
    cos_t = math.cos(state.theta)

    n_block = np.diag([block.m + block.k / 2.0, block.m + block.k / 2.0 + 1.0]).astype(complex)
    brace = (
        -root * (g * np.exp(1j * state.phi)).real * sin_t
        + 0.5 * (omega0 - block.k * omega) * cos_t
        - 0.5 * dphi * (1.0 - cos_t)
    )
    formula = (
        omega * n_block
        + 0.5 * omega * (SIGMA_Z2 - np.eye(2))
        + brace * SIGMA_Z2
    )

    v = eigenframe_rotation(state)
    vdot = eigenframe_rotation_derivative(state, dtheta, dphi)
    direct = v.conj().T @ block_hamiltonian(block, params, t) @ v - 1j * (v.conj().T @ vdot)
    return formula, direct


def phase_rate_dynamical(
    sigma: int, t, state: AuxState, params: ModelParams, block: SubspaceBlock
):
    """Instantaneous dynamical phase rate for the sigma = +-1 solution (scalar or array t)."""
    omega, omega0, g = params.evaluate(t)
    root = math.sqrt(block.lam)
    drive = root * (g * np.exp(1j * state.phi)).real * np.sin(state.theta)
    tilt = 0.5 * (omega0 - block.k * omega) * np.cos(state.theta)
    return (block.m + block.k / 2.0) * omega - sigma * (drive - tilt)


def phase_rate_geometric(sigma: int, state: AuxState, dphi):
    """Instantaneous geometric phase rate: -sigma (phi'/2)(1 - cos theta)."""
    return -sigma * 0.5 * dphi * (1.0 - np.cos(state.theta))


@dataclass(frozen=True)
class PhaseLedger:
    """Accumulated phase integrals (arrays for an array of times); the solution
    carries exp(-i (phi_d + phi_g))."""

    sigma: int
    phi_d: float
    phi_g: float


def _check_sigma(sigma: int) -> int:
    if sigma not in (+1, -1):
        raise ConfigurationError(f"sigma must be +1 or -1, got {sigma}")
    return sigma


def _branch(sigma: int) -> int:
    """The sigma branch's column of the phases and of the rotation."""
    return 0 if sigma == +1 else 1


def _amplitudes(sample) -> np.ndarray:
    """Every member's amplitudes from one :meth:`PhaseIntegrals.sample`, (..., M,
    2, 2): each phase factor times the rotation's column of its branch, so
    member j's sigma branch is ``[..., j, :, _branch(sigma)]``."""
    angles, phi_d, phi_g = sample
    return np.exp(-1j * (phi_d + phi_g))[..., None, :] * eigenframe_rotation(angles)


class PhaseIntegrals:
    """Running dynamical/geometric phase integrals of the blocks of one angle solve:

        phi_d(sigma) = (m + k/2) int w + sigma B,    phi_g(sigma) = sigma G,

    with B and G from the solve (:mod:`susyjc.auxiliary`) and int w, shared
    by the M blocks, a sixth-order quadrature of the samples on its grid
    (the one quadrature left).  The members must share one params object,
    whose k is every block's (ConfigurationError otherwise).
    :meth:`sample` makes one call of the solve's dense output and one of
    int w; each of its phase arrays is (n_t, M, 2), or (M, 2) at a scalar
    time: member j's sigma = +1 branch at [..., j, 0] and its -1 branch at
    [..., j, 1].  Every reader of amplitudes indexes one :func:`_amplitudes`
    product of one sample: :meth:`ExactSolution.block_state_at`,
    :meth:`EvolutionOperator.at` and :func:`general_solution`.
    """

    def __init__(self, trajectories, blocks):
        self.trajectories = tuple(trajectories)
        self.blocks = tuple(blocks)
        if any(traj.lam != block.lam for traj, block in zip(self.trajectories, self.blocks)):
            raise ConfigurationError("a trajectory's lambda does not match its block's")
        self._family = family_sample(self.trajectories)
        self._levels = np.array([block.m + block.k / 2.0 for block in self.blocks])
        first = self.trajectories[0]
        if any(traj.params is not first.params for traj in self.trajectories):
            raise ConfigurationError("the trajectories do not share one params object")
        if any(block.k != first.params.k for block in self.blocks):
            raise ConfigurationError(f"a block's k does not match params.k={first.params.k}")
        omega = first.params.omega(first.times)
        self._omega_integral = cumulative_antiderivative(first.times, omega, first.edge_indices)

    def sample(self, t):
        """(angles, phi_d, phi_g) of every member at scalar t or over an array of times."""
        angles, b, g = self._family(t)
        levels = np.multiply.outer(self._omega_integral(t), self._levels)
        # 0.0 - G negates G exactly and keeps the start value +0.0
        return angles, np.stack([levels + b, levels - b], -1), np.stack([g, 0.0 - g], -1)


class ExactSolution:
    """One particular solution: phase factor times the rotated eigencolumn."""

    def __init__(
        self,
        block: SubspaceBlock,
        sigma: int,
        trajectory: AuxTrajectory,
        phases: PhaseIntegrals | None = None,
    ):
        """``phases`` may be shared by both sigma branches and by every block
        of one solve, but it must hold this trajectory and block."""
        self.block = block
        self.sigma = _check_sigma(sigma)
        self.trajectory = trajectory
        if phases is None:
            phases = PhaseIntegrals([trajectory], [block])
        member = next((j for j, traj in enumerate(phases.trajectories) if traj is trajectory), None)
        if member is None or phases.blocks[member] != block:
            raise ConfigurationError(
                "phase integrals were built for a different trajectory or block"
            )
        self.phases = phases
        self.member = member

    def ledger(self, t) -> PhaseLedger:
        """Both integrals at scalar t (floats) or elementwise over an array of times."""
        _, phi_d, phi_g = self.phases.sample(t)
        branch = _branch(self.sigma)
        d, g = phi_d[..., self.member, branch], phi_g[..., self.member, branch]
        if d.ndim == 0:  # floats at a scalar time
            d, g = d.item(), g.item()
        return PhaseLedger(self.sigma, d, g)

    def block_state_at(self, t) -> np.ndarray:
        """Block amplitudes at time t: (2,), or (n, 2) for an array of times."""
        return _amplitudes(self.phases.sample(t))[..., self.member, :, _branch(self.sigma)]

    def state_at(self, t) -> np.ndarray:
        """Full-space unit vector at time t: (dim,), or (n, dim) for an array of times."""
        return embed_state(self.block, self.block_state_at(t))


class EvolutionOperator:
    """Block evolution operator: its columns are the sigma = +1 and -1 exact
    solutions, both read from one sample of its phase integrals per :meth:`at` call."""

    def __init__(self, block: SubspaceBlock, trajectory: AuxTrajectory):
        self.block = block
        self.trajectory = trajectory
        self.phases = PhaseIntegrals([trajectory], [block])

    def at(self, t) -> np.ndarray:
        """2x2 propagator at scalar t, or (n, 2, 2) for an array of times."""
        return _amplitudes(self.phases.sample(t))[..., 0, :, :]

    def full_at(self, t: float) -> np.ndarray:
        """Full-space embedding (identity outside the block)."""
        return embed_block_matrix(self.block, self.at(t))


def embed_block_matrix(block: SubspaceBlock, mat2: np.ndarray) -> np.ndarray:
    """Place a 2x2 matrix at the block indices of an identity on the full space."""
    mat2 = np.asarray(mat2, dtype=complex)
    if mat2.shape != (2, 2):
        raise ConfigurationError(f"expected a 2x2 matrix, got shape {mat2.shape}")
    full = np.eye(2 * block.cutoff, dtype=complex)
    idx = [block.upper_index, block.lower_index]
    full[np.ix_(idx, idx)] = mat2
    return full


def general_solution(components, t) -> np.ndarray:
    """Superposition sum_n C_n psi_n(t) of exact solutions ((n, dim) for n times).

    ``components`` is a sequence of (coefficient, ExactSolution) pairs with
    sum |C_n|^2 = 1.  All solutions must live on the same truncated space.
    Each :class:`PhaseIntegrals` among them is sampled once, and each
    solution's weighted amplitudes are added at its block's two indices.
    """
    components = list(components)
    if not components:
        raise ConfigurationError("empty superposition")
    total = sum(abs(c) ** 2 for c, _ in components)
    if abs(total - 1.0) > 1e-10:
        raise ConfigurationError(f"coefficients not normalized: sum |C|^2 = {total}")
    cutoffs = {sol.block.cutoff for _, sol in components}
    if len(cutoffs) != 1:
        raise ConfigurationError(f"solutions live on different cutoffs: {sorted(cutoffs)}")
    out = np.zeros(np.shape(t) + (2 * cutoffs.pop(),), dtype=complex)
    amplitudes = {}  # one sample and product per solve, this call only
    for c, sol in components:
        if sol.phases not in amplitudes:
            amplitudes[sol.phases] = _amplitudes(sol.phases.sample(t))
        weighted = c * amplitudes[sol.phases][..., sol.member, :, _branch(sol.sigma)]
        out[..., sol.block.upper_index] += weighted[..., 0]
        out[..., sol.block.lower_index] += weighted[..., 1]
    return out


def invariant_equation_residual(trajectory: AuxTrajectory, block: SubspaceBlock) -> float:
    """Max entry of dI/dt + (1/i)[I, H] on the block along the trajectory.

    I is rebuilt from the sampled angles; its time derivative is taken by
    sixth-order finite differences, independent of the angle equations.
    """
    ts = trajectory.times
    inv = invariant_matrix(AuxState(trajectory.thetas, trajectory.phis))
    ham = block_hamiltonian(block, trajectory.params, ts)
    dinv = spline_derivative(ts, inv, trajectory.edge_indices)
    comm = inv @ ham - ham @ inv
    return float(np.max(np.abs(dinv - 1j * comm)))
