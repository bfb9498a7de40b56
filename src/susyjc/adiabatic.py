"""Steady-angle (adiabatic) scenarios and Berry phases.

A scenario holds theta constant by construction: the coupling phase is
locked to -phi with phi advancing at the mode frequency, and the transition
frequency is solved from the steady-azimuth constraint

    (k w - w0 - w) sin theta = 2 |g| sqrt(lam) cos theta

given a constant coupling modulus (solving for w0 rather than |g| keeps the
modulus nonnegative).  Adiabaticity is exact here, not a slow-drive
expansion: the constraint makes (theta, phi) a fixed point of the angle
equations with phi-dot = w, so over one azimuthal cycle the geometric phase
reduces to the solid-angle law -sigma pi (1 - cos theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auxiliary import AuxState, AuxTrajectory, _solve_family, family_sample
from .blocks import SubspaceBlock, _full_space, lambda_value
from .errors import ConfigurationError, CycleError
from .evolution import (
    SIGMA_Z2,
    EvolutionOperator,
    _check_sigma,
    block_hamiltonian,
    invariant_matrix,
)
from .profiles import ModelParams, TimeProfile

_COS_GUARD = 1e-6  # the H-I relation divides by cos theta
_CLOSURE_TOL = 1e-6  # largest |phi sweep - 2 pi| accepted as one closed cycle


@dataclass(frozen=True)
class AdiabaticScenario:
    """Constant-theta parameter set for one block, with its cycle period."""

    theta: float
    m: int
    k: int
    g_mod: float
    params: ModelParams
    period: float

    @property
    def lam(self) -> int:
        return lambda_value(self.m, self.k)

    @property
    def block(self) -> SubspaceBlock:
        return SubspaceBlock(m=self.m, k=self.k, cutoff=self.m + self.k + 1)


def build_adiabatic_scenario(
    theta: float,
    omega: TimeProfile,
    m: int,
    k: int = 3,
    g_mod: float = 0.05,
) -> AdiabaticScenario:
    """Derive (omega0, coupling profiles) that freeze theta with phi-dot = omega
    from phi(0) = 0.

    Only constant mode-frequency profiles are supported: phi(t) must equal
    the integral of omega, and only the constant case stays inside the
    profile vocabulary exactly.
    """
    if not 0.0 < theta < math.pi:
        raise ConfigurationError(f"theta must lie in (0, pi), got {theta}")
    if omega.kind != "constant":
        raise ConfigurationError(
            "adiabatic scenarios require a constant mode-frequency profile"
        )
    if g_mod < 0:
        raise ConfigurationError(f"coupling modulus must be nonnegative, got {g_mod}")
    w = float(omega(0.0))
    if w <= 0:
        raise ConfigurationError(f"mode frequency must be positive, got {w}")
    try:
        root = math.sqrt(lambda_value(m, k))
    except OverflowError:
        raise ConfigurationError(
            f"m = {m}: lambda = (m+1)...(m+k) is out of floating-point range"
        ) from None
    # Steady azimuth: w0 = (k-1) w - 2 |g| sqrt(lam) cot(theta).
    omega0 = (k - 1) * w - 2.0 * g_mod * root / math.tan(theta)
    params = ModelParams(
        omega=omega,
        omega0=TimeProfile.constant(omega0),
        g_mod=TimeProfile.constant(g_mod),
        g_phase=TimeProfile.linear(0.0, -w),
        k=k,
    )
    return AdiabaticScenario(
        theta=float(theta),
        m=m,
        k=k,
        g_mod=float(g_mod),
        params=params,
        period=2.0 * math.pi / w,
    )


def hamiltonian_invariant_relation_residual(scenario: AdiabaticScenario, t: float) -> float:
    """Block residual of H = w N - w/2 - c I with c = ((k-1) w - w0) / (2 cos theta).

    The coefficient reads (2w - w0)/(2 cos theta) in the three-photon case.
    Requires cos theta bounded away from zero.
    """
    theta = scenario.theta
    if abs(math.cos(theta)) < _COS_GUARD:
        raise ConfigurationError(
            f"relation undefined near theta = pi/2: |cos theta| = {abs(math.cos(theta)):.3e}"
        )
    params = scenario.params
    w = float(params.omega(t))
    w0 = float(params.omega0(t))
    k = scenario.k
    h2 = block_hamiltonian(scenario.block, params, t)

    inv = invariant_matrix(AuxState(theta, w * t))
    n_block = np.diag([scenario.m + k / 2.0, scenario.m + k / 2.0 + 1.0]).astype(complex)
    coeff = ((k - 1) * w - w0) / (2.0 * math.cos(theta))
    rhs = w * n_block - 0.5 * w * np.eye(2) - coeff * inv
    return float(np.max(np.abs(h2 - rhs)))


def invariant_from_couplings(scenario: AdiabaticScenario, t: float) -> np.ndarray:
    """Block invariant rebuilt from the couplings under the steady constraint:

        I = -2 cos th / (k w - w0 - phi') [ g Q + g* Qdag - (1/2)(k w - w0 - phi') sigma_z ]

    with phi' = w; block level, so Q -> sqrt(lam) sigma_-.  Must coincide
    with the angle form of the invariant.
    """
    params = scenario.params
    w = float(params.omega(t))
    w0 = float(params.omega0(t))
    g = params.coupling(t)
    root = math.sqrt(scenario.lam)
    denom = scenario.k * w - w0 - w
    if abs(denom) < 1e-12:
        raise ConfigurationError(
            "coupling form of the invariant undefined: k w - w0 - phi' vanishes "
            "(theta = pi/2 scenarios)"
        )
    q2 = np.array([[0.0, 0.0], [root, 0.0]], dtype=complex)
    inner = g * q2 + np.conj(g) * q2.conj().T - 0.5 * denom * SIGMA_Z2
    return (-2.0 * math.cos(scenario.theta) / denom) * inner


def berry_phase_cycle(theta: float, sigma: int) -> float:
    """Closed-cycle geometric phase: -sigma pi (1 - cos theta)."""
    _check_sigma(sigma)
    return -sigma * math.pi * (1.0 - math.cos(theta))


def berry_phase_numeric(
    scenarios, sigma: int, rtol: float = 1e-10, atol: float = 1e-12
) -> list[float]:
    """Geometric phases over one cycle, one per scenario: phi_g = sigma G at
    the cycle's end, read off the dense output of one angle solve that
    carries every scenario as a member (``auxiliary._solve_family``).

    The scenarios must share one period (ConfigurationError naming the
    periods otherwise).  Raises CycleError, naming the scenario's theta,
    unless each member's phi advances by exactly 2 pi over the solve.
    """
    _check_sigma(sigma)
    if not scenarios:
        return []
    periods = sorted({scenario.period for scenario in scenarios})
    if len(periods) > 1:
        raise ConfigurationError(
            f"scenarios of one sweep must share one period, got {', '.join(map(str, periods))}"
        )
    initial = AuxState(np.array([scenario.theta for scenario in scenarios]), 0.0)
    trajs = _solve_family(
        initial,
        (0.0, periods[0]),
        [scenario.params for scenario in scenarios],
        [scenario.lam for scenario in scenarios],
        rtol=rtol,
        atol=atol,
    )
    for scenario, traj in zip(scenarios, trajs):
        sweep = traj.phis[-1] - traj.phis[0]
        if abs(sweep - 2.0 * math.pi) > _CLOSURE_TOL:
            raise CycleError(
                f"azimuthal cycle does not close: phi advanced by {sweep:.9f} "
                f"instead of 2*pi over [0, {traj.t1}] (theta0={scenario.theta})"
            )
    _, _, g = family_sample(trajs)(trajs[0].t1)
    return (sigma * g).tolist()


def conjugated_invariant(block: SubspaceBlock, trajectory: AuxTrajectory, op):
    """Constant of motion t -> U(t) O U^dag(t) built from an ordinary operator.

    ``op`` is a full-space complex array of the block's cutoff; another
    shape is a ConfigurationError here, not at the first call.  With
    i dU/dt = H U, the conjugation satisfies the invariant equation, so its
    expectation in any solution inside the block is conserved; for
    O = sigma_z it reproduces the angle form of the invariant.  (Conjugating
    the other way, U^dag O U, gives the Heisenberg-picture operator, which is
    not conserved.)
    """
    mat = np.asarray(_full_space(op, block), dtype=complex)
    propagator = EvolutionOperator(block, trajectory)

    def at(t: float) -> np.ndarray:
        u = propagator.full_at(float(t))
        return u @ mat @ u.conj().T

    return at
