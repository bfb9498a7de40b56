"""Poisson-weighted superposition of block solutions and atomic inversion.

The superposition weights are e^{-xi^2/2} xi^m / sqrt(m!); blocks with
distinct m are orthogonal, so with the truncation tail below 1e-10 the
state stays normalized to that accuracy.  All per-m trajectories share one
(theta0, phi0): each block has its own lambda and hence its own trajectory,
and a common initial rotation is what makes the superposition well-defined.

The blocks m = 0 .. m_max are one family: one angle solve, phases
included, and one sample grid (:class:`susyjc.evolution.PhaseIntegrals`).
The superposition reads it once, at a scalar time or on a time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auxiliary import AuxState, _solve_family
from .blocks import SubspaceBlock
from .errors import ConfigurationError, TruncationError
from .evolution import ExactSolution, PhaseIntegrals, _check_sigma, general_solution
from .fock import FockSpaceSpec
from .profiles import ModelParams

TAIL_BOUND = 1e-10  # largest Poisson weight a truncation may drop


def poisson_tail(xi: float, m_max: int) -> float:
    """e^{-xi^2} sum_{m > m_max} xi^{2m} / m!: the Poisson(xi^2) survival
    function, summed in log space from its first term to convergence."""
    if xi == 0.0:
        return 0.0
    x = xi * xi
    m = m_max + 1
    term = math.exp(-x + m * math.log(x) - math.lgamma(m + 1))
    total = 0.0
    while term > 1e-18 * total and m <= m_max + 10000:
        total += term
        m += 1
        term *= x / m
    return total


def m_max_for_tail(xi: float) -> int:
    """Smallest truncation with Poisson tail weight below ``TAIL_BOUND``."""
    m = 0
    while poisson_tail(xi, m) >= TAIL_BOUND:
        m += 1
        if m > 100000:
            raise TruncationError(f"no truncation reaches tail bound {TAIL_BOUND} for xi={xi}")
    return m


@dataclass(frozen=True)
class CoherentSpec:
    """Superposition parameter xi, truncation m_max, branch sigma."""

    xi: float
    m_max: int
    sigma: int = +1

    def __post_init__(self):
        if not 0 <= self.xi < math.inf:  # nan fails too
            raise ConfigurationError(f"xi must be finite and nonnegative, got {self.xi}")
        if self.m_max < 0:
            raise ConfigurationError(f"m_max must be nonnegative, got {self.m_max}")
        _check_sigma(self.sigma)
        tail = poisson_tail(self.xi, self.m_max)
        if tail >= TAIL_BOUND:
            raise TruncationError(
                f"truncation m_max={self.m_max} leaves tail weight {tail:.3e} "
                f">= {TAIL_BOUND:g} for xi={self.xi}"
            )

    @classmethod
    def for_xi(cls, xi: float, sigma: int = +1):
        return cls(xi=xi, m_max=m_max_for_tail(xi), sigma=sigma)

    def weights(self) -> np.ndarray:
        """e^{-xi^2/2} xi^m / sqrt(m!) for m = 0 .. m_max."""
        m = np.arange(self.m_max + 1)
        if self.xi == 0.0:
            out = np.zeros(self.m_max + 1)
            out[0] = 1.0
            return out
        log_w = -0.5 * self.xi**2 + m * math.log(self.xi) - 0.5 * np.array(
            [math.lgamma(v + 1) for v in m]
        )
        return np.exp(log_w)


def solve_block_family(
    cspec: CoherentSpec,
    spec: FockSpaceSpec,
    params: ModelParams,
    window: tuple[float, float],
    initial: AuxState,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list[ExactSolution]:
    """Exact solutions for m = 0 .. m_max, all from the same initial angles.

    The angle equations of all blocks are integrated in one solve and
    sampled on one shared grid; each block is still certified on its own.
    """
    if spec.cutoff < cspec.m_max + spec.k + spec.guard + 1:
        raise TruncationError(
            f"cutoff {spec.cutoff} too small for m_max={cspec.m_max}: "
            f"need at least {cspec.m_max + spec.k + spec.guard + 1}"
        )
    blocks = [SubspaceBlock.for_space(spec, m) for m in range(cspec.m_max + 1)]
    lams = [b.lam for b in blocks]
    trajs = _solve_family(initial, window, [params] * len(lams), lams, rtol=rtol, atol=atol)
    phases = PhaseIntegrals(trajs, blocks)
    return [ExactSolution(b, cspec.sigma, traj, phases) for b, traj in zip(blocks, trajs)]


def build_coherent_state(cspec: CoherentSpec, t, solutions) -> np.ndarray:
    """Weighted superposition of the per-m solutions at time t ((n, dim) for n times).

    The solutions must come from one :func:`solve_block_family` call, whose
    family is then evaluated once for all of them.
    """
    solutions = list(solutions)
    if len(solutions) != cspec.m_max + 1:
        raise ConfigurationError(
            f"expected {cspec.m_max + 1} block solutions, got {len(solutions)}"
        )
    for sol in solutions:
        if sol.sigma != cspec.sigma:
            raise ConfigurationError(
                f"block solution branch sigma={sol.sigma} does not match "
                f"the superposition sigma={cspec.sigma}"
            )
    families = {sol.phases for sol in solutions}
    if len(families) > 1:
        raise ConfigurationError(
            f"block solutions come from {len(families)} different family solves, not one"
        )
    return general_solution(zip(cspec.weights(), solutions), t)


def atomic_inversion(state: np.ndarray):
    """<sigma_z> of full-space states (last axis): excited population minus ground."""
    pops = np.abs(np.asarray(state)) ** 2
    half = pops.shape[-1] // 2
    out = np.sum(pops[..., :half], axis=-1) - np.sum(pops[..., half:], axis=-1)
    return out if out.ndim else float(out)
