"""Two-dimensional invariant subspaces of the k-photon ladder.

The coupling only connects (|m>, excited) with (|m+k>, ground); each such
pair carries the conserved eigenvalue lambda_m = (m+k)!/m! and the whole
problem block-diagonalizes over m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, VerificationError
from .fock import EXCITED, GROUND, FockSpaceSpec, Generators, build_generators


def lambda_value(m: int, k: int) -> int:
    """Exact integer (m+k)!/m! = (m+1)(m+2)...(m+k).

    Computed as an iterative integer product, so it is exact for any m, k
    within Python int range; callers converting to float should stay below
    2**53 if they need the float to remain integer-exact.
    """
    if m < 0:
        raise ConfigurationError(f"m must be nonnegative, got {m}")
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    lam = 1
    for j in range(1, k + 1):
        lam *= m + j
    return lam


@dataclass(frozen=True)
class SubspaceBlock:
    """Index bookkeeping for span{(|m>, excited), (|m+k>, ground)}."""

    m: int
    k: int
    cutoff: int

    def __post_init__(self):
        if self.m < 0:
            raise ConfigurationError(f"m must be nonnegative, got {self.m}")
        if self.m + self.k > self.cutoff - 1:
            raise ConfigurationError(
                f"block m={self.m} needs photon level {self.m + self.k} "
                f"but cutoff is {self.cutoff}; blocks are rejected, not truncated"
            )

    @property
    def lam(self) -> int:
        return lambda_value(self.m, self.k)

    @property
    def upper_index(self) -> int:
        return EXCITED * self.cutoff + self.m

    @property
    def lower_index(self) -> int:
        return GROUND * self.cutoff + self.m + self.k

    @classmethod
    def for_space(cls, spec: FockSpaceSpec, m: int) -> "SubspaceBlock":
        return cls(m=m, k=spec.k, cutoff=spec.cutoff)


def _full_space(op, block: SubspaceBlock) -> np.ndarray:
    """``op`` as an array, checked to act on the space of the block's cutoff."""
    mat = np.asarray(op)
    if mat.shape != (2 * block.cutoff, 2 * block.cutoff):
        raise ConfigurationError(
            f"operator shape {mat.shape} does not match block cutoff {block.cutoff}"
        )
    return mat


def project_block(op, block: SubspaceBlock) -> np.ndarray:
    """2x2 restriction of a full-space operator, ordered (upper, lower)."""
    idx = [block.upper_index, block.lower_index]
    return _full_space(op, block)[np.ix_(idx, idx)].astype(complex)


def embed_state(block: SubspaceBlock, components) -> np.ndarray:
    """Place 2-vectors (last axis) at the block's basis indices, zeros elsewhere."""
    c = np.asarray(components, dtype=complex)
    if c.shape[-1:] != (2,):
        raise ConfigurationError(f"expected a 2-component vector, got shape {c.shape}")
    vec = np.zeros(c.shape[:-1] + (2 * block.cutoff,), dtype=complex)
    vec[..., block.upper_index] = c[..., 0]
    vec[..., block.lower_index] = c[..., 1]
    return vec


def block_components(block: SubspaceBlock, state: np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed_state`: read the block's two amplitudes (last axis)."""
    state = np.asarray(state)
    return state[..., [block.upper_index, block.lower_index]].astype(complex)


def verify_block_closure(
    block: SubspaceBlock,
    hams,
    tol: float = 1e-13,
    generators: Generators | None = None,
) -> float:
    """Check that H(t) maps the block into itself and the block quasialgebra.

    ``hams`` is an iterable of full-space Hamiltonians (samples in t); one
    whose shape is not the block's space is a ConfigurationError.
    Leakage is the max column magnitude of H applied to the block basis,
    read outside the block.  The eigenvalue relations {Qdag,Q} = lambda_m
    and (Qdag-Q)^2 = -lambda_m are reported relative to lambda_m, since
    their absolute float floor is lambda_m * eps.  Returns the max residual
    and raises VerificationError above ``tol``.
    """
    if generators is None:
        spec = FockSpaceSpec(cutoff=block.cutoff, k=block.k)
        generators = build_generators(spec)
    idx = [block.upper_index, block.lower_index]

    leakage = 0.0
    for ham in hams:
        cols = _full_space(ham, block)[:, idx].copy()
        cols[idx, :] = 0.0
        leakage = max(leakage, float(np.max(np.abs(cols))))

    lam = float(block.lam)
    q = project_block(generators.Q, block)
    qd = project_block(generators.Qdag, block)
    eye = np.eye(2)
    anticomm = float(np.max(np.abs(qd @ q + q @ qd - lam * eye))) / lam
    diff = qd - q
    involution = float(np.max(np.abs(diff @ diff + lam * eye))) / lam

    worst = max(leakage, anticomm, involution)
    if worst > tol:
        raise VerificationError(
            f"block m={block.m} closure failure: leakage={leakage:.3e}, "
            f"anticommutator={anticomm:.3e}, involution={involution:.3e} (tol={tol:g})"
        )
    return worst
