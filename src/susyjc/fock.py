"""Operators on the truncated Fock x two-level space.

Every builder returns plain complex numpy arrays, (2 cutoff, 2 cutoff) on
the full space, freshly allocated on each call.

Basis convention
----------------
States are ordered atom-major: flat index = atom * cutoff + m, where
atom 0 is the excited level (upper spinor component), atom 1 the ground
level, and m = 0 .. cutoff-1 is the photon number.  With this ordering a
full-space operator is the 2x2 block matrix

    [[A_ee, A_eg],
     [A_ge, A_gg]]

and sigma_- (excited -> ground) sits in the lower-left block.

Truncation
----------
The raising operator is cut at the top level (adag|cutoff-1> = 0), so
operators containing adag^k are exact only on photon levels that stay at
least k below the cutoff.  All generator products (N', Q^dag Q, ...) are
assembled from one shared matrix power of adag; identities among them then
cancel exactly, while comparisons against exact integer eigenvalues are
limited by float rounding (~lambda * eps).  Identity checks therefore run
on a guard-banded subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, VerificationError

EXCITED = 0
GROUND = 1


@dataclass(frozen=True)
class FockSpaceSpec:
    """Truncated-space layout: photon cutoff, photons per transition, guard band."""

    cutoff: int
    k: int = 3
    guard: int | None = None

    def __post_init__(self):
        if self.guard is None:
            object.__setattr__(self, "guard", self.k)
        if self.k < 1:
            raise ConfigurationError(f"k must be a positive integer, got {self.k}")
        if self.guard < self.k:
            raise ConfigurationError(
                f"guard must be >= k (identity checks need a {self.k}-level band), "
                f"got guard={self.guard}, k={self.k}"
            )
        if self.cutoff < 2 * self.k + self.guard + 1:
            raise ConfigurationError(
                f"cutoff={self.cutoff} leaves no checkable subspace: "
                f"need cutoff >= 2k + guard + 1 = {2 * self.k + self.guard + 1}"
            )

    @property
    def dim(self) -> int:
        return 2 * self.cutoff

    def index(self, atom: int, m: int) -> int:
        """Flat index of (atom level, photon number)."""
        if atom not in (EXCITED, GROUND):
            raise ConfigurationError(f"atom must be 0 (excited) or 1 (ground), got {atom}")
        if not 0 <= m < self.cutoff:
            raise ConfigurationError(f"photon number {m} outside 0..{self.cutoff - 1}")
        return atom * self.cutoff + m

    def basis_state(self, atom: int, m: int) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(atom, m)] = 1.0
        return vec


@dataclass(frozen=True)
class Generators:
    """The conserved-number / ladder generator set on the full space."""

    N: np.ndarray
    Nprime: np.ndarray
    Q: np.ndarray
    Qdag: np.ndarray
    sigma_z: np.ndarray


def destroy_matrix(cutoff: int) -> np.ndarray:
    """Photon annihilation operator on the bare Fock factor (cutoff x cutoff)."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def raising_weights(cutoff: int, k: int) -> np.ndarray:
    """The nonzero entries (adag^k)[m + k, m], m = 0 .. cutoff - 1 - k, of
    the bare Fock factor's adag^k, in O(cutoff): the products of
    ``destroy_matrix``'s sqrt(m + 1) .. sqrt(m + k), grouped as
    ``np.linalg.matrix_power`` groups them in ``build_generators``, so they
    are its entries bit for bit."""
    one = (1, np.sqrt(np.arange(1, cutoff, dtype=float)))

    def times(left, right):  # (adag^p adag^q)[m + p + q, m] = w_p[m + q] w_q[m]
        (p, wp), (q, wq) = left, right
        return p + q, wp[q:] * wq[: wq.size - p]

    if k == 3:  # matrix_power's short-cut
        return times(times(one, one), one)[1]
    # its binary decomposition, which its other short-cuts agree with:
    # adag^(2^i) into the result, low bits first
    z = result = None
    while k > 0:
        z = one if z is None else times(z, z)
        k, bit = divmod(k, 2)
        if bit:
            result = z if result is None else times(result, z)
    return result[1]


def build_ladder(spec: FockSpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Full-space annihilation/creation pair (a, adag), identity on the atom."""
    a = np.kron(np.eye(2), destroy_matrix(spec.cutoff))
    return a, a.conj().T


_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def build_generators(spec: FockSpaceSpec) -> Generators:
    """Construct (N, N', Q, Qdag, sigma_z) on the truncated space.

    Q = adag^k sigma_-, Qdag = a^k sigma_+.  N carries atom weight (k-1)/2,
    i.e. N = adag a + ((k-1)/2) sigma_z + 1/2, which keeps the ladder
    relations [N, Q] = Q and [N, Qdag] = -Qdag for every k and reduces to
    adag a + sigma_z + 1/2 in the three-photon case.
    """
    C = spec.cutoff
    a_f = destroy_matrix(C)
    adag_f = a_f.conj().T
    raise_k = np.linalg.matrix_power(adag_f, spec.k)
    lower_k = raise_k.conj().T
    eye_f = np.eye(C, dtype=complex)
    eye2 = np.eye(2, dtype=complex)

    # adag a has exact integer eigenvalues; build it as a diagonal rather
    # than a matrix product so that N's spectrum carries no rounding.
    number_f = np.diag(np.arange(C, dtype=float)).astype(complex)
    n_mat = (
        np.kron(eye2, number_f)
        + 0.5 * (spec.k - 1) * np.kron(_SIGMA_Z, eye_f)
        + 0.5 * np.kron(eye2, eye_f)
    )
    # Upper (excited) block a^k adag^k, lower (ground) block adag^k a^k,
    # built from the same truncated power so generator products cancel exactly.
    nprime_mat = np.kron(np.diag([1.0, 0.0]), lower_k @ raise_k) + np.kron(
        np.diag([0.0, 1.0]), raise_k @ lower_k
    )
    q_mat = np.kron(_SIGMA_MINUS, raise_k)

    return Generators(
        N=n_mat,
        Nprime=nprime_mat,
        Q=q_mat,
        Qdag=q_mat.conj().T,
        sigma_z=np.kron(_SIGMA_Z, eye_f),
    )


def build_hamiltonian(spec: FockSpaceSpec, params, t: float) -> np.ndarray:
    """H(t) = w adag a + (w0/2) sigma_z + g adag^k sigma_- + g* a^k sigma_+."""
    if params.k != spec.k:
        raise ConfigurationError(f"params.k={params.k} does not match spec.k={spec.k}")
    omega, omega0, g = params.evaluate(t)
    gen = build_generators(spec)
    number = np.kron(np.eye(2), np.diag(np.arange(spec.cutoff, dtype=float))).astype(complex)
    return omega * number + 0.5 * omega0 * gen.sigma_z + g * gen.Q + np.conj(g) * gen.Qdag


def build_hamiltonian_susy(spec: FockSpaceSpec, params, t: float) -> np.ndarray:
    """Same H(t) assembled from the generator set.

    H = w N + (w0 - (k-1) w)/2 sigma_z + g Q + g* Qdag - w/2; the sigma_z
    coefficient is (w0 - 2w)/2 in the three-photon case.
    """
    if params.k != spec.k:
        raise ConfigurationError(f"params.k={params.k} does not match spec.k={spec.k}")
    omega, omega0, g = params.evaluate(t)
    gen = build_generators(spec)
    eye = np.eye(spec.dim, dtype=complex)
    return (
        omega * gen.N
        + 0.5 * (omega0 - (spec.k - 1) * omega) * gen.sigma_z
        + g * gen.Q
        + np.conj(g) * gen.Qdag
        - 0.5 * omega * eye
    )


def guarded_indices(spec: FockSpaceSpec, guard: int) -> np.ndarray:
    """Flat indices of both atom levels with photon number <= cutoff-1-guard."""
    top = spec.cutoff - guard
    if top <= 0:
        raise ConfigurationError(f"guard {guard} leaves no photon levels at cutoff {spec.cutoff}")
    return np.concatenate([np.arange(top), spec.cutoff + np.arange(top)])


def _guarded_max(mat: np.ndarray, spec: FockSpaceSpec, guard: int) -> float:
    idx = guarded_indices(spec, guard)
    return float(np.max(np.abs(mat[np.ix_(idx, idx)])))


def _diag_commutator(diag: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """[D, M] for diagonal D, evaluated entrywise as (d_i - d_j) M_ij.

    Each entry of the commutator is mathematically a single product, so this
    factored form is exact; the gemm order fl(d_i m) - fl(m d_j) would add
    avoidable double-rounding at the sqrt(lambda) * cutoff entry scale.
    """
    return (diag[:, None] - diag[None, :]) * mat


def _diag_anticommutator(diag: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return (diag[:, None] + diag[None, :]) * mat


def verify_algebra(spec: FockSpaceSpec, tol: float = 1e-12) -> dict[str, float]:
    """Evaluate the ten generator identities on the guard-banded subspace.

    Returns a map identity -> max-entry residual.  Identities containing a
    single power of Q/Qdag use a k-level guard; products of two powers use
    2k.  Commutators with the diagonal generators (N, N', sigma_z) are
    evaluated by index scaling, which is exact (see _diag_commutator), so
    the residuals measure operator content rather than check arithmetic.
    Raises VerificationError listing every identity above ``tol``.
    """
    g = build_generators(spec)
    Np, Q, Qd = g.Nprime, g.Q, g.Qdag
    n_diag = np.real(np.diag(g.N))
    np_diag = np.real(np.diag(Np))
    sz_diag = np.real(np.diag(g.sigma_z))
    single = max(spec.guard, spec.k)
    product = max(spec.guard, 2 * spec.k)
    d = Qd - Q

    checks: list[tuple[str, np.ndarray, int]] = [
        ("Q^2 = (Qdag)^2 = 0", np.abs(Q @ Q) + np.abs(Qd @ Qd), single),
        ("[Qdag, Q] = N' sigma_z", Qd @ Q - Q @ Qd - np_diag[:, None] * np.diag(sz_diag), product),
        ("[N, N'] = 0", _diag_commutator(n_diag, np.diag(np_diag)), product),
        ("[N, Q] = Q", _diag_commutator(n_diag, Q) - Q, single),
        ("[N, Qdag] = -Qdag", _diag_commutator(n_diag, Qd) + Qd, single),
        ("{Qdag, Q} = N'", Qd @ Q + Q @ Qd - Np, product),
        (
            "{Q, sigma_z} = {Qdag, sigma_z} = 0",
            np.abs(_diag_anticommutator(sz_diag, Q)) + np.abs(_diag_anticommutator(sz_diag, Qd)),
            single,
        ),
        ("[Q, sigma_z] = 2Q", _diag_commutator(sz_diag, Q) * (-1.0) - 2 * Q, single),
        ("[Qdag, sigma_z] = -2Qdag", _diag_commutator(sz_diag, Qd) * (-1.0) + 2 * Qd, single),
        ("(Qdag - Q)^2 = -N'", d @ d + Np, product),
    ]

    report = {name: _guarded_max(res, spec, guard) for name, res, guard in checks}
    failed = {name: val for name, val in report.items() if val > tol}
    if failed:
        lines = ", ".join(f"{name}: {val:.3e}" for name, val in failed.items())
        raise VerificationError(f"superalgebra identities above tol={tol:g}: {lines}")
    return report
