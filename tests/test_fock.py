import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susyjc import (
    ConfigurationError,
    EXCITED,
    GROUND,
    FockSpaceSpec,
    VerificationError,
    build_generators,
    build_hamiltonian,
    build_hamiltonian_susy,
    build_ladder,
    constant_params,
    verify_algebra,
)
from susyjc.blocks import lambda_value


def test_spec_validation():
    FockSpaceSpec(cutoff=16, k=3, guard=3)
    with pytest.raises(ConfigurationError):
        FockSpaceSpec(cutoff=4, k=3)
    with pytest.raises(ConfigurationError):
        FockSpaceSpec(cutoff=16, k=0)
    with pytest.raises(ConfigurationError):
        FockSpaceSpec(cutoff=16, k=3, guard=1)


def test_default_guard_is_k():
    assert FockSpaceSpec(cutoff=16, k=2).guard == 2


def test_index_round_trip():
    spec = FockSpaceSpec(cutoff=12, k=3)
    for atom in (EXCITED, GROUND):
        for m in range(spec.cutoff):
            flat = spec.index(atom, m)
            assert flat == atom * spec.cutoff + m
    with pytest.raises(ConfigurationError):
        spec.index(EXCITED, spec.cutoff)


def test_ladder_action():
    spec = FockSpaceSpec(cutoff=12, k=3)
    a, adag = build_ladder(spec)
    vac = spec.basis_state(EXCITED, 0)
    assert np.all(a @ vac == 0)

    five = spec.basis_state(GROUND, 5)
    assert_allclose(adag @ (a @ five), 5.0 * five, atol=1e-14)

    # <3| adag^3 |0> = sqrt(6)
    cubed = np.linalg.matrix_power(adag, 3)
    amp = (spec.basis_state(EXCITED, 3).conj() @ cubed @ spec.basis_state(EXCITED, 0)).real
    assert_allclose(amp, math.sqrt(6.0), rtol=1e-15)


def test_ladder_commutator_below_boundary():
    spec = FockSpaceSpec(cutoff=12, k=3)
    a, adag = build_ladder(spec)
    comm = a @ adag - adag @ a
    # identity except the top photon level of each atom sector
    keep = [atom * spec.cutoff + m for atom in (0, 1) for m in range(spec.cutoff - 1)]
    assert_allclose(comm[np.ix_(keep, keep)], np.eye(len(keep)), atol=1e-13)


def test_generator_actions():
    spec = FockSpaceSpec(cutoff=16, k=3)
    gen = build_generators(spec)

    # Q maps (|0>, excited) to sqrt(6) (|3>, ground)
    out = gen.Q @ spec.basis_state(EXCITED, 0)
    expected = math.sqrt(6.0) * spec.basis_state(GROUND, 3)
    assert_allclose(out, expected, atol=1e-14)

    # N on (|m>, excited) has eigenvalue m + 3/2 at k = 3
    for m in (0, 2, 7):
        vec = spec.basis_state(EXCITED, m)
        assert_allclose(gen.N @ vec, (m + 1.5) * vec, atol=1e-13)

    assert np.max(np.abs(gen.Q @ gen.Q)) == 0.0


def test_hermitian_builders():
    spec = FockSpaceSpec(cutoff=16, k=3)
    gen = build_generators(spec)
    params = constant_params(1.0, 2.8, 0.05, 0.4)
    for op in (gen.N, gen.Nprime, gen.sigma_z, build_hamiltonian(spec, params, 1.3)):
        assert np.max(np.abs(op - op.conj().T)) < 1e-13


def test_verify_algebra_all_identities():
    report = verify_algebra(FockSpaceSpec(cutoff=16, k=3), tol=1e-12)
    assert len(report) == 10
    assert all(v < 1e-12 for v in report.values())


@pytest.mark.parametrize("cutoff", [16, 32, 64, 128])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_algebra_across_cutoffs(cutoff, k):
    report = verify_algebra(FockSpaceSpec(cutoff=cutoff, k=k), tol=1e-12)
    assert max(report.values()) < 1e-12


def test_verify_algebra_rejects_tampered_generator(monkeypatch):
    # the check must be non-vacuous: a wrong coefficient in N must trip it
    import susyjc.fock as fock

    spec = FockSpaceSpec(cutoff=16, k=3)
    good = fock.build_generators(spec)
    bad_n = good.N.copy()
    bad_n += 0.01 * np.eye(spec.dim) * np.kron([1.0, 0.0], np.ones(spec.cutoff))
    tampered = fock.Generators(
        N=bad_n,
        Nprime=good.Nprime,
        Q=good.Q,
        Qdag=good.Qdag,
        sigma_z=good.sigma_z,
    )
    monkeypatch.setattr(fock, "build_generators", lambda s: tampered)
    with pytest.raises(VerificationError, match=r"\[N, Q\]"):
        fock.verify_algebra(spec, tol=1e-12)


def test_hamiltonian_decoupled_limit():
    spec = FockSpaceSpec(cutoff=16, k=3)
    params = constant_params(1.0, 3.0, 0.0)
    h = build_hamiltonian(spec, params, 0.0)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    for m in (0, 4):
        assert_allclose(h[spec.index(EXCITED, m), spec.index(EXCITED, m)], m + 1.5)
        assert_allclose(h[spec.index(GROUND, m), spec.index(GROUND, m)], m - 1.5)


def test_hamiltonian_coupling_element():
    spec = FockSpaceSpec(cutoff=16, k=3)
    params = constant_params(1.0, 3.0, 0.07, 0.9)
    g = params.coupling(0.0)
    h = build_hamiltonian(spec, params, 0.0)
    amp = h[spec.index(GROUND, 3), spec.index(EXCITED, 0)]
    assert_allclose(amp, g * math.sqrt(6.0), rtol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_susy_form_matches_direct(k):
    spec = FockSpaceSpec(cutoff=20, k=k)
    params = constant_params(0.9, 2.7, 0.04, 0.3, k=k)
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.0, 10.0, size=10):
        h1 = build_hamiltonian(spec, params, t)
        h2 = build_hamiltonian_susy(spec, params, t)
        assert np.max(np.abs(h1 - h2)) < 1e-13


def test_hamiltonian_conserves_nprime():
    # [H, N'] vanishes on the guarded subspace; [H, N] does not when g != 0
    from susyjc.fock import guarded_indices

    spec = FockSpaceSpec(cutoff=16, k=3)
    gen = build_generators(spec)
    params = constant_params(1.0, 2.8, 0.05, 0.3)
    h = build_hamiltonian(spec, params, 0.7)
    idx = guarded_indices(spec, 2 * spec.k)

    comm_np = h @ gen.Nprime - gen.Nprime @ h
    assert np.max(np.abs(comm_np[np.ix_(idx, idx)])) < 1e-11

    g = params.coupling(0.7)
    comm_n = h @ gen.N - gen.N @ h
    expected = g * gen.Q - np.conj(g) * gen.Qdag
    assert_allclose(
        comm_n[np.ix_(idx, idx)], -expected[np.ix_(idx, idx)], atol=1e-12
    )
    assert np.max(np.abs(comm_n[np.ix_(idx, idx)])) > 1e-3


def test_nonfinite_parameters_rejected():
    from susyjc import EvaluationError, TimeProfile, ModelParams

    spec = FockSpaceSpec(cutoff=16, k=3)
    params = ModelParams(
        omega=TimeProfile.table([0.0, 1.0], [1.0, 1.0]),
        omega0=TimeProfile.constant(3.0),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    with pytest.raises(EvaluationError):
        build_hamiltonian(spec, params, 2.0)


def test_lambda_consistency_with_generators():
    spec = FockSpaceSpec(cutoff=24, k=3)
    gen = build_generators(spec)
    for m in range(0, 12):
        vec = spec.basis_state(EXCITED, m)
        val = (vec.conj() @ gen.Nprime @ vec).real
        assert_allclose(val, lambda_value(m, 3), rtol=1e-14)
