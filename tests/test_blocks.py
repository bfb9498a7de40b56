import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susyjc import (
    ConfigurationError,
    FockSpaceSpec,
    SubspaceBlock,
    VerificationError,
    block_components,
    build_generators,
    build_hamiltonian,
    constant_params,
    embed_state,
    lambda_value,
    project_block,
    verify_block_closure,
)


def test_lambda_value_cases():
    assert lambda_value(0, 3) == 6
    assert lambda_value(1, 3) == 24
    assert lambda_value(5, 1) == 6
    # iterative product stays integer-exact well past m = 20
    assert lambda_value(20, 3) == 21 * 22 * 23
    assert lambda_value(50, 3) == 51 * 52 * 53


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lambda_matches_factorial_quotient(k):
    for m in range(0, 15):
        assert lambda_value(m, k) == math.factorial(m + k) // math.factorial(m)


def test_block_validation():
    SubspaceBlock(m=0, k=3, cutoff=16)
    with pytest.raises(ConfigurationError):
        SubspaceBlock(m=-1, k=3, cutoff=16)
    with pytest.raises(ConfigurationError):
        SubspaceBlock(m=13, k=3, cutoff=16)  # needs photon level 16


def test_block_indices():
    spec = FockSpaceSpec(cutoff=16, k=3)
    block = SubspaceBlock.for_space(spec, 2)
    assert block.upper_index == spec.index(0, 2)
    assert block.lower_index == spec.index(1, 5)
    assert block.lam == 60


def test_project_sigma_z_and_q():
    spec = FockSpaceSpec(cutoff=16, k=3)
    gen = build_generators(spec)
    block = SubspaceBlock.for_space(spec, 1)

    assert_allclose(project_block(gen.sigma_z, block), np.diag([1.0, -1.0]), atol=0)

    q2 = project_block(gen.Q, block)
    assert_allclose(q2, [[0, 0], [math.sqrt(block.lam), 0]], rtol=1e-14)

    comm = project_block(gen.Qdag @ gen.Q - gen.Q @ gen.Qdag, block)
    assert_allclose(comm, block.lam * np.diag([1.0, -1.0]), rtol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nprime_projection_is_lambda(k):
    spec = FockSpaceSpec(cutoff=20, k=k)
    gen = build_generators(spec)
    for m in range(0, 11):
        block = SubspaceBlock.for_space(spec, m)
        lam = lambda_value(m, k)
        proj = project_block(gen.Nprime, block)
        assert np.max(np.abs(proj - lam * np.eye(2))) / lam < 1e-13


def test_projection_is_homomorphism_on_block_operators():
    # project(AB) = project(A) project(B) for block-preserving A, B
    spec = FockSpaceSpec(cutoff=16, k=3)
    params = constant_params(1.0, 2.8, 0.05, 1.1)
    block = SubspaceBlock.for_space(spec, 1)
    h = build_hamiltonian(spec, params, 0.3)
    gen = build_generators(spec)
    dmat = gen.Qdag - gen.Q
    left = project_block(h @ dmat, block)
    right = project_block(h, block) @ project_block(dmat, block)
    assert_allclose(left, right, atol=1e-12)


def test_embed_and_recover():
    spec = FockSpaceSpec(cutoff=16, k=3)
    block = SubspaceBlock.for_space(spec, 2)
    for comp in ([1, 0], [0, 1], [1 / math.sqrt(2), 1j / math.sqrt(2)]):
        vec = embed_state(block, comp)
        assert_allclose(np.linalg.norm(vec), np.linalg.norm(comp), rtol=1e-15)
        assert_allclose(block_components(block, vec), comp, atol=0)
        outside = vec.copy()
        outside[[block.upper_index, block.lower_index]] = 0.0
        assert np.all(outside == 0)


def test_verify_block_closure_passes():
    spec = FockSpaceSpec(cutoff=16, k=3)
    params = constant_params(1.0, 3.0, 0.05)
    hams = [build_hamiltonian(spec, params, t) for t in (0.0, 0.7, 2.0)]
    for m in (0, 3, 7):
        block = SubspaceBlock.for_space(spec, m)
        assert verify_block_closure(block, hams, tol=1e-13) < 1e-13


def test_verify_block_closure_quasialgebra_relations():
    spec = FockSpaceSpec(cutoff=16, k=3)
    gen = build_generators(spec)
    block = SubspaceBlock.for_space(spec, 1)
    q = project_block(gen.Q, block)
    qd = project_block(gen.Qdag, block)
    lam = block.lam
    assert_allclose(qd @ q + q @ qd, lam * np.eye(2), rtol=1e-13)
    diff = qd - q
    assert_allclose(diff @ diff, -lam * np.eye(2), rtol=1e-13)


def test_verify_block_closure_detects_leakage():
    spec = FockSpaceSpec(cutoff=16, k=3)
    params = constant_params(1.0, 3.0, 0.05)
    block = SubspaceBlock.for_space(spec, 1)
    h = build_hamiltonian(spec, params, 0.0).copy()
    h[block.upper_index + 1, block.upper_index] = 1e-6  # spurious coupling
    with pytest.raises(VerificationError, match="leakage"):
        verify_block_closure(block, [h], tol=1e-13)


def test_verify_block_closure_rejects_a_hamiltonian_of_another_cutoff():
    # cutoff-20 Hamiltonians read at a cutoff-16 block's indices are the wrong basis
    params = constant_params(1.0, 3.0, 0.05)
    block = SubspaceBlock.for_space(FockSpaceSpec(cutoff=16, k=3), 2)
    hams = [build_hamiltonian(FockSpaceSpec(cutoff=20, k=3), params, t) for t in (0.0, 1.0)]
    with pytest.raises(ConfigurationError, match="cutoff 16"):
        verify_block_closure(block, hams, tol=1e-13)
