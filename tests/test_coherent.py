import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susyjc import (
    AuxState,
    FockSpaceSpec,
    TruncationError,
    atomic_inversion,
    build_coherent_state,
    constant_params,
    propagate,
    solve_block_family,
)
from susyjc.coherent import CoherentSpec, m_max_for_tail, poisson_tail

SPEC = FockSpaceSpec(cutoff=32, k=3)
PARAMS = constant_params(1.0, 3.0, 0.05)


def family(xi, theta0=math.pi / 3, t1=20.0, sigma=+1):
    cs = CoherentSpec.for_xi(xi, sigma=sigma)
    sols = solve_block_family(cs, SPEC, PARAMS, (0.0, t1), AuxState(theta0, 0.0))
    return cs, sols


def test_tail_criterion():
    for xi in (0.5, 1.0, 2.0):
        m_max = m_max_for_tail(xi)
        assert poisson_tail(xi, m_max) < 1e-10
        if m_max > 0:
            assert poisson_tail(xi, m_max - 1) >= 1e-10


def test_spec_validation():
    CoherentSpec(xi=1.0, m_max=12)
    with pytest.raises(TruncationError):
        CoherentSpec(xi=1.0, m_max=3)
    with pytest.raises(TruncationError):
        solve_block_family(
            CoherentSpec.for_xi(2.0), FockSpaceSpec(cutoff=16, k=3), PARAMS, (0.0, 1.0),
            AuxState(math.pi / 2, 0.0),
        )


def test_weights_are_poissonian():
    cs = CoherentSpec.for_xi(1.0)
    w = cs.weights()
    expected = [math.exp(-0.5) * 1.0**m / math.sqrt(math.factorial(m)) for m in range(cs.m_max + 1)]
    assert_allclose(w, expected, rtol=1e-13)
    assert abs(np.sum(w**2) - 1.0) < 1e-10


def test_xi_zero_reduces_to_single_block():
    cs, sols = family(0.0, t1=5.0)
    assert cs.m_max == 0
    for t in (0.0, 2.5, 5.0):
        assert_allclose(build_coherent_state(cs, t, sols), sols[0].state_at(t), atol=1e-14)


def test_norm_stays_unit():
    cs, sols = family(1.0, t1=10.0)
    for t in np.linspace(0.0, 10.0, 11):
        norm = np.linalg.norm(build_coherent_state(cs, float(t), sols))
        assert abs(norm - 1.0) < 1e-10


def test_decoupled_initial_state_is_textbook_coherent():
    # g = 0 admits theta0 = 0 (no azimuthal pole), so at t = 0 the state is
    # the Poisson superposition over photon levels with the atom excited
    params = constant_params(1.0, 3.0, 0.0)
    cs = CoherentSpec.for_xi(1.0)
    sols = solve_block_family(cs, SPEC, params, (0.0, 1.0), AuxState(0.0, 0.0))
    psi0 = build_coherent_state(cs, 0.0, sols)
    w = cs.weights()
    expected = np.zeros(SPEC.dim, dtype=complex)
    for m, weight in enumerate(w):
        expected += weight * SPEC.basis_state(0, m)
    assert_allclose(psi0, expected, atol=1e-13)
    assert_allclose(atomic_inversion(psi0 / np.linalg.norm(psi0)), 1.0, rtol=1e-12)


def test_atomic_inversion_basis_states():
    assert atomic_inversion(SPEC.basis_state(0, 4)) == 1.0
    assert atomic_inversion(SPEC.basis_state(1, 7)) == -1.0


@pytest.mark.parametrize("sigma", [+1, -1])
def test_coherent_state_on_a_grid_matches_stacked_scalar_calls(sigma):
    # one call on the time grid is bit-identical to stacking the scalar
    # calls, time axis first, and so is the inversion over the last axis
    cs, sols = family(0.5, t1=5.0, sigma=sigma)
    ts = np.linspace(0.0, 5.0, 21)
    vecs = build_coherent_state(cs, ts, sols)
    scalar_vecs = [build_coherent_state(cs, float(t), sols) for t in ts]
    assert vecs.shape == (ts.size, 2 * SPEC.cutoff) and scalar_vecs[0].shape == (2 * SPEC.cutoff,)
    assert np.array_equal(vecs, np.stack(scalar_vecs))
    inversion = atomic_inversion(vecs)
    scalar_inversion = [atomic_inversion(v) for v in scalar_vecs]
    assert type(scalar_inversion[0]) is float and inversion.shape == ts.shape
    assert np.array_equal(inversion, scalar_inversion)


@pytest.mark.parametrize("xi", [0.5, 1.0])
def test_inversion_matches_oracle(xi):
    cs, sols = family(xi)
    ts = np.linspace(0.0, 20.0, 41)
    psi0 = build_coherent_state(cs, 0.0, sols)
    oracle = propagate(
        psi0 / np.linalg.norm(psi0), (0.0, 20.0), PARAMS, SPEC, rtol=1e-11, atol=1e-13, t_eval=ts
    )
    for i, t in enumerate(ts):
        exact_vec = build_coherent_state(cs, float(t), sols)
        exact = atomic_inversion(exact_vec / np.linalg.norm(exact_vec))
        ref = atomic_inversion(oracle.states[i] / np.linalg.norm(oracle.states[i]))
        assert abs(exact - ref) < 1e-6


def test_sigma_minus_branch_matches_oracle():
    cs, sols = family(0.5, sigma=-1, t1=10.0)
    ts = np.linspace(0.0, 10.0, 21)
    psi0 = build_coherent_state(cs, 0.0, sols)
    oracle = propagate(
        psi0 / np.linalg.norm(psi0), (0.0, 10.0), PARAMS, SPEC, rtol=1e-11, atol=1e-13, t_eval=ts
    )
    for i, t in enumerate(ts):
        vec = build_coherent_state(cs, float(t), sols)
        exact = atomic_inversion(vec / np.linalg.norm(vec))
        ref = atomic_inversion(oracle.states[i] / np.linalg.norm(oracle.states[i]))
        assert abs(exact - ref) < 1e-6


def test_inversion_shows_nontrivial_dynamics():
    cs, sols = family(1.0, theta0=math.pi / 3, t1=20.0)
    values = [
        atomic_inversion(build_coherent_state(cs, float(t), sols))
        for t in np.linspace(0.0, 20.0, 41)
    ]
    assert np.ptp(values) > 0.5  # the inversion actually oscillates
