import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susyjc import (
    AuxState,
    FockSpaceSpec,
    ModelParams,
    TimeProfile,
    TruncationError,
    atomic_inversion,
    build_coherent_state,
    constant_params,
    propagate,
    solve_block_family,
)
from susyjc import auxiliary, evolution, quadrature
from susyjc.coherent import CoherentSpec, m_max_for_tail, poisson_tail
from susyjc.errors import ConfigurationError
from susyjc.evolution import ExactSolution, PhaseIntegrals

TABLE_PARAMS = ModelParams(
    omega=TimeProfile.constant(1.0),
    omega0=TimeProfile.constant(3.0),
    g_mod=TimeProfile.table([0.0, 2.0, 4.0], [0.05, 0.08, 0.04]),
    g_phase=TimeProfile.constant(0.0),
    k=3,
)

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


@pytest.mark.parametrize("xi", [0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
def test_poisson_tail_matches_pdtrc(xi):
    # scipy's Poisson survival function is the reference: the tail agrees to
    # rounding wherever it matters, and every truncation stays where it was
    from scipy.special import pdtrc

    for m_max in range(0, 80):
        reference = float(pdtrc(m_max, xi * xi))
        if reference > 1e-30:  # 20 orders below the truncation bound
            assert abs(poisson_tail(xi, m_max) - reference) <= 1e-13 * reference
        else:
            assert poisson_tail(xi, m_max) <= 1e-30
    m = 0
    while pdtrc(m, xi * xi) >= 1e-10:
        m += 1
    assert m_max_for_tail(xi) == m


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


def test_block_family_is_one_solve_per_pass_certified_per_block(monkeypatch):
    # a table coupling splits the window into segments; the whole family is
    # one Magnus integration per pass over every segment, not one per block
    calls = []
    real_magnus = auxiliary.magnus

    def counting_magnus(*args, **kwargs):
        calls.append(args[3])  # the kinks
        return real_magnus(*args, **kwargs)

    monkeypatch.setattr(auxiliary, "magnus", counting_magnus)
    params = TABLE_PARAMS
    rtol = 1e-10
    cs = CoherentSpec.for_xi(0.5)
    sols = solve_block_family(cs, SPEC, params, (0.0, 4.0), AuxState(math.pi / 3, 0.0), rtol=rtol)
    stats = [sol.trajectory.stats for sol in sols]
    segments = len(params.breakpoints(0.0, 4.0)) + 1
    assert len(sols) == cs.m_max + 1 > 1 and segments == 2
    assert len(calls) == 1 + stats[0].refinements
    assert all(len(kinks) == segments - 1 for kinks in calls)
    shared = {(s.n_steps, s.n_rhs_evaluations, s.refinements, s.effective_rtol) for s in stats}
    assert len(shared) == 1
    # the solver gets the request one refinement notch (/16) below it per
    # pass, whatever the family's size
    passes = 1 + stats[0].refinements
    assert stats[0].effective_rtol == rtol / 16**passes
    for sol, s in zip(sols, stats):
        assert s.max_residual <= 100 * rtol
        assert s.n_samples == sol.trajectory.times.size
        assert sol.trajectory.lam == sol.block.lam
    # one grid for the whole family, sized by its fastest block
    assert len({s.n_samples for s in stats}) == 1
    assert all(sol.trajectory.times is sols[0].trajectory.times for sol in sols)


@pytest.mark.parametrize("times", [2.5, np.linspace(0.0, 5.0, 21)], ids=["scalar", "grid"])
def test_superposition_evaluates_the_family_once(monkeypatch, sample_calls, times):
    # one call of the family's (5M,) dense output and one of its int w,
    # whatever the number of members; no member is sampled alone
    cs, sols = family(1.0, t1=5.0)

    def no_state_at(self, t):
        raise AssertionError("a member was sampled on its own")

    monkeypatch.setattr(ExactSolution, "state_at", no_state_at)
    sample_calls.clear()
    build_coherent_state(cs, times, sols)
    members = cs.m_max + 1
    widths = [(kind, columns) for kind, _, columns in sample_calls]
    assert members > 1 and widths == [("dense", 5 * members), ("int w", 1)]


def test_family_fits_its_phases_once_per_segment(monkeypatch):
    # per segment: each certification pass differentiates every member, a
    # chunk of members per stencil pass, then one running integral of w
    # serves the whole family; the phases themselves come with the solve
    fits = []
    real_derivative = quadrature._segment_derivative
    real_antiderivative = evolution.cumulative_antiderivative

    def counting_derivative(*args, **kwargs):
        fits.append(args[1].shape)
        return real_derivative(*args, **kwargs)

    def counting_antiderivative(ts, ys, edge_indices):
        fits.append(("int w", len(edge_indices) - 1, np.size(ys) // np.size(ts)))
        return real_antiderivative(ts, ys, edge_indices)

    monkeypatch.setattr(quadrature, "_segment_derivative", counting_derivative)
    monkeypatch.setattr(evolution, "cumulative_antiderivative", counting_antiderivative)
    cs = CoherentSpec.for_xi(0.5)
    sols = solve_block_family(cs, SPEC, TABLE_PARAMS, (0.0, 4.0), AuxState(math.pi / 3, 0.0))
    segments = len(TABLE_PARAMS.breakpoints(0.0, 4.0)) + 1
    passes = 1 + sols[0].trajectory.stats.refinements
    members = cs.m_max + 1
    assert segments == 2 and members > 1
    certification, omega = fits[:-1], fits[-1]
    # s~ (real and imaginary parts) and cos theta of each member
    assert {shape[-1] for shape in certification} == {3}
    assert sum(shape[1] for shape in certification) == segments * passes * members
    assert omega == ("int w", segments, 1)  # one fit of one column over both segments
    # every member reads its own columns of the one solve
    assert len({id(sol.phases) for sol in sols}) == 1
    assert [sol.member for sol in sols] == list(range(members))


def test_superposition_rejects_solutions_of_two_family_solves():
    cs, first = family(0.5, t1=2.0)
    _, second = family(0.5, t1=2.0)
    mixed = first[:1] + second[1:]
    with pytest.raises(ConfigurationError, match="2 different family solves"):
        build_coherent_state(cs, 1.0, mixed)
    # nor can one family layer be stitched together from two solves
    with pytest.raises(ConfigurationError, match="not the members of one family solve"):
        PhaseIntegrals([sol.trajectory for sol in mixed], [sol.block for sol in mixed])
