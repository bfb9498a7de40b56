import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susyjc import (
    AuxState,
    ConfigurationError,
    EXCITED,
    FockSpaceSpec,
    ModelParams,
    PropagationError,
    SubspaceBlock,
    TimeProfile,
    build_generators,
    constant_params,
    embed_state,
    fidelity,
    invariant_expectation_drift,
    propagate,
    solve_aux,
)
from susyjc.evolution import invariant_operator
from susyjc.quadrature import RTOL_FLOOR

SPEC = FockSpaceSpec(cutoff=32, k=3)


def _swinging(omega0, g_phase=0.0):
    """constant_params(1.0, omega0, 0.05, g_phase) but for a coupling modulus
    that swings by 0.01 at frequency 0.3: H depends on time, so the oracle
    integrates it (constant profiles it propagates exactly), and w and w0
    stay constant, so an unlinked level stands still in its frame."""
    return ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(omega0),
        g_mod=TimeProfile.sinusoid(0.05, 0.01, 0.3),
        g_phase=TimeProfile.constant(g_phase),
        k=3,
    )


# the acceptance suite's sinusoidal-omega0 scenario: resonant.ini's profiles
# but for omega0 = 3 + 0.1 sin(0.3 t), which the oracle integrates
SINUSOIDAL_OMEGA0 = ModelParams(
    omega=TimeProfile.constant(1.0),
    omega0=TimeProfile.sinusoid(3.0, 0.1, 0.3),
    g_mod=TimeProfile.constant(0.05),
    g_phase=TimeProfile.constant(0.0),
    k=3,
)


def test_decoupled_evolution_is_a_phase():
    params = constant_params(1.0, 3.0, 0.0)
    m = 2
    psi0 = SPEC.basis_state(EXCITED, m)
    ts = np.linspace(0.0, 10.0, 21)
    result = propagate(psi0, (0.0, 10.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=ts)
    for t, psi in zip(result.times, result.states):
        expected = np.exp(-1j * (m * 1.0 + 3.0 / 2.0) * t) * psi0
        assert_allclose(psi, expected, atol=1e-9)


def test_nprime_expectation_conserved():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 1)
    psi0 = embed_state(block, [1 / math.sqrt(2), 1j / math.sqrt(2)])
    result = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13)
    assert result.nprime_drift < 1e-8
    assert result.norm_drift < 1e-9


def test_block_confinement():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 2)
    psi0 = embed_state(block, [1.0, 0.0])
    result = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13)
    for psi in result.states:
        outside = psi.copy()
        outside[[block.upper_index, block.lower_index]] = 0.0
        assert np.max(np.abs(outside)) < 1e-10


def test_initial_state_validation():
    params = constant_params(1.0, 3.0, 0.05)
    with pytest.raises(ConfigurationError):
        propagate(np.zeros(SPEC.dim), (0.0, 1.0), params, SPEC)
    top = SPEC.basis_state(EXCITED, SPEC.cutoff - 1)
    with pytest.raises(ConfigurationError):
        propagate(top, (0.0, 1.0), params, SPEC)


def test_norm_drift_rejection():
    params = _swinging(2.8)
    block = SubspaceBlock.for_space(SPEC, 0)
    psi0 = embed_state(block, [1.0, 0.0])
    with pytest.raises(PropagationError, match="norm drift"):
        propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-4, atol=1e-6, max_norm_drift=1e-12)


@pytest.mark.parametrize("late", [21.0, 40.0, math.nan])
def test_t_eval_outside_the_window_is_rejected_naming_the_first_time(late):
    # a time past the window was extrapolated (21) or failed as a norm drift
    # (40), and NaN, which compares False with both ends, came back as NaN
    # states with no rejection; each is a configuration error that names
    # the time, before any solve
    params = constant_params(1.0, 2.8, 0.05)
    psi0 = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    message = rf"^t={late} outside propagation window \[0.0, 20.0\]; 1 of 2 times outside$"
    with pytest.raises(ConfigurationError, match=message):
        propagate(psi0, (0.0, 20.0), params, SPEC, t_eval=[5.0, late])
    with pytest.raises(ConfigurationError, match=r"^t=-1.0 outside"):
        propagate(psi0, (0.0, 20.0), params, SPEC, t_eval=[-1.0, 5.0, late])


@pytest.mark.parametrize("drive", ["constant", "swinging"])
def test_an_empty_t_eval_is_named_before_any_solve(drive, monkeypatch):
    # an empty t_eval reached the norm-drift reduction, an untyped
    # ValueError (zero-size array) on both routes; it is a configuration
    # error that names t_eval, raised before either route starts
    from susyjc import schrodinger

    def unreachable(*args):
        raise AssertionError("a route ran")

    monkeypatch.setattr(schrodinger, "_rotated", unreachable)
    monkeypatch.setattr(schrodinger, "integrate_segments", unreachable)
    params = constant_params(1.0, 2.8, 0.05) if drive == "constant" else _swinging(2.8)
    psi0 = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    for empty in ([], np.empty(0), np.empty((0, 3))):
        with pytest.raises(ConfigurationError, match=r"^t_eval must be a non-empty 1-d array"):
            propagate(psi0, (0.0, 1.0), params, SPEC, t_eval=empty)
    with pytest.raises(ConfigurationError, match=r"^t_eval .* got shape \(\)$"):
        propagate(np.array([psi0, psi0]), (0.0, 1.0), params, SPEC, t_eval=0.5)


def test_the_structure_is_built_once_per_space(monkeypatch):
    # the dense generators are built for a space's first propagation only,
    # and the structure read off them is shared read-only
    from susyjc import schrodinger

    calls = []
    build = schrodinger.build_generators

    def counting(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(schrodinger, "build_generators", counting)
    schrodinger._Structure.for_space.cache_clear()
    spec = FockSpaceSpec(cutoff=14, k=2)
    psi0 = spec.basis_state(EXCITED, 1)
    ts = np.linspace(0.0, 1.0, 5)
    for params in (constant_params(1.0, 2.1, 0.05, k=2), dataclasses.replace(_swinging(2.1), k=2)):
        propagate(psi0, (0.0, 1.0), params, spec, t_eval=ts)
    propagate(psi0, (0.0, 1.0), constant_params(1.0, 2.1, 0.05, k=2), FockSpaceSpec(14, 2), t_eval=ts)
    assert calls == [spec]
    structure = schrodinger._Structure.for_space(spec)
    for field in dataclasses.fields(structure):
        assert not getattr(structure, field.name).flags.writeable, field.name


@pytest.mark.xfail(
    strict=True,
    raises=PropagationError,
    reason="the dense output's interpolation error on long steps exceeds MAX_NORM_DRIFT",
)
def test_a_lone_basis_state_stays_within_the_default_norm_drift():
    # configs/resonant.ini's profiles and space at the oracle's default
    # tolerances, but for a coupling modulus that swings by 1e-4, so that
    # DOP853 integrates it: the interaction frame barely moves a lone basis
    # state, so DOP853 takes 9 steps over [0, 20], and the norm drifts
    # 1.073e-9 at the 401 dense samples, past the 1e-9 bound
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(3.0),
        g_mod=TimeProfile.sinusoid(0.05, 1e-4, 0.1),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    propagate(SPEC.basis_state(EXCITED, 0), (0.0, 20.0), params, SPEC, 1e-10, 1e-12)


def test_a_lone_basis_state_under_constant_profiles_keeps_its_norm():
    # the same state under configs/resonant.ini's constant profiles: each
    # sample is the exact Rabi rotation of its link, so no step is taken and
    # the norm holds to rounding at all 401 samples
    params = constant_params(1.0, 3.0, 0.05)
    result = propagate(SPEC.basis_state(EXCITED, 0), (0.0, 20.0), params, SPEC, 1e-10, 1e-12)
    assert result.n_steps == result.n_rhs_evaluations == 0
    assert result.norm_drift < 1e-14


def test_fidelity_cases():
    a = np.zeros(4, dtype=complex)
    a[0] = 1.0
    b = np.zeros(4, dtype=complex)
    b[1] = 1.0
    assert fidelity(a, a) == 1.0
    assert fidelity(a, b) == 0.0
    assert_allclose(fidelity(a, np.exp(1j * 0.7) * a), 1.0, rtol=1e-15)


def test_time_reversibility():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 1)
    psi0 = embed_state(block, [1.0, 0.0])
    fwd = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=[0.0, 20.0])
    end = fwd.states[-1] / np.linalg.norm(fwd.states[-1])
    back = propagate(end, (20.0, 0.0), params, SPEC, rtol=1e-11, atol=1e-13, t_eval=[20.0, 0.0])
    assert 1.0 - fidelity(back.states[-1], psi0) < 1e-8


def test_invariant_expectation_drift_constant_and_rebuilt():
    params = constant_params(1.0, 2.8, 0.05)
    block = SubspaceBlock.for_space(SPEC, 0)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, block.lam, rtol=1e-10)

    psi0 = embed_state(block, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    result = propagate(psi0, (0.0, 20.0), params, SPEC, rtol=1e-11, atol=1e-13)

    gen = build_generators(SPEC)
    assert invariant_expectation_drift(gen.Nprime, result) < 1e-8

    def rebuilt(t):
        return invariant_operator(SPEC, traj.state_at(t), block.lam)

    assert invariant_expectation_drift(rebuilt, result) < 1e-6

    # non-conserved control: sigma_z alone drifts O(1) when g != 0
    assert invariant_expectation_drift(gen.sigma_z, result) > 0.1


def test_invariant_expectation_drift_rejects_a_stack():
    # a stack's states are (R, n_times, dim): one run's drift is not defined on them
    params = constant_params(1.0, 2.8, 0.05)
    psi0 = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    ts = np.linspace(0.0, 1.0, 5)
    stack = propagate(np.array([psi0, psi0]), (0.0, 1.0), params, SPEC, t_eval=ts)
    assert stack.states.shape == (2, 5, SPEC.dim)
    with pytest.raises(ConfigurationError, match=rf"\(2, 5, {SPEC.dim}\)"):
        invariant_expectation_drift(build_generators(SPEC).Nprime, stack)


def test_invariant_expectation_drift_rejects_an_operator_of_another_dimension():
    # a cutoff-20 operator on cutoff-32 states: named up front, not a matmul error
    params = constant_params(1.0, 2.8, 0.05)
    psi0 = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    result = propagate(psi0, (0.0, 1.0), params, SPEC, t_eval=np.linspace(0.0, 1.0, 5))
    small = build_generators(FockSpaceSpec(cutoff=20, k=3)).sigma_z
    with pytest.raises(ConfigurationError, match=r"operator shape \(40, 40\) is not \(64, 64\)"):
        invariant_expectation_drift(small, result)
    with pytest.raises(ConfigurationError, match=r"operator shape \(40, 40\)"):
        invariant_expectation_drift(lambda t: small, result)


def test_table_profile_keeps_drift_budget():
    # kinks in H(t) must not degrade the run past the rejection threshold
    knots = np.linspace(0.0, 20.0, 11)
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.table(knots, 3.0 + 0.08 * np.sin(0.4 * knots)),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    block = SubspaceBlock.for_space(SPEC, 1)
    psi0 = embed_state(block, [1.0, 0.0])
    result = propagate(psi0, (0.0, 20.0), params, SPEC)
    assert result.norm_drift < 1e-9
    assert result.nprime_drift < 1e-7


def test_refining_tolerance_improves_decoupled_phase():
    # constant profiles, g = 0: the oracle applies the free phase exactly,
    # at any tolerance
    psi0 = SPEC.basis_state(EXCITED, 1)
    for rtol in (1e-6, 5e-7):
        result = propagate(
            psi0, (0.0, 20.0), constant_params(1.0, 3.0, 0.0), SPEC, rtol=rtol,
            atol=rtol * 1e-2, max_norm_drift=1e-4, t_eval=[20.0],
        )
        expected = np.exp(-1j * 2.5 * 20.0) * psi0
        assert np.max(np.abs(result.states[-1] - expected)) <= 1e-14

    # an omega0 ramp leaves the phase -i b t^2 / 4 to integrate; its closed
    # form is exp(-i (m w t + (a t + b t^2 / 2) / 2)) for omega0 = a + b t
    a, b = 3.0, 0.05
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.linear(a, b),
        g_mod=TimeProfile.constant(0.0),
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    errs = []
    for rtol in (1e-6, 5e-7):
        result = propagate(
            psi0, (0.0, 20.0), params, SPEC, rtol=rtol, atol=rtol * 1e-2,
            max_norm_drift=1e-4, t_eval=[20.0],
        )
        expected = np.exp(-1j * (20.0 + (a * 20.0 + b * 20.0**2 / 2) / 2)) * psi0
        errs.append(np.max(np.abs(result.states[-1] - expected)))
    assert errs[1] < errs[0]


def test_oracle_shares_nothing_with_the_analytic_route():
    # the oracle may use operator builders and profiles, never blocks or angles
    import susyjc.schrodinger as oracle

    analytic = {
        "susyjc.auxiliary",
        "susyjc.evolution",
        "susyjc.blocks",
        "susyjc.adiabatic",
        "susyjc.coherent",
    }
    borrowed = sorted(
        name
        for name, value in vars(oracle).items()
        if getattr(value, "__module__", None) in analytic
    )
    assert borrowed == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_structured_rhs_matches_dense_hamiltonian(k):
    # the oracle integrates only the live levels, those a column populates
    # and their Q partners, by one real generator: it must act exactly like
    # the dense matrix restricted to them, truncated top photon levels and
    # the unlinked bottom ground levels included, on one state and on a
    # stack, with -i folded in as the oracle's right-hand side does; and the
    # dense matrix must couple no live level to any other
    from susyjc import build_hamiltonian
    from susyjc.fock import build_generators
    from susyjc.schrodinger import _live_generators, _live_levels, _Structure

    spec = FockSpaceSpec(cutoff=12, k=k)
    knots = [0.0, 2.5, 5.0, 7.5, 10.0]
    params = ModelParams(
        omega=TimeProfile.sinusoid(1.0, 0.1, 0.4),
        omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
        g_mod=TimeProfile.table(knots, [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=k,
    )
    structure = _Structure.for_space(spec)
    # N' is diagonal too: its vector is the whole matrix the drift check needs
    assert np.array_equal(np.diag(structure.nprime), build_generators(spec).Nprime)
    # Q links are symmetric: a linked level's partner has it as its partner,
    # and the top k excited and bottom k ground levels are their own
    levels, partners = structure.pairs.T
    assert np.array_equal(levels, np.arange(spec.dim))
    linked = partners != levels
    assert np.array_equal(partners[partners[linked]], levels[linked])
    unlinked = np.r_[spec.cutoff - k : spec.cutoff + k]
    assert np.array_equal(np.flatnonzero(~linked), unlinked)
    rng = np.random.default_rng(k)
    top = np.zeros((2, spec.cutoff), dtype=complex)
    top[:, -2 * k :] = 1.0 + 0.5j  # only the levels where truncation cuts the ladder
    bottom = np.zeros((2, spec.cutoff), dtype=complex)
    bottom[1, :k] = 0.3 - 1.0j  # the ground levels below every Q link
    one = spec.basis_state(EXCITED, 1)  # live with its partner, ground level 1 + k
    stack = np.array(
        [
            rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim),
            top.ravel(),
            bottom.ravel(),
            one,
        ]
    )
    assert np.array_equal(_live_levels(structure, one[None]), [1, spec.cutoff + 1 + k])
    assert np.array_equal(_live_levels(structure, stack[2:3]), np.r_[spec.cutoff : spec.cutoff + k])
    for columns in [stack, stack[1:]] + [row[None] for row in stack]:
        live = _live_levels(structure, columns)
        others = np.setdiff1d(np.arange(spec.dim), live)
        assert not np.any(columns[:, others])
        table = _live_generators(structure, live)
        assert table.shape == (4, 2 * live.size, 2 * live.size) and table.dtype == np.float64
        amplitudes = np.ascontiguousarray(columns[:, live])
        for t in (0.0, 1.3, 2.5, 6.1, 10.0):
            omega, omega0, g = params.evaluate(t)
            dense = build_hamiltonian(spec, params, t)
            assert not np.any(dense[np.ix_(live, others)]) and not np.any(dense[np.ix_(others, live)])
            generator = np.tensordot((omega, omega0, g.real, g.imag), table, 1)
            got = (amplitudes.view(float) @ generator).view(complex)
            want = amplitudes @ (-1j * dense[np.ix_(live, live)]).T
            assert got.shape == want.shape == amplitudes.shape
            for row, (g_row, w_row) in enumerate(zip(got, want)):
                error = np.linalg.norm(g_row - w_row)
                assert error <= 1e-13 * np.linalg.norm(w_row), (k, t, row)


def _superposition(spec, ms, seed):
    """A normalized state spread over both levels of blocks ``ms``."""
    rng = np.random.default_rng(seed)
    psi = np.zeros(spec.dim, dtype=complex)
    for m in ms:
        block = SubspaceBlock.for_space(spec, m)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi[[block.upper_index, block.lower_index]] = amps
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_matches_matrix_exponential_for_constant_coupled_h(k):
    # detuned (k w != w0) and complex g, so each link's rotation is tilted
    # and carries g's phase; the window starts at t0 != 0, so tau = t - t0
    # counts, and runs either way.  Constant profiles are propagated
    # exactly, so only rounding separates the two
    from scipy.linalg import expm

    from susyjc import build_hamiltonian

    spec = FockSpaceSpec(cutoff=14, k=k)
    params = constant_params(1.0, k * 1.0 - 0.2, 0.07, g_phase=0.6, k=k)
    psi0 = _superposition(spec, range(4), seed=k)
    h = build_hamiltonian(spec, params, 0.0)
    for t0, t1 in [(1.5, 21.5), (21.5, 1.5)]:
        ts = np.linspace(t0, t1, 9)
        result = propagate(psi0, (t0, t1), params, spec, t_eval=ts)
        assert result.n_steps == result.n_rhs_evaluations == 0
        for t, psi in zip(ts, result.states):
            assert np.max(np.abs(psi - expm(-1j * h * (t - t0)) @ psi0)) < 1e-12, (k, t0, t)


@pytest.mark.parametrize(
    "swing",
    [
        pytest.param(("g_mod", TimeProfile.sinusoid(0.07, 0.0, 0.3)), id="zero-amplitude-sinusoid"),
        pytest.param(("g_phase", TimeProfile.linear(0.6, 0.0)), id="zero-slope-linear-phase"),
    ],
)
def test_a_time_dependent_kind_with_constant_values_is_integrated(swing):
    # the exact path is taken on the profiles' kind, not on their values:
    # a drive that only happens to stay constant goes to DOP853, and agrees
    # with the constant kind's exact rotation within the oracle's own bound
    from susyjc.schrodinger import MAX_AMPLITUDE_ERROR

    spec = FockSpaceSpec(cutoff=14, k=3)
    exact = constant_params(1.0, 2.8, 0.07, g_phase=0.6)
    name, profile = swing
    integrated = dataclasses.replace(exact, **{name: profile})
    psi0 = _superposition(spec, range(4), seed=3)
    ts = np.linspace(1.5, 21.5, 41)
    want = propagate(psi0, (1.5, 21.5), exact, spec, t_eval=ts)
    got = propagate(psi0, (1.5, 21.5), integrated, spec, t_eval=ts)
    assert want.n_rhs_evaluations == 0 < got.n_rhs_evaluations
    assert np.max(np.abs(got.states - want.states)) < MAX_AMPLITUDE_ERROR


@pytest.mark.parametrize("window", [(0.5, 10.0), (9.5, 0.0)], ids=["forward", "backward"])
def test_oracle_matches_lab_frame_integration_on_driven_profiles(window):
    # the chirp, table and sinusoid kinds of the driven scenario, against a
    # lab-frame dense-matrix integration kept here, leg by leg between knots,
    # with H(t) assembled from the operator builders' matrices
    from scipy.integrate import solve_ivp

    from susyjc import build_ladder

    spec = FockSpaceSpec(cutoff=16, k=3)
    knots = [0.0, 2.5, 5.0, 7.5, 10.0]
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
        g_mod=TimeProfile.table(knots, [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=3,
    )
    psi0 = _superposition(spec, [0, 2, 5], seed=7)
    t0, t1 = window
    ts = np.linspace(t0, t1, 11)

    gen = build_generators(spec)
    a_op, adag = build_ladder(spec)
    number = adag @ a_op
    half_sz = 0.5 * gen.sigma_z
    q, qdag = gen.Q, gen.Qdag

    def lab_rhs(t, y):
        omega, omega0, g = params.evaluate(t)
        return -1j * ((omega * number + omega0 * half_sz + g * q + np.conj(g) * qdag) @ y)

    lo, hi = sorted(window)
    inner = [x for x in knots if lo < x < hi]
    edges = [t0] + (inner if t1 > t0 else inner[::-1]) + [t1]
    want = np.empty((len(ts), spec.dim), dtype=complex)
    y = psi0
    for a, b in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(lab_rhs, (a, b), y, method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
        inside = (ts - a) * (ts - b) <= 0
        want[inside] = sol.sol(ts[inside]).T
        y = sol.y[:, -1]

    result = propagate(psi0, window, params, spec, t_eval=ts)
    for t, psi, ref in zip(ts, result.states, want):
        assert np.max(np.abs(psi - ref)) < 1e-8, t


def test_the_live_solve_takes_the_steps_of_a_full_space_solve(monkeypatch):
    # a stack on the driven scenario's chirp, table and sinusoid kinds, with
    # an unlinked bottom ground level among its columns: DOP853 on the live
    # levels takes the same steps, at the same times, and the same
    # right-hand-side calls as DOP853 on all 2 R dim components at rtol and
    # atol over sqrt(2R), with a dense-matrix right-hand side in the same
    # t0-diagonal frame, kept here.  The first step, from the initial-step
    # estimate, is so short that its error estimate is rounding, and the
    # next step's length follows it: the two solves' times differ there,
    # by 7.6e-6 relative at most.  Without the sqrt(dim / L) = 2.1 factor
    # the live solve's steps would be 2.1^(1/8) times, or 10 %, shorter
    from susyjc import GROUND, build_ladder, schrodinger
    from susyjc.quadrature import integrate_segments

    spec = FockSpaceSpec(cutoff=16, k=3)
    knots = [0.0, 2.5, 5.0, 7.5, 10.0]
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.chirp(3.0, 0.2, 0.5, 0.05),
        g_mod=TimeProfile.table(knots, [0.05, 0.08, 0.04, 0.07, 0.05]),
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=3,
    )
    stack = np.array(
        [
            _superposition(spec, [0], seed=1),
            _superposition(spec, [2, 5], seed=2),
            spec.basis_state(GROUND, 1),
        ]
    )
    solutions = []

    def recording(*args):
        solutions.append(integrate_segments(*args))
        return solutions[-1]

    monkeypatch.setattr(schrodinger, "integrate_segments", recording)
    window, ts = (0.5, 10.0), np.linspace(0.5, 10.0, 21)
    result = propagate(stack, window, params, spec, rtol=1e-10, atol=1e-12, t_eval=ts)
    [live] = solutions
    assert live.states.shape[1] == 2 * len(stack) * 7  # 3 blocks and ground 1 of 32 levels

    gen = build_generators(spec)
    a_op, adag = build_ladder(spec)
    number, half_sz = adag @ a_op, 0.5 * gen.sigma_z
    t0 = window[0]
    omega_ref, omega0_ref, _ = params.evaluate(t0)
    energies = np.diag(omega_ref * number + omega0_ref * half_sz).real

    def dense_rhs(t, y):
        omega, omega0, g = params.evaluate(t)
        h = omega * number + omega0 * half_sz + g * gen.Q + np.conj(g) * gen.Qdag
        h -= np.diag(energies)
        phase = np.exp(1j * energies * (t - t0))
        frame = -1j * (phase[:, None] * h * phase.conj())  # -i e^{iE tau} (H - E) e^{-iE tau}
        return (y.view(complex).reshape(len(stack), -1) @ frame.T).reshape(-1).view(float)

    def failed(message, time):
        raise AssertionError(message)

    shrink = math.sqrt(2 * len(stack))
    y0 = stack.reshape(-1).view(float)
    kinks = params.breakpoints(*window)
    full = integrate_segments(dense_rhs, window, y0, kinks, 1e-10 / shrink, 1e-12 / shrink, failed)
    assert live.nfev == full.nfev == result.n_rhs_evaluations
    assert live.times.size == full.times.size == result.n_steps + 1
    assert_allclose(live.times, full.times, rtol=1e-4, atol=0)


def test_oracle_work_budget_on_the_resonant_block():
    # resonant.ini's m = 2, sigma = +1 run at its rtol, with the acceptance
    # suite's sinusoidal omega0 (3 + 0.1 sin 0.3 t), which DOP853 integrates
    # in 374 right-hand sides; in the lab frame the solver followed the free
    # phases and needed 2522 on the constant profiles
    from susyjc.evolution import ExactSolution

    spec = FockSpaceSpec(cutoff=32, k=3, guard=3)
    params = SINUSOIDAL_OMEGA0
    block = SubspaceBlock.for_space(spec, 2)
    traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, block.lam, rtol=1e-10)
    psi0 = ExactSolution(block, +1, traj).state_at(0.0)
    ts = np.linspace(0.0, 20.0, 201)
    result = propagate(psi0, (0.0, 20.0), params, spec, rtol=1e-10, atol=1e-12, t_eval=ts)
    assert 0 < result.n_steps < result.n_rhs_evaluations < 1000


def _resonant_runs():
    """resonant.ini's six exact initial states, (m, sigma) for m = 0, 1, 2 and
    sigma = +1, -1, in the order the CLI stacks them, and the drive that the
    oracle propagates them under: ``SINUSOIDAL_OMEGA0``, which it integrates
    (resonant.ini's constant profiles it propagates exactly)."""
    from susyjc.evolution import ExactSolution

    spec = FockSpaceSpec(cutoff=32, k=3, guard=3)
    params = constant_params(1.0, 3.0, 0.05)
    states = []
    for m in (0, 1, 2):
        block = SubspaceBlock.for_space(spec, m)
        traj = solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 20.0), params, block.lam, rtol=1e-10)
        states += [ExactSolution(block, sigma, traj).state_at(0.0) for sigma in (+1, -1)]
    return spec, SINUSOIDAL_OMEGA0, np.array(states)


def test_a_one_row_stack_is_the_single_state_call():
    # one state is the R = 1 case of the stacked code, bit for bit, whether
    # it is propagated exactly or integrated
    block = SubspaceBlock.for_space(SPEC, 1)
    psi0 = embed_state(block, [1 / math.sqrt(2), 1j / math.sqrt(2)])
    ts = np.linspace(0.0, 20.0, 41)
    for params in (constant_params(1.0, 2.8, 0.05, g_phase=0.4), _swinging(2.8, g_phase=0.4)):
        one = propagate(psi0, (0.0, 20.0), params, SPEC, t_eval=ts)
        stack = propagate(psi0[None, :], (0.0, 20.0), params, SPEC, t_eval=ts)
        assert one.states.shape == (41, SPEC.dim) and stack.states.shape == (1, 41, SPEC.dim)
        assert np.array_equal(stack.states[0], one.states)
        assert (stack.norm_drift, stack.nprime_drift) == (one.norm_drift, one.nprime_drift)
        assert (stack.n_steps, stack.n_rhs_evaluations) == (one.n_steps, one.n_rhs_evaluations)


def test_stacked_columns_match_their_solo_runs():
    # resonant.ini's six oracle runs, on the sinusoidal omega0, as one solve
    # at rtol / sqrt(12): each column agrees with its solo run, and drifts
    # inside the 1e-9 bound, as the solo runs do (6.8e-10 at worst)
    spec, params, initial = _resonant_runs()
    ts = np.linspace(0.0, 20.0, 201)
    stack = propagate(initial, (0.0, 20.0), params, spec, t_eval=ts)
    assert stack.states.shape == (6, 201, spec.dim)
    assert stack.n_rhs_evaluations <= 400  # the six solo runs take 1884
    drifts = np.max(np.abs(np.linalg.norm(stack.states, axis=-1) - 1.0), axis=-1)
    assert np.max(drifts) == stack.norm_drift <= 6e-10
    for psi0, states in zip(initial, stack.states):
        solo = propagate(psi0, (0.0, 20.0), params, spec, t_eval=ts)
        assert np.max(np.abs(states - solo.states)) < 2e-9


@pytest.mark.parametrize("rtol", [1e-13, 4e-14, 1e-14])
def test_a_tight_stack_stays_above_the_solver_floor(rtol):
    # the six columns populate L = 6 live levels of 64, so the solver gets
    # rtol sqrt(64 / 6) / sqrt(12) = 0.943 rtol, clamped at its floor of 100
    # eps, below which DOP853 raises a ConfigurationError (1e-14 lies below)
    spec, params, initial = _resonant_runs()
    result = propagate(initial, (0.0, 1.0), params, spec, rtol=rtol, atol=1e-15)
    assert result.norm_drift < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_row_is_named_before_any_propagation(bad):
    # NaN compares False with any bound, so the normalization test alone lets
    # a NaN amplitude through, after which DOP853 would never finish and the
    # exact path would return NaN states.  Under both kinds of drive it is a
    # ConfigurationError naming the row
    good = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    broken = good.copy()
    broken[3] = bad
    for params in (constant_params(1.0, 3.0, 0.05), _swinging(3.0)):
        message = "initial state row 1 has a non-finite amplitude"
        with pytest.raises(ConfigurationError, match=message):
            propagate(np.array([good, broken]), (0.0, 1.0), params, SPEC)
        with pytest.raises(ConfigurationError, match="^initial state has a non-finite"):
            propagate(broken, (0.0, 1.0), params, SPEC)


@pytest.mark.parametrize("what,bound", [("norm drift", 1e-9), ("guard-band amplitude", 1e-8)])
def test_a_nan_column_fails_the_drift_and_leakage_rejections(what, bound):
    # NaN > bound is False, so a check written that way lets a NaN drift or
    # leakage through; NaN is rejected as the worst column's value, ahead of
    # a finite excess
    from susyjc.schrodinger import _reject_above

    values = np.array([0.0, 2 * bound, math.nan])
    message = f"^run rejected: {what} nan in column 2 exceeds {bound:g}$"
    with pytest.raises(PropagationError, match=message) as exc:
        _reject_above(what, values, bound, True)
    assert exc.value.column == 2
    with pytest.raises(PropagationError, match=rf"^run rejected: {what} nan exceeds"):
        _reject_above(what, values[2:], bound, False)
    _reject_above(what, np.array([0.0, bound]), bound, True)  # at the bound passes


def test_nan_states_are_rejected_by_the_norm_drift_check(monkeypatch):
    # the exact rotation of a finite state is finite, but should it give NaN
    # (an overflowing phase), the run is rejected, not returned
    from susyjc import schrodinger

    monkeypatch.setattr(schrodinger, "_rotated", lambda *args: np.full((1, 2, SPEC.dim), np.nan))
    psi0 = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    with pytest.raises(PropagationError, match=r"^run rejected: norm drift nan exceeds 1e-09$"):
        propagate(psi0, (0.0, 1.0), constant_params(1.0, 3.0, 0.05), SPEC, t_eval=[0.0, 1.0])


def test_a_bad_row_in_a_stack_is_named():
    params = constant_params(1.0, 3.0, 0.05)
    good = embed_state(SubspaceBlock.for_space(SPEC, 0), [1.0, 0.0])
    top = SPEC.basis_state(EXCITED, SPEC.cutoff - 1)
    with pytest.raises(ConfigurationError, match="initial state row 1 must be normalized"):
        propagate(np.array([good, 2 * good, good]), (0.0, 1.0), params, SPEC)
    with pytest.raises(ConfigurationError, match="initial state row 2 occupies the top"):
        propagate(np.array([good, good, top]), (0.0, 1.0), params, SPEC)
    with pytest.raises(ConfigurationError, match=r"expected \(64,\) or \(R, 64\)"):
        propagate(np.array([good[:-1]] * 3), (0.0, 1.0), params, SPEC)


def test_drift_rejection_names_the_worst_column():
    # ground levels 0 .. k - 1 have no Q partner, so with constant w and w0
    # they stand still in the rotating frame and cannot drift; the coupled
    # column in between is the only one a loose rtol lets drift
    from susyjc import GROUND

    params = _swinging(2.8)
    coupled = embed_state(SubspaceBlock.for_space(SPEC, 1), [1.0, 0.0])
    stack = np.array([SPEC.basis_state(GROUND, 0), coupled, SPEC.basis_state(GROUND, 1)])
    with pytest.raises(PropagationError, match=r"norm drift \S+ in column 1 exceeds 1e-12") as exc:
        propagate(stack, (0.0, 20.0), params, SPEC, rtol=1e-4, atol=1e-6, max_norm_drift=1e-12)
    assert exc.value.column == 1
    # one state has no column to name
    with pytest.raises(PropagationError, match=r"norm drift \S+ exceeds") as exc:
        propagate(coupled, (0.0, 20.0), params, SPEC, rtol=1e-4, atol=1e-6, max_norm_drift=1e-12)
    assert exc.value.column is None


def test_guard_band_rejection_names_the_leaking_column():
    # |e, 12> is coupled to |g, 15>, in the guard band from level 13 up, and
    # at resonance its whole amplitude crosses within the window
    spec = FockSpaceSpec(cutoff=16, k=3, guard=3)
    params = constant_params(1.0, 3.0, 0.05)
    stack = np.array([spec.basis_state(EXCITED, 0), spec.basis_state(EXCITED, 12)])
    message = "run rejected: guard-band amplitude 1.000e+00{} exceeds 1e-08"
    with pytest.raises(PropagationError, match=re.escape(message.format(" in column 1"))) as exc:
        propagate(stack, (0.0, 1.0), params, spec)
    assert exc.value.column == 1
    with pytest.raises(PropagationError, match=re.escape(message.format(""))) as exc:
        propagate(stack[1], (0.0, 1.0), params, spec)
    assert exc.value.column is None


# each row populates both levels of one block, so L = 2R live levels
@pytest.mark.parametrize(
    "rows,rtol,solver_rtol",
    [
        pytest.param(1, 1e-10, 1e-10 * math.sqrt(SPEC.dim / 2) / math.sqrt(2), id="one-state"),
        pytest.param(3, 1e-10, 1e-10 * math.sqrt(SPEC.dim / 6) / math.sqrt(6), id="stack"),
        pytest.param(3, 1e-14, RTOL_FLOOR, id="stack-at-the-floor"),
    ],
)
def test_the_solver_steps_the_real_view_at_tolerances_over_sqrt_2r(
    monkeypatch, rows, rtol, solver_rtol
):
    # DOP853 gets the 2 R L (re, im) floats of the stack's L live levels, at
    # rtol and atol times sqrt(dim / L) / sqrt(2R), the rtol clamped at the
    # floor, and the states come back complex in the usual full shapes
    from susyjc import schrodinger

    solves = []
    real = schrodinger.integrate_segments

    def recording(rhs, window, y0, params, rtol, atol, failure):
        solves.append((y0, rtol, atol))
        return real(rhs, window, y0, params, rtol, atol, failure)

    monkeypatch.setattr(schrodinger, "integrate_segments", recording)
    params = _swinging(2.8, g_phase=0.4)
    stack = np.array([
        embed_state(SubspaceBlock.for_space(SPEC, m), [math.cos(0.3), 1j * math.sin(0.3)])
        for m in range(rows)
    ])  # fmt: skip
    initial = stack if rows > 1 else stack[0]
    ts = np.linspace(0.0, 2.0, 9)
    result = propagate(initial, (0.0, 2.0), params, SPEC, rtol=rtol, atol=1e-12, t_eval=ts)

    [(y0, got_rtol, got_atol)] = solves
    live = np.flatnonzero(np.any(stack, axis=0))
    assert live.size == 2 * rows
    assert y0.dtype == np.float64 and y0.flags.c_contiguous and y0.shape == (2 * rows * live.size,)
    assert np.array_equal(y0.view(complex), stack[:, live].reshape(-1))
    assert got_rtol == pytest.approx(solver_rtol, rel=1e-15)
    scale = math.sqrt(SPEC.dim / live.size) / math.sqrt(2 * rows)
    assert got_atol == pytest.approx(1e-12 * scale, rel=1e-15)
    assert result.states.dtype == complex
    assert result.states.shape == ((rows,) if rows > 1 else ()) + (ts.size, SPEC.dim)
    assert np.array_equal(result.states[..., 0, :], initial)
