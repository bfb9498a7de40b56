import math

import numpy as np
import pytest

from susyjc import magnus


def _spinor(n):
    """The paper gauge's spinor chi(n) = (cos th/2, -sin th/2 e^{-i phi})."""
    x, y, z = n
    c = math.sqrt((1.0 + z) / 2.0)
    return np.array([c, (x + 1j * y) / (2.0 * c)])


def _broadcast(generators):
    """``field(t)`` of the (3, M) ``generators``, constant in time."""

    def field(t):
        spread = generators.reshape(3, *(1,) * np.ndim(t), -1)
        return np.broadcast_to(spread, (3, *np.shape(t), generators.shape[1]))

    return field


@pytest.mark.parametrize("given", ["callable", "array"])
def test_magnus_integrates_a_constant_generator_exactly_in_one_candidate(given):
    # three vectors turning 22 to 45 times about fixed axes, in frames that
    # turn about z.  As a callable field, the one candidate (the whole
    # window and its two halves, nine evaluations) is exact, at every time;
    # as the (3, M) array, the solution is one step in closed form, with no
    # evaluation and nothing left to settle.  B is the integral of
    # (A.n - shift n_z) / 2, in closed form, and B + G is the phase of the
    # spin-1/2 lift exp(-i t A.sigma / 2), by brute force, less shift t / 2
    from scipy.linalg import expm

    rng = np.random.default_rng(3)
    generators = rng.normal(size=(3, 3)) * 40.0  # (component, member)
    vectors = rng.normal(size=(3, 3))
    vectors /= np.linalg.norm(vectors, axis=0)
    field = _broadcast(generators) if given == "callable" else generators
    shift = rng.normal(size=3) * 10.0
    sol = magnus.magnus(field, (0.0, 7.0), vectors, np.empty(0), 1e-12, RuntimeError, shift)
    if given == "callable":
        assert sol.times.tolist() == [0.0, 3.5, 7.0] and sol.nfev == 9
    else:
        assert sol.times.tolist() == [0.0, 7.0] and sol.nfev == 0 and sol.settled == 0.0
    times = np.linspace(0.0, 7.0, 57)
    states = sol(times)
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    for j in range(3):
        a, h = vectors[:, j], generators[:, j]
        axis, rate = h / np.linalg.norm(h), np.linalg.norm(h)
        for t, state in zip(times, states):
            n = state[j : 9 : 3]
            c, s = math.cos(rate * t), math.sin(rate * t)
            exact = a * c + np.cross(axis, a) * s + axis * (axis @ a) * (1 - c)
            assert np.max(np.abs(n - exact)) < 1e-12
            # the integral of n from 0 to t
            mean = (a * s + np.cross(axis, a) * (1 - c)) / rate + axis * (axis @ a) * (t - s / rate)
            assert abs(state[9 + j] - 0.5 * (h @ a) * t + 0.5 * shift[j] * mean[2]) < 1e-11
            lift = expm(-0.5j * t * sum(hk * sk for hk, sk in zip(h, sigma)))
            phase = -np.angle(np.vdot(_spinor(exact), lift @ _spinor(a))) - 0.5 * shift[j] * t
            total = state[9 + j] + state[12 + j]
            assert abs((total - phase + math.pi) % (2 * math.pi) - math.pi) < 1e-10


def test_magnus_stops_where_the_step_falls_under_the_float_spacing():
    # a generator that blows up as 1 / |t - 0.3|: the vector spins without
    # bound there, the steps are split until they fall under ten float
    # spacings, and ``failure`` gets the message and the time reached
    def field(t):
        t = np.asarray(t)
        out = np.zeros((3,) + t.shape + (1,))
        out[0] = 1.0
        out[2] = (1.0 / np.maximum(np.abs(t - 0.3), 1e-300))[..., None]
        return out

    start = np.array([[0.0], [1.0], [0.0]])
    with pytest.raises(RuntimeError) as info:
        magnus.magnus(field, (0.0, 1.0), start, np.empty(0), 1e-12, RuntimeError, np.zeros(1))
    message, time = info.value.args
    assert message == "Required step size is less than spacing between numbers."
    assert abs(time - 0.3) < 1e-12


def test_magnus_raises_at_a_non_finite_step_without_a_warning():
    # a rotation by 1e300 radians: |omega|^2 overflows, and the estimate is
    # not finite; ``failure`` gets it at the piece's start, with no overflow
    # warning first (the tests turn warnings into errors)
    def field(t):
        out = np.zeros((3,) + np.shape(t) + (1,))
        out[2] = 1e300
        return out

    start = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(RuntimeError) as info:
        magnus.magnus(field, (0.0, 20.0), start, np.empty(0), 1e-12, RuntimeError, np.zeros(1))
    assert info.value.args == ("non-finite step (generator, exponent or estimate)", 0.0)


def test_magnus_stops_at_its_work_budget(monkeypatch):
    # still on [0, 0.5], then turning at a rate that no step resolves: the
    # candidates after 0.5 split round after round until the budget is
    # spent (rounds of 1, 16 and 128 candidates, nine evaluations each),
    # and ``failure`` gets the time reached, 0.5
    monkeypatch.setattr(magnus, "_WORK_BUDGET", 900)

    def field(t):
        t = np.asarray(t)
        out = np.zeros((3,) + t.shape + (1,))
        out[0] = 1.0
        out[2] = np.where(t < 0.5, 0.0, 1e4 * np.cos(1e4 * t))[..., None]
        return out

    start = np.array([[0.0], [1.0], [0.0]])
    with pytest.raises(RuntimeError) as info:
        magnus.magnus(field, (0.0, 1.0), start, np.empty(0), 1e-12, RuntimeError, np.zeros(1))
    assert info.value.args == ("work budget spent: 1305 profile evaluations for 1 vectors", 0.5)


def _steady_family(name):
    """The dense output of a steady family's angle solve (one exact step):
    coherent-xi1's 13 blocks, a Berry sweep of 4 runs, or a run
    whose generator is zero (resonance, g = 0) beside a coupled one."""
    from susyjc import AuxState, TimeProfile, build_adiabatic_scenario, constant_params
    from susyjc import lambda_value
    from susyjc.auxiliary import _solve_family

    start = AuxState(math.pi / 3, 0.0)
    if name == "coherent-xi1":
        params = constant_params(1.0, 3.0, 0.05)
        lams = [lambda_value(m, 3) for m in range(13)]
        family = _solve_family(start, (0.0, 5.0), [params] * 13, lams)
    elif name == "berry":
        thetas = [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3]
        scenarios = [build_adiabatic_scenario(t, TimeProfile.constant(1.0), 0) for t in thetas]
        initial = AuxState(np.array(thetas), 0.0)
        family = _solve_family(
            initial, (0.0, 2 * math.pi), [s.params for s in scenarios], [s.lam for s in scenarios]
        )
    else:
        params = [constant_params(1.0, 3.0, 0.0), constant_params(1.0, 3.0, 0.05)]
        family = _solve_family(start, (0.0, 20.0), params, [6.0, 6.0])
    return family[0]._dense


@pytest.mark.parametrize("name", ["coherent-xi1", "berry", "zero-rate"])
def test_a_steady_dense_output_is_the_general_sub_step_in_closed_form(name):
    # the exact rotation about the constant generator, against one Magnus
    # sub-step with its three fresh evaluations of a broadcast field, on the
    # same solution: at the step's ends, a scalar time and unsorted times
    sol = _steady_family(name)
    assert sol._constant is not None and sol.times.size == 2
    sol._field = _broadcast(sol._constant)
    members = sol._shift.size
    if name == "zero-rate":
        assert not sol._constant[:, 0].any() and sol._constant[:, 1].any()
    rng = np.random.default_rng(7)
    t0, t1 = sol.times[0], sol.times[-1]
    for t in [sol.times, t1, 0.37 * t1, rng.uniform(t0, t1, 300)]:
        times = np.atleast_1d(t)
        idx = np.clip(np.searchsorted(sol.times, times, side="right") - 1, 0, sol.times.size - 2)
        for dynamical, closed in [(True, sol(t)), (False, sol.spin(t))]:
            general = sol._substep(times, idx, dynamical)
            assert closed.shape == (general[0] if np.ndim(t) == 0 else general).shape
            closed = np.atleast_2d(closed)
            vectors = slice(0, 3 * members)
            assert np.max(np.abs(closed[:, vectors] - general[:, vectors])) <= 1e-15
            phases = slice(3 * members, None)
            assert np.max(np.abs(closed[:, phases] - general[:, phases])) <= 4e-15
    if name == "zero-rate":  # an identity rotation, with no 0/0
        states = sol(rng.uniform(t0, t1, 50))
        assert np.all(np.isfinite(states))
        assert np.all(states[:, 0:6:2] == sol.states[0, 0:6:2])


def test_a_steady_dense_output_evaluates_no_generator(monkeypatch):
    # the certification grid's samples (spin) and the outputs' (__call__)
    # of a steady family read the closed form alone
    from susyjc import ModelParams

    sol = _steady_family("coherent-xi1")
    calls = []
    evaluate, field = ModelParams.evaluate, sol._field

    def counted_evaluate(self, t):
        calls.append("evaluate")
        return evaluate(self, t)

    def counted_field(t):
        calls.append("generator")
        return field(t)

    monkeypatch.setattr(ModelParams, "evaluate", counted_evaluate)
    monkeypatch.setattr(sol, "_field", counted_field)
    times = np.linspace(sol.times[0], sol.times[-1], 2178)
    sol.spin(times)
    sol(times)
    sol(1.5)
    assert calls == []
