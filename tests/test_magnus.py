import math

import numpy as np
import pytest

from susyjc import magnus


def _spinor(n):
    """The paper gauge's spinor chi(n) = (cos th/2, -sin th/2 e^{-i phi})."""
    x, y, z = n
    c = math.sqrt((1.0 + z) / 2.0)
    return np.array([c, (x + 1j * y) / (2.0 * c)])


def test_magnus_integrates_a_constant_generator_exactly_in_one_candidate():
    # three vectors turning 22 to 45 times about fixed axes, in frames that
    # turn about z: the one candidate (the whole window and its two halves,
    # nine evaluations) is exact, at every time.  B is the integral of
    # (A.n - shift n_z) / 2, in closed form, and B + G is the phase of the
    # spin-1/2 lift exp(-i t A.sigma / 2), by brute force, less shift t / 2
    from scipy.linalg import expm

    rng = np.random.default_rng(3)
    generators = rng.normal(size=(3, 3)) * 40.0  # (component, member)
    vectors = rng.normal(size=(3, 3))
    vectors /= np.linalg.norm(vectors, axis=0)

    def field(t):
        return np.broadcast_to(generators.reshape(3, *(1,) * np.ndim(t), 3), (3, *np.shape(t), 3))

    shift = rng.normal(size=3) * 10.0
    sol = magnus.magnus(field, (0.0, 7.0), vectors, np.empty(0), 1e-12, RuntimeError, shift)
    assert sol.times.tolist() == [0.0, 3.5, 7.0] and sol.nfev == 9
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
