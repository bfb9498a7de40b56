import copy
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susyjc import ConfigurationError, EvaluationError, ModelParams, TimeProfile, constant_params


def test_constant_and_linear():
    p = TimeProfile.constant(1.5)
    assert p(0.0) == 1.5
    assert p(37.2) == 1.5
    lin = TimeProfile.linear(3.0, 0.01)
    assert_allclose(lin(10.0), 3.1, rtol=1e-15)


def test_sinusoid_and_chirp():
    s = TimeProfile.sinusoid(3.0, 0.1, 0.3, 0.2)
    ts = np.linspace(0, 5, 11)
    assert_allclose(s(ts), 3.0 + 0.1 * np.sin(0.3 * ts + 0.2), rtol=1e-15)
    c = TimeProfile.chirp(0.0, 1.0, 2.0, 0.5, 0.0)
    assert_allclose(c(ts), np.sin((2.0 + 0.5 * ts) * ts), rtol=1e-14)


def test_table_interpolation_and_domain():
    p = TimeProfile.table([0.0, 1.0, 3.0], [1.0, 2.0, 0.0])
    assert_allclose(p(0.5), 1.5)
    assert_allclose(p(2.0), 1.0)
    assert p(0.0) == 1.0 and p(3.0) == 0.0  # endpoints match samples
    with pytest.raises(EvaluationError):
        p(3.5)
    with pytest.raises(ConfigurationError):
        TimeProfile.table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "profile",
    [
        TimeProfile.constant(2.0),
        TimeProfile.linear(0.3, -1.5),
        TimeProfile.sinusoid(0.5, 0.2, 1.3, 0.4),
        TimeProfile.chirp(0.0, 0.5, 0.7, 0.05, -0.2),
        TimeProfile.table([0.0, 1.0, 2.5], [1.0, 3.0, 2.4]),
    ],
    ids=lambda profile: profile.kind,
)
def test_rate_is_the_derivative(profile):
    # the drive frame's rate; at a table knot, the segment that starts there
    for t in (0.0, 0.35, 1.0, 1.7):
        step = 1e-6
        ahead = (profile(t + step) - profile(t)) / step
        assert profile.rate(t) == pytest.approx(ahead, abs=1e-5), t
    if profile.kind == "table":
        assert profile.rate(2.5) == pytest.approx((2.4 - 3.0) / 1.5)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        TimeProfile("quadratic", (1.0,))


def test_evaluate_returns_complex_coupling():
    params = constant_params(1.0, 3.0, 0.1, 0.0)
    w, w0, g = params.evaluate(12.3)
    assert (w, w0) == (1.0, 3.0)
    assert g == 0.1 + 0j


def test_evaluate_deterministic():
    params = ModelParams(
        omega=TimeProfile.sinusoid(1.0, 0.2, 0.7),
        omega0=TimeProfile.linear(3.0, 0.01),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.linear(0.0, -1.0),
        k=3,
    )
    a = params.evaluate(4.321)
    b = params.evaluate(4.321)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


def test_conjugation_consistency():
    params = constant_params(1.0, 3.0, 0.1, 0.7)
    g = params.coupling(2.0)
    assert np.conj(g) == 0.1 * np.exp(-1j * 0.7)


def test_polar_phase_matches_azimuth_lock():
    # g = |g| e^{-phi(t)} is expressible directly with a linear phase profile
    phi0, w = 0.4, 1.0
    params = ModelParams(
        omega=TimeProfile.constant(w),
        omega0=TimeProfile.constant(2.0),
        g_mod=TimeProfile.constant(0.05),
        g_phase=TimeProfile.linear(-phi0, -w),
        k=3,
    )
    for t in (0.0, 1.3, 8.0):
        expected = 0.05 * np.exp(-1j * (phi0 + w * t))
        assert_allclose(params.coupling(t), expected, rtol=1e-14)


def test_negative_modulus_rejected():
    params = constant_params(1.0, 3.0, -0.1)
    with pytest.raises(EvaluationError):
        params.evaluate(0.0)


# One profile of every kind; the table has interior knots at 0.7, 2.5 and 4.0.
TABLE_TIMES = [0.0, 0.7, 2.5, 4.0, 6.0]
EVERY_KIND = {
    "constant": TimeProfile.constant(2.75),
    "linear": TimeProfile.linear(3.0, -0.013),
    "sinusoid": TimeProfile.sinusoid(1.0, 0.2, 0.7, 0.3),
    "chirp": TimeProfile.chirp(3.0, 0.2, 0.5, 0.05, 0.1),
    "table": TimeProfile.table(TABLE_TIMES, [0.05, 0.08, 0.04, 0.07, 0.05]),
}
# table knots, both table ends, and times inside the panels
SAMPLE_TIMES = np.unique(np.concatenate([TABLE_TIMES, np.linspace(0.0, 6.0, 37), [1e-9, 6.0 - 1e-12]]))


@pytest.mark.parametrize("kind", sorted(EVERY_KIND))
def test_scalar_path_is_bit_identical_to_array_call(kind):
    profile = EVERY_KIND[kind]
    from_array = profile(SAMPLE_TIMES)
    for t, expected in zip(SAMPLE_TIMES.tolist(), from_array.tolist()):
        for value in (t, np.float64(t), np.array(t)):
            got = profile(value)
            assert type(got) is float
            assert got == expected, (kind, t, type(value))
    ints = np.arange(7)
    for t, expected in zip(ints.tolist(), profile(ints).tolist()):
        assert profile(t) == expected, (kind, t)


def test_scalar_evaluate_is_bit_identical_to_array_call():
    params = ModelParams(
        omega=EVERY_KIND["sinusoid"],
        omega0=EVERY_KIND["chirp"],
        g_mod=EVERY_KIND["table"],
        g_phase=TimeProfile.sinusoid(0.0, 0.5, 0.3),
        k=3,
    )
    omegas, omega0s, gs = params.evaluate(SAMPLE_TIMES)
    for i, t in enumerate(SAMPLE_TIMES.tolist()):
        for value in (t, np.float64(t), np.array(t)):
            omega, omega0, g = params.evaluate(value)
            assert (omega, omega0, g) == (omegas[i], omega0s[i], gs[i]), (t, type(value))


def test_params_pickle_and_copy_with_their_scalar_evaluators():
    # the bound scalar evaluators are closures: a pickled or copied
    # ModelParams binds its own from the fields
    params = ModelParams(
        omega=EVERY_KIND["linear"],
        omega0=EVERY_KIND["chirp"],
        g_mod=EVERY_KIND["table"],
        g_phase=EVERY_KIND["sinusoid"],
        k=2,
    )
    for clone in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params), copy.copy(params)):
        assert clone.k == 2
        for t in SAMPLE_TIMES.tolist():
            assert clone.evaluate(t) == params.evaluate(t)
        with pytest.raises(EvaluationError, match="outside table domain"):
            clone.evaluate(7.0)


@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
def test_non_finite_and_out_of_domain_raise_in_both_paths(as_array):
    def call(profile, t):
        return profile(np.array([0.0, t]) if as_array else t)

    with pytest.raises(EvaluationError, match="non-finite"):
        call(TimeProfile.constant(math.inf), 1.0)
    with pytest.raises(EvaluationError, match="non-finite"):
        call(TimeProfile.linear(0.0, 1.0), math.nan)
    with pytest.raises(EvaluationError, match="non-finite"):
        call(EVERY_KIND["table"], math.nan)
    with np.errstate(invalid="ignore"):  # numpy warns on sin(inf)
        with pytest.raises(EvaluationError, match="non-finite"):
            call(EVERY_KIND["sinusoid"], math.inf)
        with pytest.raises(EvaluationError, match="non-finite"):
            call(EVERY_KIND["chirp"], -math.inf)
    for t in (-1e-9, 6.0 + 1e-9, math.inf):
        with pytest.raises(EvaluationError, match="outside table domain"):
            call(EVERY_KIND["table"], t)


@pytest.mark.parametrize(
    "t",
    [2.0, np.float64(2.0), np.array(2.0), np.array([0.5, 2.0])],
    ids=["float", "float64", "0-d", "array"],
)
def test_negative_modulus_rejected_in_both_paths(t):
    params = ModelParams(
        omega=TimeProfile.constant(1.0),
        omega0=TimeProfile.constant(3.0),
        g_mod=TimeProfile.linear(0.1, -0.1),  # negative after t = 1
        g_phase=TimeProfile.constant(0.0),
        k=3,
    )
    params.evaluate(0.5)
    with pytest.raises(EvaluationError, match="modulus negative"):
        params.evaluate(t)
