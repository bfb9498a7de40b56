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
