import numpy as np
import pytest

from susyjc import evolution
from susyjc.magnus import MagnusSolution


@pytest.fixture
def sample_calls(monkeypatch):
    """Every evaluation, in call order, of an angle solve's dense output, as
    ("dense", times, columns) (5M columns for the whole state, 4M for
    :meth:`MagnusSolution.spin`), and of a running integral that
    :class:`PhaseIntegrals` fits (int w), as ("int w", times, columns)."""
    calls = []
    dense_sample = MagnusSolution._sample
    fit = evolution.cumulative_antiderivative

    def counting_dense(self, t, dynamical):
        out = dense_sample(self, t, dynamical)
        calls.append(("dense", np.size(t), out.shape[-1]))
        return out

    def counting_fit(ts, ys, edge_indices=None):
        integral = fit(ts, ys, edge_indices)
        columns = np.size(ys) // np.size(ts)

        def counted(t):
            calls.append(("int w", np.size(t), columns))
            return integral(t)

        return counted

    monkeypatch.setattr(MagnusSolution, "_sample", counting_dense)
    monkeypatch.setattr(evolution, "cumulative_antiderivative", counting_fit)
    return calls
