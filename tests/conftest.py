import numpy as np
import pytest

from susyjc import evolution
from susyjc.quadrature import Dop853Solution


@pytest.fixture
def sample_calls(monkeypatch):
    """Every evaluation, in call order, of a DOP853 dense output, as
    ("dense", times, columns), and of a running integral that
    :class:`PhaseIntegrals` fits (int w), as ("int w", times, columns)."""
    calls = []
    dense_call = Dop853Solution.__call__
    fit = evolution.cumulative_antiderivative

    def counting_dense(self, t):
        out = dense_call(self, t)
        calls.append(("dense", np.size(t), out.shape[-1]))
        return out

    def counting_fit(ts, ys, edge_indices=None):
        integral = fit(ts, ys, edge_indices)
        columns = np.size(ys) // np.size(ts)

        def counted(t):
            calls.append(("int w", np.size(t), columns))
            return integral(t)

        return counted

    monkeypatch.setattr(Dop853Solution, "__call__", counting_dense)
    monkeypatch.setattr(evolution, "cumulative_antiderivative", counting_fit)
    return calls
