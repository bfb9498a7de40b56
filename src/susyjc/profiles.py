"""Time-dependent model parameters as scalar profiles.

The coupling g(t) is stored in polar form (modulus profile + phase
profile); the adiabatic scenarios constrain arg g directly, so polar form
keeps them expressible without root-finding.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError

PROFILE_KINDS = ("constant", "linear", "sinusoid", "chirp", "table")


@dataclass(frozen=True)
class TimeProfile:
    """One real scalar as a function of time.

    kinds and coefficients:
      constant: value
      linear:   intercept + slope * t
      sinusoid: offset + amplitude * sin(frequency * t + phase)
      chirp:    offset + amplitude * sin((frequency + sweep * t) * t + phase)
      table:    linear interpolation of sorted (t, value) samples; evaluation
                outside the sampled domain is an error
    """

    kind: str
    coeffs: tuple = ()
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    @classmethod
    def constant(cls, value: float) -> "TimeProfile":
        return cls("constant", (float(value),))

    @classmethod
    def linear(cls, intercept: float, slope: float) -> "TimeProfile":
        return cls("linear", (float(intercept), float(slope)))

    @classmethod
    def sinusoid(cls, offset, amplitude, frequency, phase=0.0) -> "TimeProfile":
        return cls("sinusoid", (float(offset), float(amplitude), float(frequency), float(phase)))

    @classmethod
    def chirp(cls, offset, amplitude, frequency, sweep, phase=0.0) -> "TimeProfile":
        return cls(
            "chirp",
            (float(offset), float(amplitude), float(frequency), float(sweep), float(phase)),
        )

    @classmethod
    def table(cls, times, values) -> "TimeProfile":
        ts = np.asarray(times, dtype=float)
        vs = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 2:
            raise ConfigurationError("table profile needs matching 1-d times/values, len >= 2")
        if not np.all(np.diff(ts) > 0):
            raise ConfigurationError("table profile requires strictly increasing time stamps")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
            raise ConfigurationError("table profile entries must be finite")
        ts.setflags(write=False)
        vs.setflags(write=False)
        return cls("table", (), ts, vs)

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ConfigurationError(
                f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}"
            )
        object.__setattr__(self, "_at", _scalar_evaluator(self))

    def __reduce__(self):  # pickled by its fields; unpickling binds ``_at`` again
        return type(self), (self.kind, self.coeffs, self.times, self.values)

    def knots(self, t0: float, t1: float) -> np.ndarray:
        """Interior times where the profile is not smooth (table breakpoints)."""
        if self.kind != "table":
            return np.empty(0)
        inside = (self.times > t0) & (self.times < t1)
        return np.asarray(self.times[inside], dtype=float)

    def rate(self, t: float) -> float:
        """d/dt of the profile at one time t; at a table knot, the slope of
        the segment that starts there (the last segment's at the end)."""
        if self.kind == "constant":
            return 0.0
        if self.kind == "linear":
            return self.coeffs[1]
        if self.kind == "sinusoid":
            _, amp, freq, ph = self.coeffs
            return amp * freq * math.cos(freq * t + ph)
        if self.kind == "chirp":
            _, amp, freq, sweep, ph = self.coeffs
            return amp * (freq + 2.0 * sweep * t) * math.cos((freq + sweep * t) * t + ph)
        ts, vs = self.times, self.values
        j = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2))
        return float((vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j]))

    def __call__(self, t):
        if _is_scalar(t):
            return self._at(float(t))
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full_like(t, self.coeffs[0])
        elif self.kind == "linear":
            c0, c1 = self.coeffs
            out = c0 + c1 * t
        elif self.kind == "sinusoid":
            c0, amp, freq, ph = self.coeffs
            out = c0 + amp * np.sin(freq * t + ph)
        elif self.kind == "chirp":
            c0, amp, freq, sweep, ph = self.coeffs
            out = c0 + amp * np.sin((freq + sweep * t) * t + ph)
        else:  # table
            if np.any(t < self.times[0]) or np.any(t > self.times[-1]):
                raise EvaluationError(
                    f"t outside table domain [{self.times[0]}, {self.times[-1]}]"
                )
            out = np.interp(t, self.times, self.values)
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"profile {self.kind} evaluated non-finite at t={t}")
        return out if out.ndim else float(out)


def _is_scalar(t) -> bool:
    """True for one time: a Python or numpy real scalar, or a 0-d array."""
    return isinstance(t, (float, int, np.floating)) or (
        isinstance(t, np.ndarray) and t.ndim == 0
    )


def _sin(x: float) -> float:
    # np.sin gives nan at +-inf where math.sin raises
    return math.sin(x) if math.isfinite(x) else math.nan


def _scalar_evaluator(profile: TimeProfile):
    """``profile._at``, bound once: the profile at one float t, by one closure
    per kind that does ``__call__``'s array operations in the same order,
    with the same errors, minus numpy's per-call cost (for ODE rates)."""
    kind = profile.kind

    def fail(t):
        raise EvaluationError(f"profile {kind} evaluated non-finite at t={t}")

    if kind == "constant":
        (value,) = profile.coeffs
        return (lambda t: value) if math.isfinite(value) else fail
    if kind == "linear":
        c0, c1 = profile.coeffs

        def at(t):
            out = c0 + c1 * t
            return out if math.isfinite(out) else fail(t)

    elif kind == "sinusoid":
        c0, amp, freq, ph = profile.coeffs

        def at(t):
            out = c0 + amp * _sin(freq * t + ph)
            return out if math.isfinite(out) else fail(t)

    elif kind == "chirp":
        c0, amp, freq, sweep, ph = profile.coeffs

        def at(t):
            out = c0 + amp * _sin((freq + sweep * t) * t + ph)
            return out if math.isfinite(out) else fail(t)

    else:  # table, on Python-float copies of the samples
        ts, vs = (np.asarray(a, dtype=float).tolist() for a in (profile.times, profile.values))

        def at(t):
            if t < ts[0] or t > ts[-1]:
                raise EvaluationError(f"t outside table domain [{ts[0]}, {ts[-1]}]")
            # as np.interp: nan stays nan, a knot or the right end gives
            # its sample exactly, else slope * (t - t_j) + v_j
            j = bisect_right(ts, t) - 1
            if t != t:
                out = t
            elif j == len(ts) - 1 or ts[j] == t:
                out = vs[j]
            else:
                slope = (vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j])
                out = slope * (t - ts[j]) + vs[j]
            return out if math.isfinite(out) else fail(t)

    return at


@dataclass(frozen=True)
class ModelParams:
    """Mode frequency, transition frequency and polar coupling profiles."""

    omega: TimeProfile
    omega0: TimeProfile
    g_mod: TimeProfile
    g_phase: TimeProfile
    k: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"k must be a positive integer, got {self.k}")
        w, w0, modulus, phase = self.omega._at, self.omega0._at, self.g_mod._at, self.g_phase._at

        def at(t):  # evaluate at one float t, bound once for the ODE rates
            mod = modulus(t)
            if mod < 0:
                raise EvaluationError(f"coupling modulus negative at t={t}")
            g = mod * cmath.exp(1j * phase(t))
            return w(t), w0(t), g

        object.__setattr__(self, "_at", at)

    def __reduce__(self):  # pickled by its fields; unpickling binds ``_at`` again
        return type(self), (self.omega, self.omega0, self.g_mod, self.g_phase, self.k)

    def evaluate(self, t):
        """(omega, omega0, g) at time t; g is returned as a complex scalar."""
        if _is_scalar(t):
            return self._at(float(t))
        mod = self.g_mod(t)
        if np.any(np.asarray(mod) < 0):
            raise EvaluationError(f"coupling modulus negative at t={t}")
        g = mod * np.exp(1j * self.g_phase(t))
        return self.omega(t), self.omega0(t), g

    def coupling(self, t):
        return self.evaluate(t)[2]

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        """Sorted interior non-smooth times of all profiles (merged, deduped)."""
        pts = np.concatenate(
            [p.knots(t0, t1) for p in (self.omega, self.omega0, self.g_mod, self.g_phase)]
        )
        if pts.size == 0:
            return pts
        pts = np.sort(pts)
        keep = np.concatenate([[True], np.diff(pts) > 1e-12 * max(abs(t1 - t0), 1.0)])
        return pts[keep]


def constant_params(omega, omega0, g_mod, g_phase=0.0, k=3) -> ModelParams:
    """Convenience constructor for all-constant profiles."""
    return ModelParams(
        omega=TimeProfile.constant(omega),
        omega0=TimeProfile.constant(omega0),
        g_mod=TimeProfile.constant(g_mod),
        g_phase=TimeProfile.constant(g_phase),
        k=k,
    )
