"""Exception types shared across the package."""


class SusyJCError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SusyJCError, ValueError):
    """Invalid space/profile/scenario configuration."""


class EvaluationError(SusyJCError, ValueError):
    """A parameter profile produced a non-finite or out-of-domain value."""


class VerificationError(SusyJCError, RuntimeError):
    """An algebraic or transformation identity exceeded its tolerance."""


class SingularityError(SusyJCError, RuntimeError):
    """The angle ODE hit a pole of the azimuthal equation (sin theta -> 0)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class CertificationError(SusyJCError, RuntimeError):
    """A solved trajectory failed its residual certification."""


class PropagationError(SusyJCError, RuntimeError):
    """A direct Schrodinger run was rejected (norm drift or boundary leakage)
    or its integration stopped.

    ``column`` is the rejected run's row in a stacked call, None otherwise;
    ``time`` is the time a stopped integration reached, None otherwise.
    """

    def __init__(self, message, column, time=None):
        super().__init__(message)
        self.column = column
        self.time = time


class CycleError(SusyJCError, RuntimeError):
    """A Berry-phase run does not close one full azimuthal cycle."""


class TruncationError(SusyJCError, ValueError):
    """Fock-space truncation too small for the requested superposition."""
