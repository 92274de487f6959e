"""Exception types shared across the package."""
from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(SimulationError, ValueError):
    """A physical parameter violates its domain; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ConfigError(SimulationError, ValueError):
    """A run configuration failed to parse or validate."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class IntegrationFailure(SimulationError, RuntimeError):
    """Adaptive integration could not continue (step-size underflow).

    Carries the last good state so callers can inspect how far the
    integration got before giving up.
    """

    def __init__(self, message: str, t: float, state: tuple):
        self.t = t
        self.state = state
        super().__init__(f"{message} at t={t:.6g}")


class SampleBudgetError(SimulationError):
    """The requested output grid exceeds the configured sample budget."""

    def __init__(self, requested: int, limit: int):
        self.requested = requested
        self.limit = limit
        # past 2**53 the count came from a float, so its low digits are noise
        shown = requested if requested < 2**53 else f"{requested:.3g}"
        super().__init__(
            f"output grid needs {shown} samples, exceeding the"
            f" max_samples budget of {limit}"
        )


class StepSizeError(SimulationError, ValueError):
    """The ladder propagation drifted off unit total population."""


class EmptyAnalysisError(SimulationError, ValueError):
    """Pulse analysis was asked to work on an all-zero emission record."""
