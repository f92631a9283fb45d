"""Exception and warning types shared across the toolkit."""


class TripodError(Exception):
    """Base class for all toolkit errors."""


class StepSizeUnderflow(TripodError):
    """The adaptive step controller stalled (pathological configuration)."""


class StepBudgetExceeded(TripodError):
    """A batched ODE solve used up its fixed budget of derivative calls."""


class ToleranceNotMet(TripodError):
    """The embedded error estimate could not reach the requested tolerance."""


class WrongOrdering(TripodError):
    """An operation requires a specific pulse ordering or equal dephasing rates."""


class ZeroDelay(TripodError):
    """Closed-form parameters diverge at zero pulse delay."""


class GammaPole(TripodError):
    """A gamma-function argument hit a pole (parameters outside model validity)."""


class NoCrossing(TripodError):
    """A fidelity threshold is never reached by the time series."""


class AmbiguousCrossing(UserWarning):
    """Multiple threshold crossings within resolution; the first one is used."""
