"""Exception hierarchy for twlab."""


class TwlabError(Exception):
    """Base class for all twlab errors."""


class DomainError(TwlabError):
    """Argument outside the supported domain of a special function."""


class NonConvergence(TwlabError):
    """An iterative procedure failed to reach its truncation criterion."""


class BadInterval(TwlabError):
    """Solver interval or grid size violates a precondition."""


class NewtonDivergence(TwlabError):
    """Damped Newton iteration failed to contract."""


class OutOfRange(TwlabError):
    """Evaluation point outside the solved interval."""


class UnknownSeries(TwlabError):
    """Unrecognized asymptotic series tag."""


class OrderTooHigh(TwlabError):
    """Requested truncation order exceeds the tabulated coefficients."""


class PoleEncountered(TwlabError):
    """mu_plus - mu_minus crossed zero (pole of q2), at t when known."""

    def __init__(self, message, t=None):
        self.t = t
        super().__init__(message)


class StepFailure(TwlabError):
    """The adaptive integrator failed or exhausted its step budget at t."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"integrator failed at t={t}")


class BlowUp(TwlabError):
    """Nonlinear auxiliary trajectory exceeded the blow-up guard."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"auxiliary trajectory blew up at t={t}")


class DegenerateQ2(TwlabError):
    """q2 too close to +-1 for the parameter reconstruction formulas."""


class DegenerateDenominator(TwlabError):
    """A denominator (omega or 1-q2) vanished in a residual evaluation."""


class DegenerateGauge(TwlabError):
    """Gauge matrix singular: 1 - q2^2 vanishes at the evaluation point."""


class QZeroCrossing(TwlabError):
    """q2 vanishes inside the integration range of the q2-route formula."""


class OutOfSupportedRange(TwlabError):
    """Quantile probability outside the tabulated coverage."""


class IllConditionedFit(TwlabError):
    """Least-squares extraction window is degenerate."""


class EigenFailure(TwlabError):
    """The edge sampler's start failed to lie above the spectrum."""


class ParseError(TwlabError):
    """Malformed or unknown-key configuration input."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        super().__init__(message)
