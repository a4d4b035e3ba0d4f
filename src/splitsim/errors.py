"""Exception types shared across splitsim, and the percentile label."""


def percentile_label(p: float) -> str:
    """``P50`` for 0.5, ``P29`` for 0.29, ``P99.9`` for 0.999."""
    return f"P{p * 100:g}"


class SplitsimError(Exception):
    """Base class for all splitsim errors."""


class ValidationError(SplitsimError):
    """Input violates a documented precondition."""


class ParseError(SplitsimError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FitError(SplitsimError):
    """Not enough (or degenerate) profile data to fit a model."""


class CapacityError(SplitsimError):
    """Requested batch or memory exceeds machine capacity."""


class ConfigurationError(SplitsimError):
    """Inconsistent or incomplete cluster/run configuration."""


class HorizonExceeded(SplitsimError, RuntimeError):
    """A simulation ran past its horizon with requests unfinished: the
    cluster cannot keep up with the offered load."""


class InvariantError(SplitsimError, RuntimeError):
    """The simulator broke one of its own invariants: a defect, not load."""


class SloViolated(SplitsimError):
    """A probe run stopped at the first SLO constraint that can no longer
    hold: more ratios exceed the multiplier than the percentile allows."""

    def __init__(self, metric: str, percentile: float, exceeded: int, allowed: int,
                 time_ms: float):
        super().__init__(f"{metric} {percentile_label(percentile)}: {exceeded} ratios exceed the "
                         f"multiplier, {allowed} allowed, at {time_ms:.3f} ms")
        self.metric = metric
        self.percentile = percentile
        self.exceeded = exceeded
        self.allowed = allowed
        self.time_ms = time_ms
