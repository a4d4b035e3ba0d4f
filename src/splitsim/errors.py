"""Exception types shared across splitsim."""


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
