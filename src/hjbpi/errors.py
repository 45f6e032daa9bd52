"""Exception types shared across the package."""


class HJBPIError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(HJBPIError):
    """A problem, control set, or run configuration is invalid."""


class CFLValidationError(HJBPIError):
    """Scheme parameters violate the monotonicity/CFL constraint."""


class ConfigParseError(HJBPIError):
    """An experiment config entry is malformed or out of range.

    ``line_no`` is set when the entry came from a config file.
    """

    def __init__(self, message, line_no=None, key=None):
        super().__init__(message)
        self.line_no = line_no
        self.key = key


class NumericalBlowupError(HJBPIError):
    """A computed slice left the a-priori bounds or produced non-finite values."""

    def __init__(self, message, time_label=None, point=None, value=None):
        super().__init__(message)
        self.time_label = time_label
        self.point = point
        self.value = value


class MonotonicityError(HJBPIError):
    """Successive policy-iteration values failed to decrease pointwise."""


class TruncatedRolloutError(HJBPIError):
    """A rollout trajectory left the grid on a clamped axis."""


class UnsupportedDimensionError(HJBPIError):
    """The requested operation is only implemented for low dimensions."""
