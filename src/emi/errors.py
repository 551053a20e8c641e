"""Exception types shared across the package."""


class EmiError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionExceededError(EmiError):
    """A request needs more significant digits than a value carries."""


class UnknownIntegrandError(EmiError, LookupError):
    """Integrand name not present in the registry."""


class ExactModeUnsupportedError(EmiError):
    """Operation requested in exact mode on a float-only integrand."""


class NumeralParseError(EmiError, ValueError):
    """A string could not be parsed as a decimal numeral or rational."""
