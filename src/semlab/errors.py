"""Exception hierarchy shared across the package, the one unknown-name check
and the one integer-size check of JSON input."""

import difflib


class LabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LabError):
    """Input violates a documented invariant (bad score range, negative price, ...)."""


class ParseError(ValidationError):
    """A delimited input file could not be parsed; message carries the line number."""


class AlignmentError(ValidationError):
    """Panels or calendars do not line up; message lists the gaps, or names the
    axis and the first position that differs."""


class WarmupError(LabError):
    """Not enough history for the longest indicator lookback."""


class RangeError(LabError):
    """A date range, horizon, or slice is out of bounds or empty."""


class NumericalError(LabError):
    """A linear-algebra step failed (singular covariance, non-finite values)."""


class RankError(NumericalError):
    """A system is rank deficient; message names the offending columns."""


class DegenerateFitError(LabError):
    """A model fit has no usable variation (all-neutral features, constant target)."""


class LeakageError(LabError):
    """An evaluation touches dates inside a model's fit range."""


class UndefinedMetricError(LabError):
    """A requested metric has no defined value (zero volatility, zero drawdown)."""


class DegenerateTestError(LabError):
    """A statistical test has no usable sample (all paired differences zero)."""


class PolicyFaultError(LabError):
    """A policy emitted non-finite actions; message carries the step index."""


class ConfigError(LabError):
    """An experiment configuration is malformed or inconsistent."""


def check_names(given, known, what: str) -> None:
    """A ConfigError naming the first name in ``given`` that is not in
    ``known``, with the closest known name; ``what`` formats the name."""
    for name in given:
        if name not in known:
            close = difflib.get_close_matches(str(name), list(known), n=1)
            hint = f"did you mean {close[0]!r}?" if close else "known: " + ", ".join(known)
            raise ConfigError(f"unknown {what.format(name)} ({hint})")


def check_int_sizes(where: str, value, int64: bool) -> None:
    """A ConfigError unless each int in ``value`` (one value or a list of
    them) fits in a float, and in a signed 64-bit integer where ``int64``:
    JSON integers have no size limit. ``where`` names the key."""
    for v in value if isinstance(value, (list, tuple)) else [value]:
        if type(v) is not int:
            continue
        if int64 and not -2**63 <= v < 2**63:
            raise ConfigError(f"{where} must fit in a signed 64-bit integer, "
                              f"got an integer of {v.bit_length()} bits")
        try:
            float(v)
        except OverflowError:
            raise ConfigError(f"{where} must fit in a float, "
                              f"got an integer of {v.bit_length()} bits") from None
