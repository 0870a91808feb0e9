"""Exception hierarchy shared by all spapprox modules."""

import math
import numbers


class SpapproxError(Exception):
    """Base class for all library errors."""


class InputDomainError(SpapproxError, ValueError):
    """Malformed or out-of-domain input (non-finite coefficient, bad exponent, ...)."""


class ParseError(SpapproxError, ValueError):
    """Unparseable mini-language string, JSON document or config file."""


class PreconditionError(SpapproxError):
    """A documented mathematical precondition does not hold (or is uncertified)."""


class CertificationError(SpapproxError):
    """Enumeration completeness could not be certified within the search region."""


class BudgetError(SpapproxError):
    """A work budget (evaluations, subdivisions, candidates) was exhausted."""


class ConvergenceError(SpapproxError):
    """A series/tail bound could not be brought below the requested tolerance."""


class DegenerateWeightError(SpapproxError, ValueError):
    """Weight function is constant on the interval (zero total mass)."""


def require_count(value, name: str, least: int) -> int:
    """value as an int, when it is an integer (of any real numeric type) of
    at least ``least``; InputDomainError otherwise (NaN and infinities too)."""
    if isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value) and value >= least:
        return int(value)
    raise InputDomainError(f"{name} must be an integer >= {least}, got {value!r}")
