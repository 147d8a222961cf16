"""Exception types shared across the library."""


class PimFuncsError(Exception):
    """Base class for all library errors."""


class RangeError(PimFuncsError):
    """Input falls outside the covered range of a method or format."""


class DomainError(PimFuncsError):
    """Input is outside the mathematical domain of the function."""


class FixedOverflowError(PimFuncsError):
    """A fixed-point operation produced a value outside the representable range."""


class UnsupportedCombinationError(PimFuncsError):
    """The requested (function, method) pair is not in the support matrix."""


class TableFormatError(PimFuncsError, ValueError):
    """A serialized table is truncated, malformed or inconsistent."""
