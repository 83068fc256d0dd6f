"""Exception types shared across the package."""


class OrthoxError(Exception):
    """Base class for all domain errors raised by orthox."""


class EmptyWord(OrthoxError):
    """Raised when a word is empty after stripping whitespace."""


class BadSymbol(OrthoxError):
    """Raised when a word contains a character outside {a, b, ^, digits}."""


class BadExponent(OrthoxError):
    """Raised for malformed, zero or too long exponents, read or written."""


class FamilyMismatch(OrthoxError):
    """Raised when two elements from different families are combined."""


class NotIdempotent(OrthoxError):
    """Raised when an operation requires an idempotent argument."""


class NotCombinatorial(OrthoxError):
    """Raised when eggbox coordinates are requested for a group-case element."""


class WrongFamily(OrthoxError):
    """Raised when an operation is defined only for a specific family."""


class WindowExceedsBounds(OrthoxError):
    """Raised when an eggbox window asks for cells beyond the family bounds."""
