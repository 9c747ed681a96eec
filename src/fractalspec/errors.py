"""Exception types for fractalspec."""


class FractalSpecError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FractalSpecError):
    """Input system is malformed or fails a structural requirement."""


class ConvergenceError(FractalSpecError):
    """An infinite-product / tail computation did not reach tolerance."""


class BudgetError(FractalSpecError):
    """Requested enumeration or search exceeds the configured budget."""


class DomainError(FractalSpecError):
    """A grid evaluation left the invariant box of the operator."""


def clip(value) -> str:
    """``str(value)`` as an error message echoes it: past 60 characters, its
    first 30 and its length, so a 400-digit flag reads as one short line."""
    text = str(value)
    return text if len(text) <= 60 else f"{text[:30]}... ({len(text)} characters)"
