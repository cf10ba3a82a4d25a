"""Exception taxonomy shared across the package.

Everything numerical raises a subclass of RenormlabError so callers (and the
CLI) can separate domain failures from programming errors.
"""

from __future__ import annotations


class RenormlabError(Exception):
    """Base class for all package-level failures."""


class InvalidMap(RenormlabError, ValueError):
    """Map construction violated a structural invariant (normalization,
    monotonicity of the decreasing factor, or range)."""


class DomainError(RenormlabError, ValueError):
    """Argument outside the documented domain (e.g. family parameter)."""


class NotRenormalizable(RenormlabError):
    """No admissible period produced a restrictive interval for the map."""

    def __init__(self, message: str, reasons: dict | None = None):
        super().__init__(message)
        self.reasons = dict(reasons or {})


class DegenerateScaling(RenormlabError):
    """The rescaling factor f^p(0) vanished to working precision, so the
    renormalization is undefined (superstable parameter)."""

    def __init__(self, message: str, p: int):
        super().__init__(message)
        self.p = p


class TruncationLoss(RenormlabError):
    """Projection onto the coefficient space lost more accuracy than the
    stated cap allows."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NoConvergence(RenormlabError):
    """Newton iteration exhausted its budget without meeting the tolerance."""

    def __init__(self, message: str, history: tuple[float, ...] = ()):
        super().__init__(message)
        self.history = tuple(history)


class CombinatoricsMismatch(RenormlabError):
    """Observed renormalization combinatorics differ from the requested ones."""

    def __init__(self, message: str, level: int = 0):
        super().__init__(message)
        self.level = level


class OverlapError(RenormlabError):
    """Intervals expected to be disjoint overlap beyond tolerance."""


class EmptyLevel(RenormlabError):
    """A tower level carries no intervals (truncated construction)."""


class NoBracket(RenormlabError):
    """Root bracketing failed: no sign change on the search interval."""


class BracketNotFound(RenormlabError):
    """Coarse parameter scan produced no bracketing interval."""


class WindowNotFound(RenormlabError):
    """No parameter window with the requested combinatorics was located."""

    def __init__(self, message: str, depth: int = 0):
        super().__init__(message)
        self.depth = depth


class SingleItinerary(RenormlabError, ValueError):
    """Parameter Cantor sets need at least two distinct combinatorial types."""


class TermBlowup(RenormlabError):
    """Operator composition exceeded the term budget."""


class OperatorDomainError(RenormlabError, ValueError):
    """A branch map of a transfer operator leaves the reference interval."""


class UsageError(RenormlabError, ValueError):
    """Bad command-line arguments or configuration values."""
