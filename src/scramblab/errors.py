"""Exception types shared across the package.

Every package error derives from ``ScramblabError`` and from the builtin
exception it refines (``ValueError`` or ``RuntimeError``), so callers may
catch either.
"""


class ScramblabError(Exception):
    """Base class of every error this package raises on purpose."""


class InvalidDimensionError(ScramblabError, ValueError):
    """A dimension argument is zero, negative, or otherwise unusable."""


class DimensionMismatchError(ScramblabError, ValueError):
    """Two objects that must share a dimension do not."""


class InvalidParameterError(ScramblabError, ValueError):
    """A scalar parameter violates an operation's precondition."""


class ResourceLimitError(ScramblabError, RuntimeError):
    """The request exceeds the size this desk-scale implementation supports."""


class ScheduleError(InvalidParameterError):
    """A shock schedule is malformed (non-increasing times, time beyond T, ...)."""


class ShockKeyError(InvalidParameterError):
    """A shock key does not match the ensemble it is used with."""


class NoScramblingError(ScramblabError, RuntimeError):
    """The correlator never decayed below threshold on the search grid."""

    def __init__(self, message: str, final_otoc: float):
        super().__init__(message)
        self.final_otoc = final_otoc


class SparseSetError(ScramblabError, RuntimeError):
    """Rejection sampling hit its retry cap; carries the observed acceptance rate."""

    def __init__(self, message: str, acceptance_rate: float):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


class BudgetViolationError(ScramblabError, RuntimeError):
    """A distinguisher strategy requested more state copies than it was granted."""


class DegenerateFitError(ScramblabError, RuntimeError):
    """A fit is undefined on its data (fewer than two distinct x, or zeros under a log)."""


class SearchInconclusiveError(ScramblabError, RuntimeError):
    """State-space search exhausted its frontier without reaching the target."""

    def __init__(self, message: str, best_distance: float):
        super().__init__(message)
        self.best_distance = best_distance
