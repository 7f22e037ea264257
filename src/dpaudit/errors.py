"""Exception types shared across the package."""


class AuditError(Exception):
    """Base class for errors raised by this package."""


class GridOverflowError(AuditError):
    """A privacy-loss value does not fit on the configured grid.

    Raised with a message that states the offending value and the half-width
    needed to accommodate it.
    """


class FitError(AuditError):
    """A parameter fit could not be carried out (e.g. non-monotone profile)."""


class DegenerateSamplesError(AuditError, ValueError):
    """Two score samples have no spread to bin: their pooled quantiles coincide."""


class ProfileOrderError(AuditError, ValueError):
    """A profile's deltas rise with eps, which no privacy profile does."""


class ScoreFileError(AuditError):
    """An input file (scores, profile or curve CSV) is malformed; carries the line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number
