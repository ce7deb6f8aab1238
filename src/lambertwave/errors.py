"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 2,
numeric/resolution problems exit 3, verification failures exit 1.
"""


class LambertwaveError(Exception):
    """Base class for all package errors."""


class DomainError(LambertwaveError):
    """An argument lies outside the mathematical domain of the operation."""


class InputError(LambertwaveError):
    """Structurally invalid input (grids, masses, ranges, configuration)."""


class ResolutionError(LambertwaveError):
    """A grid is too coarse (or a numeric guard tripped) for the requested
    accuracy."""


class ConvergenceError(LambertwaveError):
    """A computed value missed its tolerance.

    Carries the worst residual observed, if any, so callers can report it.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class VerificationError(LambertwaveError):
    """A certified property failed its tolerance.

    ``detail`` names the offending index/pair/point.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail
