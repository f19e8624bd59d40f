"""Exception types shared across the package.

The CLI maps :class:`ValidationError` (and subclasses) to exit code 2 and
every other :class:`HemoflowError` to exit code 3.
"""


class HemoflowError(Exception):
    """Base class for all package errors."""


class ValidationError(HemoflowError):
    """Invalid configuration, arguments, or input data."""


class InsufficientDataError(ValidationError):
    """Too few samples to perform a fit."""


class ExtrapolationError(ValidationError):
    """A lookup outside the supported interpolation range."""


class FitError(HemoflowError):
    """A nonlinear fit failed to converge; carries diagnostics."""

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None):
        if iterations is not None or residual is not None:
            message = f"{message} (iterations={iterations}, residual={residual})"
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class MeshError(HemoflowError):
    """A mesh fails a structural or topological check."""


class GeometryError(HemoflowError):
    """A geometric query cannot be answered on the given mesh or grid."""


class LabelingError(ValidationError):
    """Segment labeling produced an invalid partition."""


class SequenceError(HemoflowError):
    """Requested MR sequence cannot be realized within hardware limits."""
