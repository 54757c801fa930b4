"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: scene/schema problems exit 2, numeric
failures (singular geometry, zero illumination) exit 3, I/O failures exit 4.
"""

__all__ = [
    "IkmigError",
    "SceneParseError",
    "SceneValidationError",
    "DataFormatError",
    "SingularityError",
    "NumericError",
]


class IkmigError(Exception):
    """Base class for all package errors."""


class SceneParseError(IkmigError):
    """A scene document does not conform to the schema."""


class SceneValidationError(IkmigError):
    """A structurally valid scene violates a physical invariant."""


class DataFormatError(IkmigError):
    """A data file is malformed or inconsistent with the scene."""


class SingularityError(IkmigError):
    """A computation hit coinciding points or a rank-deficient system."""


class NumericError(IkmigError):
    """A numeric precondition failed (zero illumination, aliasing, ...)."""
