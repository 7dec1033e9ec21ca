"""Exception types shared across the package."""


class MinisphereError(Exception):
    """Base class for library errors."""


class EmptyInputError(MinisphereError, ValueError):
    """An operation that needs at least one point received none."""


class InvalidGeometryError(MinisphereError, ValueError):
    """Input coordinates are non-finite or not shaped like 3D points."""


class InvalidKError(MinisphereError, ValueError):
    """Requested plane count is not a positive integer."""


class TooLargeError(MinisphereError, ValueError):
    """Input exceeds the size bound of a desk-scale oracle."""


class UnknownKindError(MinisphereError, ValueError):
    """Requested point-cloud generator does not exist."""


class InvalidParamsError(MinisphereError, ValueError):
    """Generator or benchmark parameters are out of range."""


class InsufficientSamplesError(MinisphereError, ValueError):
    """A benchmark run needs more sizes or seeds than were supplied."""


class DegenerateCollinear(MinisphereError):
    """Three points are collinear within tolerance; no circumcircle exists."""


class DegenerateCoplanar(MinisphereError):
    """Four points are coplanar within tolerance; no circumsphere exists."""


class ParseError(MinisphereError, ValueError):
    """A point file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnknownFormatError(MinisphereError, ValueError):
    """File extension or format name is not one of csv, xyz, json."""
