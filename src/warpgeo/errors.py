"""Exception types shared across the package."""


class WarpGeoError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(WarpGeoError):
    """Malformed expression text, with the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(WarpGeoError):
    """Name that is neither a bound variable, a constant nor a function."""

    def __init__(self, name, offset=None):
        where = "" if offset is None else f" (at offset {offset})"
        super().__init__(f"unknown identifier {name!r}{where}")
        self.name = name
        self.offset = offset


class PointError(WarpGeoError):
    """Failure at one point of an evaluation.

    ``index`` is the position of the failing point in a batched
    evaluation, or None when there is no batch.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DomainError(PointError):
    """Evaluation left the domain of an elementary function.

    ``expression`` holds the offending subexpression when available.
    """

    def __init__(self, message, expression=None, index=None):
        super().__init__(message, index)
        self.expression = expression


class OutsideChart(PointError, ValueError):
    """A point outside the open chart box, the interval or the angle chart."""


class SingularMetric(PointError):
    """Chart metric is numerically singular (condition number too large)."""


class DegenerateImmersion(PointError):
    """Tangent vectors failed to be linearly independent at a probe point."""


class QuadratureFailure(WarpGeoError):
    """The profile integral did not reach the requested tolerance."""


class SigmaZero(WarpGeoError):
    """Rotational radius function vanished where a formula divides by it."""


class MeshUnsupported(WarpGeoError):
    """Mesh export requested for an unsupported surface dimension."""


class SceneError(WarpGeoError):
    """Scene file failed validation; ``field`` names the offending entry."""

    def __init__(self, message, field=None):
        prefix = f"scene field {field!r}: " if field else ""
        super().__init__(prefix + message)
        self.field = field
