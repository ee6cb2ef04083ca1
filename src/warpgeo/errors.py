"""Exception types shared across the package, the size bounds and the rule for input numbers."""

import math
from reprlib import repr as _short


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
    evaluation, or None when there is no batch.  ``probe`` is True for a
    point of the probe block a geometry pass evaluates ahead of its own
    points (``intrinsic.grid_geometry``); ``index`` then counts from it.
    """

    probe = False

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index

    @property
    def immersion_fault(self):
        """A failing probe that is not a DomainError: the immersion is at
        fault, not a point of the pass, so it is refused as a usage error."""
        return self.probe and not isinstance(self, DomainError)


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
    """Tangent vectors failed to be linearly independent at a chart point."""


class QuadratureFailure(WarpGeoError):
    """The profile integral did not reach the requested tolerance."""


class SigmaZero(DomainError):
    """Rotational radius function vanished where a formula divides by it (names u)."""


class MeshUnsupported(WarpGeoError):
    """Mesh export requested for an unsupported surface dimension."""


class SceneError(WarpGeoError):
    """Scene file failed validation; ``field`` names the offending entry."""

    def __init__(self, message, field=None):
        prefix = f"scene field {field!r}: " if field else ""
        super().__init__(prefix + message)
        self.field = field


# Largest grid ChartBox.grid builds.  What a scene run keeps per grid
# point (the geometry record, the grid itself) is a few KB.  With every
# grid check, the measured tracemalloc peak of a maximal grid is 9.0 MB
# for n = 2, 26 MB for n = 4, 38 MB for n = 5 and 180 MB for n = 8, the
# largest n a grid can have (each axis takes at least 3 samples).
MAX_GRID_POINTS = 10_000
MAX_DIMENSION = int(math.log(MAX_GRID_POINTS, 3))  # that largest n, 8


def _number(value, field, name, integer=False, lo=-math.inf, hi=math.inf, finite=True):
    """``value`` as the number ``name``, else a SceneError naming ``field``
    (a ValueError when ``field`` is None: the number of a command-line flag).

    The one rule for input numbers: a boolean is never one; an integer lies in [lo, hi]; any
    other number is a float, finite and in the open (lo, hi), unless ``finite`` is false: an
    interval endpoint, which may be any float or the text "inf" / "-inf"."""
    text = value.strip().lower() if isinstance(value, str) and not finite else None
    if text in ("inf", "+inf", "infinity", "-inf"):
        return -math.inf if text == "-inf" else math.inf
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise _refusal(f"{name} must be {kind}, got {_short(value)}", field)
    if integer:
        if lo <= value <= hi:
            return value
        raise _refusal(f"{name} must lie in [{lo}, {hi}], got {_short(value)}", field)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(number):
        raise _refusal(f"{name} must be finite, got {_short(value)}", field)
    if finite and not lo < number < hi:
        raise _refusal(f"{name} must lie in ({lo}, {hi}), got {_short(value)}", field)
    return number


def _refusal(message, field):
    return SceneError(message, field=field) if field else ValueError(message)
