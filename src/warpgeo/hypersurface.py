"""Immersed hypersurfaces and their extrinsic geometry.

``grid_shape_data`` evaluates, at a batch of chart points, the extrinsic
package of an immersion psi: chart box -> ambient: the tangent frame
E_i = d psi / d u^i, the first fundamental form g, the oriented unit
normal N, the shape operator A with A(X) = -nabla_X N, the mean
curvature H = tr(A)/n, the height h (the t-component of psi), the angle
theta = <N, d_t>, and the tangential gradient of h.

Orientation convention: N is the D-normalized D^-1 nu, where G = diag(D)
is the ambient metric and nu is the cofactor covector of the frame,
det([E_1 .. E_n, v]) = nu . v, times the sign ``Immersion.orientation``.
D^-1 nu is G-orthogonal to every E_i and has det([E, D^-1 nu]) > 0, so
the normal keeps the frame orientation fixed and extends continuously
from the center of the chart box, where the sign is chosen so that
theta >= 0; if |theta| < 1e-10 there, the sign of the first nonzero
component of N breaks the tie.  The sign is fixed when the immersion is
constructed.

The induced metric g is factored once per point: ``point_jets`` takes
its Cholesky factor L and carries F = L^-T (a g-orthonormal frame, so
F^T g F = I) and g^-1 = F F^T, which every later stage reads.

The pipeline runs on batches: ``point_jets`` and ``shape_from_jets``
take an (N, n) array of chart points and return records whose fields
carry a leading point axis, each elementary operation running once over
all points; ``record.at(i)`` is the view of point i.
``evaluate_points`` runs a pipeline over a batch in slices of at most
``SLICE_POINTS`` points and names the first point whose own evaluation
fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .ambient import AmbientPoint, WarpedProduct, check_conditioning
from .errors import DegenerateImmersion, DomainError, OutsideChart, PointError
from .expr import Expression, unparse, variables_in
from .jets import as_expression, eval_jet2, first_failure, first_index

GRAM_DET_LIMIT = 1e-12
BOUNDARY_MARGIN = 1e-6
_ORIENT_TIE = 1e-10
# Largest batch evaluated at once.  The working memory of one evaluation
# grows with n (measured: about 2.4 KB per point for n = 3, 34 KB for
# n = 8), so longer batches run in consecutive slices; results do not
# depend on the slicing.
SLICE_POINTS = 2048
# Largest grid ChartBox.grid builds.  What a scene run keeps per grid
# point (the geometry record, the grid itself) is a few KB.  With every
# grid check, the measured tracemalloc peak of a maximal grid is 10 MB
# for n = 2, 29 MB for n = 4, 38 MB for n = 5 and 104 MB for n = 8, the
# largest n a grid can have (each axis takes at least 3 samples).
MAX_GRID_POINTS = 10_000
MAX_DIMENSION = int(math.log(MAX_GRID_POINTS, 3))  # that largest n, 8


@dataclass(frozen=True)
class ChartBox:
    """Open box domain with named coordinates."""

    names: tuple
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if not (len(self.names) == len(self.lower) == len(self.upper)):
            raise ValueError("chart names and bounds must have equal length")
        for name, lo, hi in zip(self.names, self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"empty chart range for {name!r}: ({lo}, {hi})")

    @property
    def dim(self):
        return len(self.names)

    def center(self):
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.lower, self.upper))

    def contains(self, p, margin=BOUNDARY_MARGIN):
        """Whether chart point ``p``, or each row of an (N, n) array,
        lies in the box at least ``margin`` away from its faces."""
        p = np.asarray(p, dtype=float)
        lo = np.asarray(self.lower, dtype=float) + margin
        hi = np.asarray(self.upper, dtype=float) - margin
        return np.all((lo <= p) & (p <= hi), axis=-1)

    def axis_points(self, name, count, margin=0.05):
        i = self.names.index(name)
        lo, hi = self.lower[i], self.upper[i]
        pad = margin * (hi - lo)
        return np.linspace(lo + pad, hi - pad, count)

    def grid(self, counts, margins=None):
        """Interior grid as a list of chart points (row-major).

        ``counts`` is an int applied to every axis or a mapping from
        variable name to sample count; ``margins`` likewise gives the
        fraction of each axis length kept away from the boundary.  A grid
        of more than ``MAX_GRID_POINTS`` points is refused before any of
        it is built.
        """
        sizes = [counts[name] if isinstance(counts, dict) else int(counts) for name in self.names]
        total = math.prod(sizes)
        if total > MAX_GRID_POINTS:
            raise ValueError(
                f"a grid of {total} points exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )
        axes = []
        for name, count in zip(self.names, sizes):
            if isinstance(margins, dict):
                margin = margins.get(name, 0.05)
            else:
                margin = 0.05 if margins is None else float(margins)
            axes.append(self.axis_points(name, count, margin))
        return [tuple(map(float, p)) for p in itertools.product(*axes)]


class ExpressionComponent:
    """Immersion component backed by an expression AST."""

    width = 1

    def __init__(self, expr):
        self.expr = as_expression(expr)

    @property
    def source(self):
        return unparse(self.expr)

    def jets(self, values, active, order=2):
        return [eval_jet2(self.expr, values, active, order)]


class CallableComponent:
    """A block of ``width`` consecutive components backed by a callable.

    Used where components have no closed form in the expression grammar
    (profile curves defined by quadrature).  ``fn(values, active, order)``
    receives bindings whose values are arrays of N chart coordinates and
    returns ``width`` :class:`Jet2` values of that order with that point
    axis, so work the components share is done once per batch.
    """

    def __init__(self, fn, width):
        self.fn = fn
        self.width = width

    def jets(self, values, active, order=2):
        return list(self.fn(values, active, order))


def as_component(obj):
    if isinstance(obj, (ExpressionComponent, CallableComponent)):
        return obj
    if isinstance(obj, (str, int, float, Expression)):
        return ExpressionComponent(obj)
    raise TypeError(f"cannot interpret {obj!r} as an immersion component")


def as_points(points, n):
    """Chart points as an (N, n) float array."""
    return np.asarray(points, dtype=float).reshape(-1, n)


class Immersion:
    """A hypersurface immersion of a chart box into a warped product.

    ``components`` gives the n+1 ambient coordinates (t, x1, ..., xn) as
    expressions in the chart variables, or as :class:`CallableComponent`
    blocks of consecutive coordinates.  Construction fixes the normal
    orientation at the chart center and probes a small interior grid:
    the tangent Gram determinant must exceed 1e-12 and the image must
    stay inside the ambient chart.  The object is not modified afterwards.
    """

    def __init__(self, ambient, chart, components):
        if not isinstance(ambient, WarpedProduct):
            raise TypeError("ambient must be a WarpedProduct")
        self.ambient = ambient
        self.chart = chart
        self.components = tuple(as_component(c) for c in components)
        width = sum(c.width for c in self.components)
        if width != ambient.dim:
            raise ValueError(f"expected {ambient.dim} components, got {width}")
        if chart.dim != ambient.n:
            raise ValueError(
                f"chart dimension {chart.dim} must equal hypersurface dimension {ambient.n}"
            )
        for comp in self.components:
            if isinstance(comp, ExpressionComponent):
                extra = variables_in(comp.expr) - set(chart.names)
                if extra:
                    raise ValueError(
                        f"component {comp.source!r} uses undeclared variables {sorted(extra)}"
                    )
        self.orientation = _center_orientation(self)
        grid_shape_data(self, self.chart.grid(3, margins=0.1))

    @property
    def n(self):
        return self.ambient.n

    def bindings(self, p):
        return dict(zip(self.chart.names, map(float, p)))

    def _columns(self, points):
        points = as_points(points, self.n)
        return {name: np.ascontiguousarray(points[:, i]) for i, name in enumerate(self.chart.names)}

    def coordinate_jets(self, values, active, order=2):
        """Jets of the n+1 ambient coordinates at the chart bindings ``values``."""
        return [jet for c in self.components for jet in c.jets(values, active, order)]

    def _component_jets(self, points, active, order=2):
        return self.coordinate_jets(self._columns(points), active, order)

    def component_jets(self, points, order=2):
        """Jets of ``order`` 2 or 3 of every ambient coordinate over (N, n) chart points.

        A failure is the one of the first point that fails alone.
        """
        points = as_points(points, self.n)
        return first_failure(
            lambda k: self._component_jets(points[:k], self.chart.names, order), len(points)
        )

    def ambient_coordinates(self, points):
        """Images (t, x1, ..., xn) of an (N, n) array of chart points, shape (N, n+1)."""
        points = as_points(points, self.n)
        jets = first_failure(lambda k: self._component_jets(points[:k], ()), len(points))
        return np.stack([jet.value for jet in jets], axis=-1)


def _leaves(fn, *records):
    """``fn`` applied to the matching arrays of batched records.

    Records are dataclasses whose fields are arrays, tuples of arrays,
    records again (``ShapeData``, ``PointGeometry``, ``AmbientPoint``) or
    None; a bare array is its own leaf.
    """
    first = records[0]
    if first is None:
        return None
    if is_dataclass(first):
        return replace(
            first,
            **{
                f.name: _leaves(fn, *(getattr(r, f.name) for r in records))
                for f in fields(first)
            },
        )
    if isinstance(first, tuple):
        return tuple(_leaves(fn, *items) for items in zip(*records))
    return fn(*records)


def point_view(record, i):
    """The record at point ``i``: every field without its point axis.

    0-d entries become floats.
    """

    def item(value):
        value = value[i]
        return float(value) if np.ndim(value) == 0 else value

    return _leaves(item, record)


def evaluate_points(imm, fn, points):
    """``fn`` over an (N, n) array of chart points, joined along the point axis.

    Batches longer than ``SLICE_POINTS`` run in consecutive slices.  When
    a point fails, the error raised is the one of the first point, in the
    order given, whose own evaluation fails, with its position in
    ``index``; a DomainError also gets the chart point in its message.
    Numpy floating-point warnings are silenced, as in ``eval_jet2``;
    failing points are reported by the checks of the stages alone.
    """
    points = as_points(points, imm.n)
    parts = []
    for start in range(0, max(len(points), 1), SLICE_POINTS):
        piece = points[start : start + SLICE_POINTS]
        try:
            with np.errstate(all="ignore"):
                parts.append(first_failure(lambda k: fn(piece[:k]), len(piece)))
        except PointError as exc:
            if exc.index is None:
                raise
            exc.index += start
            if not isinstance(exc, DomainError):
                raise
            p = points[exc.index]
            raise DomainError(
                f"{exc} (at chart point {imm.bindings(p)!r})", exc.expression, exc.index
            ) from exc
    if len(parts) == 1:
        return parts[0]
    return _leaves(lambda *arrays: np.concatenate(arrays), *parts)


@dataclass(frozen=True)
class PointJets:
    """Jets of psi and of the ambient metric at N interior chart points.

    ``chart`` (N, n) holds the points and ``ambient_point`` their images;
    ``frame[:, a, i]`` is d psi^a / d u^i and ``second[:, a, i, j]`` the
    second chart derivatives; ``D`` and ``dD`` are the diagonal ambient
    metric and its coordinate derivatives at the images, and ``warping``
    is (f, f', f'') at their heights, all three from the one jet of f of
    ``WarpedProduct.metric_jets``; ``metric`` is g = E^T diag(D) E.
    ``factor`` is F = L^-T for the Cholesky factor L of g, and
    ``metric_inverse`` is g^-1 = F F^T.  ``third[:, a, i, j, k]`` holds the
    third chart derivatives of an order-3 evaluation, else None.
    """

    chart: np.ndarray
    ambient_point: AmbientPoint
    frame: np.ndarray
    second: np.ndarray
    D: np.ndarray
    dD: np.ndarray
    warping: tuple
    metric: np.ndarray
    factor: np.ndarray
    metric_inverse: np.ndarray
    third: np.ndarray | None = None


def point_jets(imm, points, order=2):
    """Component jets of ``order`` and metric jets over (N, n) chart points, one pass each.

    Each check names the first point, in the order given, that fails it;
    a frame, second derivative or metric entry D that is not finite is a
    DomainError.
    """
    points = as_points(points, imm.n)
    bad = first_index(~imm.chart.contains(points))
    if bad is not None:
        p = tuple(map(float, points[bad]))
        raise OutsideChart(f"chart point {p!r} is outside the open box (margin 1e-6)", bad)
    jets = imm.component_jets(points, order)
    q = AmbientPoint(jets[0].value, tuple(jet.value for jet in jets[1:]))
    imm.ambient.validate_point(q)
    E = np.stack([jet.grad for jet in jets], axis=-2)  # (N, d, n)
    second = np.stack([jet.hess for jet in jets], axis=-3)
    D, dD, warping = imm.ambient.metric_jets(q)
    finite = (
        np.isfinite(E).all(axis=(-2, -1))
        & np.isfinite(second).all(axis=(-3, -2, -1))
        & np.isfinite(D).all(axis=-1)
    )
    bad = first_index(~finite)
    if bad is not None:
        raise DomainError("tangent frame, second derivatives or metric not finite", index=bad)
    g = np.swapaxes(E, -1, -2) @ (D[..., :, None] * E)
    bad = first_index(np.linalg.det(g) <= GRAM_DET_LIMIT)
    if bad is not None:
        p = tuple(map(float, points[bad]))
        raise DegenerateImmersion(f"tangent frame is degenerate at chart point {p!r}", bad)
    F = np.swapaxes(np.linalg.inv(np.linalg.cholesky(g)), -1, -2)
    third = None if order == 2 else np.stack([jet.third for jet in jets], axis=-4)
    return PointJets(points, q, E, second, D, dD, warping, g, F, F @ np.swapaxes(F, -1, -2), third)


@dataclass(frozen=True)
class ShapeData:
    """Extrinsic bundle of an immersed hypersurface at N chart points.

    Every field carries a leading point axis.  ``chart`` (N, n) holds the
    chart points and ``ambient_point`` their images; ``frame`` has the
    tangent vectors as columns in ambient chart components;
    ``shape_operator`` is the matrix of A in the chart frame; ``grad_h``
    holds chart components of the tangential gradient of the height
    function; ``metric_inverse`` is g^-1.  ``at(i)`` is the record at one
    point, whose fields drop the point axis.
    """

    chart: np.ndarray
    ambient_point: AmbientPoint
    frame: np.ndarray
    metric: np.ndarray
    metric_inverse: np.ndarray
    normal: np.ndarray
    shape_operator: np.ndarray
    second_fundamental: np.ndarray
    mean_curvature: np.ndarray
    theta: np.ndarray
    grad_h: np.ndarray
    grad_h_norm2: np.ndarray

    @property
    def n(self):
        return self.metric.shape[-1]

    @property
    def height(self):
        return self.ambient_point.t

    def at(self, i):
        return point_view(self, i)


def _unit_normal(E, D):
    """The unit normal D^-1 nu / |D^-1 nu|_D of frames E, where the
    cofactor covector nu satisfies det([E | v]) = nu . v for every v."""
    d = E.shape[-1] + 1
    E = E / np.max(np.abs(E), axis=-2, keepdims=True)  # nu keeps its direction, stays finite
    minors = E[..., [[b for b in range(d) if b != a] for a in range(d)], :]
    nu = (-1.0) ** (np.arange(d) + d - 1) * np.linalg.det(minors)
    v = nu / D
    return v / np.sqrt(np.sum(nu * v, axis=-1, keepdims=True))


def _center_orientation(imm):
    """Sign of the normal that gives theta >= 0 at the chart center."""
    pj = evaluate_points(imm, lambda pts: point_jets(imm, pts), imm.chart.center())
    for comp in _unit_normal(pj.frame, pj.D)[0]:
        if abs(comp) > _ORIENT_TIE:
            return -1.0 if comp < 0.0 else 1.0
    return 1.0


def shape_from_jets(imm, pj):
    """The extrinsic package from the jets at a batch of points.

    II_ij = <d_i d_j psi + Gamma(E_i, E_j), N> takes the ambient
    Christoffel symbols contracted with N in closed form, with P = dD E,
    q = dD N and X_ij = sum_a P^a_i N^a E^a_j:
    <Gamma(E_i, E_j), N> = (X_ij + X_ji)/2 - sum_b q_b E^b_i E^b_j / 2.
    """
    E, D, dD, ginv = pj.frame, pj.D, pj.dD, pj.metric_inverse
    check_conditioning(pj.ambient_point, D)
    N = imm.orientation * _unit_normal(E, D)
    X = np.swapaxes(dD @ E, -1, -2) @ (N[..., :, None] * E)
    q = dD @ N[..., :, None]
    II = (D * N)[..., None, :] @ pj.second.reshape(X.shape[:-2] + (D.shape[-1], -1))
    II = II.reshape(X.shape) + 0.5 * (X + np.swapaxes(X, -1, -2) - np.swapaxes(E, -1, -2) @ (q * E))
    A = ginv @ II
    H = np.trace(A, axis1=-2, axis2=-1) / imm.n
    dh = E[..., 0, :]
    grad_h = (ginv @ dh[..., None])[..., 0]
    return ShapeData(
        chart=pj.chart,
        ambient_point=pj.ambient_point,
        frame=E,
        metric=pj.metric,
        metric_inverse=ginv,
        normal=N,
        shape_operator=A,
        second_fundamental=II,
        mean_curvature=H,
        theta=N[..., 0].copy(),
        grad_h=grad_h,
        grad_h_norm2=np.sum(dh * grad_h, axis=-1),
    )


def grid_shape_data(imm, points):
    """The extrinsic package over an (N, n) array of chart points."""
    return evaluate_points(imm, lambda pts: shape_from_jets(imm, point_jets(imm, pts)), points)


def flip_orientation(sd):
    """Reverse the normal: N, A, theta and H change sign, the rest stay."""
    return replace(
        sd,
        normal=-sd.normal,
        shape_operator=-sd.shape_operator,
        second_fundamental=-sd.second_fundamental,
        theta=-sd.theta,
        mean_curvature=-sd.mean_curvature,
    )


def metric_derivative(pj):
    """dg[:, k, i, j] = d g_ij / d u^k of the induced metric, exact, from the
    order-2 jets of psi and the ambient ``dD`` (the ambient metric is
    symmetric, so <E_i, d_j d_k psi> serves both second-derivative terms)."""
    E = pj.frame
    n = E.shape[-1]
    shape = E.shape[:-2] + (n, n, n)

    def contract(X, T):  # sum_a X^a_i T^a_jk as [i, j, k]
        return (np.swapaxes(X, -1, -2) @ T.reshape(T.shape[:-2] + (-1,))).reshape(shape)

    inner = contract(pj.D[..., :, None] * E, pj.second)  # [i, j, k] = <E_i, d_j d_k psi>
    dD_E = contract(pj.dD @ E, E[..., :, :, None] * E[..., :, None, :])  # (d_k D_a) E^a_i E^a_j
    return np.swapaxes(inner, -3, -1) + np.moveaxis(inner, -1, -3) + dD_E
