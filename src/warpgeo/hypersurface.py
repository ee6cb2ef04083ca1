"""Immersed hypersurfaces and their extrinsic geometry.

``shape_data`` evaluates the full per-point package for an immersion
psi: chart box -> ambient: the tangent frame E_i = d psi / d u^i, the
first fundamental form g, the oriented unit normal N, the shape
operator A with A(X) = -nabla_X N, the mean curvature H = tr(A)/n, the
height h (the t-component of psi), the angle theta = <N, d_t>, and the
tangential gradient of h.

Orientation convention: N is chosen so that theta >= 0 at the center of
the chart box; if |theta| < 1e-10 there, the sign of the first nonzero
component of N breaks the tie.  Away from the center the normal keeps
the frame orientation det([E_1 .. E_n, N]) fixed, which extends the
center choice continuously.  The sign is fixed when the immersion is
constructed.

The pipeline runs on batches: ``point_jets`` and ``shape_from_jets``
take an (N, n) array of chart points and return records whose fields
carry a leading point axis, each elementary operation running once over
all points.  ``shape_data(imm, p)`` is the view of an N = 1 batch.
``evaluate_points`` runs a pipeline over a batch in slices of at most
``SLICE_POINTS`` points and names the first point whose own evaluation
fails.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .ambient import AmbientPoint, WarpedProduct, christoffel_symbols
from .errors import DegenerateImmersion, DomainError, OutsideChart, PointError
from .expr import Expression, unparse, variables_in
from .jets import as_expression, eval_jet2, first_failure, first_index

GRAM_DET_LIMIT = 1e-12
BOUNDARY_MARGIN = 1e-6
_ORIENT_TIE = 1e-10
# Largest batch evaluated at once.  The working memory of one evaluation
# grows with n (measured: about 4 KB per point for n = 3, 44 KB for
# n = 8), so longer batches run in consecutive slices; results do not
# depend on the slicing.
SLICE_POINTS = 2048
# Largest grid ChartBox.grid builds.  What a scene run keeps per grid
# point (the geometry record, the grid itself) is a few KB.  With every
# grid check, the measured tracemalloc peak of a maximal grid is 10 MB
# for n = 2, 30 MB for n = 4, 42 MB for n = 5 and 119 MB for n = 8, the
# largest n a grid can have (each axis takes at least 3 samples).
MAX_GRID_POINTS = 10_000


class Tag(enum.Enum):
    SLICE = "slice"
    HYPERPLANE = "hyperplane"
    SPHERE_IN_EUCLIDEAN = "sphere"
    HOROSPHERE = "horosphere"
    ROTATIONAL = "rotational"
    CUSTOM = "custom"


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

    def __init__(self, expr):
        self.expr = as_expression(expr)

    @property
    def source(self):
        return unparse(self.expr)

    def jet(self, values, active):
        return eval_jet2(self.expr, values, active)


class CallableComponent:
    """Immersion component backed by a jet-valued callable.

    Used where a component has no closed form in the expression
    grammar (profile curves defined by quadrature).  ``fn(values,
    active)`` receives bindings whose values are arrays of N chart
    coordinates and returns a :class:`Jet2` with that point axis.
    """

    def __init__(self, fn, source=None):
        self.fn = fn
        self.source = source

    def jet(self, values, active):
        return self.fn(values, active)


def as_component(obj):
    if isinstance(obj, (ExpressionComponent, CallableComponent)):
        return obj
    if isinstance(obj, (str, int, float, Expression)):
        return ExpressionComponent(obj)
    if callable(obj):
        return CallableComponent(obj)
    raise TypeError(f"cannot interpret {obj!r} as an immersion component")


def as_points(points, n):
    """Chart points as an (N, n) float array."""
    return np.asarray(points, dtype=float).reshape(-1, n)


class Immersion:
    """A hypersurface immersion of a chart box into a warped product.

    ``components`` gives the n+1 ambient coordinates (t, x1, ..., xn) as
    functions of the chart variables.  Construction fixes the normal
    orientation at the chart center and probes a small interior grid:
    the tangent Gram determinant must exceed 1e-12 and the image must
    stay inside the ambient chart.  The object is not modified afterwards.
    """

    def __init__(self, ambient, chart, components, tag=Tag.CUSTOM):
        if not isinstance(ambient, WarpedProduct):
            raise TypeError("ambient must be a WarpedProduct")
        self.ambient = ambient
        self.chart = chart
        self.components = tuple(as_component(c) for c in components)
        self.tag = Tag(tag)
        if len(self.components) != ambient.dim:
            raise ValueError(
                f"expected {ambient.dim} components, got {len(self.components)}"
            )
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

    def _component_jets(self, points, active):
        values = self._columns(points)
        return [c.jet(values, active) for c in self.components]

    def component_jets(self, points):
        """Jets of every component over an (N, n) array of chart points.

        A failure is the one of the first point that fails alone.
        """
        points = as_points(points, self.n)
        return first_failure(
            lambda k: self._component_jets(points[:k], self.chart.names), len(points)
        )

    def ambient_coordinates(self, points):
        """Images (t, x1, ..., xn) of an (N, n) array of chart points, shape (N, n+1)."""
        points = as_points(points, self.n)
        jets = first_failure(lambda k: self._component_jets(points[:k], ()), len(points))
        return np.stack([jet.value for jet in jets], axis=-1)


def _leaves(fn, *records):
    """``fn`` applied to the matching arrays of batched records.

    Records are dataclasses whose fields are arrays, tuples of arrays or
    records again (``ShapeData``, ``PointGeometry``, ``AmbientPoint``);
    a bare array is its own leaf.
    """
    first = records[0]
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
    second chart derivatives; ``G`` and ``dG`` are the ambient metric and
    its coordinate derivatives at the images, and ``metric`` is
    g = E^T G E.
    """

    chart: np.ndarray
    ambient_point: AmbientPoint
    frame: np.ndarray
    second: np.ndarray
    G: np.ndarray
    dG: np.ndarray
    metric: np.ndarray


def point_jets(imm, points):
    """One component-jet and one metric-jet evaluation over (N, n) chart points.

    Each check names the first point, in the order given, that fails it.
    """
    points = as_points(points, imm.n)
    bad = first_index(~imm.chart.contains(points))
    if bad is not None:
        p = tuple(map(float, points[bad]))
        raise OutsideChart(f"chart point {p!r} is outside the open box (margin 1e-6)", bad)
    jets = imm.component_jets(points)
    q = AmbientPoint(jets[0].value, tuple(jet.value for jet in jets[1:]))
    imm.ambient.validate_point(q)
    E = np.stack([jet.grad for jet in jets], axis=-2)  # (N, d, n)
    G, dG = imm.ambient.metric_jets(q)
    g = np.swapaxes(E, -1, -2) @ G @ E
    bad = first_index(np.linalg.det(g) <= GRAM_DET_LIMIT)
    if bad is not None:
        p = tuple(map(float, points[bad]))
        raise DegenerateImmersion(f"tangent frame is degenerate at chart point {p!r}", bad)
    second = np.stack([jet.hess for jet in jets], axis=-3)
    return PointJets(points, q, E, second, G, dG, g)


@dataclass(frozen=True)
class ShapeData:
    """Extrinsic bundle of an immersed hypersurface at N chart points.

    Every field carries a leading point axis.  ``chart`` (N, n) holds the
    chart points and ``ambient_point`` their images; ``frame`` has the
    tangent vectors as columns in ambient chart components;
    ``shape_operator`` is the matrix of A in the chart frame; ``grad_h``
    holds chart components of the tangential gradient of the height
    function.  ``at(i)`` is the record at one point, whose fields drop
    the point axis.
    """

    chart: np.ndarray
    ambient_point: AmbientPoint
    frame: np.ndarray
    metric: np.ndarray
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


def _raw_normal(E, G):
    """Unit normals (sign unfixed) via QR in metric-orthonormal
    coordinates, with the orientation sign of each frame."""
    Lt = np.swapaxes(np.linalg.cholesky(G), -1, -2)
    Et = Lt @ E
    Q, _ = np.linalg.qr(Et, mode="complete")
    n_tilde = Q[..., -1]
    det = np.linalg.det(np.concatenate([Et, n_tilde[..., None]], axis=-1))
    N = np.linalg.solve(Lt, n_tilde[..., None])[..., 0]
    return N, np.sign(det)


def _center_orientation(imm):
    """Frame-orientation sign that gives theta >= 0 at the chart center."""
    pj = evaluate_points(imm, lambda pts: point_jets(imm, pts), imm.chart.center())
    N, det_sign = _raw_normal(pj.frame, pj.G)
    det_sign = float(det_sign[0])
    for comp in N[0]:
        if abs(comp) > _ORIENT_TIE:
            return -det_sign if comp < 0.0 else det_sign
    return det_sign


def shape_from_jets(imm, pj):
    """The extrinsic package from the jets at a batch of points."""
    E, G, g = pj.frame, pj.G, pj.metric
    N, det_sign = _raw_normal(E, G)
    N = np.where((det_sign != imm.orientation)[..., None], -N, N)
    Gamma = christoffel_symbols(pj.ambient_point, G, pj.dG)
    GammaE = Gamma @ E[..., None, :, :]  # Gamma^a_{bc} E^c_j
    cov = pj.second + np.swapaxes(E, -1, -2)[..., None, :, :] @ GammaE
    II = np.einsum("...aij,...a->...ij", cov, (G @ N[..., None])[..., 0])
    A = np.linalg.solve(g, II)
    H = np.trace(A, axis1=-2, axis2=-1) / imm.n
    dh = E[..., 0, :]
    grad_h = np.linalg.solve(g, dh[..., None])[..., 0]
    return ShapeData(
        chart=pj.chart,
        ambient_point=pj.ambient_point,
        frame=E,
        metric=g,
        normal=N,
        shape_operator=A,
        second_fundamental=II,
        mean_curvature=H,
        theta=N[..., 0].copy(),
        grad_h=grad_h,
        grad_h_norm2=np.einsum("...i,...i->...", dh, grad_h),
    )


def grid_shape_data(imm, points):
    """The extrinsic package over an (N, n) array of chart points."""
    return evaluate_points(imm, lambda pts: shape_from_jets(imm, point_jets(imm, pts)), points)


def shape_data(imm, p):
    """Evaluate the extrinsic package at an interior chart point."""
    return grid_shape_data(imm, [p]).at(0)


def mean_curvature(imm, p):
    return shape_data(imm, p).mean_curvature


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


def shape_operator_from_normal_derivative(imm, p, step=1e-5):
    """Cross-check shape operator from A(E_i) = -nabla_{E_i} N.

    The normal field is differentiated by central differences in chart
    coordinates (the result is only used against the exact
    second-fundamental-form path at 1e-6 tolerance).
    """
    p = tuple(map(float, p))
    sd = shape_data(imm, p)
    d, n = sd.frame.shape
    Gamma = imm.ambient.christoffels(sd.ambient_point)
    G = imm.ambient.metric(sd.ambient_point)
    columns = np.zeros((d, n))
    for i in range(n):
        plus = list(p)
        minus = list(p)
        plus[i] += step
        minus[i] -= step
        n_plus = shape_data(imm, tuple(plus)).normal
        n_minus = shape_data(imm, tuple(minus)).normal
        dN = (n_plus - n_minus) / (2.0 * step)
        cov = dN + np.einsum("abc,b,c->a", Gamma, sd.frame[:, i], sd.normal)
        columns[:, i] = -cov
    return np.linalg.solve(sd.metric, sd.frame.T @ G @ columns)


def induced_christoffels_from_jets(pj):
    """Christoffel symbols Gamma[:, k, i, j] of the induced metric.

    The chart derivatives ``dg[k, i, j] = d g_ij / d u^k`` are exact,
    assembled from the order-2 jets of psi and the ambient ``dG`` (the
    ambient metric is symmetric, so <E_i, d_j d_k psi> serves both
    second-derivative terms).
    """
    E = pj.frame
    E_ = E[..., None, :, :]
    inner = np.einsum("...ai,...ajk->...ijk", pj.G @ E, pj.second)  # <E_i, d_j d_k psi>
    dG_E = np.swapaxes(pj.dG @ E_, -1, -2) @ E_  # [a, k, j] = (d_k G)_{ab} E^b_j
    dg = (
        np.einsum("...jik->...kij", inner)
        + np.einsum("...ijk->...kij", inner)
        + np.einsum("...ai,...akj->...kij", E, dG_E)
    )
    ginv = np.linalg.inv(pj.metric)
    term1 = np.einsum("...kl,...ilj->...kij", ginv, dg)  # d_i g_lj
    term2 = np.einsum("...kl,...jil->...kij", ginv, dg)  # d_j g_il
    term3 = np.einsum("...kl,...lij->...kij", ginv, dg)  # d_l g_ij
    return 0.5 * (term1 + term2 - term3)


def induced_christoffels(imm, p):
    """Christoffel symbols of the induced metric, Gamma[k, i, j]."""
    gamma = evaluate_points(
        imm, lambda pts: induced_christoffels_from_jets(point_jets(imm, pts)), p
    )
    return gamma[0]


def orthonormal_frame(g):
    """Columns F with F^T g F = I (Cholesky based); g may be stacked."""
    return np.swapaxes(np.linalg.inv(np.linalg.cholesky(g)), -1, -2)
