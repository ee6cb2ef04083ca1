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
"""

from __future__ import annotations

import contextlib
import enum
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .ambient import AmbientPoint, WarpedProduct, christoffel_symbols
from .errors import DegenerateImmersion, DomainError
from .expr import Expression, unparse, variables_in
from .jets import as_expression, eval_jet2

GRAM_DET_LIMIT = 1e-12
BOUNDARY_MARGIN = 1e-6
_ORIENT_TIE = 1e-10


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
        return all(
            lo + margin <= v <= hi - margin
            for v, lo, hi in zip(p, self.lower, self.upper)
        )

    def axis_points(self, name, count, margin=0.05):
        i = self.names.index(name)
        lo, hi = self.lower[i], self.upper[i]
        pad = margin * (hi - lo)
        return np.linspace(lo + pad, hi - pad, count)

    def grid(self, counts, margins=None):
        """Interior grid as a list of chart points (row-major).

        ``counts`` is an int applied to every axis or a mapping from
        variable name to sample count; ``margins`` likewise gives the
        fraction of each axis length kept away from the boundary.
        """
        axes = []
        for name in self.names:
            count = counts[name] if isinstance(counts, dict) else int(counts)
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
    grammar (profile curves defined by quadrature).
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
        for p in self.chart.grid(3, margins=0.1):
            shape_data(self, p)

    @property
    def n(self):
        return self.ambient.n

    def bindings(self, p):
        return dict(zip(self.chart.names, map(float, p)))

    def component_jets(self, p):
        values = self.bindings(p)
        return [c.jet(values, self.chart.names) for c in self.components]

    def ambient_point(self, p):
        values = self.bindings(p)
        comps = [c.jet(values, ()).value for c in self.components]
        return AmbientPoint(comps[0], tuple(comps[1:]))


@contextlib.contextmanager
def located(imm, p):
    """Add the chart point ``p`` to any DomainError raised in the block."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(
            f"{exc} (at chart point {imm.bindings(p)!r})", exc.expression
        ) from exc


@dataclass(frozen=True)
class PointJets:
    """Jets of psi and of the ambient metric at one interior chart point.

    ``frame[a, i]`` is d psi^a / d u^i and ``second[a, i, j]`` the second
    chart derivatives; ``G`` and ``dG`` are the ambient metric and its
    coordinate derivatives at the image, and ``metric`` is g = E^T G E.
    """

    point: tuple
    ambient_point: AmbientPoint
    frame: np.ndarray
    second: np.ndarray
    G: np.ndarray
    dG: np.ndarray
    metric: np.ndarray


def point_jets(imm, p):
    """One component-jet and one metric-jet evaluation at chart point ``p``."""
    p = tuple(map(float, p))
    if not imm.chart.contains(p):
        raise ValueError(f"chart point {p!r} is outside the open box (margin 1e-6)")
    jets = imm.component_jets(p)
    q = AmbientPoint(jets[0].value, tuple(j.value for j in jets[1:]))
    imm.ambient.validate_point(q)
    E = np.array([jet.grad for jet in jets])  # (d, n)
    G, dG, _ = imm.ambient.metric_jets(q)
    g = E.T @ G @ E
    if np.linalg.det(g) <= GRAM_DET_LIMIT:
        raise DegenerateImmersion(f"tangent frame is degenerate at chart point {p!r}")
    return PointJets(p, q, E, np.array([jet.hess for jet in jets]), G, dG, g)


@dataclass(frozen=True)
class ShapeData:
    """Per-point extrinsic bundle of an immersed hypersurface.

    ``frame`` has shape (n+1, n) with the tangent vectors as columns in
    ambient chart components; ``shape_operator`` is the matrix of A in
    the chart frame; ``grad_h`` holds chart components of the tangential
    gradient of the height function.
    """

    point: tuple
    ambient_point: AmbientPoint
    frame: np.ndarray
    metric: np.ndarray
    normal: np.ndarray
    shape_operator: np.ndarray
    second_fundamental: np.ndarray
    mean_curvature: float
    height: float
    theta: float
    grad_h: np.ndarray
    grad_h_norm2: float

    @property
    def n(self):
        return self.metric.shape[0]


def _raw_normal(E, G):
    """Unit normal (sign unfixed) via QR in metric-orthonormal coordinates."""
    L = np.linalg.cholesky(G)
    Et = L.T @ E
    Q, _ = np.linalg.qr(Et, mode="complete")
    n_tilde = Q[:, -1]
    det = np.linalg.det(np.column_stack([Et, n_tilde]))
    N = np.linalg.solve(L.T, n_tilde)
    return N, float(np.sign(det))


def _center_orientation(imm):
    """Frame-orientation sign that gives theta >= 0 at the chart center."""
    center = imm.chart.center()
    with located(imm, center):
        pj = point_jets(imm, center)
    N, det_sign = _raw_normal(pj.frame, pj.G)
    for comp in N:
        if abs(comp) > _ORIENT_TIE:
            return -det_sign if comp < 0.0 else det_sign
    return det_sign


def shape_from_jets(imm, pj):
    """The extrinsic package from the jets at one point."""
    E, G, g = pj.frame, pj.G, pj.metric
    N, det_sign = _raw_normal(E, G)
    if det_sign != imm.orientation:
        N = -N
    Gamma = christoffel_symbols(pj.ambient_point, G, pj.dG)
    cov = pj.second + np.einsum("abc,bi,cj->aij", Gamma, E, E)
    II = np.einsum("aij,ab,b->ij", cov, G, N)
    A = np.linalg.solve(g, II)
    H = float(np.trace(A)) / imm.n
    dh = E[0, :].copy()
    grad_h = np.linalg.solve(g, dh)
    return ShapeData(
        point=pj.point,
        ambient_point=pj.ambient_point,
        frame=E,
        metric=g,
        normal=N,
        shape_operator=A,
        second_fundamental=II,
        mean_curvature=H,
        height=float(pj.ambient_point.t),
        theta=float(N[0]),
        grad_h=grad_h,
        grad_h_norm2=float(dh @ grad_h),
    )


def shape_data(imm, p):
    """Evaluate the extrinsic package at an interior chart point."""
    with located(imm, p):
        return shape_from_jets(imm, point_jets(imm, p))


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
    """Christoffel symbols Gamma[k, i, j] of the induced metric.

    The chart derivatives ``dg[k, i, j] = d g_ij / d u^k`` are exact,
    assembled from the order-2 jets of psi and the ambient ``dG``.
    """
    E, G, dd_psi = pj.frame, pj.G, pj.second
    dg = (
        np.einsum("aik,ab,bj->kij", dd_psi, G, E)
        + np.einsum("ai,ab,bjk->kij", E, G, dd_psi)
        + np.einsum("ai,abc,ck,bj->kij", E, pj.dG, E, E)
    )
    ginv = np.linalg.inv(pj.metric)
    term1 = np.einsum("kl,ilj->kij", ginv, dg)  # d_i g_lj
    term2 = np.einsum("kl,jil->kij", ginv, dg)  # d_j g_il
    term3 = np.einsum("kl,lij->kij", ginv, dg)  # d_l g_ij
    return 0.5 * (term1 + term2 - term3)


def induced_christoffels(imm, p):
    """Christoffel symbols of the induced metric, Gamma[k, i, j]."""
    with located(imm, p):
        return induced_christoffels_from_jets(point_jets(imm, p))


def orthonormal_frame(g):
    """Columns F with F^T g F = I (Cholesky based)."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).T
