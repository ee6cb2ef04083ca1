"""Immersed hypersurfaces and the jets of an immersion.

``point_jets`` evaluates, at a batch of chart points, the jets of an
immersion psi: chart box -> ambient and of the ambient metric at the
images: the tangent frame E_i = d psi / d u^i and its higher chart
derivatives, the first fundamental form g and its factor.  The geometry
pass of ``intrinsic`` reads the extrinsic and intrinsic quantities
from them, with the oriented unit normal N of ``_unit_normal``.

Orientation convention: N is the G-unit normal (G = diag(D), the ambient
metric) with det([E_1 .. E_n, N]) > 0, which extends continuously from
the chart center, times the sign that makes theta > 0 at the center (if
|theta| < 1e-10, the first nonzero entry of N).  No immersion stores that
sign: every geometry pass evaluates the center at the head of its batch
and takes the sign from it (``intrinsic.grid_geometry``).

g is factored once per point by a Cholesky loop over its columns, each
step vectorized over the points (``_factor``): the pivots give det g and
F = L^-T gives g^-1 = F F^T; N is E's cofactor vector raised by G.

The pipeline runs on batches: ``point_jets`` takes an (N, n) array of
chart points and returns a record whose fields carry a trailing point
axis, each elementary operation running once over all points and each
contraction an ``np.einsum`` over the leading axes (``contract``).
An :class:`Immersion` compiles its components into one tape and evaluates nothing.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

# what np.einsum runs when it does not optimize: called directly, a contraction skips its Python dispatch
from numpy._core.multiarray import c_einsum

from .ambient import AmbientPoint, WarpedProduct
from .errors import MAX_GRID_POINTS, DegenerateImmersion, DomainError, OutsideChart
from .expr import unparse, variables_in
from .jets import Jet2, Tape, as_expression, flag, one_pass

GRAM_DET_LIMIT = 1e-12
BOUNDARY_MARGIN = 1e-6
# Largest batch evaluated at once.  The working memory of one evaluation
# grows with n (measured at order 2: about 1.3 KB per point for n = 3 and
# 14 KB for n = 8; 3.5 and 88 KB at order 3), so longer batches run in
# consecutive slices; results do not depend on the slicing.
SLICE_POINTS = 2048


class ChartBox(namedtuple("ChartBox", "names lower upper")):
    """Open box domain with named coordinates; the bounds are checked at construction."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, names, lower, upper):
        if not (len(names) == len(lower) == len(upper)):
            raise ValueError("chart names and bounds must have equal length")
        for name, lo, hi in zip(names, lower, upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"chart range for {name!r} must be finite: ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"empty chart range for {name!r}: ({lo}, {hi})")
            if math.isinf(hi - lo):
                raise ValueError(f"width of chart range for {name!r} overflows a float: ({lo}, {hi})")
        return super().__new__(cls, names, lower, upper)

    @property
    def dim(self):
        return len(self.names)

    def center(self):
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.lower, self.upper))

    def contains(self, p, margin=BOUNDARY_MARGIN):
        """Whether chart point ``p``, or each row of an (N, n) array,
        lies in the box at least ``margin`` away from its faces."""
        p = np.asarray(p, dtype=float)
        inside = True
        for j, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            inside = inside & (lo + margin <= p[..., j]) & (p[..., j] <= hi - margin)
        return inside

    def axis_points(self, name, count, margin=0.05):
        i = self.names.index(name)
        lo, hi = self.lower[i], self.upper[i]
        pad = margin * (hi - lo)
        return np.linspace(lo + pad, hi - pad, count)

    def grid(self, counts, margins=None):
        """Interior grid as an (N, n) float array of chart points (row-major).

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
        if not isinstance(margins, dict):
            margins = dict.fromkeys(self.names, 0.05 if margins is None else float(margins))
        points = np.empty(sizes + [self.dim])
        for i, name in enumerate(self.names):  # axis i broadcast along axis i of the block
            axis = self.axis_points(name, sizes[i], margins.get(name, 0.05))
            points[..., i] = axis.reshape([-1] + [1] * (self.dim - 1 - i))
        return points.reshape(total, self.dim)


class Immersion:
    """A hypersurface immersion of a chart box into a warped product.

    ``components`` gives the n+1 ambient coordinates (t, x1, ..., xn) as expressions
    in the chart variables (text, numbers or ASTs, held as :class:`Expression`).
    Construction checks their number and variables and compiles them into ``tape``
    (:class:`~warpgeo.jets.Tape`), on which a subtree they share, such as a ``Profile``
    node, is one op; it evaluates nothing, and the object is not modified afterwards.
    ``probes`` holds the chart center and the 3^n points of ``chart.grid(3, margins=0.1)``,
    which every geometry pass evaluates and checks ahead of its own points
    (``intrinsic.grid_geometry``).
    """

    def __init__(self, ambient, chart, components):
        if not isinstance(ambient, WarpedProduct):
            raise TypeError("ambient must be a WarpedProduct")
        self.ambient, self.chart = ambient, chart
        self.components = tuple(map(as_expression, components))
        if len(self.components) != ambient.dim:
            raise ValueError(f"expected {ambient.dim} components, got {len(self.components)}")
        if chart.dim != ambient.n:
            raise ValueError(f"chart dimension {chart.dim} must equal hypersurface dimension {ambient.n}")
        self.tape = Tape(self.components, chart.names)
        if not set(self.tape.variables) <= set(chart.names):  # name the first component at fault
            for expr in self.components:
                extra = sorted(variables_in(expr) - set(chart.names))
                if extra:
                    raise ValueError(f"component {unparse(expr)!r} uses undeclared variables {extra}")
        self.probes = np.concatenate([[chart.center()], chart.grid(3, margins=0.1)])
        self.probes.flags.writeable = False

    @property
    def n(self):
        return self.ambient.n

    def bindings(self, p):
        return dict(zip(self.chart.names, map(float, p)))

    def component_jets(self, points, order=2):
        """Jets of ``order`` 2 or 3 of the ambient coordinates over (N, n) chart points, one jet with a
        leading component axis, in one pass: the first flagged point raises the error of its first check."""
        return Jet2(*self._slots(points, order))

    def ambient_coordinates(self, points):
        """Images (t, x1, ..., xn) of an (N, n) array of chart points, shape (N, n+1)."""
        return self._slots(points, 0)[0].T

    def _slots(self, points, order):
        """The tape's slots up to ``order`` with each chart variable bound to its column of ``points``."""
        columns = np.ascontiguousarray(np.reshape(points, (-1, self.n)).T, dtype=float)  # a row per variable
        return self.tape.slots(dict(zip(self.chart.names, columns)), order)


class PointJets(NamedTuple):
    """Jets of psi and of the ambient metric at N interior chart points.

    Every field carries a trailing point axis.  ``chart`` (n, N) holds the
    points and ``ambient_point`` their images; ``frame[a, i]`` (d, n, N)
    is d psi^a / d u^i, ``second`` (d, n, n, N) and ``third`` (d, n, n, n,
    N; order 3, else None) the higher chart derivatives; ``D`` (d, N),
    ``dD`` (d, K, N: the K = ``WarpedProduct.columns`` that can be nonzero, none in
    Euclidean space) and ``warping`` = (f, f', f'')
    come from the one jet of f of ``WarpedProduct.metric_jets``; ``metric`` (n, n, N) is
    g = E^T diag(D) E and ``factor`` F = L^-T of ``_factor``, so that
    g^-1 = F F^T.  The frame, second and third arrays are the slots of
    ``Immersion.component_jets`` themselves, not copies.
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
    third: np.ndarray | None = None


def contract(spec, *operands):
    """``np.einsum(spec, *operands)`` over a trailing point axis.  numpy sums a lone
    point's terms in another order than a wider batch's, so it is contracted twice over."""
    if operands[0].shape[-1] != 1:
        return c_einsum(spec, *operands)
    return c_einsum(spec, *(np.concatenate([x, x], axis=-1) for x in operands))[..., :1]


def point_jets(imm, points, order=2):
    """Component jets of ``order`` and metric jets over (N, n) chart points, in one pass.

    Each check flags the points that fail it (:func:`warpgeo.jets.flag`): a
    point outside the box, an ambient point, frame, second derivative or
    metric entry D that is not finite (a DomainError) and a degenerate
    frame.  The call is one :func:`warpgeo.jets.one_pass` (joining an open one, as
    ``grid_geometry``'s), so its first flagged point raises its first check's error.
    """
    with one_pass():
        points = np.asarray(points, dtype=float).reshape(-1, imm.n)
        flag(~imm.chart.contains(points), lambda i: OutsideChart(
            f"chart point {tuple(map(float, points[i]))!r} is outside the open box (margin 1e-6)"))
        value, E, second, third = imm.component_jets(points, order)  # (d, N), (d, n, N), (d, n, n, N)
        q = AmbientPoint(value[0], tuple(value[1:]))
        D, dD, warping = imm.ambient.metric_jets(q)
        image = np.isfinite(value).all(axis=0)
        finite = (image & np.isfinite(E).all(axis=(0, 1)) & np.isfinite(second).all(axis=(0, 1, 2))
                  & np.isfinite(D).all(axis=0))
        flag(~finite, lambda i: DomainError("tangent frame, second derivatives or metric not finite" if image[i]
                                            else f"ambient point {tuple(map(float, value[:, i]))!r} not finite"))
        g = contract("aip,ajp->ijp", E, D[:, None] * E)
        pivots, F = _factor(g)  # a non-finite g gives NaN pivots and fails later checks
        flag((pivots <= 0.0).any(axis=0) | (pivots.prod(axis=0) <= GRAM_DET_LIMIT), lambda i: DegenerateImmersion(
            f"tangent frame is degenerate at chart point {tuple(map(float, points[i]))!r}"))
        return PointJets(points.T, q, E, second, D, dD, warping, g, F, third)


def _factor(g):
    """The pivots p_j = L_jj^2 (det g = prod p) and F = L^-T of g = L L^T, by
    Cholesky and forward substitution over columns (L's diagonal is not read)."""
    L, F, pivots = np.zeros(g.shape), np.zeros(g.shape), np.empty(g.shape[1:])
    for j in range(len(g)):  # column 0 has no column before it to contract with
        col = g[j:, j] - contract("ikp,kp->ip", L[j:, :j], L[j, :j]) if j else g[:, 0]
        pivots[j] = col[0]
        L[j:, j] = col / (root := np.sqrt(col[:1]))
        if j:
            F[:j, j] = -contract("ikp,kp->ip", F[:j, :j], L[j, :j]) / root
        F[j, j] = 1.0 / root[0]
    return pivots, F


def _unit_normal(E, D):
    """The G-unit normal N of frames E with det([E | N]) > 0.  The cofactors C_a of
    det([E | v]) = sum_a v_a C_a satisfy E^T C = 0, so N = D^-1 C / sqrt(C^T D^-1 C)
    and det([E | N]) = sqrt(C^T D^-1 C) > 0.  E's columns are first scaled to a
    largest entry of 1: C scales by a positive factor, and its minors cannot overflow."""
    E = E / np.abs(E).max(axis=0)
    rows, d = list(E), len(E)  # row views; C_a is the det of the rows other than a
    C = np.array([_det(rows[:a] + rows[a + 1 :]) for a in range(d)]) * (-1.0) ** (np.arange(d)[:, None] + d - 1)
    N = C / D
    return N / np.sqrt(contract("ap,ap->p", N, C))


def _det(M):
    """det of each n x n matrix M[i][j] (an array or a list of rows): cofactors for n = 2, 3, else LAPACK."""
    if len(M) == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if len(M) != 3:
        return np.linalg.det(np.moveaxis(np.stack(M), (0, 1), (-2, -1)))
    a, b, c = M
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def metric_derivative(pj, P):
    """dg[k, i, j] = d g_ij / d u^k of the induced metric, exact, from the order-2
    jets of psi and P = dD E (P^a_k = d D_a / d u^k, (d, n, N); None where dD has no column):
    with T[k, i, j] = <d_i d_k psi, E_j>, dg = T + T^T + sum_a P^a_k E^a_i E^a_j."""
    T = contract("aikp,ajp->kijp", pj.second, pj.D[:, None] * pj.frame)
    dg = T + np.swapaxes(T, 1, 2)
    if P is not None:
        dg += contract("aip,ajp,akp->kijp", pj.frame, pj.frame, P)
    return dg
