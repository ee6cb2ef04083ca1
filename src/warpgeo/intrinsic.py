"""Intrinsic curvature of immersed hypersurfaces: the geometry record.

``grid_geometry`` computes, from one jet evaluation over a batch of
chart points, everything the checks read at each point, as one record
of arrays with a leading point axis; ``point_geometry`` is its N = 1
view.  The scalar curvature comes by two independent routes: the Gauss
equation (ambient curvature plus quadratic shape-operator terms, traced
over an orthonormal frame) and the closed warped-product formula for a
constant-curvature fiber.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypersurface import (
    ShapeData,
    evaluate_points,
    induced_christoffels_from_jets,
    point_jets,
    point_view,
    shape_from_jets,
)


@dataclass(frozen=True)
class PointGeometry:
    """Geometry of the immersion at N chart points.

    Every field carries a leading point axis; ``at(i)`` is the record at
    one point, with that axis dropped.  ``warping`` is (f, f', f'') at
    the height.  ``hess_identity`` is Hess h by the warped-product
    identity and ``hess_direct`` by the induced Christoffel symbols.
    ``lam`` = scal - (Lap h)/n is the trace-derived soliton function and
    ``residual`` the g-operator norm of the trace-free part of Hess h.
    ``traceless_norm2`` is |Phi|^2 and ``ric_gradh`` is Ric(grad h, grad h).
    """

    shape: ShapeData
    warping: tuple
    hess_identity: np.ndarray
    hess_direct: np.ndarray
    ric: np.ndarray
    ric_gradh: np.ndarray
    scal_gauss: np.ndarray
    scal_formula: np.ndarray
    traceless_norm2: np.ndarray
    lam: np.ndarray
    residual: np.ndarray

    @property
    def points(self):
        """The chart points as a tuple of tuples."""
        return tuple(map(tuple, self.shape.chart.tolist()))

    def chart_point(self, i):
        """Chart point ``i`` as a tuple of floats (None for ``i`` None)."""
        return None if i is None else tuple(map(float, self.shape.chart[i]))

    def at(self, i):
        return point_view(self, i)


def _ambient_ricci(ambient, D, warping, X, frame):
    """Sum_a R(X, F_a) F_a over a g-orthonormal tangent frame, whose
    vectors F_a are the columns of ``frame`` (..., d, n).

    ``X`` holds p ambient vectors per point, shape (..., p, d); so does
    the result.
    """
    Fa = np.swapaxes(frame, -1, -2)[..., None, :, :]
    R = ambient.curvature_from(
        D[..., None, None, :],
        tuple(np.asarray(w)[..., None, None] for w in warping),
        X[..., :, None, :],
        Fa,
        Fa,
    )
    return R.sum(axis=-2)


def _hessian_direct(pj):
    """Hess h = d^2 h - Gamma(dh) through the induced Christoffel symbols."""
    gamma = induced_christoffels_from_jets(pj)
    return pj.second[..., 0, :, :] - np.sum(gamma * pj.frame[..., 0, :, None, None], axis=-3)


def _g_trace(ginv, B):
    """trace(g^-1 B) per point."""
    return np.sum(ginv * np.swapaxes(B, -1, -2), axis=(-2, -1))


def laplacian_height(imm, points):
    """Lap h over an (N, n) array of chart points, from the jets alone."""

    def laplacian(pts):
        pj = point_jets(imm, pts)
        return _g_trace(pj.metric_inverse, _hessian_direct(pj))

    return evaluate_points(imm, laplacian, points)


def grid_geometry(imm, points):
    """Build the :class:`PointGeometry` record over (N, n) chart points.

    The Ricci tensor (chart frame, lowered indices) is

        Ric(X, Y) = sum_a <R(X, F_a) F_a, Y> + n H g(AX, Y) - g(AX, AY)

    and ``scal_formula`` evaluates

        scal = (k / f(h)^2) (n-1) (n - 2 |grad h|^2)
             + n [(log f)'(h)]^2 (|grad h|^2 - (n-1))
             - (n-2) (log f)''(h) |grad h|^2
             - n (f''/f)(h) |grad h|^2
             + n^2 H^2 - |A|^2.

    A failure is the one of the first point, in the order given, whose
    own evaluation fails (see ``evaluate_points``).
    """
    return evaluate_points(imm, lambda pts: _geometry(imm, pts), points)


def _geometry(imm, points):
    pj = point_jets(imm, points)
    sd = shape_from_jets(imm, pj)
    warping = pj.warping
    n = sd.n
    g = sd.metric
    A = sd.shape_operator
    II = sd.second_fundamental
    H = sd.mean_curvature
    f0, f1, f2 = warping

    dh = sd.frame[..., 0, :]
    dh_dh = dh[..., :, None] * dh[..., None, :]
    hess_identity = (f1 / f0)[..., None, None] * (g - dh_dh) + sd.theta[..., None, None] * II
    hess_direct = _hessian_direct(pj)
    lap = _g_trace(pj.metric_inverse, hess_direct)
    trace_free = hess_direct - (lap / n)[..., None, None] * g
    # generalized eigenvalues of (trace_free, g) through g = L L^T, F = L^-T
    F = pj.factor
    eigs = np.linalg.eigvalsh(np.swapaxes(F, -1, -2) @ trace_free @ F)

    E = sd.frame
    V = _ambient_ricci(imm.ambient, pj.D, warping, np.swapaxes(E, -1, -2), E @ F)
    S = (V * pj.D[..., None, :]) @ E
    S = np.triu(S) + np.swapaxes(np.triu(S, 1), -1, -2)  # symmetric from the upper half
    ric = S + (n * H)[..., None, None] * II - np.swapaxes(A, -1, -2) @ g @ A
    scal_gauss = _g_trace(pj.metric_inverse, ric)

    lf1 = f1 / f0
    lf2 = f2 / f0 - lf1 * lf1
    W = sd.grad_h_norm2
    A_norm2 = np.trace(A @ A, axis1=-2, axis2=-1)
    k = imm.ambient.k
    scal_formula = (
        (k / (f0 * f0)) * (n - 1) * (n - 2.0 * W)
        + n * lf1 * lf1 * (W - (n - 1))
        - (n - 2) * lf2 * W
        - n * (f2 / f0) * W
        + n * n * H * H
        - A_norm2
    )

    return PointGeometry(
        shape=sd,
        warping=warping,
        hess_identity=hess_identity,
        hess_direct=hess_direct,
        ric=ric,
        ric_gradh=(sd.grad_h[..., None, :] @ ric @ sd.grad_h[..., :, None])[..., 0, 0],
        scal_gauss=scal_gauss,
        scal_formula=scal_formula,
        traceless_norm2=A_norm2 - n * H * H,
        lam=scal_gauss - lap / n,
        residual=np.max(np.abs(eigs), axis=-1),
    )


def point_geometry(imm, p):
    """The :class:`PointGeometry` record at one interior chart point."""
    return grid_geometry(imm, [p]).at(0)


def curvature_package(imm, p):
    """Ricci and scalar curvature at a chart point (a :class:`PointGeometry`)."""
    return point_geometry(imm, p)
