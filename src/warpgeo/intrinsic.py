"""Intrinsic curvature of immersed hypersurfaces: the geometry record.

``grid_geometry`` computes, from one jet evaluation over a batch of
chart points, everything the checks read at each point, as one record
of arrays with a leading point axis; ``point_geometry`` is its N = 1
view.  The scalar curvature comes by two independent routes: the Gauss
equation (ambient curvature plus quadratic shape-operator terms, traced
over an orthonormal frame) and the closed warped-product formula for a
constant-curvature fiber.  A finite-difference oracle over the sampled
induced metric is test-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooClose
from .hypersurface import (
    ShapeData,
    evaluate_points,
    induced_christoffels_from_jets,
    orthonormal_frame,
    point_jets,
    point_view,
    shape_data,
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


def _ambient_ricci(ambient, sd, G, warping, X):
    """Sum_a R(X, F_a) F_a over a g-orthonormal tangent frame F_a.

    ``X`` holds p ambient vectors per point, shape (..., p, d); so does
    the result.
    """
    Fa = np.swapaxes(sd.frame @ orthonormal_frame(sd.metric), -1, -2)[..., None, :, :]
    R = ambient.curvature_from(
        G[..., None, None, :, :],
        tuple(np.asarray(w)[..., None, None] for w in warping),
        X[..., :, None, :],
        Fa,
        Fa,
    )
    return R.sum(axis=-2)


def _hessian_direct(pj):
    """Hess h = d^2 h - Gamma(dh) through the induced Christoffel symbols."""
    gamma = induced_christoffels_from_jets(pj)
    return pj.second[..., 0, :, :] - np.einsum("...kij,...k->...ij", gamma, pj.frame[..., 0, :])


def _trace_solve(g, B):
    """trace(g^{-1} B) per point."""
    return np.trace(np.linalg.solve(g, B), axis1=-2, axis2=-1)


def laplacian_height(imm, points):
    """Lap h over an (N, n) array of chart points, from the jets alone."""

    def laplacian(pts):
        pj = point_jets(imm, pts)
        return _trace_solve(pj.metric, _hessian_direct(pj))

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
    warping = imm.ambient.warping_jet(sd.height)
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
    lap = _trace_solve(g, hess_direct)
    trace_free = hess_direct - (lap / n)[..., None, None] * g
    # generalized eigenvalues of (trace_free, g) through g = L L^T
    F = orthonormal_frame(g)
    eigs = np.linalg.eigvalsh(np.swapaxes(F, -1, -2) @ trace_free @ F)

    V = _ambient_ricci(imm.ambient, sd, pj.G, warping, np.swapaxes(sd.frame, -1, -2))
    S = V @ pj.G @ sd.frame
    S = np.triu(S) + np.swapaxes(np.triu(S, 1), -1, -2)  # symmetric from the upper half
    ric = S + (n * H)[..., None, None] * II - np.swapaxes(A, -1, -2) @ g @ A
    scal_gauss = _trace_solve(g, ric)

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


def ricci_gradh_extrinsic(imm, p):
    """Ric(grad h, grad h) evaluated directly in extrinsic terms.

    Independent code path from :func:`grid_geometry` (no Ricci
    matrix is assembled); the two must agree.
    """
    sd = shape_data(imm, p)
    n = sd.n
    g = sd.metric
    A = sd.shape_operator
    gh = sd.grad_h
    Agh = A @ gh
    G = imm.ambient.metric(sd.ambient_point)
    warping = imm.ambient.warping_jet(sd.height)
    X = sd.frame @ gh
    ambient_sum = _ambient_ricci(imm.ambient, sd, G, warping, X[None, :])[0] @ G @ X
    return float(
        ambient_sum
        + n * sd.mean_curvature * (Agh @ g @ gh)
        - (Agh @ g @ Agh)
    )


def scalar_fd_oracle(imm, p, step=1e-3):
    """Scalar curvature from finite differences of the induced metric.

    Test-only oracle: samples g on a local 5-point stencil, assembles
    Christoffel symbols, their derivatives and the curvature contraction
    with no use of the ambient curvature or the shape operator.
    Accuracy is O(step^2); the documented contract is 1e-3.
    """
    p = tuple(map(float, p))
    n = imm.n
    for v, lo, hi in zip(p, imm.chart.lower, imm.chart.upper):
        if v - lo < 3.0 * step or hi - v < 3.0 * step:
            raise BoundaryTooClose(
                f"point {p!r} is within 3*step of the chart boundary"
            )

    def shifted(k, amount, base=p):
        out = list(base)
        out[k] += amount
        return tuple(out)

    # g on the whole stencil from one batch: the center, the four axial
    # shifts of every axis, then four diagonal shifts per pair of axes
    pairs = [(c, k) for c in range(n) for k in range(c + 1, n)]
    stencil = [p]
    for amount in (step, -step, 2 * step, -2 * step):
        stencil += [shifted(k, amount) for k in range(n)]
    for c, k in pairs:
        for a, b in ((step, step), (step, -step), (-step, step), (-step, -step)):
            stencil.append(shifted(k, b, shifted(c, a)))
    samples = iter(point_jets(imm, stencil).metric)
    g0 = next(samples)
    plus1, minus1, plus2, minus2 = ([next(samples) for _ in range(n)] for _ in range(4))

    dg = np.zeros((n, n, n))
    d2g = np.zeros((n, n, n, n))  # d2g[c, k, i, j] = d_c d_k g_ij
    for k in range(n):
        dg[k] = (-plus2[k] + 8.0 * plus1[k] - 8.0 * minus1[k] + minus2[k]) / (12.0 * step)
        d2g[k, k] = (
            -plus2[k] + 16.0 * plus1[k] - 30.0 * g0 + 16.0 * minus1[k] - minus2[k]
        ) / (12.0 * step * step)
    for c, k in pairs:
        gpp, gpm, gmp, gmm = (next(samples) for _ in range(4))
        mixed = (gpp - gpm - gmp + gmm) / (4.0 * step * step)
        d2g[c, k] = mixed
        d2g[k, c] = mixed

    ginv = np.linalg.inv(g0)
    B = np.einsum("ilj->lij", dg) + np.einsum("jil->lij", dg) - dg
    Gamma = 0.5 * np.einsum("kl,lij->kij", ginv, B)
    dginv = -np.einsum("km,cmn,nl->ckl", ginv, dg, ginv)
    dB = (
        np.einsum("cilj->clij", d2g)
        + np.einsum("cjil->clij", d2g)
        - np.einsum("clij->clij", d2g)
    )
    dGamma = 0.5 * (
        np.einsum("ckl,lij->ckij", dginv, B) + np.einsum("kl,clij->ckij", ginv, dB)
    )
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #            + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    riem = (
        np.einsum("cadb->abcd", dGamma)
        - np.einsum("dacb->abcd", dGamma)
        + np.einsum("ace,edb->abcd", Gamma, Gamma)
        - np.einsum("ade,ecb->abcd", Gamma, Gamma)
    )
    ric = np.einsum("abad->bd", riem)
    return float(np.einsum("bd,bd->", ginv, ric))
