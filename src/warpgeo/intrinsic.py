"""Intrinsic curvature of immersed hypersurfaces: the per-point record.

``point_geometry`` computes, from one jet evaluation, everything the
checks read at a chart point.  The scalar curvature comes by two
independent routes: the Gauss equation (ambient curvature plus quadratic
shape-operator terms, traced over an orthonormal frame) and the closed
warped-product formula for a constant-curvature fiber.  A
finite-difference oracle over the sampled induced metric is test-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BoundaryTooClose
from .hypersurface import (
    ShapeData,
    induced_christoffels_from_jets,
    located,
    orthonormal_frame,
    point_jets,
    shape_data,
    shape_from_jets,
)


@dataclass(frozen=True)
class PointGeometry:
    """Geometry of the immersion at one chart point.

    ``warping`` is (f, f', f'') at the height.  ``hess_identity`` is
    Hess h by the warped-product identity and ``hess_direct`` by the
    induced Christoffel symbols.  ``lam`` = scal - (Lap h)/n is the
    trace-derived soliton function and ``residual`` the g-operator norm
    of the trace-free part of Hess h.  ``traceless_norm2`` is |Phi|^2 and
    ``ric_gradh`` is Ric(grad h, grad h).
    """

    shape: ShapeData
    warping: tuple
    hess_identity: np.ndarray
    hess_direct: np.ndarray
    ric: np.ndarray
    ric_gradh: float
    scal_gauss: float
    scal_formula: float
    traceless_norm2: float
    lam: float
    residual: float

    @property
    def point(self):
        return self.shape.point


def _ambient_ricci_sum(ambient, sd, G, warping, X_chart, Y_chart):
    """Sum_a <R(X, F_a) F_a, Y> over a g-orthonormal tangent frame."""
    F = orthonormal_frame(sd.metric)
    Fa = sd.frame @ F
    Xa = sd.frame @ X_chart
    Ya = sd.frame @ Y_chart
    return sum(
        float(ambient.curvature_from(G, warping, Xa, Fa[:, a], Fa[:, a]) @ G @ Ya)
        for a in range(Fa.shape[1])
    )


def _hessian_direct(pj):
    """Hess h = d^2 h - Gamma(dh) through the induced Christoffel symbols."""
    gamma = induced_christoffels_from_jets(pj)
    return pj.second[0] - np.einsum("kij,k->ij", gamma, pj.frame[0])


def laplacian_height(imm, p):
    """Lap h at a chart point from the jets alone (no extrinsic package)."""
    with located(imm, p):
        pj = point_jets(imm, p)
        return float(np.trace(np.linalg.solve(pj.metric, _hessian_direct(pj))))


def point_geometry(imm, p):
    """Build the :class:`PointGeometry` record at an interior chart point.

    The Ricci tensor (chart frame, lowered indices) is

        Ric(X, Y) = sum_a <R(X, F_a) F_a, Y> + n H g(AX, Y) - g(AX, AY)

    and ``scal_formula`` evaluates

        scal = (k / f(h)^2) (n-1) (n - 2 |grad h|^2)
             + n [(log f)'(h)]^2 (|grad h|^2 - (n-1))
             - (n-2) (log f)''(h) |grad h|^2
             - n (f''/f)(h) |grad h|^2
             + n^2 H^2 - |A|^2.
    """
    with located(imm, p):
        pj = point_jets(imm, p)
        sd = shape_from_jets(imm, pj)
        warping = imm.ambient.warping_jet(sd.height)
    n = sd.n
    g = sd.metric
    A = sd.shape_operator
    II = sd.second_fundamental
    H = sd.mean_curvature
    f0, f1, f2 = warping

    dh = sd.frame[0, :]
    hess_identity = (f1 / f0) * (g - np.outer(dh, dh)) + sd.theta * II
    hess_direct = _hessian_direct(pj)
    lap = float(np.trace(np.linalg.solve(g, hess_direct)))
    trace_free = hess_direct - (lap / n) * g
    eigs = scipy.linalg.eigh(trace_free, g, eigvals_only=True)

    basis = np.eye(n)
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            S[i, j] = _ambient_ricci_sum(
                imm.ambient, sd, pj.G, warping, basis[:, i], basis[:, j]
            )
            S[j, i] = S[i, j]
    ric = S + n * H * II - A.T @ g @ A
    scal_gauss = float(np.trace(np.linalg.solve(g, ric)))

    lf1 = f1 / f0
    lf2 = f2 / f0 - lf1 * lf1
    W = sd.grad_h_norm2
    A_norm2 = float(np.trace(A @ A))
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
        ric_gradh=float(sd.grad_h @ ric @ sd.grad_h),
        scal_gauss=scal_gauss,
        scal_formula=float(scal_formula),
        traceless_norm2=A_norm2 - n * H * H,
        lam=scal_gauss - lap / n,
        residual=float(np.max(np.abs(eigs))),
    )


def curvature_package(imm, p):
    """Ricci and scalar curvature at a chart point (a :class:`PointGeometry`)."""
    return point_geometry(imm, p)


def ricci_gradh_extrinsic(imm, p):
    """Ric(grad h, grad h) evaluated directly in extrinsic terms.

    Independent code path from :func:`point_geometry` (no Ricci
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
    ambient_sum = _ambient_ricci_sum(imm.ambient, sd, G, warping, gh, gh)
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

    def sample(point):
        return point_jets(imm, point).metric

    def shifted(k, amount, base=p):
        out = list(base)
        out[k] += amount
        return tuple(out)

    g0 = sample(p)
    plus1 = [sample(shifted(k, step)) for k in range(n)]
    minus1 = [sample(shifted(k, -step)) for k in range(n)]
    plus2 = [sample(shifted(k, 2 * step)) for k in range(n)]
    minus2 = [sample(shifted(k, -2 * step)) for k in range(n)]

    dg = np.zeros((n, n, n))
    d2g = np.zeros((n, n, n, n))  # d2g[c, k, i, j] = d_c d_k g_ij
    for k in range(n):
        dg[k] = (-plus2[k] + 8.0 * plus1[k] - 8.0 * minus1[k] + minus2[k]) / (12.0 * step)
        d2g[k, k] = (
            -plus2[k] + 16.0 * plus1[k] - 30.0 * g0 + 16.0 * minus1[k] - minus2[k]
        ) / (12.0 * step * step)
    for c in range(n):
        for k in range(c + 1, n):
            gpp = sample(shifted(k, step, shifted(c, step)))
            gpm = sample(shifted(k, -step, shifted(c, step)))
            gmp = sample(shifted(k, step, shifted(c, -step)))
            gmm = sample(shifted(k, -step, shifted(c, -step)))
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
