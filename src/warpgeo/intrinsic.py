"""Intrinsic curvature of immersed hypersurfaces: the geometry record.

``grid_geometry`` computes, from one jet evaluation over a batch of
chart points, everything the checks read at each point, as one record
of arrays with a leading point axis; ``record.at(i)`` is the view of
point i.  No curvature or Christoffel tensor is built per point.  The
ambient Ricci tensor is diagonal in the warped chart, Ric-bar_aa =
D_a rho_a with rho_0 = -n f''/f and rho_a = (n-1)(k - f'^2)/f^2 - f''/f
(a >= 1), so the ambient part of the Gauss equation takes one curvature
evaluation R-bar(E_i, N)N per tangent vector.  Hess h contracts the
induced connection with grad h: Gamma^k_ij d_k h = (grad h)^l B_lij / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hypersurface import (
    ShapeData,
    evaluate_points,
    metric_derivative,
    point_jets,
    point_view,
    shape_from_jets,
)
from .jets import first_index


@dataclass(frozen=True)
class PointGeometry:
    """Geometry of the immersion at N chart points.

    Every field carries a leading point axis; ``at(i)`` is the record at
    one point, with that axis dropped.  ``warping`` is (f, f', f'') at
    the height.  ``hess_identity`` is Hess h by the warped-product
    identity and ``hess_direct`` by the induced connection.  ``ric`` is
    the Ricci tensor in the chart frame and ``scal_gauss`` its g-trace.
    ``lam`` = scal - (Lap h)/n is the trace-derived soliton function and
    ``residual`` the g-operator norm of the trace-free part of Hess h.
    ``lap_gradient`` is d_m Lap h, in a record of order 3 only (else None).
    """

    shape: ShapeData
    warping: tuple
    hess_identity: np.ndarray
    hess_direct: np.ndarray
    ric: np.ndarray
    scal_gauss: np.ndarray
    lam: np.ndarray
    residual: np.ndarray
    lap_gradient: np.ndarray | None = None

    @property
    def points(self):
        """The chart points as a tuple of tuples."""
        return tuple(map(tuple, self.shape.chart.tolist()))

    def chart_point(self, i):
        """Chart point ``i`` as a tuple of floats (None for ``i`` None)."""
        return None if i is None else tuple(map(float, self.shape.chart[i]))

    def at(self, i):
        return point_view(self, i)


def _ambient_ricci(ambient, pj, N):
    """Ric-bar(E_i, E_j) - <R-bar(E_i, N)N, E_j> in the chart frame."""
    D, E = pj.D, pj.frame
    f0, f1, f2 = (w[..., None] for w in pj.warping)
    n, first = ambient.n, np.arange(D.shape[-1]) == 0
    rho = np.where(first, -n * f2 / f0, (n - 1) * (ambient.k - f1 * f1) / (f0 * f0) - f2 / f0)
    Et = np.swapaxes(E, -1, -2)
    N = N[..., None, :]
    RN = ambient.curvature_from(D[..., None, :], (f0, f1, f2), Et, N, N)  # rows R-bar(E_i, N)N
    S = Et @ ((D * rho)[..., :, None] * E) - (RN * D[..., None, :]) @ E
    return np.triu(S) + np.swapaxes(np.triu(S, 1), -1, -2)  # symmetric from the upper half


def _hessian_direct(pj, dg):
    """Hess h = d^2 h - Gamma^k_ij d_k h, the connection term as (grad h)^l B_lij / 2
    with B_lij = d_i g_lj + d_j g_il - d_l g_ij."""
    B = np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg
    shape = B.shape
    grad_h = np.swapaxes(pj.metric_inverse @ pj.frame[..., 0, :, None], -1, -2)
    conn = (grad_h @ B.reshape(shape[:-3] + (shape[-3], -1))).reshape(shape[:-3] + shape[-2:])
    return pj.second[..., 0, :, :] - 0.5 * conn


def _g_trace(ginv, B):
    """trace(g^-1 B) per point."""
    return np.sum(ginv * np.swapaxes(B, -1, -2), axis=(-2, -1))


def grid_geometry(imm, points, order=2):
    """Build the :class:`PointGeometry` record over (N, n) chart points.

    The Ricci tensor (chart frame, lowered indices) is, by the Gauss
    equation,

        Ric(X, Y) = Ric-bar(X, Y) - <R-bar(X, N)N, Y> + n H g(AX, Y) - g(AX, AY).

    At ``order`` 3 the component jets carry third derivatives and the
    record ``lap_gradient``; every other field is the one of order 2, to
    the bit.  A failure is the one of the first point, in the order
    given, whose own evaluation fails (see ``evaluate_points``); a point
    whose soliton residual or lambda is not finite is a DomainError.
    """
    return evaluate_points(imm, lambda pts: _geometry(imm, pts, order), points)


def _geometry(imm, points, order):
    pj = point_jets(imm, points, order)
    sd = shape_from_jets(imm, pj)
    warping = pj.warping
    n = sd.n
    g = sd.metric
    A = sd.shape_operator
    II = sd.second_fundamental
    H = sd.mean_curvature
    f0, f1, _ = warping

    dh = sd.frame[..., 0, :]
    dh_dh = dh[..., :, None] * dh[..., None, :]
    hess_identity = (f1 / f0)[..., None, None] * (g - dh_dh) + sd.theta[..., None, None] * II
    dg = metric_derivative(pj)
    hess_direct = _hessian_direct(pj, dg)
    lap = _g_trace(pj.metric_inverse, hess_direct)
    trace_free = hess_direct - (lap / n)[..., None, None] * g
    # generalized eigenvalues of (trace_free, g) through g = L L^T, F = L^-T
    F = pj.factor
    eigs = np.linalg.eigvalsh(np.swapaxes(F, -1, -2) @ trace_free @ F)

    S = _ambient_ricci(imm.ambient, pj, sd.normal)
    ric = S + (n * H)[..., None, None] * II - np.swapaxes(A, -1, -2) @ g @ A
    scal_gauss = _g_trace(pj.metric_inverse, ric)
    lam = scal_gauss - lap / n
    residual = np.max(np.abs(eigs), axis=-1)
    bad = first_index(~(np.isfinite(residual) & np.isfinite(lam)))
    if bad is not None:
        raise DomainError("soliton residual or lambda not finite", index=bad)

    return PointGeometry(
        shape=sd,
        warping=warping,
        hess_identity=hess_identity,
        hess_direct=hess_direct,
        ric=ric,
        scal_gauss=scal_gauss,
        lam=lam,
        residual=residual,
        lap_gradient=None if order == 2 else _laplacian_gradient(imm.ambient, pj, dg, sd.grad_h),
    )


def _laplacian_gradient(ambient, pj, dg, grad_h):
    """d_m Lap h, exact, from the order-3 jets ``pj``: with F = E g^-1, e = E grad h,
    P = dD E, p = P grad h and per ambient index a sigma_a = <g^-1, d2 psi^a>,
    phi_a = F_a . P_a, psi_a = F_a . E_a, Lap h = sigma_0 - sum_a (D_a e_a sigma_a
    + e_a phi_a - p_a psi_a / 2), whose product rule is a sum of contractions of
    d3 psi, d2 psi, d2D, dD, d2h and d_m g^-1 = -g^-1 d_m g g^-1."""
    E, S, T, D, G = pj.frame, pj.second, pj.third, pj.D, pj.metric_inverse
    N, d, n = E.shape
    d2D = ambient.diagonal_jets(pj.ambient_point.x, pj.warping, second=True)[2]
    P, Et, Sf = pj.dD @ E, np.swapaxes(E, -1, -2), S.reshape(N, d, -1)
    F, PG = E @ G, P @ G
    e, p = (E @ grad_h[..., None])[..., 0], (P @ grad_h[..., None])[..., 0]
    sigma = (Sf @ G.reshape(N, -1, 1))[..., 0]
    phi, psi = np.sum(F * P, axis=-1), np.sum(F * E, axis=-1)
    w, c = -e * D, D * sigma + phi
    w[:, 0] += 1.0
    # the coefficients of d_m g^-1 (M), of d2 psi (Z_S), of d_m P (Z_Q) and of d2h (y)
    M = (w[:, None] @ Sf).reshape(N, n, n) + Et @ (0.5 * p[..., None] * E - e[..., None] * P)
    M += (0.5 * psi[:, None] @ P - c[:, None] @ E)[:, 0, :, None] * E[:, None, 0]
    Z_Q = 0.5 * psi[..., None] * grad_h[:, None] - e[..., None] * F
    Z_S = p[..., None] * F - e[..., None] * PG - c[..., None] * grad_h[:, None]
    Z_S += np.swapaxes(pj.dD, -1, -2) @ Z_Q  # d_m P = E^T d2D E + dD d2 psi
    y = 0.5 * psi[:, None] @ PG - c[:, None] @ F
    V = (Z_Q @ Et).reshape(N, 1, -1) @ d2D.reshape(N, d * d, d)
    coef = np.concatenate([w[..., None] * G.reshape(N, 1, -1), Z_S], axis=-1).reshape(N, 1, -1)
    terms = np.concatenate([T.reshape(N, d, -1, n), S], axis=2).reshape(N, -1, n)
    grad = (coef @ terms)[:, 0] - (dg.reshape(N, n, -1) @ (G @ M @ G).reshape(N, -1, 1))[..., 0]
    return grad + ((V - (e * sigma)[:, None] @ pj.dD) @ E + y @ S[:, 0])[:, 0]
