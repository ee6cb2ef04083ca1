"""Geometry of immersed hypersurfaces: the per-point record.

``grid_geometry`` computes, from one jet evaluation over a batch of
chart points, everything the checks read at each point, extrinsic and
intrinsic, as one record of arrays with a trailing point axis.  No
curvature or Christoffel tensor is built per point.  The ambient
curvature is a (G o G)/2 + b (G o dt^2) with a = (k - f'^2)/f^2 and
a + b = -f''/f (O'Neill, *Semi-Riemannian Geometry*, ch. 7), so the
ambient part of the Gauss equation is ((n-1) a + b (1 - theta^2)) g +
(n-2) b dh dh, read from the warping triple, theta and the t-row of the
frame.  II and Hess h pair the ambient covariant Hessian of psi,
d_i d_j psi + Gamma-bar(E_i, E_j), in G with N and with e = E grad h
(``_covariant_hessian``): the induced connection is the tangential part of
the ambient one, so Gamma^k_ij d_k h = <d_i d_j psi + Gamma-bar(E_i, E_j), e>, and no dg is built.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ambient import AmbientPoint, check_conditioning
from . import hypersurface
from .errors import DomainError, PointError
from .hypersurface import _det, _unit_normal, contract, metric_derivative, point_jets
from .jets import _leaves, flag, one_pass

_ORIENT_TIE = 1e-10  # theta > 0 at the center, or the first entry of N beyond this


class PointGeometry(NamedTuple):
    """Geometry of the immersion at N chart points.

    Every field carries a trailing point axis, as in ``PointJets``: the
    metric is (n, n, N), theta (N,).  ``chart`` (n, N) holds the chart
    points and ``ambient_point`` their images; ``frame`` (d, n, N) has the
    tangent vectors as columns in ambient chart components; ``normal`` is
    the unit normal N, ``shape_operator`` the matrix of A(X) = -nabla_X N
    in the chart frame and H = tr(A)/n; ``theta`` is <N, d_t>; ``grad_h``
    holds chart components of the tangential gradient of the height
    h = psi^t; ``metric_inverse`` is g^-1.  ``warping`` is (f, f', f'')
    at the height.  ``hess_identity`` is Hess h by the warped-product
    identity and ``hess_direct`` by the induced connection, and
    ``identity_error`` is max |hess_identity - hess_direct|.  ``ric`` is
    the Ricci tensor in the chart frame and ``scal_gauss`` its g-trace.
    ``lam`` = scal - (Lap h)/n is the trace-derived soliton function and
    ``residual`` the g-operator norm of the trace-free part of Hess h.
    ``lap_gradient`` is d_m Lap h, in a record of order 3 only (else None).
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
    warping: tuple
    hess_identity: np.ndarray
    hess_direct: np.ndarray
    identity_error: np.ndarray
    ric: np.ndarray
    scal_gauss: np.ndarray
    lam: np.ndarray
    residual: np.ndarray
    lap_gradient: np.ndarray | None = None

    @property
    def n(self):
        return self.metric.shape[0]

    def chart_point(self, i):
        """Chart point ``i`` as a tuple of floats (None for ``i`` None)."""
        return None if i is None else tuple(map(float, self.chart[:, i]))


def _ambient_ricci(ambient, pj, N):
    """Ric-bar(E_i, E_j) - <R-bar(E_i, N)N, E_j> in the chart frame, by the closed
    form of the module docstring with theta = N^0 and dh_i = E^0_i."""
    f0, f1, f2 = pj.warping
    n, theta, dh = ambient.n, N[0], pj.frame[0]
    a = (ambient.k - f1 * f1) / (f0 * f0)
    b = -f2 / f0 - a
    c = (n - 1) * a + b * (1.0 - theta * theta)
    return c * pj.metric + ((n - 2) * b) * (dh[:, None] * dh)


def grid_geometry(imm, points, order=2):
    """Build the :class:`PointGeometry` record over an (N, n) array of chart points (a ``ChartBox.grid``).

    The Ricci tensor (chart frame, lowered indices) is, by the Gauss
    equation,

        Ric(X, Y) = Ric-bar(X, Y) - <R-bar(X, N)N, Y> + n H g(AX, Y) - g(AX, AY).

    At ``order`` 3 the component jets carry third derivatives and the record ``lap_gradient``; every
    other field is the one of order 2, to the bit.  The batch starts with the probe block ``imm.probes``:
    it passes the jet stage and its checks, conditioning too (not at the center), and is cut off before
    the geometry; the center's normal orients the pass.  Slices of ``SLICE_POINTS`` rows change nothing.
    A slice's jets are handed over to its geometry stage, which frees their second and third slots, dD
    and P once II and Hess h are formed.  Each slice is one pass (:func:`warpgeo.jets.one_pass`): its
    checks flag rows, and the first flagged row raises the error of its first check, which is the error
    that row raises alone; a probe's (``probe`` set, ``index`` from the center) comes before a point's.
    A DomainError names the chart point, as does a residual or lambda that is not finite.  The record's
    arrays are read-only; with no points the result is None.
    """
    head, parts, orientation = imm.probes, [], None
    rows = np.concatenate([head, np.reshape(points, (-1, imm.n))])
    for start in range(0, len(rows), hypersurface.SLICE_POINTS):
        block = rows[start : start + hypersurface.SLICE_POINTS]
        cut = min(max(len(head) - start, 0), len(block))  # the probe rows of the slice
        try:
            with one_pass():
                pj = point_jets(imm, block, order)
                first = int(start == 0)
                check_conditioning(pj.ambient_point, pj.D, skip=first)
                # of the probe rows only the center needs a normal: it orients the pass
                kept = (np.concatenate([a[..., :first], a[..., cut:]], axis=-1) for a in (pj.frame, pj.D))
                normal = _unit_normal(*kept)  # the copies are freed with the call
                if first:
                    signs = normal[:, 0][np.abs(normal[:, 0]) > _ORIENT_TIE]
                    orientation = -1.0 if signs.size and signs[0] < 0.0 else 1.0
                if cut < len(block):  # handed over in a list that _geometry empties, so what it drops is freed
                    held, pj = [_leaves(lambda a: a[..., cut:], pj)], None
                    parts.append(_geometry(imm, held, orientation * normal[:, first:], order, cut))
        except PointError as exc:
            exc.index += start
            if isinstance(exc, DomainError):
                exc.args = (f"{exc} (at chart point {imm.bindings(rows[exc.index])!r})",)
            exc.probe = exc.index < len(head)
            if not exc.probe:
                exc.index -= len(head)
            raise
    if not parts:
        return None
    record = parts[0] if len(parts) == 1 else _leaves(lambda *arrays: np.concatenate(arrays, axis=-1), *parts)
    _leaves(lambda a: a.setflags(write=False), record)  # published read-only, after the join (a copy)
    return record


def _geometry(imm, held, N, order, offset):
    """The record over the ``PointJets`` rows popped from ``held``, normals ``N``, from row ``offset`` of the pass."""
    pj = held.pop()
    E, g, n = pj.frame, pj.metric, imm.n
    ginv = contract("ikp,jkp->ijp", pj.factor, pj.factor)
    P = contract("acp,cip->aip", pj.dD, E[: pj.dD.shape[1]])  # dD holds the columns that can be nonzero
    II = _covariant_hessian(pj, P, N)
    dh = E[0]
    grad_h = contract("ijp,jp->ip", ginv, dh)
    hess_direct = pj.second[0] - _covariant_hessian(pj, P, contract("aip,ip->ap", E, grad_h))
    lap_gradient = None if order == 2 else _laplacian_gradient(imm.ambient, pj, ginv, P, grad_h)
    pj, P = pj._replace(second=None, dD=None, third=None), None  # read no more, and held nowhere else
    A = contract("ikp,kjp->ijp", ginv, II)
    H = contract("iip->p", A) / n
    f0, f1, _ = pj.warping
    hess_identity = (f1 / f0) * (g - dh[:, None] * dh) + N[0] * II
    lap = contract("ijp,jip->p", ginv, hess_direct)  # trace(g^-1 Hess h)
    F = pj.factor  # residual: max |eig M| of M = F^T (Hess h - (Lap h / n) g) F
    M = contract("ikp,kjp->ijp", contract("kip,kjp->ijp", F, hess_direct - (lap / n) * g), F)
    if n == 2:
        a, b, c = M[0, 0], M[1, 0], M[1, 1]
        residual = np.abs(0.5 * (a + c)) + np.hypot(0.5 * (a - c), b)
    elif n == 3:
        residual = _spectral_radius3(M)
    else:  # LAPACK refuses a matrix that is not finite: such a row's residual is NaN
        finite = np.isfinite(M).all(axis=(0, 1))
        eig = np.linalg.eigvalsh(np.moveaxis(np.where(finite, M, 0.0), -1, 0))
        residual = np.where(finite, np.max(np.abs(eig), axis=-1), np.nan)

    ric = _ambient_ricci(imm.ambient, pj, N) + (n * H) * II
    ric -= contract("kip,kjp->ijp", A, contract("klp,ljp->kjp", g, A))
    scal_gauss = contract("ijp,jip->p", ginv, ric)
    lam = scal_gauss - lap / n
    flag(~(np.isfinite(residual) & np.isfinite(lam)),
         lambda i: DomainError("soliton residual or lambda not finite"), offset)

    return PointGeometry(
        chart=pj.chart, ambient_point=pj.ambient_point, frame=E, metric=g, metric_inverse=ginv, normal=N,
        shape_operator=A, second_fundamental=II, mean_curvature=H, theta=N[0].copy(), grad_h=grad_h,
        grad_h_norm2=contract("ip,ip->p", dh, grad_h), warping=pj.warping, hess_identity=hess_identity,
        hess_direct=hess_direct, identity_error=np.abs(hess_identity - hess_direct).max(axis=(0, 1)),
        ric=ric, scal_gauss=scal_gauss, lam=lam, residual=residual, lap_gradient=lap_gradient)


def _covariant_hessian(pj, P, v):
    """<d_i d_j psi + Gamma-bar(E_i, E_j), v> for ambient vectors v (d, N), with the ambient
    Christoffel symbols in closed form: with P = dD E, q = dD v and X_ij = sum_a P^a_i v_a E^a_j,
    <Gamma-bar(E_i, E_j), v> = (X_ij + X_ji)/2 - sum_b q_b E^b_i E^b_j / 2."""
    E, dD = pj.frame, pj.dD
    X = contract("aip,ajp->ijp", P, v[:, None] * E)
    X += np.swapaxes(X, 0, 1)  # in place, as are the steps below: fewer temporaries, the same bits
    X -= contract("aip,ajp->ijp", E, contract("abp,bp->ap", dD, v[: dD.shape[1]])[:, None] * E)  # q = dD v
    X *= 0.5
    X += contract("ap,aijp->ijp", pj.D * v, pj.second)
    return X


def _spectral_radius3(M):
    """max |eigenvalue| of each symmetric 3 x 3 M[:, :, p], overwritten as it is scaled to a largest entry of 1,
    whose largest and smallest eigenvalues are q + 2 p cos(phi) and q + 2 p cos(phi + 2 pi/3) (Smith, CACM 4(4),
    1961); for a trace-free M that is the isolated one, where the cosine is flat (Kopp, 2008).  NaN if not finite."""
    scale = np.abs(M).max(axis=(0, 1))
    M /= np.where(scale > 0.0, scale, 1.0)
    q = (M[0, 0] + M[1, 1] + M[2, 2]) / 3.0
    M[range(3), range(3)] -= q
    p = np.sqrt(contract("ijp,ijp->p", M, M) / 6.0)
    M /= np.where(p > 0.0, p, 1.0)
    phi = np.arccos(np.clip(_det(M) / 2.0, -1.0, 1.0)) / 3.0
    cosines = np.cos([phi, phi + 2.0 * np.pi / 3.0])
    return scale * np.abs(q + 2.0 * p * cosines).max(axis=0)


def _laplacian_gradient(ambient, pj, G, P, grad_h):
    """d_m Lap h, exact, from the order-3 jets ``pj``: with F = E g^-1, e = E grad h,
    P = dD E, p = P grad h and per ambient index a sigma_a = <g^-1, d2 psi^a>,
    phi_a = F_a . P_a, psi_a = F_a . E_a, Lap h = sigma_0 - sum_a (D_a e_a sigma_a
    + e_a phi_a - p_a psi_a / 2), whose product rule is a sum of contractions of
    d3 psi, d2 psi, d2D, dD, d2h and d_m g^-1 = -g^-1 d_m g g^-1, of which dD and d2D hold K columns."""
    E, S, T, D, dD = pj.frame, pj.second, pj.third, pj.D, pj.dD
    d2D = ambient.diagonal_jets(pj.ambient_point.x, pj.warping, second=True)[2]
    F, PG = contract("aip,ijp->ajp", E, G), contract("aip,ijp->ajp", P, G)
    e, p = contract("aip,ip->ap", E, grad_h), contract("aip,ip->ap", P, grad_h)
    sigma = contract("aijp,ijp->ap", S, G)
    phi, psi = contract("ajp,ajp->ap", F, P), contract("ajp,ajp->ap", F, E)
    w, c = -e * D, D * sigma + phi
    w[0] += 1.0
    # the coefficients of d_m g^-1 (M), of d2 psi (Z_S), of d_m P (Z_Q) and of d2h (y)
    M = contract("ap,aijp->ijp", w, S) + contract("aip,ajp->ijp", E, 0.5 * p[:, None] * E - e[:, None] * P)
    M += (contract("ap,ajp->jp", 0.5 * psi, P) - contract("ap,ajp->jp", c, E))[:, None] * E[0]
    Z_Q = 0.5 * psi[:, None] * grad_h - e[:, None] * F
    Z_S = p[:, None] * F - e[:, None] * PG - c[:, None] * grad_h
    Z_S[: dD.shape[1]] += contract("cap,cjp->ajp", dD, Z_Q)  # d_m P = E^T d2D E + dD d2 psi
    y = contract("ap,ajp->jp", 0.5 * psi, PG) - contract("ap,ajp->jp", c, F)
    V = contract("abp,abcp->cp", contract("ajp,bjp->abp", Z_Q, E[: dD.shape[1]]), d2D)
    GMG = contract("ikp,kjp->ijp", contract("ikp,kjp->ijp", G, M), G)
    grad = contract("aijp,aijmp->mp", w[:, None, None] * G, T) + contract("ajp,ajmp->mp", Z_S, S)
    grad -= contract("mijp,ijp->mp", metric_derivative(pj, P), GMG)
    U = V - contract("ap,acp->cp", e * sigma, dD)
    return grad + (contract("cp,cmp->mp", U, E[: len(U)]) + contract("jp,jmp->mp", y, S[0]))
