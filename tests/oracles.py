"""Independent numerical oracles and test immersions used by the test suite.

These deliberately avoid the closed-form code paths they check: the
ambient curvature oracle differentiates Christoffel symbols by finite
differences, the derivative oracles apply central differences to plain
evaluations (the gradient of Lap h among them: Lap h through the induced
Christoffel tensor at 2n stencil points per point), the generic
Christoffel formula and the QR normal treat the diagonal ambient metric
as a dense matrix, the cofactor normal takes the d determinants of the
n x n minors of the frame, the metric-jet oracle walks
each diagonal entry as an expression, and the scalar curvature oracle
differentiates the sampled induced metric.  The tensor oracles build
what the geometry pass contracts in closed form: the ambient Christoffel
tensor for II, frame sums of curvature evaluations for the ambient
Ricci term and the induced Christoffel tensor for Hess h; the scalar
formula is the closed warped-product expression for scal.  The
Christoffel tensors (``christoffel_symbols``, ``christoffels``,
``induced_christoffels_from_jets``), the curvature ``curvature_from``
and the numeric ``sphere_chart`` live only here, as references: the
package contracts the tensors in closed form, reads the curvature from
its two scalars and charts the sphere by ``sphere_chart_expressions``.
The test-only helpers live here as well: the standard ambients, the
horosphere, ``build_rotational``, the closed-form principal curvatures
``weingarten_closed_form``, ``flip_orientation``, ``eval_value``,
``soliton_residual``, ``metric_inverse`` (F F^T of a ``PointJets``) and
``row``, the record of one point of a batch.  ``dense_jet2`` is the
full-slot walk that the sparse jets replaced: the oracle of their entries;
``gather_packed`` the packed slots that the jet slots written in place
replaced, copied out to every permutation by ``take``; and ``with_dense_dD``
an immersion whose pass contracts over all d columns of dD.
"""

from __future__ import annotations

import copy
import math
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from warpgeo.ambient import AmbientPoint, Fiber, WarpedProduct, check_conditioning
from warpgeo.catalogue import (
    hyperplane_immersion,
    rotational_soliton_immersion,
    slice_immersion,
    sphere_immersion,
)
from warpgeo.errors import DomainError, SigmaZero, UnknownIdentifier
from warpgeo.expr import (FUNCTIONS, BinOp, Call, Const, CONSTANTS, Expression, Neg, Num, Profile, Var, parse,
                          variables_in)
from warpgeo.hypersurface import Immersion, contract, metric_derivative, point_jets
from warpgeo.intrinsic import grid_geometry
from warpgeo.jets import _leaves, eval_jet2, flag, one_pass
from warpgeo.rotational import assemble_rotational, solve_profile
from warpgeo.soliton import soliton_report


def row(record, i):
    """The record at point ``i``: every field without its (trailing) point axis.

    0-d entries become floats.
    """

    def item(value):
        value = value[..., i]
        return float(value) if np.ndim(value) == 0 else value

    return _leaves(item, record)


def record_arrays(record, prefix=""):
    """Every array of a geometry record, by field path."""
    for name in record._fields:
        value = getattr(record, name)
        if hasattr(value, "_fields"):
            yield from record_arrays(value, f"{prefix}{name}.")
        elif value is None:
            continue
        elif isinstance(value, tuple):
            for k, item in enumerate(value):
                yield f"{prefix}{name}[{k}]", item
        else:
            yield prefix + name, value


def point_first(record):
    """A batched record (or array) with the point axis first, the layout the
    oracles below compute in; they take and return the program's layout,
    the point axis last."""
    return _leaves(lambda a: np.moveaxis(a, -1, 0), record)


def point_last(array):
    """A point-first array in the program's layout, C-contiguous like the
    program's own arrays."""
    return np.ascontiguousarray(np.moveaxis(array, 0, -1))


def metric_jets(W, p):
    """``W.metric_jets(p)`` with the point axis of a batch first."""
    D, dD, warping = W.metric_jets(p)
    if np.ndim(p.t):
        D, dD = np.moveaxis(D, -1, 0), np.moveaxis(dD, -1, 0)
    return D, dD, warping


def euclidean_ambient(n):
    return WarpedProduct((-math.inf, math.inf), "1", Fiber.EUCLIDEAN, n)


def hyperbolic_ambient(n):
    return WarpedProduct((-math.inf, math.inf), "exp(t)", Fiber.EUCLIDEAN, n)


def spherical_cap_ambient(n):
    return WarpedProduct((0.0, math.pi), "sin(t)", Fiber.SPHERE, n)


def horosphere_immersion(t0=0.0, n=2, half_width=1.0):
    """Slice of the exponentially warped space (flat, totally umbilical)."""
    return slice_immersion(hyperbolic_ambient(n), t0, half_width=half_width)


def build_rotational(prof, curve=None, interval=(-math.inf, math.inf)):
    """The rotational immersion of ``prof`` (solved here unless ``curve`` is
    given) in ``interval x_f R^n``; pass a finite interval when f is
    positive only there."""
    if curve is None:
        curve = solve_profile(prof)
    ambient = WarpedProduct(interval, prof.f, Fiber.EUCLIDEAN, prof.n)
    return assemble_rotational(curve, ambient)


def weingarten_closed_form(prof, curve, u):
    """Principal curvatures (kappa_u, kappa_v) of the rotational surface.

    kappa_u belongs to the profile direction, kappa_v to each rotation
    direction (multiplicity n-1); the formulas divide by the signed
    radius sigma, so a vanishing sigma is an error rather than a branch.
    """
    u = float(u)
    jet = eval_jet2(prof.f, {"t": curve.alpha(u)}, ("t",))
    lf1 = jet.grad[0] / jet.value
    sigma = jet.value * curve.beta(u)
    if abs(sigma) < 1e-12:
        raise SigmaZero(f"sigma(u)={sigma!r} vanishes at u={u!r}")
    kappa_u = -lf1 * prof.theta
    kappa_v = prof.slope / sigma - lf1 * prof.theta
    return kappa_u, kappa_v


def flip_orientation(sd):
    """Reverse the normal: N, A, theta and H change sign, the rest stay."""
    return sd._replace(
        normal=-sd.normal,
        shape_operator=-sd.shape_operator,
        second_fundamental=-sd.second_fundamental,
        theta=-sd.theta,
        mean_curvature=-sd.mean_curvature,
    )


def eval_value(expr, bindings):
    """Plain evaluation at one point: the value of the jet with no
    active variables, as a float."""
    return float(eval_jet2(expr, bindings).value)


def soliton_residual(imm, grid):
    """Evaluate the soliton condition over a grid of chart points."""
    return soliton_report(grid_geometry(imm, grid))


def point_geometries(imm, points):
    """The PointGeometry record of each chart point, from one batched evaluation."""
    batch = grid_geometry(imm, points)
    return [row(batch, i) for i in range(len(points))]


def geometry_at(imm, p):
    """The PointGeometry record at one chart point."""
    return row(grid_geometry(imm, [p]), 0)


def standard_catalogue():
    """Named immersions exercising every verified construction."""
    return [
        ("slice-spherical", slice_immersion(spherical_cap_ambient(2), math.pi / 2)),
        ("horosphere", horosphere_immersion(t0=0.0, n=2)),
        ("hyperplane", hyperplane_immersion(euclidean_ambient(2))),
        ("sphere2", sphere_immersion(euclidean_ambient(2))),
        ("sphere3", sphere_immersion(euclidean_ambient(3))),
        ("rotational-soliton", rotational_soliton_immersion()),
    ]


def perturbed_immersion(imm, rng, amplitude=0.004):
    """Jitter every ambient coordinate by a smooth bump expression.

    The bump is amplitude * sin(a u_1 + b) * cos(c u_2 + d) in the first
    chart variables, with coefficients drawn from ``rng``; amplitudes
    are kept small so the perturbed map stays an immersion inside the
    ambient chart.
    """
    names = imm.chart.names
    components = []
    for component in imm.components:
        a, b, c, d = (float(x) for x in rng.uniform(0.5, 2.0, size=4))
        bump_src = f"{amplitude!r}*sin({a!r}*{names[0]}+{b!r})"
        if len(names) > 1:
            bump_src += f"*cos({c!r}*{names[1]}+{d!r})"
        components.append(BinOp("+", component, parse(bump_src)))
    return Immersion(imm.ambient, imm.chart, components)


def full_columns(dD, d):
    """A ``dD`` whose last axis holds the K columns that ``WarpedProduct.diagonal_jets``
    keeps, widened to all d ambient coordinates by the zero columns it leaves out
    (with a leading point axis, or none)."""
    return np.concatenate([dD, np.zeros(dD.shape[:-1] + (d - dD.shape[-1],))], axis=-1)


def with_dense_dD(imm):
    """``imm`` over a copy of its ambient whose ``diagonal_jets`` keeps all d columns of
    dD and d2D, the ones that are zero by construction written out, as ``full_columns`` does."""
    ambient = copy.copy(imm.ambient)
    ambient.columns = ambient.dim
    dense = copy.copy(imm)
    dense.ambient = ambient
    return dense


def gather_packed(jets, m, shape, order):
    """The full slots up to ``order`` of the root ``jets`` of a tape over ``m`` variables, point axes
    ``shape``: each entry is written once into a packed slot, at the position of its sorted index tuple,
    and a slot of order 2 or 3 is copied out of it by ``take`` at the position of every index tuple sorted."""
    keys = [list(combinations_with_replacement(range(m), r)) for r in range(order + 1)]
    index = {key: i for slot in keys for i, key in enumerate(slot)}
    packed = [np.zeros((len(jets), len(slot)) + shape) for slot in keys]
    for k, jet in enumerate(jets):
        for key, value in jet.items():
            packed[len(key)][k, index[key]] = value
    spots = [np.array([index[tuple(sorted(ix))] for ix in np.ndindex((m,) * r)], dtype=np.intp).reshape((m,) * r)
             for r in range(order + 1)]
    return [packed[0][:, 0], *packed[1:2], *(a.take(spot, axis=1) for a, spot in zip(packed[2:], spots[2:]))]


def christoffel_symbols(p, D, dD):
    """Christoffel symbols Gamma[a, b, c] = Gamma^a_{bc} at ``p`` from the
    diagonal metric jets ``D``, ``dD`` (its K columns), by the closed form

        Gamma^a_bc = (delta_ac d_b D_a + delta_ab d_c D_a - delta_bc d_a D_b) / (2 D_a).

    ``D`` and ``dD`` may carry a leading point axis; the first point
    whose metric is numerically singular is named.
    """
    check_conditioning(p, np.reshape(D, (-1, D.shape[-1])).T)
    d = D.shape[-1]
    dD = full_columns(dD, d)
    half = dD / (2.0 * D[..., :, None])  # [a, b] = d_b D_a / (2 D_a)
    cross = np.swapaxes(dD, -1, -2) / (2.0 * D[..., :, None])  # [a, b] = d_a D_b / (2 D_a)
    gamma = np.zeros(D.shape + (d, d))
    flat = gamma.reshape(D.shape[:-1] + (d**3,))  # Gamma^a_bc at (a d + b) d + c
    a, b = np.indices((d, d))
    flat[..., (a * d + b) * d + a] += half  # delta_ac
    flat[..., (a * d + a) * d + b] += half  # delta_ab
    flat[..., (a * d + b) * d + b] -= cross  # delta_bc
    return gamma


def christoffels(W, p):
    """Christoffel symbols Gamma[a, b, c] = Gamma^a_{bc} of the warped product ``W`` at ``p``."""
    D, dD, _ = metric_jets(W, p)
    return christoffel_symbols(p, D, dD)


def dense_metric(W, p):
    """The metric matrix of the warped product ``W`` at ``p``."""
    return dense_metric_jets(*metric_jets(W, p)[:2])[0]


def curvature_from(W, D, warping, X, Y, Z):
    """R(X, Y)Z of the warped product ``W`` from the metric diagonal and
    warping triple of ``metric_jets``.

    Uses the closed form for a warped product over a constant
    curvature fiber; the overall sign is pinned by the convention of
    ``warpgeo.ambient`` (round models have K = c).  Vectors are
    ``(..., d)`` arrays; leading axes of the vectors, of ``D`` and of
    the warping values broadcast against each other.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    f0, f1, f2 = (np.asarray(w, dtype=float)[..., None] for w in warping)
    lf1 = f1 / f0
    lf2 = f2 / f0 - lf1 * lf1

    def ip(a, b):
        return np.sum(a * D * b, axis=-1, keepdims=True)

    e0 = np.zeros(W.dim)
    e0[0] = 1.0
    X0, Y0, Z0 = X[..., :1], Y[..., :1], Z[..., :1]
    out = lf1 * lf1 * (ip(X, Z) * Y - ip(Y, Z) * X)
    out = out - lf2 * Z0 * (Y0 * X - X0 * Y)
    out = out + lf2 * (Y0 * ip(X, Z) - X0 * ip(Y, Z)) * e0
    if W.k != 0.0:
        Xs = X - X0 * e0
        Ys = Y - Y0 * e0
        Zs = Z - Z0 * e0
        out = out - (W.k / (f0 * f0)) * (ip(Xs, Zs) * Ys - ip(Ys, Zs) * Xs)
    return out


def curvature(W, p, X, Y, Z):
    """R(X, Y)Z of ``W`` at ``p``: ``curvature_from`` on the metric
    diagonal and warping triple of ``metric_jets``."""
    D, _, warping = metric_jets(W, p)
    return curvature_from(W, D, warping, X, Y, Z)


def sphere_chart(v):
    """Point of the unit sphere S^{m} in R^{m+1} from nested angles.

    ``v`` holds m angles, the first m-1 in (0, pi) and the last in
    (0, 2 pi): X1 = cos v1, X2 = sin v1 cos v2, and so on, the last
    component carrying sines only.
    """
    v = tuple(map(float, v))
    m = len(v)
    if m < 1:
        raise ValueError("need at least one angle")
    for j, angle in enumerate(v):
        top = 2.0 * math.pi if j == m - 1 else math.pi
        if not 0.0 < angle < top:
            raise ValueError(f"angle v{j + 1}={angle!r} outside (0, {top!r})")
    out = np.zeros(m + 1)
    sines = 1.0
    for j in range(m):
        out[j] = sines * math.cos(v[j])
        sines *= math.sin(v[j])
    out[m] = sines
    return out


def metric_inverse(pj):
    """g^-1 = F F^T from the factor of a ``PointJets`` record, point axis first."""
    F = point_first(pj.factor)
    return F @ np.swapaxes(F, -1, -2)


def induced_christoffels_from_jets(pj):
    """Christoffel symbols Gamma[:, k, i, j] = g^kl B_lij / 2 of the induced metric,
    B_lij = d_i g_lj + d_j g_il - d_l g_ij, point axis first, with dg from
    ``metric_derivative`` and P = dD E."""
    P = point_last(full_columns(point_first(pj.dD), len(pj.D)) @ point_first(pj.frame))
    dg = point_first(metric_derivative(pj, P))
    B = np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg
    ginv = metric_inverse(pj)
    return 0.5 * (ginv @ B.reshape(B.shape[:-2] + (-1,))).reshape(B.shape)


def profile_geodesic_residual(imm, points):
    """|Gamma^k_{uu}| of the induced metric at each chart point (the
    profile line is a geodesic)."""
    Gamma = induced_christoffels_from_jets(point_jets(imm, points))
    return np.max(np.abs(Gamma[:, :, 0, 0]), axis=-1)


def metric_jets_ast(W, p):
    """``W.metric_jets(p)`` by walking every diagonal entry as an expression.

    The entries 1, f^2 and f^2 * sin(x1)^2 * ... * sin(x_{i-1})^2 are
    order-2 jets in all the ambient coordinates; the warping triple is
    the jet of f in them.  Returns ``(D, dD, (f, f', f''))``.
    """
    f_squared = BinOp("^", W.f, Num(2.0))
    entries = [Num(1.0)]
    for i in range(1, W.n + 1):
        entry = f_squared
        if W.fiber is Fiber.SPHERE:
            for j in range(1, i):
                entry = BinOp("*", entry, BinOp("^", Call("sin", Var(f"x{j}")), Num(2.0)))
        entries.append(entry)
    values = {"t": p.t, **{f"x{i}": v for i, v in enumerate(p.x, start=1)}}
    coordinates = tuple(values)
    jets = [eval_jet2(entry, values, coordinates) for entry in entries]
    f = eval_jet2(W.f, values, coordinates)
    D = np.stack([jet.value for jet in jets])
    dD = np.stack([jet.grad for jet in jets])
    return D, dD, (f.value, f.grad[0], f.hess[0, 0])


def dense_metric_jets(D, dD):
    """The dense metric G and dG[a, b, c] = d G_ab / d x^c of the
    diagonal metric jets ``(D, dD)`` (its K columns)."""
    eye = np.eye(D.shape[-1])
    dD = full_columns(dD, D.shape[-1])
    return D[..., None] * eye, eye[:, :, None] * dD[..., :, None, :]


def christoffels_generic(G, dG):
    """Gamma^a_{bc} = (1/2) g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc) of a dense metric."""
    Ginv = np.linalg.inv(G)
    term1 = np.einsum("...ad,...dcb->...abc", Ginv, dG)  # d_b g_dc
    term2 = np.einsum("...ad,...bdc->...abc", Ginv, dG)  # d_c g_bd
    term3 = np.einsum("...ad,...bcd->...abc", Ginv, dG)  # d_d g_bc
    return 0.5 * (term1 + term2 - term3)


def qr_normal(E, G):
    """Unit normals of frames E with det([E | N]) > 0, by a complete QR
    in G-orthonormal coordinates."""
    Lt = np.swapaxes(np.linalg.cholesky(G), -1, -2)
    Et = Lt @ E
    Q, _ = np.linalg.qr(Et, mode="complete")
    n_tilde = Q[..., -1]
    det = np.linalg.det(np.concatenate([Et, n_tilde[..., None]], axis=-1))
    N = np.linalg.solve(Lt, n_tilde[..., None])[..., 0]
    return np.sign(det)[..., None] * N


def cofactor_normal(E, D):
    """Unit normals D^-1 nu / |D^-1 nu|_D of frames E, where the cofactor
    covector nu satisfies det([E | v]) = nu . v for every v, from the d
    determinants of the n x n minors of E (so det([E | N]) > 0)."""
    d = E.shape[-1] + 1
    E = E / np.max(np.abs(E), axis=-2, keepdims=True)  # nu keeps its direction, stays finite
    minors = E[..., [[b for b in range(d) if b != a] for a in range(d)], :]
    nu = (-1.0) ** (np.arange(d) + d - 1) * np.linalg.det(minors)
    v = nu / D
    return v / np.sqrt(np.sum(nu * v, axis=-1, keepdims=True))


def shape_operator_from_normal_derivative(imm, p, step=1e-5):
    """Cross-check shape operator from A(E_i) = -nabla_{E_i} N.

    The normal field is differentiated by central differences in chart
    coordinates (the result is only used against the exact
    second-fundamental-form path at 1e-6 tolerance).
    """
    p = np.asarray(p, dtype=float)
    shifts = step * np.eye(p.size)
    stencil = grid_geometry(imm, np.vstack([p, p + shifts, p - shifts]))
    sd = row(stencil, 0)
    d, n = sd.frame.shape
    Gamma = christoffels(imm.ambient, sd.ambient_point)
    G = dense_metric(imm.ambient, sd.ambient_point)
    columns = np.zeros((d, n))
    for i in range(n):
        dN = (stencil.normal[:, 1 + i] - stencil.normal[:, 1 + n + i]) / (2.0 * step)
        cov = dN + np.einsum("abc,b,c->a", Gamma, sd.frame[:, i], sd.normal)
        columns[:, i] = -cov
    return np.linalg.solve(sd.metric, sd.frame.T @ G @ columns)


def second_fundamental_christoffel(pj, N):
    """II_ij = <d_i d_j psi + Gamma(E_i, E_j), N> through the full ambient
    Christoffel tensor, for the jets ``pj`` and unit normals ``N``."""
    pj, N = point_first(pj), point_first(N)
    E = pj.frame
    Gamma = christoffel_symbols(pj.ambient_point, pj.D, pj.dD)
    GammaE = Gamma @ E[..., None, :, :]  # Gamma^a_{bc} E^c_j
    cov = pj.second + np.swapaxes(E, -1, -2)[..., None, :, :] @ GammaE
    return point_last(np.sum(cov * (pj.D * N)[..., :, None, None], axis=-3))


def _curvature_frame_sum(ambient, pj, V, signs):
    """sum_e signs_e <R(E_i, V_e) V_e, E_j> over the rows V_e of V,
    one curvature evaluation per pair (i, e), for point-first ``pj``."""
    E = pj.frame
    V = V[..., None, :, :]
    R = curvature_from(
        ambient,
        pj.D[..., None, None, :],
        tuple(np.asarray(w)[..., None, None] for w in pj.warping),
        np.swapaxes(E, -1, -2)[..., :, None, :],
        V,
        V,
    )
    return point_last((np.sum(signs[:, None] * R, axis=-2) * pj.D[..., None, :]) @ E)


def tangential_ricci_frame_sum(ambient, pj):
    """sum_a <R(E_i, F_a) F_a, E_j> over a g-orthonormal tangent frame F."""
    pj = point_first(pj)
    F = np.swapaxes(pj.frame @ pj.factor, -1, -2)
    return _curvature_frame_sum(ambient, pj, F, np.ones(F.shape[-2]))


def ambient_ricci_frame_sum(ambient, pj, N):
    """Ric-bar(E_i, E_j) - <R-bar(E_i, N)N, E_j>: the sum over the coordinate
    frame e_a = d_a / sqrt(D_a) of <R(E_i, e_a) e_a, E_j>, less the term of N."""
    pj, N = point_first(pj), point_first(N)
    d = pj.D.shape[-1]
    V = np.concatenate([np.eye(d) / np.sqrt(pj.D)[..., :, None], N[..., None, :]], axis=-2)
    return _curvature_frame_sum(ambient, pj, V, np.append(np.ones(d), -1.0))


def hessian_height_christoffel(pj):
    """Hess h = d^2 h - Gamma^k d_k h through the induced Christoffel tensor g^-1 B / 2."""
    gamma = induced_christoffels_from_jets(pj)
    pj = point_first(pj)
    return point_last(pj.second[..., 0, :, :] - np.sum(gamma * pj.frame[..., 0, :, None, None], axis=-3))


FD_TOL = 1e-4  # tolerance of every comparison with a finite-difference oracle
FD_STEP = 1e-3  # central-difference step of the Lap h gradient oracle


def laplacian_height(imm, points):
    """Lap h = trace(g^-1 Hess h) over (N, n) chart points, Hess h through
    the induced Christoffel tensor."""
    pj = point_jets(imm, points)
    ginv = metric_inverse(pj)
    return np.trace(ginv @ point_first(hessian_height_christoffel(pj)), axis1=-2, axis2=-1)


def dense_covariant_hessian(pj, P, v):
    """``intrinsic._covariant_hessian`` with every contraction over all d ambient
    columns: ``pj.dD`` (d, d, N) and P = dD E hold the zero columns that the pass
    leaves out (point axis last)."""
    E = pj.frame
    X = contract("aip,ajp->ijp", P, v[:, None] * E)
    X += np.swapaxes(X, 0, 1)
    X -= contract("aip,ajp->ijp", E, contract("abp,bp->ap", pj.dD, v)[:, None] * E)
    X *= 0.5
    X += contract("ap,aijp->ijp", pj.D * v, pj.second)
    return X


def dense_laplacian_gradient(pj, d2D, G, P, grad_h):
    """d_m Lap h of ``intrinsic._laplacian_gradient`` with every contraction over all d
    ambient columns: ``pj.dD`` (d, d, N), ``d2D`` (d, d, d, N) and P = dD E hold the
    zero columns that the pass leaves out (point axis last)."""
    E, S, T, D, dD = pj.frame, pj.second, pj.third, pj.D, pj.dD
    F, PG = contract("aip,ijp->ajp", E, G), contract("aip,ijp->ajp", P, G)
    e, p = contract("aip,ip->ap", E, grad_h), contract("aip,ip->ap", P, grad_h)
    sigma = contract("aijp,ijp->ap", S, G)
    phi, psi = contract("ajp,ajp->ap", F, P), contract("ajp,ajp->ap", F, E)
    w, c = -e * D, D * sigma + phi
    w[0] += 1.0
    M = contract("ap,aijp->ijp", w, S) + contract("aip,ajp->ijp", E, 0.5 * p[:, None] * E - e[:, None] * P)
    M += (contract("ap,ajp->jp", 0.5 * psi, P) - contract("ap,ajp->jp", c, E))[:, None] * E[0]
    Z_Q = 0.5 * psi[:, None] * grad_h - e[:, None] * F
    Z_S = p[:, None] * F - e[:, None] * PG - c[:, None] * grad_h
    Z_S += contract("cap,cjp->ajp", dD, Z_Q)
    y = contract("ap,ajp->jp", 0.5 * psi, PG) - contract("ap,ajp->jp", c, F)
    V = contract("abp,abcp->cp", contract("ajp,bjp->abp", Z_Q, E), d2D)
    GMG = contract("ikp,kjp->ijp", contract("ikp,kjp->ijp", G, M), G)
    grad = contract("aijp,aijmp->mp", w[:, None, None] * G, T) + contract("ajp,ajmp->mp", Z_S, S)
    grad -= contract("mijp,ijp->mp", metric_derivative(pj, P), GMG)
    U = V - contract("ap,acp->cp", e * sigma, dD)
    return grad + (contract("cp,cmp->mp", U, E) + contract("jp,jmp->mp", y, S[0]))


def laplacian_gradient_fd(imm, points, step=FD_STEP):
    """d_m Lap h by central differences: the 2n stencil points of every
    chart point are evaluated as one batch.  Accuracy is O(step^2)."""
    points = np.asarray(points, dtype=float).reshape(-1, imm.n)
    n = imm.n
    # per point: +step along each axis, then -step along each axis
    stencil = np.repeat(points[:, None, :], 2 * n, axis=1)
    for k in range(n):
        stencil[:, k, k] += step
        stencil[:, n + k, k] -= step
    lap = laplacian_height(imm, stencil.reshape(-1, n)).reshape(-1, 2, n)
    return (lap[:, 0] - lap[:, 1]) / (2.0 * step)


def structural_error_fd(imm, geometry):
    """Sup over the grid of |Ric(grad h) + (n-1) grad (Lap h)/n|, the
    gradient by ``laplacian_gradient_fd``."""
    n, geometry = imm.n, point_first(geometry)
    grad_s = laplacian_gradient_fd(imm, geometry.chart) / n
    omega = (geometry.ric @ geometry.grad_h[..., None])[..., 0] + (n - 1) * grad_s
    dual = (geometry.metric_inverse @ omega[..., None])[..., 0]
    return float(np.max(np.sqrt(np.maximum(np.sum(omega * dual, axis=-1), 0.0))))


def scal_formula(imm, geometry):
    """Scalar curvature by the closed warped-product formula over a
    constant-curvature fiber, from a geometry record (one point or a batch):

        scal = (k / f(h)^2) (n-1) (n - 2 |grad h|^2)
             + n [(log f)'(h)]^2 (|grad h|^2 - (n-1))
             - (n-2) (log f)''(h) |grad h|^2
             - n (f''/f)(h) |grad h|^2
             + n^2 H^2 - |A|^2.
    """
    n = imm.n
    k = imm.ambient.k
    f0, f1, f2 = geometry.warping
    lf1 = f1 / f0
    lf2 = f2 / f0 - lf1 * lf1
    W = geometry.grad_h_norm2
    H = geometry.mean_curvature
    A = geometry.shape_operator
    return (
        (k / (f0 * f0)) * (n - 1) * (n - 2.0 * W)
        + n * lf1 * lf1 * (W - (n - 1))
        - (n - 2) * lf2 * W
        - n * (f2 / f0) * W
        + n * n * H * H
        - np.einsum("ij...,ji...->...", A, A)
    )


def ricci_gradh_extrinsic(imm, p):
    """Ric(grad h, grad h) evaluated directly in extrinsic terms.

    Independent code path from ``grid_geometry`` (no Ricci matrix is
    assembled); the two must agree.
    """
    sd = geometry_at(imm, p)
    n = sd.n
    g = sd.metric
    A = sd.shape_operator
    gh = sd.grad_h
    Agh = A @ gh
    W = imm.ambient
    G = dense_metric(W, sd.ambient_point)
    X = sd.frame @ gh
    frame = sd.frame @ np.linalg.inv(np.linalg.cholesky(g)).T  # g-orthonormal columns
    ambient_sum = sum(
        curvature(W, sd.ambient_point, X, frame[:, a], frame[:, a]) for a in range(n)
    ) @ G @ X
    return float(
        ambient_sum
        + n * sd.mean_curvature * (Agh @ g @ gh)
        - (Agh @ g @ Agh)
    )


def riemann_fd(W, p, step=1e-4):
    """R^a_{bcd} from finite differences of Christoffel symbols.

    Index convention matches the package: the vector (R(X, Y)Z)^a is
    R^a_{bcd} Z^b X^c Y^d.
    """
    d = W.dim
    coords = np.array((p.t,) + tuple(p.x))
    gamma0 = christoffels(W, p)
    dGamma = np.zeros((d, d, d, d))  # dGamma[c] = d Gamma / d x^c
    for c in range(d):
        plus = coords.copy()
        minus = coords.copy()
        plus[c] += step
        minus[c] -= step
        gp = christoffels(W, AmbientPoint(plus[0], tuple(plus[1:])))
        gm = christoffels(W, AmbientPoint(minus[0], tuple(minus[1:])))
        dGamma[c] = (gp - gm) / (2.0 * step)
    riem = (
        np.einsum("cadb->abcd", dGamma)
        - np.einsum("dacb->abcd", dGamma)
        + np.einsum("ace,edb->abcd", gamma0, gamma0)
        - np.einsum("ade,ecb->abcd", gamma0, gamma0)
    )
    return riem


def curvature_fd(W, p, X, Y, Z, step=1e-4):
    """R(X, Y)Z assembled from the finite-difference Riemann tensor."""
    riem = riemann_fd(W, p, step)
    return np.einsum("abcd,b,c,d->a", riem, Z, X, Y)


def fd_gradient(fn, x, step=1e-5):
    """Central-difference gradient of a scalar function on R^m."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        plus = x.copy()
        minus = x.copy()
        plus[i] += step
        minus[i] -= step
        out[i] = (fn(plus) - fn(minus)) / (2.0 * step)
    return out


def random_orthonormal_pair(G, rng):
    """Two G-orthonormal vectors spanning a random plane."""
    d = G.shape[0]
    X = rng.standard_normal(d)
    X = X / np.sqrt(X @ G @ X)
    Y = rng.standard_normal(d)
    Y = Y - (X @ G @ Y) * X
    Y = Y / np.sqrt(Y @ G @ Y)
    return X, Y


def random_fiber_point(W, rng):
    """Random valid ambient point away from chart degeneracies."""
    lo, hi = W.probe_window()
    pad = (hi - lo) / 12 + 0.2  # 0.1 of the width before the window's 0.02 came off each end, then 0.2
    t = float(rng.uniform(lo + pad, hi - pad))
    if W.fiber.value == "sphere":
        x = tuple(float(v) for v in rng.uniform(0.6, 2.4, W.n - 1)) + (
            float(rng.uniform(0.5, 5.5)),
        )
    else:
        x = tuple(float(v) for v in rng.uniform(-1.0, 1.0, W.n))
    return AmbientPoint(t, x)


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
            raise ValueError(
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
    samples = iter(point_first(point_jets(imm, stencil).metric))
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


# The full-slot jets: the walk that the sparse tape of ``warpgeo.jets`` replaced,
# kept as the oracle its entries are checked against bit for bit.


def _value(v):
    """A value as a float64 array, or a float64 scalar when 0-d."""
    return np.asarray(v, dtype=float)[()]


class _Zero:
    """A Hessian or third slot that is zero by construction at every point: it
    adds nothing (not even the sign of a zero) and absorbs every factor."""

    __array_ufunc__ = None  # numpy defers to the operators below
    __neg__ = __mul__ = __rmul__ = lambda self, other=None: self
    __add__ = __radd__ = __rsub__ = lambda self, other: other
    __sub__ = lambda self, other: -other


_ZERO = _Zero()


class DenseJet(NamedTuple):
    """A jet with full slots, and in the walk the sentinel ``_ZERO`` for a Hessian or
    third slot that is zero by construction."""

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None = None

    __array_ufunc__ = None

    @property
    def m(self):
        return self.grad.shape[0]

    @property
    def order(self):
        return 2 if self.third is None else 3

    def slots(self):
        """The value and the derivatives up to the jet's order."""
        return (self.value, self.grad, self.hess, self.third)[: self.order + 1]

    def _lift(self, other):
        if isinstance(other, DenseJet):
            return other
        return _constant(other, self.m, self.order, (1,) * (self.grad.ndim - 1))

    def __neg__(self):
        return DenseJet(*(-a for a in self.slots()))

    def __add__(self, other):
        return DenseJet(*(a + b for a, b in zip(self.slots(), self._lift(other).slots())))

    __radd__ = __add__

    def __sub__(self, other):
        return DenseJet(*(a - b for a, b in zip(self.slots(), self._lift(other).slots())))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        a, b = self.value, other.value
        cross = self.grad[:, None] * other.grad[None, :]
        third = None
        if self.third is not None:
            t = _outer(self.hess, other.grad) + _outer(other.hess, self.grad)
            third = _sym3(t) + a * other.third + b * self.third
        return DenseJet(
            a * b,
            a * other.grad + b * self.grad,
            a * other.hess + b * self.hess + cross + np.swapaxes(cross, 0, 1),
            third,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(self._lift(other), None)

    def __rtruediv__(self, other):
        return self._lift(other) / self


def _constant(value, m, order=2, tail=()):  # tail: singleton point axes of a batch
    return DenseJet(_value(value), np.zeros((m,) + tail), _ZERO, None if order == 2 else _ZERO)


def _outer(h, g):
    """t[i, j, k] = h_ij g_k."""
    return h if h is _ZERO else h[:, :, None] * g[None, None, :]


def _sym3(t):
    """t_ijk + t_ikj + t_jki for t symmetric in its first two indices."""
    return t if t is _ZERO else t + np.swapaxes(t, 1, 2) + np.swapaxes(np.swapaxes(t, 1, 2), 0, 1)


def _flag_at(bad, node, message, value=None):
    """Flag the points where ``bad`` holds with a DomainError at ``node``;
    ``message`` is formatted with the offending ``value`` when given."""
    flag(bad, lambda i: DomainError(
        message if value is None else message.format(float(np.ravel(value)[i])), node))


def _chain(u, f0, f1, f2, f3):
    """Compose a scalar function with jet ``u`` via the chain rule;
    ``f3`` is a callable giving the third derivative, called at order 3 only.
    Where u's Hessian is zero by construction (a variable, say) the third
    slot is f3 u_i u_j u_k, f3 summed as the three f3/3 terms of ``_sym3``
    (the general rule's bits when u_i is 0 or +-1) without forming them.
    The choice is fixed by the expression, so no slot is masked per point."""
    outer = u.grad[:, None] * u.grad[None, :]
    hess = f1 * u.hess + f2 * outer
    third = None
    if u.third is not None:
        s = f3() / 3.0
        if u.hess is _ZERO:
            third = ((s + s) + s) * (outer[:, :, None] * u.grad[None, None, :])
        else:
            third = _sym3(_outer(f2 * u.hess + s * outer, u.grad))
        third = third + f1 * u.third
    return DenseJet(f0, f1 * u.grad, hess, third)


def _reciprocal(u, node):
    v = u.value
    _flag_at(v == 0.0, node, "division by zero")
    return _chain(u, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v), lambda: -6.0 / (v * v * v * v))


def _pow_int_jet(u, k, node):
    """Binary exponentiation on jets."""
    if k == 0:
        return u._lift(1.0)
    if k < 0:
        return _reciprocal(_pow_int_jet(u, -k, node), node)
    result = None
    acc = u
    while k:
        if k & 1:
            result = acc if result is None else result * acc
        acc = acc * acc
        k >>= 1
    return result


def _apply_function(name, u, node):
    """Jet of the elementary function ``name`` at ``u``: the one place for its
    domain rules (log needs a positive and sqrt a non-negative argument; exp,
    sinh and cosh must not overflow at a finite argument) and its jet rule."""
    if name not in FUNCTIONS:
        raise UnknownIdentifier(name)
    v = u.value
    if name == "log":
        _flag_at(v <= 0.0, node, "log of non-positive value {!r}", v)
    if name == "sqrt":
        _flag_at(v < 0.0, node, "sqrt of negative value {!r}", v)
    w = getattr(np, name)(v)
    if name in ("exp", "sinh", "cosh"):
        _flag_at(np.isinf(w) & np.isfinite(v), node, name + " overflows at {!r}", v)
    if name == "sin":
        return _chain(u, w, np.cos(v), -w, lambda: -np.cos(v))
    if name == "cos":
        return _chain(u, w, -np.sin(v), -w, lambda: np.sin(v))
    if name == "tan":
        d = 1.0 + w * w
        return _chain(u, w, d, 2.0 * w * d, lambda: 2.0 * d * (d + 2.0 * w * w))
    if name == "sinh":
        c = np.cosh(v)
        return _chain(u, w, c, w, lambda: c)
    if name == "cosh":
        return _chain(u, w, np.sinh(v), w, lambda: np.sinh(v))
    if name == "tanh":
        d = 1.0 - w * w
        return _chain(u, w, d, -2.0 * w * d, lambda: 2.0 * d * (2.0 * w * w - d))
    if name == "exp":
        return _chain(u, w, w, w, lambda: w)
    if name == "log":
        return _chain(u, w, 1.0 / v, -1.0 / (v * v), lambda: 2.0 / (v * v * v))
    if u.m == 0:  # sqrt and abs have no kink to refuse without derivatives
        return DenseJet(w, u.grad, u.hess, u.third)
    if name == "sqrt":
        _flag_at(v == 0.0, node, "sqrt is not differentiable at 0")
        return _chain(u, w, 0.5 / w, -0.25 / (w * v), lambda: 0.375 / (w * v * v))
    _flag_at(v == 0.0, node, "abs is not differentiable at 0")
    return _chain(u, w, np.where(v > 0.0, 1.0, -1.0), np.zeros_like(v), lambda: 0.0)


def _real_pow(base, exponent, node):
    _flag_at(base.value <= 0.0, node,
             "power of non-positive base {!r} needs a constant integer exponent k, |k| <= 2^31",
             base.value)
    return _apply_function("exp", exponent * _apply_function("log", base, node), node)


def _pow_jet(base, exponent, node):
    """The power rule the expression fixes: an exponent without variables
    whose value is an integer k with |k| <= 2^31 takes repeated
    multiplication, any other exponent exp(exponent * log(base))."""
    if not variables_in(node.right):
        k = float(exponent.value)
        if abs(k) <= 2**31 and k.is_integer():  # False for inf and nan
            return _pow_int_jet(base, int(k), node)
    return _real_pow(base, exponent, node)


def _profile(curve, u):
    """Jet of beta(u) for the profile ``curve``: the chain rule on the slots of
    ``curve.beta_jet``, or beta alone when no variable is active."""
    if u.m == 0:
        return DenseJet(curve.beta(u.value), u.grad, u.hess, u.third)
    b0, b1, b2, b3 = curve.beta_jet(u.value)
    return _chain(u, b0, b1, b2, lambda: b3)


def _walk(expr, values, index, m, order, tail, profiles):
    """Jet of ``expr``; ``profiles`` holds the jets of the Profile nodes walked so far, by identity."""

    def rec(node):
        if isinstance(node, Num):
            return _constant(node.value, m, order, tail)
        if isinstance(node, Const):
            return _constant(CONSTANTS[node.name], m, order, tail)
        if isinstance(node, Var):
            if node.name not in values:
                raise UnknownIdentifier(node.name)
            jet = _constant(values[node.name], m, order, tail)
            if node.name in index:
                jet.grad[index[node.name]] = 1.0
            return jet
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Call):
            return _apply_function(node.func, rec(node.arg), node)
        if isinstance(node, Profile):
            if id(node) not in profiles:
                profiles[id(node)] = _profile(node.curve, rec(node.arg))
            return profiles[id(node)]
        if isinstance(node, BinOp):
            left = rec(node.left)
            right = rec(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left * _reciprocal(right, node)
            return _pow_jet(left, right, node)
        raise TypeError(f"not an Expression: {node!r}")

    return rec(expr)


def dense_jet2(expr, bindings, active=(), order=2):
    """``eval_jet2`` by the full-slot walk: every slot a full array, each rule's
    terms all computed, and a Hessian or third slot zero by construction as
    the sentinel ``_ZERO`` inside the walk (written as 0.0)."""
    single = isinstance(expr, Expression)
    exprs = [expr] if single else expr
    active = tuple(active)
    m = len(active)
    index = {name: i for i, name in enumerate(active)}
    values = {name: _value(v) for name, v in bindings.items()}
    shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
    profiles = {}
    with one_pass():
        jets = [_walk(e, values, index, m, order, (1,) * len(shape), profiles) for e in exprs]
    slots = [np.empty((len(jets),) + (m,) * r + shape) for r in range(order + 1)]
    for k, jet in enumerate(jets):  # each slot written once; a structural zero as 0.0
        for out, a in zip(slots, jet.slots()):
            out[k] = 0.0 if a is _ZERO else a
    return DenseJet(*(a[0] for a in slots)) if single else DenseJet(*slots)


