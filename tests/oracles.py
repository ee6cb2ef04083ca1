"""Independent numerical oracles and test immersions used by the test suite.

These deliberately avoid the closed-form code paths they check: the
ambient curvature oracle differentiates Christoffel symbols by finite
differences, the derivative oracles apply central differences to plain
evaluations (the gradient of Lap h among them: Lap h through the induced
Christoffel tensor at 2n stencil points per point), the generic
Christoffel formula and the QR normal treat the diagonal ambient metric
as a dense matrix, the metric-jet oracle walks
each diagonal entry as an expression, and the scalar curvature oracle
differentiates the sampled induced metric.  The tensor oracles build
what the geometry pass contracts in closed form: the ambient Christoffel
tensor for II, the frame sum of curvature evaluations for the ambient
Ricci term and the induced Christoffel tensor for Hess h; the scalar
formula is the closed warped-product expression for scal.  The
Christoffel tensors (``christoffel_symbols``, ``christoffels``,
``induced_christoffels_from_jets``) and the numeric ``sphere_chart``
live only here, as references: the package contracts the tensors in
closed form and charts the sphere by ``sphere_chart_expressions``.
"""

from __future__ import annotations

import math

import numpy as np

from warpgeo.ambient import AmbientPoint, Fiber, check_conditioning
from warpgeo.catalogue import (
    euclidean_ambient,
    horosphere_immersion,
    hyperplane_immersion,
    rotational_soliton_immersion,
    slice_immersion,
    sphere_immersion,
    spherical_cap_ambient,
)
from warpgeo.expr import BinOp, Call, Num, Var, parse
from warpgeo.hypersurface import (
    CallableComponent,
    Immersion,
    grid_shape_data,
    metric_derivative,
    point_jets,
)
from warpgeo.intrinsic import grid_geometry
from warpgeo.jets import eval_jet2


def point_shapes(imm, points):
    """The ShapeData record of each chart point, from one batched evaluation."""
    batch = grid_shape_data(imm, points)
    return [batch.at(i) for i in range(len(points))]


def point_geometries(imm, points):
    """The PointGeometry record of each chart point, from one batched evaluation."""
    batch = grid_geometry(imm, points)
    return [batch.at(i) for i in range(len(points))]


def shape_at(imm, p):
    """The ShapeData record at one chart point."""
    return grid_shape_data(imm, [p]).at(0)


def geometry_at(imm, p):
    """The PointGeometry record at one chart point."""
    return grid_geometry(imm, [p]).at(0)


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
    bumps = []
    for _ in range(imm.ambient.dim):
        a, b, c, d = (float(x) for x in rng.uniform(0.5, 2.0, size=4))
        bump_src = f"{amplitude!r}*sin({a!r}*{names[0]}+{b!r})"
        if len(names) > 1:
            bump_src += f"*cos({c!r}*{names[1]}+{d!r})"
        bumps.append(parse(bump_src))

    def coordinates(values, active, order):
        jets = imm.coordinate_jets(values, active, order)
        return [jet + eval_jet2(bump, values, active, order) for jet, bump in zip(jets, bumps)]

    return Immersion(imm.ambient, imm.chart, [CallableComponent(coordinates, imm.ambient.dim)])


def christoffel_symbols(p, D, dD):
    """Christoffel symbols Gamma[a, b, c] = Gamma^a_{bc} at ``p`` from the
    diagonal metric jets ``D``, ``dD``, by the closed form

        Gamma^a_bc = (delta_ac d_b D_a + delta_ab d_c D_a - delta_bc d_a D_b) / (2 D_a).

    ``D`` and ``dD`` may carry a leading point axis; the first point
    whose metric is numerically singular is named.
    """
    check_conditioning(p, D)
    d = D.shape[-1]
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
    D, dD, _ = W.metric_jets(p)
    return christoffel_symbols(p, D, dD)


def dense_metric(W, p):
    """The metric matrix of the warped product ``W`` at ``p``."""
    return dense_metric_jets(*W.metric_jets(p)[:2])[0]


def curvature(W, p, X, Y, Z):
    """R(X, Y)Z of ``W`` at ``p`` by the pipeline's route: ``curvature_from``
    on the metric diagonal and warping triple of ``metric_jets``."""
    D, _, warping = W.metric_jets(p)
    return W.curvature_from(D, warping, X, Y, Z)


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


def induced_christoffels_from_jets(pj):
    """Christoffel symbols Gamma[:, k, i, j] = g^kl B_lij / 2 of the induced metric,
    B_lij = d_i g_lj + d_j g_il - d_l g_ij."""
    dg = metric_derivative(pj)
    B = np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg
    return 0.5 * (pj.metric_inverse @ B.reshape(B.shape[:-2] + (-1,))).reshape(B.shape)


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
    D = np.stack([jet.value for jet in jets], axis=-1)
    dD = np.stack([jet.grad for jet in jets], axis=-2)
    return D, dD, (f.value, f.grad[..., 0], f.hess[..., 0, 0])


def dense_metric_jets(D, dD):
    """The dense metric G and dG[a, b, c] = d G_ab / d x^c of the
    diagonal metric jets ``(D, dD)``."""
    eye = np.eye(D.shape[-1])
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


def shape_operator_from_normal_derivative(imm, p, step=1e-5):
    """Cross-check shape operator from A(E_i) = -nabla_{E_i} N.

    The normal field is differentiated by central differences in chart
    coordinates (the result is only used against the exact
    second-fundamental-form path at 1e-6 tolerance).
    """
    p = np.asarray(p, dtype=float)
    shifts = step * np.eye(p.size)
    stencil = grid_shape_data(imm, np.vstack([p, p + shifts, p - shifts]))
    sd = stencil.at(0)
    d, n = sd.frame.shape
    Gamma = christoffels(imm.ambient, sd.ambient_point)
    G = dense_metric(imm.ambient, sd.ambient_point)
    columns = np.zeros((d, n))
    for i in range(n):
        dN = (stencil.normal[1 + i] - stencil.normal[1 + n + i]) / (2.0 * step)
        cov = dN + np.einsum("abc,b,c->a", Gamma, sd.frame[:, i], sd.normal)
        columns[:, i] = -cov
    return np.linalg.solve(sd.metric, sd.frame.T @ G @ columns)


def second_fundamental_christoffel(pj, N):
    """II_ij = <d_i d_j psi + Gamma(E_i, E_j), N> through the full ambient
    Christoffel tensor, for the jets ``pj`` and unit normals ``N``."""
    E = pj.frame
    Gamma = christoffel_symbols(pj.ambient_point, pj.D, pj.dD)
    GammaE = Gamma @ E[..., None, :, :]  # Gamma^a_{bc} E^c_j
    cov = pj.second + np.swapaxes(E, -1, -2)[..., None, :, :] @ GammaE
    return np.sum(cov * (pj.D * N)[..., :, None, None], axis=-3)


def tangential_ricci_frame_sum(ambient, pj):
    """sum_a <R(E_i, F_a) F_a, E_j> over a g-orthonormal tangent frame F,
    one curvature evaluation per pair (i, a)."""
    E = pj.frame
    Fa = np.swapaxes(E @ pj.factor, -1, -2)[..., None, :, :]
    X = np.swapaxes(E, -1, -2)
    R = ambient.curvature_from(
        pj.D[..., None, None, :],
        tuple(np.asarray(w)[..., None, None] for w in pj.warping),
        X[..., :, None, :],
        Fa,
        Fa,
    )
    return (R.sum(axis=-2) * pj.D[..., None, :]) @ E


def hessian_height_christoffel(pj):
    """Hess h = d^2 h - Gamma^k d_k h through the induced Christoffel tensor g^-1 B / 2."""
    gamma = induced_christoffels_from_jets(pj)
    return pj.second[..., 0, :, :] - np.sum(gamma * pj.frame[..., 0, :, None, None], axis=-3)


FD_TOL = 1e-4  # tolerance of every comparison with a finite-difference oracle
FD_STEP = 1e-3  # central-difference step of the Lap h gradient oracle


def laplacian_height(imm, points):
    """Lap h = trace(g^-1 Hess h) over (N, n) chart points, Hess h through
    the induced Christoffel tensor."""
    pj = point_jets(imm, points)
    return np.trace(pj.metric_inverse @ hessian_height_christoffel(pj), axis1=-2, axis2=-1)


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
    n = imm.n
    grad_s = laplacian_gradient_fd(imm, geometry.shape.chart) / n
    omega = (geometry.ric @ geometry.shape.grad_h[..., None])[..., 0] + (n - 1) * grad_s
    dual = (geometry.shape.metric_inverse @ omega[..., None])[..., 0]
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
    sd = geometry.shape
    n = imm.n
    k = imm.ambient.k
    f0, f1, f2 = geometry.warping
    lf1 = f1 / f0
    lf2 = f2 / f0 - lf1 * lf1
    W = sd.grad_h_norm2
    H = sd.mean_curvature
    A = sd.shape_operator
    return (
        (k / (f0 * f0)) * (n - 1) * (n - 2.0 * W)
        + n * lf1 * lf1 * (W - (n - 1))
        - (n - 2) * lf2 * W
        - n * (f2 / f0) * W
        + n * n * H * H
        - np.trace(A @ A, axis1=-2, axis2=-1)
    )


def ricci_gradh_extrinsic(imm, p):
    """Ric(grad h, grad h) evaluated directly in extrinsic terms.

    Independent code path from ``grid_geometry`` (no Ricci matrix is
    assembled); the two must agree.
    """
    sd = shape_at(imm, p)
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
    lo, hi = W.probe_window(margin=0.1)
    t = float(rng.uniform(lo + 0.2, hi - 0.2))
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
