import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo.ambient import Fiber, WarpedProduct
from warpgeo.hypersurface import ChartBox, Immersion, contract, point_jets
from warpgeo.intrinsic import _ambient_ricci, _covariant_hessian, _laplacian_gradient, _spectral_radius3, grid_geometry

from oracles import (
    FD_TOL,
    ambient_ricci_frame_sum,
    dense_covariant_hessian,
    dense_laplacian_gradient,
    full_columns,
    geometry_at,
    hessian_height_christoffel,
    laplacian_gradient_fd,
    laplacian_height,
    perturbed_immersion,
    point_first,
    point_geometries,
    point_last,
    record_arrays,
    ricci_gradh_extrinsic,
    row,
    scal_formula,
    scalar_fd_oracle,
    second_fundamental_christoffel,
    tangential_ricci_frame_sum,
    weingarten_closed_form,
)


def interior_points(imm, count=3, margin=0.15):
    return imm.chart.grid(count, margin)


def traceless_norm2(pack):
    """|Phi|^2 = |A|^2 - n H^2 of the trace-free shape operator."""
    A = pack.shape_operator
    return np.trace(A @ A) - pack.n * pack.mean_curvature**2


def ric_gradh(pack):
    """Ric(grad h, grad h) from the Ricci matrix of the record."""
    return pack.grad_h @ pack.ric @ pack.grad_h


def test_unit_sphere_scalar_curvature(sphere2, sphere3):
    for pack in point_geometries(sphere2, interior_points(sphere2)):
        assert abs(pack.scal_gauss - 2.0) < 1e-10
        assert abs(scal_formula(sphere2, pack) - 2.0) < 1e-10
    p = sphere3.chart.center()
    pack = geometry_at(sphere3, p)
    assert abs(pack.scal_gauss - 6.0) < 1e-10


def test_hyperplane_is_flat(hyperplane):
    for pack in point_geometries(hyperplane, interior_points(hyperplane)):
        assert abs(pack.scal_gauss) < 1e-12
        assert abs(scal_formula(hyperplane, pack)) < 1e-12
        assert np.max(np.abs(pack.ric)) < 1e-12
        assert abs(traceless_norm2(pack)) < 1e-12


def test_horosphere_is_flat(horosphere):
    for pack in point_geometries(horosphere, interior_points(horosphere)):
        assert abs(pack.scal_gauss) < 1e-10
        assert abs(scal_formula(horosphere, pack)) < 1e-10
        assert abs(traceless_norm2(pack)) < 1e-10  # totally umbilical


def test_rotational_soliton_is_flat(rotational_soliton):
    for pack in point_geometries(rotational_soliton, interior_points(rotational_soliton)):
        assert abs(pack.scal_gauss) < 1e-10
        assert abs(scal_formula(rotational_soliton, pack)) < 1e-10


def test_spherical_slice_scalar(spherical_slice):
    expected = 2.0 / math.sin(1.0) ** 2
    for pack in point_geometries(spherical_slice, interior_points(spherical_slice, 2, 0.2)):
        assert abs(pack.scal_gauss - expected) < 1e-10
        assert abs(scal_formula(spherical_slice, pack) - expected) < 1e-10


def test_three_way_scalar_agreement(catalogue):
    for name, imm in catalogue:
        points = imm.chart.grid(5, 0.1)
        assert len(points) >= 25
        for p, pack in zip(points, point_geometries(imm, points)):
            assert abs(pack.scal_gauss - scal_formula(imm, pack)) < 1e-6, name
            fd = scalar_fd_oracle(imm, p)
            assert abs(pack.scal_gauss - fd) < 1e-3, (name, p)


def test_ricci_matrix_symmetric(catalogue):
    for name, imm in catalogue:
        for pack in point_geometries(imm, interior_points(imm, count=2, margin=0.2)):
            assert np.max(np.abs(pack.ric - pack.ric.T)) < 1e-8, name


def test_ricci_gradh_zero_on_slices(horosphere, spherical_slice):
    for imm in (horosphere, spherical_slice):
        p = imm.chart.center()
        assert abs(ricci_gradh_extrinsic(imm, p)) < 1e-12
        assert abs(ric_gradh(geometry_at(imm, p))) < 1e-12


def test_ricci_gradh_on_sphere3(sphere3):
    # round metric has Ric = (n-1) g, so Ric(grad h, grad h) = 2 (1 - h^2)
    target_h = 0.5
    u = math.asin(target_h)
    p = (u,) + sphere3.chart.center()[1:]
    sd = geometry_at(sphere3, p)
    assert abs(sd.ambient_point.t - 0.5) < 1e-12
    expected = 2.0 * (1.0 - 0.25)
    assert abs(ricci_gradh_extrinsic(sphere3, p) - expected) < 1e-10
    assert abs(ric_gradh(geometry_at(sphere3, p)) - expected) < 1e-10


def test_ricci_gradh_two_routes_agree(catalogue):
    for name, imm in catalogue:
        points = interior_points(imm, count=2, margin=0.2)
        for p, pack in zip(points, point_geometries(imm, points)):
            direct = ricci_gradh_extrinsic(imm, p)
            assert abs(ric_gradh(pack) - direct) < 1e-8, name


def test_traceless_norm_nonnegative(catalogue):
    for name, imm in catalogue:
        for pack in point_geometries(imm, interior_points(imm, count=2, margin=0.2)):
            assert traceless_norm2(pack) >= -1e-10, name


def test_traceless_norm_detects_umbilicity(horosphere, rotational_soliton):
    # umbilical: A = H Id exactly
    pack = geometry_at(horosphere, (0.2, 0.2))
    assert abs(traceless_norm2(pack)) < 1e-12
    # rotational surface: principal curvatures -theta and -1/theta differ
    from warpgeo.rotational import RotationalProfile, solve_profile

    prof = RotationalProfile(theta=math.sqrt(2) / 2, f="exp(t)", n=2, u_range=(-1.5, 1.5))
    curve = solve_profile(prof)
    p = (0.3, 2.5)
    pack = geometry_at(rotational_soliton, p)
    ku, kv = weingarten_closed_form(prof, curve, p[0])
    expected = (ku - kv) ** 2 / 2.0  # ((n-1)/n) (k1 - k2)^2 for n = 2
    assert traceless_norm2(pack) > 1e-3
    assert abs(traceless_norm2(pack) - expected) < 1e-10


def test_fd_oracle_values(hyperplane, sphere2, rotational_soliton):
    assert abs(scalar_fd_oracle(hyperplane, (0.2, 0.1))) < 1e-6
    assert abs(scalar_fd_oracle(sphere2, (0.4, 0.8)) - 2.0) < 1e-3
    assert abs(scalar_fd_oracle(rotational_soliton, (0.2, 2.0))) < 1e-3


def test_fd_oracle_boundary_guard(hyperplane):
    with pytest.raises(ValueError):
        scalar_fd_oracle(hyperplane, (1.0 - 2e-3, 0.0))


def test_geometry_does_not_depend_on_the_batch(catalogue, rotational_cosh, rng):
    # each point's record is bit-identical whether it is evaluated with the
    # whole grid, alone, or in a batch where it sits one place earlier;
    # the tilted graphs bring n = 4 and ambients that are not space forms,
    # and the rotational surfaces a profile node (closed-form and interpolated beta)
    immersions = list(catalogue) + [("perturbed", perturbed_immersion(catalogue[3][1], rng))]
    immersions.append(("rotational-cosh", rotational_cosh))
    immersions += [
        (f"tilted-{fiber.value}-{n}", _tilted_immersion(fiber, n, rng, CURVED_WARPINGS[0]))
        for fiber, n in ((Fiber.SPHERE, 3), (Fiber.EUCLIDEAN, 4))
    ]
    for name, imm in immersions:
        grid = imm.chart.grid(4, 0.1)
        full = dict(record_arrays(grid_geometry(imm, grid)))
        shifted = dict(record_arrays(grid_geometry(imm, grid[1:])))
        for i, p in enumerate(grid):
            single = dict(record_arrays(grid_geometry(imm, [p])))
            for key, values in full.items():
                assert values[..., i].tobytes() == single[key][..., 0].tobytes(), (name, key, i)
                if i:
                    assert values[..., i].tobytes() == shifted[key][..., i - 1].tobytes(), (name, key, i)


def test_order_three_record_extends_order_two(catalogue, rotational_cosh, rng):
    # the pass of order 3 adds lap_gradient and leaves every other field
    # bit-identical; each point's gradient does not depend on the batch
    immersions = list(catalogue) + [("perturbed", perturbed_immersion(catalogue[3][1], rng))]
    immersions.append(("rotational-cosh", rotational_cosh))
    for name, imm in immersions:
        grid = imm.chart.grid(3, 0.1)
        two = dict(record_arrays(grid_geometry(imm, grid)))
        three = dict(record_arrays(grid_geometry(imm, grid, order=3)))
        gradient = three.pop("lap_gradient")
        assert gradient.shape == (imm.n, len(grid)) and np.all(np.isfinite(gradient)), name
        assert {key: v.tobytes() for key, v in two.items()} == {
            key: v.tobytes() for key, v in three.items()
        }, name
        for i, p in enumerate(grid):
            single = grid_geometry(imm, [p], order=3).lap_gradient[..., 0]
            assert single.tobytes() == gradient[..., i].tobytes(), (name, i)


def test_residual_is_the_largest_generalized_eigenvalue(catalogue, rng):
    # the residual is max |eigenvalue| of g^-1 (Hess h - (Lap h / n) g):
    # of the factored matrix, in closed form for n = 2 and 3
    immersions = list(catalogue) + [
        (f"perturbed-{i}", perturbed_immersion(catalogue[i][1], rng, amplitude=0.05))
        for i in (3, 4)
    ]
    for name, imm in immersions:
        geo = grid_geometry(imm, imm.chart.grid(4, 0.1))
        g, hess = point_first(geo.metric), point_first(geo.hess_direct)
        lap = np.trace(np.linalg.solve(g, hess), axis1=-2, axis2=-1)
        trace_free = hess - (lap / imm.n)[:, None, None] * g
        oracle = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(g, trace_free))), axis=-1)
        assert np.all(np.abs(geo.residual - oracle) <= 1e-12 * np.maximum(oracle, 1.0)), name
        if name.startswith("perturbed"):
            assert np.min(oracle) > 1e-4, name


def _trace_free_spectra(family, rng, count=2000):
    """(count, 3) eigenvalues summing to zero, in the named family."""
    if family == "random":
        a, b = rng.uniform(-1.0, 1.0, (2, count))
    elif family == "zero":
        a = b = np.zeros(count)
    elif family == "tie":
        a, b = np.ones(count), -np.ones(count)
    else:  # a double eigenvalue, to a relative gap of 1e-9 or 1e-12, of either sign
        a = rng.choice([-1.0, 1.0], count) * rng.uniform(0.1, 1.0, count)
        b = a * (1.0 + float(family) * rng.uniform(-1.0, 1.0, count))
    return np.stack([a, b, -(a + b)], axis=-1)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150], ids=["1", "1e150", "1e-150"])
@pytest.mark.parametrize("family", ["random", "1e-9", "1e-12", "zero", "tie"])
def test_spectral_radius3_matches_eigvalsh(family, scale, rng):
    # the closed form against LAPACK on trace-free symmetric matrices Q diag(l) Q^T
    spectra = _trace_free_spectra(family, rng)
    Q = np.linalg.qr(rng.standard_normal((len(spectra), 3, 3)))[0]
    M = scale * (Q * spectra[:, None, :]) @ np.swapaxes(Q, -1, -2)
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    oracle = np.max(np.abs(np.linalg.eigvalsh(M)), axis=-1)
    size = np.max(np.abs(M), axis=(-2, -1))
    assert np.all(np.abs(_spectral_radius3(point_last(M)) - oracle) <= 1e-14 * size)


def test_spectral_radius3_of_a_non_finite_matrix_is_nan():
    M = np.zeros((3, 3, 3))
    M[0, 1, 0] = M[1, 0, 0] = np.inf
    M[2, 2, 1] = np.nan
    M[0, 0, 2], M[1, 1, 2] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(_spectral_radius3(M)).all()


def test_point_geometry_is_the_single_point_view(sphere3):
    p = sphere3.chart.center()
    view = row(grid_geometry(sphere3, [p]), 0)
    assert tuple(view.chart) == p
    assert isinstance(view.scal_gauss, float) and view.ric.shape == (3, 3)
    assert isinstance(view.mean_curvature, float) and view.warping[0] == 1.0


def _tilted_immersion(fiber, n, rng, f="2+sin(t)"):
    """A perturbed graph over the fiber chart, tilted in t so that N has
    a fiber part, in the ambient ``f`` (default 2 + sin t) over ``fiber``."""
    names = tuple(f"u{i}" for i in range(1, n + 1))
    ambient = WarpedProduct((-math.inf, math.inf), f, fiber, n)
    tilt = "+".join(f"{0.3 / i!r}*{u}" for i, u in enumerate(names, start=1))
    height = f"0.4+{tilt}+0.2*{names[-1]}^2"
    if fiber is Fiber.SPHERE:
        angles = [f"1.3+0.4*{u}" for u in names]  # inside (0, pi) and (0, 2 pi)
    else:
        angles = [f"{u}+0.1*{names[0]}*{u}" for u in names]
    chart = ChartBox(names, (-1.0,) * n, (1.0,) * n)
    return perturbed_immersion(Immersion(ambient, chart, [height, *angles]), rng, amplitude=0.02)


def _assert_close(value, oracle, label):
    scale = max(np.max(np.abs(oracle)), 1.0)
    assert np.max(np.abs(value - oracle)) <= 1e-12 * scale, label


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("fiber", [Fiber.EUCLIDEAN, Fiber.SPHERE], ids=lambda f: f.value)
def test_closed_forms_match_the_tensor_oracles(fiber, n, rng):
    # II, the ambient Ricci term and Hess h come from closed-form
    # contractions; the oracles build the ambient Christoffel tensor, sum
    # one curvature evaluation per tangent frame vector and apply the
    # induced Christoffel tensor (from dg); an order-3 pass takes the same
    # Hess h, to the bit
    imm = _tilted_immersion(fiber, n, rng)
    grid = imm.chart.grid(3, 0.2)
    geo = grid_geometry(imm, grid)
    pj = point_jets(imm, grid)
    assert np.min(np.abs(geo.normal[1:])) > 1e-3 and np.min(geo.grad_h_norm2) > 1e-3
    _assert_close(geo.second_fundamental, second_fundamental_christoffel(pj, geo.normal), "II")
    _assert_close(geo.hess_direct, hessian_height_christoffel(pj), "Hess h")
    assert grid_geometry(imm, grid, order=3).hess_direct.tobytes() == geo.hess_direct.tobytes()
    A, g, H = point_first(geo.shape_operator), point_first(geo.metric), geo.mean_curvature
    II = point_first(geo.second_fundamental)
    quadratic = point_last((n * H)[:, None, None] * II - np.swapaxes(A, -1, -2) @ g @ A)
    S = tangential_ricci_frame_sum(imm.ambient, pj)
    _assert_close(geo.ric - quadratic, S, "ambient Ricci")
    lap = np.trace(np.linalg.solve(g, point_first(geo.hess_direct)), axis1=1, axis2=2)
    _assert_close(laplacian_height(imm, grid), lap, "Lap h")


# warpings whose ambient is not a space form: f'' != 0 and f'^2 != k
CURVED_WARPINGS = ["2+sin(t)+0.1*t^2", "cosh(t)+0.5*t"]


@pytest.mark.parametrize("f", CURVED_WARPINGS)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("fiber", [Fiber.EUCLIDEAN, Fiber.SPHERE], ids=lambda f: f.value)
def test_ambient_ricci_closed_form_matches_the_curvature_frame_sum(fiber, n, f, rng):
    # ((n-1) a + b (1 - theta^2)) g + (n-2) b dh dh against Ric-bar less
    # <R-bar(E_i, N)N, E_j>, each a sum of curvature evaluations
    imm = _tilted_immersion(fiber, n, rng, f)
    grid = imm.chart.grid(3, 0.2)
    pj = point_jets(imm, grid)
    geo = grid_geometry(imm, grid)
    assert np.min(np.abs(geo.normal[1:])) > 1e-3 and np.min(geo.grad_h_norm2) > 1e-3
    f0, f1, f2 = pj.warping
    assert np.ptp(f2 / f0) > 1e-2 and np.ptp((f1 * f1 - imm.ambient.k) / (f0 * f0)) > 1e-2
    closed = _ambient_ricci(imm.ambient, pj, geo.normal)
    oracle = ambient_ricci_frame_sum(imm.ambient, pj, geo.normal)
    assert np.max(np.abs(closed - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@settings(max_examples=40, deadline=None)
@given(fiber=st.sampled_from(list(Fiber)), n=st.integers(1, 3), order=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_packed_dD_contractions_equal_the_dense_ones(fiber, n, order, seed):
    # dD keeps the K columns that can be nonzero (t alone, or t and x1 ..
    # x_{n-1} for the sphere) and d2D the K x K block; P = dD E, q = dD v,
    # II and Hess h and, at order 3, d_m Lap h contract over those columns
    # only, and equal the contractions over all d columns, zeros written
    # out, entry by entry (== holds for zeros of either sign)
    rng = np.random.default_rng(seed)
    imm = _tilted_immersion(fiber, n, rng)
    points = rng.uniform(-0.9, 0.9, (int(rng.integers(1, 9)), n))
    pj, geo = point_jets(imm, points, order), grid_geometry(imm, points, order)
    d, K = n + 1, pj.dD.shape[1]
    assert K == (n if fiber is Fiber.SPHERE else 1)
    dense = pj._replace(dD=point_last(full_columns(point_first(pj.dD), d)))
    E = pj.frame
    P, P_dense = contract("acp,cip->aip", pj.dD, E[:K]), contract("acp,cip->aip", dense.dD, E)
    assert np.array_equal(P, P_dense)
    for v in (geo.normal, contract("aip,ip->ap", E, geo.grad_h)):
        assert np.array_equal(contract("abp,bp->ap", pj.dD, v[:K]), contract("abp,bp->ap", dense.dD, v))
        assert np.array_equal(_covariant_hessian(pj, P, v), dense_covariant_hessian(dense, P_dense, v))
    assert np.array_equal(geo.second_fundamental, dense_covariant_hessian(dense, P_dense, geo.normal))
    if order == 3:
        d2D = imm.ambient.diagonal_jets(pj.ambient_point.x, pj.warping, second=True)[2]
        assert d2D.shape == (d, K, K, len(points))
        d2D_dense = np.zeros((d, d, d, len(points)))
        d2D_dense[:, :K, :K] = d2D
        G, grad_h = geo.metric_inverse, geo.grad_h
        packed = _laplacian_gradient(imm.ambient, pj, G, P, grad_h)
        assert np.array_equal(packed, dense_laplacian_gradient(dense, d2D_dense, G, P_dense, grad_h))
        assert np.array_equal(packed, geo.lap_gradient)


def _rotational(f, n):
    from warpgeo.rotational import RotationalProfile

    from oracles import build_rotational

    return build_rotational(RotationalProfile(theta=0.6, f=f, n=n, u_range=(-1.0, 1.0)))


@pytest.mark.parametrize(
    "case",
    ["euclidean-2", "euclidean-3", "sphere-2", "sphere-3", "rotational-exp", "rotational-cosh"],
)
def test_laplacian_gradient_matches_finite_differences(case, rng):
    # the exact d_m Lap h of one order-3 jet pass against central
    # differences of Lap h: tilted graphs over both fibers (the normal has
    # a fiber part, the sphere fiber brings d2D off the t axis), and
    # rotational profiles with the closed-form beta and the interpolant
    kind, arg = case.split("-")
    if kind == "rotational":
        imm = _rotational(arg + "(t)", 3 if arg == "exp" else 2)
    else:
        imm = _tilted_immersion(Fiber(kind), int(arg), rng)
    grid = imm.chart.grid(3, 0.2)
    exact = grid_geometry(imm, grid, order=3).lap_gradient
    fd = laplacian_gradient_fd(imm, grid)
    assert exact.shape == (imm.n, len(grid))
    assert np.max(np.abs(point_first(exact) - fd)) < FD_TOL * max(1.0, np.max(np.abs(fd)))
