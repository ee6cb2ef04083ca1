import math

import numpy as np
import pytest

from dataclasses import fields, is_dataclass

from warpgeo.ambient import Fiber, WarpedProduct
from warpgeo.hypersurface import ChartBox, Immersion, point_jets
from warpgeo.intrinsic import grid_geometry
from warpgeo.rotational import weingarten_closed_form

from oracles import (
    FD_TOL,
    geometry_at,
    hessian_height_christoffel,
    laplacian_gradient_fd,
    laplacian_height,
    perturbed_immersion,
    point_geometries,
    ricci_gradh_extrinsic,
    scal_formula,
    scalar_fd_oracle,
    second_fundamental_christoffel,
    shape_at,
    tangential_ricci_frame_sum,
)


def interior_points(imm, count=3, margin=0.15):
    return imm.chart.grid(count, margin)


def traceless_norm2(pack):
    """|Phi|^2 = |A|^2 - n H^2 of the trace-free shape operator."""
    A = pack.shape.shape_operator
    return np.trace(A @ A) - pack.shape.n * pack.shape.mean_curvature**2


def ric_gradh(pack):
    """Ric(grad h, grad h) from the Ricci matrix of the record."""
    return pack.shape.grad_h @ pack.ric @ pack.shape.grad_h


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
    sd = shape_at(sphere3, p)
    assert abs(sd.height - 0.5) < 1e-12
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


def _arrays(record, prefix=""):
    """Every array of a geometry record, by field path."""
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            yield from _arrays(value, f"{prefix}{f.name}.")
        elif value is None:
            continue
        elif isinstance(value, tuple):
            for k, item in enumerate(value):
                yield f"{prefix}{f.name}[{k}]", item
        else:
            yield prefix + f.name, value


def test_geometry_does_not_depend_on_the_batch(catalogue, rng):
    # each point's record is bit-identical whether it is evaluated with the
    # whole grid, alone, or in a batch where it sits one place earlier
    immersions = list(catalogue) + [("perturbed", perturbed_immersion(catalogue[3][1], rng))]
    for name, imm in immersions:
        grid = imm.chart.grid(4, 0.1)
        full = dict(_arrays(grid_geometry(imm, grid)))
        shifted = dict(_arrays(grid_geometry(imm, grid[1:])))
        for i, p in enumerate(grid):
            single = dict(_arrays(grid_geometry(imm, [p])))
            for key, values in full.items():
                assert values[i].tobytes() == single[key][0].tobytes(), (name, key, i)
                if i:
                    assert values[i].tobytes() == shifted[key][i - 1].tobytes(), (name, key, i)


def test_order_three_record_extends_order_two(catalogue, rng):
    # the pass of order 3 adds lap_gradient and leaves every other field
    # bit-identical; each point's gradient does not depend on the batch
    immersions = list(catalogue) + [("perturbed", perturbed_immersion(catalogue[3][1], rng))]
    for name, imm in immersions:
        grid = imm.chart.grid(3, 0.1)
        two = dict(_arrays(grid_geometry(imm, grid)))
        three = dict(_arrays(grid_geometry(imm, grid, order=3)))
        gradient = three.pop("lap_gradient")
        assert gradient.shape == (len(grid), imm.n) and np.all(np.isfinite(gradient)), name
        assert {key: v.tobytes() for key, v in two.items()} == {
            key: v.tobytes() for key, v in three.items()
        }, name
        for i, p in enumerate(grid):
            single = grid_geometry(imm, [p], order=3).lap_gradient[0]
            assert single.tobytes() == gradient[i].tobytes(), (name, i)


def test_point_geometry_is_the_single_point_view(sphere3):
    p = sphere3.chart.center()
    view = grid_geometry(sphere3, [p]).at(0)
    assert tuple(view.shape.chart) == p
    assert isinstance(view.scal_gauss, float) and view.ric.shape == (3, 3)
    assert isinstance(view.shape.mean_curvature, float) and view.warping[0] == 1.0


def _tilted_immersion(fiber, n, rng):
    """A perturbed graph over the fiber chart, tilted in t so that N has
    a fiber part, in the ambient (2 + sin t) over ``fiber``."""
    names = tuple(f"u{i}" for i in range(1, n + 1))
    ambient = WarpedProduct((-math.inf, math.inf), "2+sin(t)", fiber, n)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("fiber", [Fiber.EUCLIDEAN, Fiber.SPHERE], ids=lambda f: f.value)
def test_closed_forms_match_the_tensor_oracles(fiber, n, rng):
    # II, the ambient Ricci term and Hess h come from closed-form
    # contractions; the oracles build the ambient Christoffel tensor, sum
    # one curvature evaluation per tangent frame vector and apply the
    # induced Christoffel tensor
    imm = _tilted_immersion(fiber, n, rng)
    grid = imm.chart.grid(3, 0.2)
    geo = grid_geometry(imm, grid)
    pj = point_jets(imm, grid)
    sd = geo.shape
    assert np.min(np.abs(sd.normal[:, 1:])) > 1e-3 and np.min(sd.grad_h_norm2) > 1e-3
    _assert_close(sd.second_fundamental, second_fundamental_christoffel(pj, sd.normal), "II")
    _assert_close(geo.hess_direct, hessian_height_christoffel(pj), "Hess h")
    A, g, H = sd.shape_operator, sd.metric, sd.mean_curvature
    quadratic = (n * H)[:, None, None] * sd.second_fundamental - np.swapaxes(A, -1, -2) @ g @ A
    S = tangential_ricci_frame_sum(imm.ambient, pj)
    _assert_close(geo.ric - quadratic, S, "ambient Ricci")
    lap = np.trace(np.linalg.solve(g, geo.hess_direct), axis1=1, axis2=2)
    _assert_close(laplacian_height(imm, grid), lap, "Lap h")


def _rotational(f, n):
    from warpgeo.rotational import RotationalProfile, build_rotational

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
    assert exact.shape == (len(grid), imm.n)
    assert np.max(np.abs(exact - fd)) < FD_TOL * max(1.0, np.max(np.abs(fd)))
