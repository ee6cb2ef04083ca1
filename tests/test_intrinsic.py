import math

import numpy as np
import pytest

from dataclasses import fields, is_dataclass

from warpgeo.errors import BoundaryTooClose
from warpgeo.hypersurface import shape_data
from warpgeo.intrinsic import (
    curvature_package,
    grid_geometry,
    point_geometry,
)
from warpgeo.rotational import weingarten_closed_form

from oracles import perturbed_immersion, ricci_gradh_extrinsic, scalar_fd_oracle


def interior_points(imm, count=3, margin=0.15):
    return imm.chart.grid(count, margin)


def test_unit_sphere_scalar_curvature(sphere2, sphere3):
    for p in interior_points(sphere2):
        pack = curvature_package(sphere2, p)
        assert abs(pack.scal_gauss - 2.0) < 1e-10
        assert abs(pack.scal_formula - 2.0) < 1e-10
    p = sphere3.chart.center()
    pack = curvature_package(sphere3, p)
    assert abs(pack.scal_gauss - 6.0) < 1e-10


def test_hyperplane_is_flat(hyperplane):
    for p in interior_points(hyperplane):
        pack = curvature_package(hyperplane, p)
        assert abs(pack.scal_gauss) < 1e-12
        assert abs(pack.scal_formula) < 1e-12
        assert np.max(np.abs(pack.ric)) < 1e-12
        assert abs(pack.traceless_norm2) < 1e-12


def test_horosphere_is_flat(horosphere):
    for p in interior_points(horosphere):
        pack = curvature_package(horosphere, p)
        assert abs(pack.scal_gauss) < 1e-10
        assert abs(pack.scal_formula) < 1e-10
        assert abs(pack.traceless_norm2) < 1e-10  # totally umbilical


def test_rotational_soliton_is_flat(rotational_soliton):
    for p in interior_points(rotational_soliton):
        pack = curvature_package(rotational_soliton, p)
        assert abs(pack.scal_gauss) < 1e-10
        assert abs(pack.scal_formula) < 1e-10


def test_spherical_slice_scalar(spherical_slice):
    expected = 2.0 / math.sin(1.0) ** 2
    for p in interior_points(spherical_slice, count=2, margin=0.2):
        pack = curvature_package(spherical_slice, p)
        assert abs(pack.scal_gauss - expected) < 1e-10
        assert abs(pack.scal_formula - expected) < 1e-10


def test_three_way_scalar_agreement(catalogue):
    for name, imm in catalogue:
        points = imm.chart.grid(5, 0.1)
        assert len(points) >= 25
        for p in points:
            pack = curvature_package(imm, p)
            assert abs(pack.scal_gauss - pack.scal_formula) < 1e-6, name
            fd = scalar_fd_oracle(imm, p)
            assert abs(pack.scal_gauss - fd) < 1e-3, (name, p)


def test_ricci_matrix_symmetric(catalogue):
    for name, imm in catalogue:
        for p in interior_points(imm, count=2, margin=0.2):
            pack = curvature_package(imm, p)
            assert np.max(np.abs(pack.ric - pack.ric.T)) < 1e-8, name


def test_ricci_gradh_zero_on_slices(horosphere, spherical_slice):
    for imm in (horosphere, spherical_slice):
        p = imm.chart.center()
        assert abs(ricci_gradh_extrinsic(imm, p)) < 1e-12
        assert abs(curvature_package(imm, p).ric_gradh) < 1e-12


def test_ricci_gradh_on_sphere3(sphere3):
    # round metric has Ric = (n-1) g, so Ric(grad h, grad h) = 2 (1 - h^2)
    target_h = 0.5
    u = math.asin(target_h)
    p = (u,) + sphere3.chart.center()[1:]
    sd = shape_data(sphere3, p)
    assert abs(sd.height - 0.5) < 1e-12
    expected = 2.0 * (1.0 - 0.25)
    assert abs(ricci_gradh_extrinsic(sphere3, p) - expected) < 1e-10
    assert abs(curvature_package(sphere3, p).ric_gradh - expected) < 1e-10


def test_ricci_gradh_two_routes_agree(catalogue):
    for name, imm in catalogue:
        for p in interior_points(imm, count=2, margin=0.2):
            pack = curvature_package(imm, p)
            direct = ricci_gradh_extrinsic(imm, p)
            assert abs(pack.ric_gradh - direct) < 1e-8, name


def test_traceless_norm_nonnegative(catalogue):
    for name, imm in catalogue:
        for p in interior_points(imm, count=2, margin=0.2):
            pack = curvature_package(imm, p)
            assert pack.traceless_norm2 >= -1e-10, name


def test_traceless_norm_detects_umbilicity(horosphere, rotational_soliton):
    # umbilical: A = H Id exactly
    pack = curvature_package(horosphere, (0.2, 0.2))
    assert abs(pack.traceless_norm2) < 1e-12
    # rotational surface: principal curvatures -theta and -1/theta differ
    from warpgeo.rotational import RotationalProfile, solve_profile

    prof = RotationalProfile(theta=math.sqrt(2) / 2, f="exp(t)", n=2, u_range=(-1.5, 1.5))
    curve = solve_profile(prof)
    p = (0.3, 2.5)
    pack = curvature_package(rotational_soliton, p)
    ku, kv = weingarten_closed_form(prof, curve, p[0])
    expected = (ku - kv) ** 2 / 2.0  # ((n-1)/n) (k1 - k2)^2 for n = 2
    assert pack.traceless_norm2 > 1e-3
    assert abs(pack.traceless_norm2 - expected) < 1e-10


def test_fd_oracle_values(hyperplane, sphere2, rotational_soliton):
    assert abs(scalar_fd_oracle(hyperplane, (0.2, 0.1))) < 1e-6
    assert abs(scalar_fd_oracle(sphere2, (0.4, 0.8)) - 2.0) < 1e-3
    assert abs(scalar_fd_oracle(rotational_soliton, (0.2, 2.0))) < 1e-3


def test_fd_oracle_boundary_guard(hyperplane):
    with pytest.raises(BoundaryTooClose):
        scalar_fd_oracle(hyperplane, (1.0 - 2e-3, 0.0))


def _arrays(record, prefix=""):
    """Every array of a geometry record, by field path."""
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            yield from _arrays(value, f"{prefix}{f.name}.")
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


def test_point_geometry_is_the_single_point_view(sphere3):
    p = sphere3.chart.center()
    view = point_geometry(sphere3, p)
    assert tuple(view.shape.chart) == p
    assert isinstance(view.scal_gauss, float) and view.ric.shape == (3, 3)
    assert isinstance(view.shape.mean_curvature, float) and view.warping[0] == 1.0
