import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpgeo.ambient import WarpedProduct
from warpgeo.catalogue import hyperplane_immersion, slice_immersion
from warpgeo import hypersurface, intrinsic, jets
from warpgeo.errors import MAX_DIMENSION, DegenerateImmersion, DomainError, OutsideChart
from warpgeo.hypersurface import ChartBox, Immersion
from warpgeo.intrinsic import grid_geometry

from oracles import (
    cofactor_normal,
    dense_metric,
    dense_metric_jets,
    euclidean_ambient,
    flip_orientation,
    geometry_at,
    hyperbolic_ambient,
    perturbed_immersion,
    point_first,
    point_geometries,
    point_last,
    qr_normal,
    record_arrays,
    shape_operator_from_normal_derivative,
    spherical_cap_ambient,
)


def interior_points(imm, count=3, margin=0.15):
    return imm.chart.grid(count, margin)


def test_horosphere_closed_form(horosphere):
    for sd in point_geometries(horosphere, interior_points(horosphere)):
        assert np.allclose(sd.shape_operator, -np.eye(2), atol=1e-12)
        assert abs(sd.mean_curvature + 1.0) < 1e-12
        assert abs(sd.theta - 1.0) < 1e-12
        assert np.max(np.abs(sd.grad_h)) < 1e-12
        assert sd.ambient_point.t == 0.0


def test_general_slice_closed_form(spherical_slice):
    # slice at t0 has A = -(f'/f)(t0) Id with the outward-in-t normal
    t0 = 1.0
    expected = -math.cos(t0) / math.sin(t0)
    for sd in point_geometries(spherical_slice, interior_points(spherical_slice)):
        assert np.allclose(sd.shape_operator, expected * np.eye(2), atol=1e-10)
        assert abs(sd.theta - 1.0) < 1e-12
        assert sd.ambient_point.t == t0


def test_hyperplane_closed_form(hyperplane):
    points = interior_points(hyperplane)
    for p, sd in zip(points, point_geometries(hyperplane, points)):
        assert np.max(np.abs(sd.shape_operator)) < 1e-14
        assert abs(sd.theta) < 1e-14
        assert abs(sd.grad_h_norm2 - 1.0) < 1e-12
        assert sd.ambient_point.t == p[0]


def test_sphere_outward_orientation(sphere2):
    for sd in point_geometries(sphere2, interior_points(sphere2)):
        assert np.allclose(sd.shape_operator, -np.eye(2), atol=1e-10)
        assert abs(sd.theta - sd.ambient_point.t) < 1e-12
        assert abs(sd.mean_curvature + 1.0) < 1e-10
        # outward normal equals the position vector
        position = np.array((sd.ambient_point.t,) + sd.ambient_point.x)
        assert np.allclose(sd.normal, position, atol=1e-12)


def test_sphere3_closed_form(sphere3):
    for sd in point_geometries(sphere3, interior_points(sphere3, count=2, margin=0.2)):
        assert np.allclose(sd.shape_operator, -np.eye(3), atol=1e-10)
        assert abs(sd.theta - sd.ambient_point.t) < 1e-12


def test_theta_nonnegative_at_center(catalogue):
    for name, imm in catalogue:
        sd = geometry_at(imm, imm.chart.center())
        assert sd.theta > -1e-10, name


def test_normal_is_unit_and_orthogonal(catalogue, rng):
    for name, imm in catalogue:
        for sd in point_geometries(imm, interior_points(imm, count=2, margin=0.2)):
            G = dense_metric(imm.ambient, sd.ambient_point)
            assert abs(sd.normal @ G @ sd.normal - 1.0) < 1e-12, name
            for i in range(sd.n):
                assert abs(sd.normal @ G @ sd.frame[:, i]) < 1e-10, name


def test_diagonal_normal_matches_qr_oracle(catalogue):
    for name, imm in catalogue:
        pj = hypersurface.point_jets(imm, interior_points(imm, count=3, margin=0.12))
        normal = point_first(hypersurface._unit_normal(pj.frame, pj.D))
        E, D = point_first(pj.frame), point_first(pj.D)
        G, _ = dense_metric_jets(D, point_first(pj.dD))
        oracle = qr_normal(E, G)
        assert np.all(np.linalg.det(np.concatenate([E, normal[..., None]], -1)) > 0.0), name
        assert np.max(np.abs(normal - oracle)) < 1e-13, name
        assert np.max(np.abs(normal - cofactor_normal(E, D))) < 1e-13, name


def _well_conditioned_grams(rng, n, count):
    """Gram matrices A^T A / n + I of random A: eigenvalues between 1 and about 5."""
    A = rng.standard_normal((count, n, n))
    return np.swapaxes(A, -1, -2) @ A / n + np.eye(n)


def _assert_factor_matches_lapack(g):
    """``_factor`` of the (n, n, N) matrices ``g`` against LAPACK, which
    takes them point axis first; returns the pivots and F."""
    pivots, F = hypersurface._factor(g)
    L = np.linalg.cholesky(point_first(g))
    oracle = np.swapaxes(np.linalg.inv(L), -1, -2)
    size = np.max(np.abs(oracle), axis=(-2, -1))
    assert np.all(np.max(np.abs(point_first(F) - oracle), axis=(-2, -1)) <= 1e-13 * size)
    diagonal = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    assert np.all(np.abs(point_first(pivots) - diagonal) <= 1e-13 * diagonal)
    det = np.linalg.det(point_first(g))
    assert np.all(np.abs(np.prod(pivots, axis=0) - det) <= 1e-13 * det)
    return pivots, F


@pytest.mark.parametrize("n", range(1, MAX_DIMENSION + 1))
def test_column_factor_matches_lapack(n, rng):
    # the pivots, det g and F = L^-T agree with LAPACK's Cholesky and
    # inverse, and a batched matrix gives the bits it gives alone
    g = point_last(_well_conditioned_grams(rng, n, 40))
    pivots, F = _assert_factor_matches_lapack(g)
    for i in range(g.shape[-1]):
        alone = hypersurface._factor(g[..., i : i + 1])
        assert alone[0].tobytes() == pivots[..., i : i + 1].tobytes()
        assert alone[1].tobytes() == F[..., i : i + 1].tobytes()


@pytest.mark.parametrize("n", [2, 3, 8])
def test_column_factor_near_the_gram_limit(n, rng):
    # well-conditioned g scaled so that det g straddles GRAM_DET_LIMIT:
    # the pivot product classifies each matrix as the determinant does
    g = _well_conditioned_grams(rng, n, 40)
    det = np.linalg.det(g)
    target = hypersurface.GRAM_DET_LIMIT * np.exp(rng.uniform(-1e-6, 1e-6, len(g)))
    g *= ((target / det) ** (1.0 / n))[:, None, None]
    pivots, _ = _assert_factor_matches_lapack(point_last(g))
    limit = hypersurface.GRAM_DET_LIMIT
    assert np.array_equal(np.prod(pivots, axis=0) <= limit, np.linalg.det(g) <= limit)
    assert 0 < np.count_nonzero(np.prod(pivots, axis=0) <= limit) < len(g)


def test_column_factor_of_a_non_finite_gram_has_no_nonpositive_pivot():
    # a Gram matrix that overflowed gives inf or NaN pivots, never a pivot
    # <= 0, so point_jets does not call it degenerate: the later finiteness
    # checks report it (the "gram-overflow" CLI case exits 3, "not finite")
    g = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[np.inf, np.inf], [np.inf, np.inf]]])
    with np.errstate(all="ignore"):
        pivots, _ = hypersurface._factor(point_last(g))
    assert not np.any(pivots <= 0.0)
    assert not np.any(np.prod(pivots, axis=0) <= hypersurface.GRAM_DET_LIMIT)


@pytest.mark.parametrize("n", range(1, MAX_DIMENSION + 1))
def test_factor_normal_matches_the_cofactor_oracle_on_random_frames(n, rng):
    # frames with orthonormal columns times I + 0.3 R (condition below
    # about 3) and a diagonal metric in [0.5, 2]
    count, d = 40, n + 1
    Q = np.linalg.qr(rng.standard_normal((count, d, d)))[0][..., :n]
    E = Q @ (np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (count, n, n)) / n)
    D = rng.uniform(0.5, 2.0, (count, d))
    oracle = cofactor_normal(E, D)
    E, D = point_last(E), point_last(D)
    normal = hypersurface._unit_normal(E, D)
    assert np.max(np.abs(point_first(normal) - oracle)) < 1e-13
    for i in range(count):
        alone = hypersurface._unit_normal(E[..., i : i + 1], D[..., i : i + 1])
        assert alone.tobytes() == normal[..., i : i + 1].tobytes()


_ORIENTED_DIMENSIONS = (1, 2, 3, 4, 5, MAX_DIMENSION)


@pytest.mark.parametrize(
    "n, scale",
    [(n, 1.0) for n in _ORIENTED_DIMENSIONS] + [(n, 1e120) for n in _ORIENTED_DIMENSIONS],
    ids=[f"{n}" for n in _ORIENTED_DIMENSIONS] + [f"{n}-1e120" for n in _ORIENTED_DIMENSIONS],
)
def test_unit_normal_is_positively_oriented(n, scale, rng):
    # det([E | N]) > 0 by LAPACK's determinant of the (n+1) x (n+1) matrix, on
    # generic frames and metrics; a frame of size 1e120 has a finite metric, and
    # its cofactors must not overflow (n >= 4 takes them by LAPACK's det)
    count, d = 400, n + 1
    E = scale * rng.standard_normal((count, d, n))
    D = np.exp(rng.uniform(-2.0, 2.0, (count, d)))
    normal = point_first(hypersurface._unit_normal(point_last(E), point_last(D)))
    assert np.all(np.linalg.det(np.concatenate([E / scale, normal[..., None]], axis=-1)) > 0.0)
    assert np.max(np.abs(np.sum(D * normal * normal, axis=-1) - 1.0)) < 1e-12


@pytest.mark.parametrize("order", [2, 3])
def test_point_jets_hold_the_component_jet_slots(sphere3, rotational_soliton, rotational_cosh, order):
    # frame[a, i, p], second[a, i, j, p] and third[a, i, j, k, p] are the
    # slots of component a at point p, to the bit, with or without a
    # profile node (closed-form and interpolated beta): the component jets'
    # own slots, each equal to its expression's jet alone; an order-3 pass
    # leaves the order-2 slots as they are
    for imm in (sphere3, rotational_soliton, rotational_cosh):
        points = imm.chart.grid(3, 0.2)
        stacked = imm.component_jets(points, order)
        pj = hypersurface.point_jets(imm, points, order)
        slots = [pj.frame, pj.second] + ([pj.third] if order == 3 else [])
        assert (pj.third is None) == (order == 2)
        columns = dict(zip(imm.chart.names, np.asarray(points).T))
        alone = [jets.eval_jet2(expr, columns, imm.chart.names, order) for expr in imm.components]
        for r, slot in enumerate(slots, start=1):
            assert slot.flags.c_contiguous and slot.shape == (imm.n + 1,) + (imm.n,) * r + (len(points),)
            assert slot.tobytes() == stacked[r].tobytes()
            for a, jet in enumerate(alone):
                assert slot[a].tobytes() == jet[r].tobytes()
        assert np.stack([pj.ambient_point.t, *pj.ambient_point.x]).tobytes() == stacked.value.tobytes()
        if order == 3:
            two = hypersurface.point_jets(imm, points, 2)
            assert [pj.frame.tobytes(), pj.second.tobytes()] == [two.frame.tobytes(), two.second.tobytes()]


def test_first_fundamental_form_spd(catalogue):
    for name, imm in catalogue:
        for sd in point_geometries(imm, interior_points(imm, count=2, margin=0.2)):
            assert np.allclose(sd.metric, sd.metric.T, atol=1e-14), name
            assert np.all(np.linalg.eigvalsh(sd.metric) > 0.0), name


def test_weingarten_self_adjoint(catalogue):
    for name, imm in catalogue:
        for sd in point_geometries(imm, interior_points(imm, count=3, margin=0.12)):
            gA = sd.metric @ sd.shape_operator
            assert np.max(np.abs(gA - gA.T)) < 1e-8, name


def test_angle_identity(catalogue):
    for name, imm in catalogue:
        for sd in point_geometries(imm, interior_points(imm, count=3, margin=0.12)):
            assert abs(sd.grad_h_norm2 + sd.theta**2 - 1.0) < 1e-10, name


def test_tangential_projection(catalogue):
    # d_t decomposes as theta N + (tangential gradient of h)
    for name, imm in catalogue:
        for sd in point_geometries(imm, interior_points(imm, count=2, margin=0.2)):
            e0 = np.zeros(imm.ambient.dim)
            e0[0] = 1.0
            residual = e0 - sd.theta * sd.normal - sd.frame @ sd.grad_h
            assert np.max(np.abs(residual)) < 1e-9, name


def test_shape_operator_two_paths_agree(catalogue):
    for name, imm in catalogue:
        points = interior_points(imm, count=2, margin=0.2)
        for p, sd in zip(points, point_geometries(imm, points)):
            other = shape_operator_from_normal_derivative(imm, p)
            assert np.max(np.abs(sd.shape_operator - other)) < 1e-6, name


def test_flip_orientation_signs(horosphere):
    sd = geometry_at(horosphere, (0.2, -0.1))
    flipped = flip_orientation(sd)
    assert flipped.theta == -1.0
    assert np.allclose(flipped.shape_operator, np.eye(2), atol=1e-12)
    assert flipped.mean_curvature == -sd.mean_curvature
    assert np.array_equal(flipped.metric, sd.metric)
    assert np.array_equal(flipped.grad_h, sd.grad_h)
    assert flipped.ambient_point.t == sd.ambient_point.t


def test_flip_is_involution(sphere2):
    sd = geometry_at(sphere2, (0.3, 0.7))
    twice = flip_orientation(flip_orientation(sd))
    assert np.array_equal(twice.normal, sd.normal)
    assert np.array_equal(twice.shape_operator, sd.shape_operator)
    assert twice.theta == sd.theta
    assert twice.mean_curvature == sd.mean_curvature


def test_flip_leaves_quadratic_terms_invariant(sphere2):
    sd = geometry_at(sphere2, (0.4, -0.5))
    flipped = flip_orientation(sd)
    assert np.array_equal(
        sd.theta * sd.second_fundamental, flipped.theta * flipped.second_fundamental
    )
    assert sd.theta * sd.mean_curvature == flipped.theta * flipped.mean_curvature


def test_mean_curvature_examples(hyperplane, horosphere, rotational_soliton):
    assert geometry_at(hyperplane, (0.2, 0.3)).mean_curvature == 0.0
    assert abs(geometry_at(horosphere, (0.1, 0.1)).mean_curvature + 1.0) < 1e-12
    expected = -3.0 * math.sqrt(2.0) / 4.0
    assert abs(geometry_at(rotational_soliton, (0.2, 2.0)).mean_curvature - expected) < 1e-12


def test_degenerate_immersion_rejected():
    # construction evaluates nothing: the first pass meets the degenerate
    # frame at the chart center, the head of its probe block
    ambient = euclidean_ambient(2)
    chart = ChartBox(("u", "v"), (-1.0, -1.0), (1.0, 1.0))
    imm = Immersion(ambient, chart, ["u+v", "u+v", "0"])
    with pytest.raises(DegenerateImmersion) as err:
        grid_geometry(imm, [(0.5, 0.5)])
    assert err.value.probe and err.value.index == 0


def test_component_variables_validated():
    ambient = euclidean_ambient(2)
    chart = ChartBox(("u", "v"), (-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        Immersion(ambient, chart, ["u", "v", "w"])


def test_power_rule_does_not_depend_on_the_active_variables():
    # the exponent v has a variable, so (u-3)^v is the real power even at
    # v = 2: the image and the jets in u and v refuse the point alike
    chart = ChartBox(("u", "v"), (0.0, 1.0), (1.0, 3.0))
    imm = Immersion(euclidean_ambient(2), chart, ["u", "(u-3)^v", "v"])
    with pytest.raises(DomainError) as image:
        imm.ambient_coordinates([(0.5, 2.0)])
    with pytest.raises(DomainError) as jets:
        imm.component_jets([(0.5, 2.0)])
    assert str(image.value) == str(jets.value)
    assert "non-positive base -2.5" in str(jets.value)


def test_image_must_stay_in_ambient_chart():
    ambient = spherical_cap_ambient(2)
    chart = ChartBox(("u", "v"), (0.5, 0.5), (1.0, 1.0))
    # t component wanders outside (0, pi), from the chart center on
    imm = Immersion(ambient, chart, ["10*u", "u", "v"])
    with pytest.raises(ValueError) as err:
        grid_geometry(imm, [(0.6, 0.6)])
    assert err.value.probe and err.value.index == 0


def test_boundary_points_rejected(hyperplane):
    with pytest.raises(ValueError):
        grid_geometry(hyperplane, [(1.0, 0.0)])
    with pytest.raises(ValueError):
        grid_geometry(hyperplane, [(1.0 - 1e-9, 0.0)])


def test_chart_grid_layout():
    chart = ChartBox(("u", "v"), (0.0, 0.0), (1.0, 2.0))
    pts = chart.grid({"u": 3, "v": 4}, {"u": 0.1, "v": 0.05})
    assert len(pts) == 12
    us = sorted({p[0] for p in pts})
    assert us[0] == pytest.approx(0.1) and us[-1] == pytest.approx(0.9)
    vs = sorted({p[1] for p in pts})
    assert vs[0] == pytest.approx(0.1) and vs[-1] == pytest.approx(1.9)
    # row-major ordering: first axis varies slowest
    assert pts[0][0] == pts[1][0] == pts[2][0] == pts[3][0]


def test_chart_grid_holds_the_floats_of_the_axis_product():
    # the grid is one C-ordered (N, n) float array whose rows are the
    # row-major product of the axes, each entry equal bit for bit to the
    # numpy entry of its axis
    chart = ChartBox(("u", "v", "w"), (-1.0, 0.2, -math.pi + 0.1), (1.0, math.pi - 0.2, math.pi - 0.1))
    counts, margins = {"u": 11, "v": 7, "w": 5}, {"u": 0.05, "v": 0.1}
    axes = [chart.axis_points(name, counts[name], margins.get(name, 0.05)) for name in chart.names]
    expected = [tuple(map(float, p)) for p in itertools.product(*axes)]
    grid = chart.grid(counts, margins)
    assert type(grid) is np.ndarray and grid.dtype == np.float64 and grid.flags.c_contiguous
    assert grid.shape == (len(expected), 3) == (11 * 7 * 5, 3)
    assert grid.tobytes() == np.array(expected).tobytes()


def test_slice_requires_interior_t0():
    with pytest.raises(ValueError):
        slice_immersion(spherical_cap_ambient(2), 4.0)


def test_hyperplane_requires_flat_fiber():
    with pytest.raises(ValueError):
        hyperplane_immersion(spherical_cap_ambient(2))


def _cusp_immersion():
    # degenerate frame along u = 0, sqrt out of its domain for u > 1.1;
    # the construction probe (u in {-0.78, 0.1, 0.98}) meets neither
    chart = ChartBox(("u", "v"), (-1.0, -1.0), (1.2, 1.0))
    return Immersion(euclidean_ambient(2), chart, ["0", "u^3", "v*sqrt(1.1-u)"])


def test_batch_fails_like_its_first_failing_point():
    # point 3 fails the box check, point 2 the component jets and point 1
    # the Gram determinant; the stages run in that order, but point 1 is
    # the first point whose own evaluation fails
    imm = _cusp_immersion()
    points = [(0.5, 0.2), (0.0, 0.2), (1.15, 0.2), (1.3, 0.2)]
    for p, kind in [(points[2], DomainError), (points[3], OutsideChart)]:
        with pytest.raises(kind):
            grid_geometry(imm, [p])
    with pytest.raises(DegenerateImmersion) as alone:
        grid_geometry(imm, [points[1]])
    for k in (2, 3, 4):
        with pytest.raises(DegenerateImmersion) as err:
            grid_geometry(imm, points[:k])
        assert err.value.index == 1 and str(err.value) == str(alone.value)


def test_point_jets_alone_is_one_pass():
    # outside grid_geometry's pass, point_jets opens its own: the row that
    # fails first alone (a degenerate frame) wins over row 1's later box
    # check, and the degenerate row's division by zero warns nothing
    imm = _cusp_immersion()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateImmersion) as err:
            hypersurface.point_jets(imm, [(0.0, 0.2), (1.3, 0.2)])
    assert err.value.index == 0


# rows of the cusp immersion by the error each raises alone: none, outside
# the box, beyond the domain of sqrt (u > 1.1) and a degenerate frame (u = 0)
_V = st.floats(-0.9, 0.9)
_CUSP_ROWS = {
    type(None): st.tuples(st.floats(0.3, 1.0), _V),
    OutsideChart: st.tuples(st.floats(1.2, 1.5), _V),
    DomainError: st.tuples(st.floats(1.12, 1.19), _V),
    DegenerateImmersion: st.tuples(st.just(0.0), _V),
}


def _outcome(imm, points):
    """The error ``grid_geometry`` raises over ``points``, or None."""
    try:
        grid_geometry(imm, points)
    except (DegenerateImmersion, DomainError, OutsideChart) as exc:
        return exc
    return None


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.one_of(*(st.tuples(st.just(kind), row) for kind, row in _CUSP_ROWS.items())),
                     min_size=1, max_size=6))
@example(rows=[(type(None), (0.5, 0.1)), (DomainError, (1.15, 0.2)), (DegenerateImmersion, (0.0, 0.2))])
@example(rows=[(type(None), (0.5, 0.1)), (OutsideChart, (1.3, 0.2)), (DomainError, (1.15, 0.2))])
def test_a_pass_fails_like_its_first_row_that_fails_alone(rows):
    imm = _cusp_immersion()
    batch = _outcome(imm, [p for _, p in rows])
    for i, (kind, p) in enumerate(rows):
        alone = _outcome(imm, [p])
        assert type(alone) is kind
        if alone is not None:
            assert type(batch) is kind and str(batch) == str(alone)
            assert batch.index == i and alone.index == 0 and not batch.probe
            return
    assert batch is None


def test_a_failing_pass_evaluates_each_expression_once(monkeypatch):
    # 40 good rows, then a degenerate frame, a domain error and a point
    # outside the box: the failing pass runs the component tape once and a
    # tape of f once, as the passing pass does, and names the degenerate row
    imm, runs, slots = _cusp_immersion(), [], jets.Tape.slots
    monkeypatch.setattr(jets.Tape, "slots", lambda tape, bindings, order: runs.append(
        (tape is imm.tape, sorted(bindings), order)) or slots(tape, bindings, order))
    good = [(0.5, -0.9 + 0.04 * k) for k in range(40)]
    grid_geometry(imm, good)
    once = [(True, ["u", "v"], 2), (False, ["t"], 2)]
    assert runs == once
    runs.clear()
    with pytest.raises(DegenerateImmersion) as err:
        grid_geometry(imm, good + [(0.0, 0.2), (1.15, 0.2), (1.3, 0.2)])
    assert err.value.index == 40 and runs == once


@pytest.mark.parametrize("x1", ["2*(u*u)", "u*u"])
def test_an_overflowing_ambient_point_is_refused_at_the_probe_center(x1):
    # u*u overflows at every probe: the image is refused where it is
    # computed, whatever NaNs its derivatives hold
    chart = ChartBox(("u", "v"), (1e154, -1.0), (2e154, 1.0))
    imm = Immersion(hyperbolic_ambient(2), chart, ["0.1*v", x1, "v"])
    with pytest.raises(DomainError) as err:
        grid_geometry(imm, chart.grid(3))
    assert err.value.probe and err.value.index == 0
    assert str(err.value) == "ambient point (0.0, inf, 0.0) not finite (at chart point {'u': 1.5e+154, 'v': 0.0})"


def test_a_failing_pass_and_a_passing_pass_in_two_threads():
    # a pass keeps its flags to its own thread: one thread's failing rows
    # never fail the other's pass, nor does that pass hide them
    imm = _cusp_immersion()
    good = [(0.5, -0.9 + 0.1 * k) for k in range(19)]
    expected = grid_geometry(imm, good).residual.tobytes()
    start, results = threading.Barrier(2), [[], []]

    def run(slot):  # slot 0 adds a row beyond the domain of sqrt
        start.wait()
        for _ in range(20):
            try:
                results[slot].append(grid_geometry(imm, good + [(1.15, 0.2)] * (1 - slot)).residual.tobytes())
            except DomainError as exc:
                results[slot].append(exc.index)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-pass
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[19] * 20, [expected] * 20]


@pytest.mark.parametrize(
    "n, count, size, order",
    # rows: 1 + 3^n probes and count^n points, in slices of ``size``; at
    # n = 3 the last slice holds one row (1 + 27 + 27 = 9 x 6 + 1)
    [(2, 5, 4, 2), (3, 3, 6, 2), (3, 3, 6, 3)],
)
def test_slices_change_neither_values_nor_errors(monkeypatch, rng, n, count, size, order):
    imm = perturbed_immersion(hyperplane_immersion(hyperbolic_ambient(n)), rng, amplitude=0.05)
    grid = imm.chart.grid(count, 0.1)
    whole = dict(record_arrays(grid_geometry(imm, grid, order)))
    monkeypatch.setattr(hypersurface, "SLICE_POINTS", size)
    rows = len(imm.probes) + len(grid)
    assert rows > size and (rows % size == 1) == (n == 3)
    sliced = dict(record_arrays(grid_geometry(imm, grid, order)))
    assert sliced.keys() == whole.keys() and ("lap_gradient" in whole) == (order == 3)
    for name, values in whole.items():
        assert sliced[name].tobytes() == values.tobytes(), name
    if n == 3:
        return
    # the third slice holds a good point, the degenerate one and a
    # domain error: the error is the degenerate point's, at its place
    cusp = _cusp_immersion()
    points = [(0.5, 0.1 * k) for k in range(9)] + [(0.0, 0.2), (1.15, 0.2)]
    with pytest.raises(DegenerateImmersion) as err:
        grid_geometry(cusp, points)
    assert err.value.index == 9
    with pytest.raises(DomainError) as err:
        grid_geometry(cusp, points[:9] + points[10:])
    assert err.value.index == 9 and "(at chart point {'u': 1.15, 'v': 0.2})" in str(err.value)


def test_jets_that_are_not_finite_are_a_domain_error():
    # the u-derivative 1 + 709 exp(709 u - 690) overflows for u > 1.965
    # while the value stays finite; the construction probe (u in
    # {-17.8, -9, -0.2}) never gets there
    chart = ChartBox(("u", "v"), (-20.0, -1.0), (2.0, 1.0))
    imm = Immersion(euclidean_ambient(2), chart, ["0", "u+exp(709*u-690)", "v"])
    with pytest.raises(DomainError) as err:
        grid_geometry(imm, [(0.5, 0.0), (1.97, 0.5), (1.97, 0.0)])
    assert err.value.index == 1
    assert "not finite (at chart point {'u': 1.97, 'v': 0.5})" in str(err.value)
    # an infinite frame at the chart center fails the first pass, at its probe block
    imm = Immersion(euclidean_ambient(2), chart, ["0", "u*1e200*1e200", "v"])
    with pytest.raises(DomainError, match="not finite") as err:
        grid_geometry(imm, [(0.5, 0.0)])
    assert err.value.probe and err.value.index == 0


@pytest.mark.parametrize("n", [2, 3])
def test_construction_evaluates_one_batch(monkeypatch, n):
    # construction evaluates nothing; a pass makes one component-jet and
    # one metric-jet call over the chart center, the 3^n probe grid and
    # its own points, in that order
    calls = []
    component_jets, metric_jets = Immersion.component_jets, WarpedProduct.metric_jets

    def counted(self, points, order=2):
        calls.append(("component", len(points), order))
        return component_jets(self, points, order)

    def counted_metric(self, q):
        calls.append(("metric", len(q.t)))
        return metric_jets(self, q)

    monkeypatch.setattr(Immersion, "component_jets", counted)
    monkeypatch.setattr(WarpedProduct, "metric_jets", counted_metric)
    imm = slice_immersion(euclidean_ambient(n), 0.5)
    assert calls == []
    assert not hasattr(imm, "orientation") and not hasattr(imm, "_probe")
    rows = 1 + 3**n + 4**n
    grid_geometry(imm, imm.chart.grid(4))
    assert calls == [("component", rows, 2), ("metric", rows)]


def test_construction_fails_at_the_center_first():
    # the probe u = 0.1 and the requested point u = 0.15 leave the domain
    # of log in the component pass, but the center comes first: its frame
    # degenerates at a later stage, and that is the error, as when the
    # center is evaluated alone
    chart = ChartBox(("u", "v"), (0.0, 0.0), (1.0, 1.0))
    components = ["0", "(u-0.5)^3*log(u-0.2)", "v"]
    imm = Immersion(euclidean_ambient(2), chart, components)
    with pytest.raises(DegenerateImmersion, match=r"chart point \(0\.5, 0\.5\)") as err:
        grid_geometry(imm, [(0.15, 0.5)])
    assert err.value.index == 0 and err.value.probe


def test_orientation_comes_from_the_center_in_a_sliced_probe_batch(monkeypatch):
    # at n = 7 a pass over 2 points runs its 1 + 3^7 probe rows and the
    # points in two slices; the second starts at probe 2047 (u1 = 0.8),
    # where theta has the opposite sign of the center's (u1 = 0): the
    # center alone fixes the orientation of the whole pass, and every row
    # but the center, that probe too, has its conditioning checked
    n = 7
    names = tuple(f"u{i}" for i in range(1, n + 1))
    chart = ChartBox(names, (-1.0,) * n, (1.0,) * n)
    components = ["u1", "(u1-0.5)^2/2"] + list(names[1:])
    assert 1 + 3**n > hypersurface.SLICE_POINTS
    checked = []
    check_conditioning = intrinsic.check_conditioning

    def counted(p, D, skip=0):
        checked.append(D.shape[-1] - skip)
        return check_conditioning(p, D, skip)

    monkeypatch.setattr(intrinsic, "check_conditioning", counted)
    imm = Immersion(euclidean_ambient(n), chart, components)
    probe = chart.grid(3, margins=0.1)[2047]
    sd = grid_geometry(imm, [chart.center(), probe])
    rows = 1 + 3**n + 2
    assert checked == [hypersurface.SLICE_POINTS - 1, rows - hypersurface.SLICE_POINTS]
    assert sd.theta[0] > 0.0 and sd.theta[1] < 0.0
