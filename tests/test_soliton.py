import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo.catalogue import sphere_immersion
from warpgeo.intrinsic import grid_geometry
from warpgeo.rotational import RotationalProfile, solve_profile
from warpgeo.soliton import (
    _MARGIN_TOL,
    CHECKS,
    SOLITON_TOL,
    SolitonClass,
    Verdict,
    classify,
    check_report,
    first_extreme,
    grid_check,
)

from oracles import (
    build_rotational,
    euclidean_ambient,
    flip_orientation,
    geometry_at,
    perturbed_immersion,
    point_geometries,
    soliton_residual,
)


def grid(imm, count=4, margin=0.12):
    return imm.chart.grid(count, margin)


def hypotheses_on_grid(imm, points, which):
    """One theorem hypothesis over a grid, as a scene run evaluates it."""
    return check_report(which, imm, grid_geometry(imm, points))


def structural_on_grid(imm, points):
    """The structural identity over a grid, as a scene run evaluates it, ungated by the soliton verdict."""
    return check_report("structural", imm, grid_geometry(imm, points, order=3))


def test_hyperplane_hessian_vanishes(hyperplane):
    geo = grid_geometry(hyperplane, grid(hyperplane))
    assert np.max(np.abs(geo.hess_identity)) < 1e-14
    assert np.max(np.abs(geo.hess_direct)) < 1e-14


def test_sphere_hessian_is_minus_h_g(sphere2):
    for geo in point_geometries(sphere2, grid(sphere2)):
        expected = -geo.ambient_point.t * geo.metric
        assert np.max(np.abs(geo.hess_direct - expected)) < 1e-12


def test_rotational_hessian_vanishes(rotational_soliton):
    geo = grid_geometry(rotational_soliton, grid(rotational_soliton))
    assert np.max(np.abs(geo.hess_identity)) < 1e-12
    assert np.max(np.abs(geo.hess_direct)) < 1e-12


def test_hessian_identity_universal(catalogue, rng):
    # the identity holds for arbitrary immersions, not only solitons
    for name, imm in catalogue:
        geo = grid_geometry(imm, grid(imm))
        assert np.max(np.abs(geo.hess_identity - geo.hess_direct)) < 1e-7, name
    for name, imm in catalogue[:3]:
        pert = perturbed_immersion(imm, rng)
        geo = grid_geometry(pert, grid(pert))
        assert np.max(np.abs(geo.hess_identity - geo.hess_direct)) < 1e-7, name


def test_hessian_trace_identity(catalogue):
    # trace_g Hess h = (f'/f)(n - |grad h|^2) + theta n H
    for name, imm in catalogue:
        for geo in point_geometries(imm, grid(imm, count=3, margin=0.15)):
            hess = geo.hess_direct
            lap = float(np.trace(np.linalg.solve(geo.metric, hess)))
            f0, f1, _ = imm.ambient.warping_jet(geo.ambient_point.t)
            expected = (f1 / f0) * (geo.n - geo.grad_h_norm2) + geo.theta * geo.n * geo.mean_curvature
            assert abs(lap - expected) < 1e-8, name


def test_lambda_values(hyperplane, sphere2, rotational_soliton):
    assert abs(geometry_at(hyperplane, (0.3, -0.2)).lam) < 1e-12
    p = (0.0, 0.4)  # h = sin(0) = 0 on the sphere chart
    assert abs(geometry_at(sphere2, p).lam - 2.0) < 1e-10
    geo = grid_geometry(sphere2, grid(sphere2, count=3))
    assert np.max(np.abs(geo.lam - (2.0 + geo.ambient_point.t))) < 1e-7
    geo = geometry_at(rotational_soliton, (0.5, 3.0))
    assert abs(geo.lam) < 1e-10 and abs(geo.lam - geo.scal_gauss) < 1e-10


def test_lambda_equals_scal_on_trivial_slices(horosphere, spherical_slice):
    for imm in (horosphere, spherical_slice):
        geo = grid_geometry(imm, grid(imm, count=3))
        assert np.max(np.abs(geo.lam - geo.scal_gauss)) < 1e-10


def test_catalogue_solitons_verify(catalogue):
    expected_class = {
        "slice-spherical": SolitonClass.TRIVIAL,
        "horosphere": SolitonClass.TRIVIAL,
        "hyperplane": SolitonClass.STEADY,
        "sphere2": SolitonClass.SHRINKING,
        "sphere3": SolitonClass.SHRINKING,
        "rotational-soliton": SolitonClass.STEADY,
    }
    for name, imm in catalogue:
        report = soliton_residual(imm, grid(imm))
        assert report.verdict is Verdict.SOLITON, name
        assert report.residual_sup < 1e-7, name
        assert report.classification is expected_class[name], name
        assert report.identity_checks["lemma_hessian"] < 1e-7, name


def test_nonexponential_rotational_is_not_soliton():
    prof = RotationalProfile(theta=0.5, f="sin(t)", n=2, u_range=(0.5, 1.0))
    curve = solve_profile(prof)
    imm = build_rotational(prof, curve, (0.0, math.pi))
    report = soliton_residual(imm, imm.chart.grid(5, 0.1))
    assert report.verdict is Verdict.NOT_SOLITON
    assert report.residual_sup > 1e-2


def test_classification_rules():
    assert classify([5.0, 7.0], gradh_sup=0.0) is SolitonClass.TRIVIAL
    assert classify([0.0, 1e-9], gradh_sup=1.0) is SolitonClass.STEADY
    assert classify([-0.5, -0.1], gradh_sup=1.0) is SolitonClass.EXPANDING
    assert classify([0.5, 0.1], gradh_sup=1.0) is SolitonClass.SHRINKING
    assert classify([-0.5, 0.5], gradh_sup=1.0) is SolitonClass.SIGN_CHANGING
    assert classify([1e-9, 0.5], gradh_sup=1.0) is SolitonClass.SIGN_CHANGING


def test_flip_invariance_of_soliton_quantities(sphere2, horosphere):
    # the Hessian identity only involves theta A and theta H products,
    # so the residual and lambda cannot depend on the orientation choice
    for imm in (sphere2, horosphere):
        for sd in point_geometries(imm, grid(imm, count=3)):
            flipped = flip_orientation(sd)
            f0, f1, _ = imm.ambient.warping_jet(sd.ambient_point.t)
            dh = sd.frame[0, :]
            base = (f1 / f0) * (sd.metric - np.outer(dh, dh))
            hess_default = base + sd.theta * sd.second_fundamental
            hess_flipped = base + flipped.theta * flipped.second_fundamental
            assert np.array_equal(hess_default, hess_flipped)
            assert sd.theta * sd.mean_curvature == flipped.theta * flipped.mean_curvature


def test_structural_identity_on_solitons(sphere2, sphere3, rotational_soliton, hyperplane):
    # the gradient of Lap h is jet-exact, so the identity holds to rounding
    for imm in (sphere2, sphere3, rotational_soliton):
        rep = structural_on_grid(imm, grid(imm, count=4, margin=0.15))
        assert rep.status == "pass" and rep.sup_error < 1e-12
    rep = structural_on_grid(hyperplane, grid(hyperplane, count=3))
    assert rep.sup_error < 1e-12


def test_structural_identity_near_the_chart_edge(hyperplane, sphere2):
    # the check reads the grid points alone: a point 1e-4 from a face is
    # evaluated like any other
    rep = structural_on_grid(hyperplane, [(1.0 - 1e-4, 0.0)])
    assert rep.status == "pass" and rep.sup_error < 1e-12
    upper = sphere2.chart.upper[0] - 1e-4
    rep = structural_on_grid(sphere2, [(upper, 0.3)])
    assert rep.status == "pass" and rep.sup_error < SOLITON_TOL


def test_structural_identity_fails_off_solitons(rng):
    # a perturbed sphere is no soliton: Ric(grad h) + (n-1) grad(scal - lambda)
    # is far from 0 and the check fails at the SOLITON_TOL tier
    imm = perturbed_immersion(sphere_immersion(euclidean_ambient(2)), rng, amplitude=0.02)
    rep = structural_on_grid(imm, grid(imm, count=3))
    assert rep.status == "fail" and rep.sup_error > 1e-3


def test_structural_identity_needs_an_order_3_record(sphere2):
    # the gradient of Lap h comes from third jets: an order-2 record is refused, not rebuilt
    with pytest.raises(ValueError, match="order=3"):
        check_report("structural", sphere2, grid_geometry(sphere2, grid(sphere2, count=3)))


def test_theorem1_horosphere_orientations(horosphere):
    report = hypotheses_on_grid(horosphere, grid(horosphere, count=3), "theorem1")
    # angle condition: |theta|^{-1} (log f)' = 1 needs H >= 1; holds with
    # equality only after the flip makes H = +1
    assert report.extras["as_oriented"]["angle_margin"] == pytest.approx(-2.0)
    assert report.extras["flipped"]["angle_margin"] == pytest.approx(0.0, abs=1e-12)
    # curvature condition fails either way: f''/f = 1 > (3/4) H^2
    assert report.extras["flipped"]["curvature_margin"] == pytest.approx(-0.25)
    assert report.status == "fail"


def test_probing_and_soliton_rows_run_from_the_immersion_and_geometry_alone(horosphere):
    # a probing row takes its heights afresh and the soliton row forms its report from the grid
    geometry = grid_geometry(horosphere, grid(horosphere, count=3))
    assert check_report("spaceform", horosphere, geometry, c=-1.0).status == "pass"
    assert check_report("soliton", horosphere, geometry).status == "pass"


def test_theorem1_reports_no_negative_zero(hyperplane):
    # in f = 1 the flip makes H = -0.0, and the margins of the flipped
    # orientation are zeros, reported as 0.0 (the default grid of a scene)
    report = hypotheses_on_grid(hyperplane, hyperplane.chart.grid(7, 0.05), "theorem1")
    flipped = report.extras["flipped"]
    for key in ("margin", "curvature_margin", "angle_margin"):
        assert flipped[key] == 0.0 and math.copysign(1.0, flipped[key]) == 1.0, key


def test_theorem1_passes_on_spherical_slice(spherical_slice):
    report = hypotheses_on_grid(spherical_slice, grid(spherical_slice, count=3), "theorem1")
    # f = sin at t0 = 1: f''/f = -1 <= 0.75 H^2 and cot(1) <= H = cot(1)
    assert report.status == "pass"


@pytest.mark.parametrize("name", ["horosphere", "spherical_slice", "rotational_soliton"])
def test_theorem1_of_the_flipped_record_swaps_its_orientations(request, name):
    # H enters theorem1 only as H^2 in the curvature margin and theta only
    # as |theta|, so the record with its orientation flipped (N, theta, II,
    # A and H negated) swaps as_oriented and flipped, to the bit
    imm = request.getfixturevalue(name)
    geometry = grid_geometry(imm, grid(imm, count=5))
    report = check_report("theorem1", imm, geometry)
    swapped = check_report("theorem1", imm, flip_orientation(geometry))

    def bits(margins):
        return {key: value.hex() for key, value in margins.items()}

    assert bits(swapped.extras["as_oriented"]) == bits(report.extras["flipped"])
    assert bits(swapped.extras["flipped"]) == bits(report.extras["as_oriented"])
    assert (swapped.status, swapped.worst_value.hex()) == (report.status, report.worst_value.hex())


def _scan(values, start, lowest):
    """The reference scan: keep the first strictly smaller (or larger) value, NaN never kept."""
    best, index = start, None
    for i, value in enumerate(values):
        if value < best if lowest else value > best:
            best, index = value, i
    return (best + 0.0 if index is not None else start), index


_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300])


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, max_size=8), st.booleans())
def test_first_extreme_is_the_scan_that_skips_nan(values, lowest):
    # the first extreme entry strictly beyond the start (inf for the lowest, else 0.0),
    # NaN never winning, a zero as 0.0
    value, index = first_extreme(np.array(values, dtype=float), lowest)
    expected, at = _scan(values, math.inf if lowest else 0.0, lowest)
    assert index == at and math.copysign(1.0, value) == math.copysign(1.0, expected)
    assert value == expected or (math.isnan(value) and math.isnan(expected))


@pytest.mark.parametrize(("kind", "passing", "failing"), [
    ("lemma1", math.nextafter(SOLITON_TOL, 0.0), SOLITON_TOL),
    ("theorem4a", -_MARGIN_TOL, math.nextafter(-_MARGIN_TOL, -math.inf)),
])
def test_grid_check_decides_at_the_boundary_of_its_rule(hyperplane, kind, passing, failing):
    # an identity passes while its sup error stays below SOLITON_TOL, an inequality while its
    # least margin is at least -_MARGIN_TOL; one point on the boundary decides a real record
    geometry = grid_geometry(hyperplane, grid(hyperplane, count=3))
    fill = 0.0 if kind == "lemma1" else 1.0
    for value, status in ((passing, "pass"), (failing, "fail")):
        values = np.full(len(geometry.lam), fill)
        values[4] = value
        result = grid_check(kind, geometry, values, {})
        assert result.status == status, (kind, value)
        assert (result.sup_error if kind == "lemma1" else result.worst_value) == value
        assert result.worst_point == geometry.chart_point(4)


def test_theorem3_minimal_identity(hyperplane, sphere2):
    report = hypotheses_on_grid(hyperplane, grid(hyperplane, count=3), "theorem3")
    assert report.status == "pass"
    assert report.sup_error < 1e-12
    report = hypotheses_on_grid(sphere2, grid(sphere2, count=3), "theorem3")
    assert report.status == "not_applicable"


def test_theorem4_bounds(hyperplane, sphere2):
    for which in ("theorem4a", "theorem4b"):
        report = hypotheses_on_grid(hyperplane, grid(hyperplane, count=3), which)
        assert report.status == "pass"
        assert report.worst_value == pytest.approx(0.0, abs=1e-12)
    # sphere: lambda = 2 + h vs bound 4 (4a) and 2 (4b)
    report = hypotheses_on_grid(sphere2, grid(sphere2, count=4), "theorem4a")
    assert report.status == "fail"
    report = hypotheses_on_grid(sphere2, grid(sphere2, count=4), "theorem4b")
    assert report.status == "fail"


def test_theorem5_sphere_fails_below_equator(sphere2):
    report = hypotheses_on_grid(sphere2, grid(sphere2, count=5), "theorem5")
    assert report.status == "fail"
    assert report.extras["c"] == 0.0
    assert report.extras["failing_points"] > 0
    # worst margin is 2 + h - 2 = h at the lowest sampled height
    heights = grid_geometry(sphere2, grid(sphere2, count=5)).ambient_point.t
    assert report.worst_value == pytest.approx(min(heights), abs=1e-7)


def test_theorem5_passes_on_spherical_slice(spherical_slice):
    report = hypotheses_on_grid(spherical_slice, grid(spherical_slice, count=3), "theorem5")
    # ambient is the round model (c = 1): lambda = 2/sin(1)^2 >= 1 + 2 cot(1)^2
    assert report.status == "pass"
    assert report.extras["c"] == pytest.approx(1.0)


@pytest.mark.parametrize("f", ["t^2+1", "1+1e-7*sin(100*t)"])
def test_theorem5_not_applicable_off_space_forms(f):
    import warpgeo
    from warpgeo.hypersurface import ChartBox, Immersion

    W = warpgeo.WarpedProduct((-math.inf, math.inf), f, "euclidean", 2)
    chart = ChartBox(("u", "v"), (-1.0, -1.0), (1.0, 1.0))
    imm = Immersion(W, chart, ["0.5", "u", "v"])
    report = hypotheses_on_grid(imm, imm.chart.grid(3, 0.2), "theorem5")
    assert report.status == "not_applicable"
    # in 1 + 1e-7 sin(100 t) f' is so small that the ratio residual fits: f''/f alone is not constant
    fit = W.check_space_form(None, np.linspace(*W.probe_window(), CHECKS["theorem5"][1]))
    assert (fit.ratio_residual > 1e-8) == (f == "t^2+1") and fit.second_residual > 1e-8

