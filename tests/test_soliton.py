import math

import numpy as np
import pytest

from warpgeo.catalogue import perturbed_immersion
from warpgeo.errors import BoundaryTooClose, GridTooCoarse
from warpgeo.hypersurface import flip_orientation, shape_data
from warpgeo.intrinsic import curvature_package
from warpgeo.rotational import RotationalProfile, build_rotational, solve_profile
from warpgeo.soliton import (
    SolitonClass,
    Verdict,
    check_hypotheses,
    classify,
    hessian_height,
    hessian_height_paths,
    soliton_lambda,
    soliton_residual,
    structural_identity,
)


def grid(imm, count=4, margin=0.12):
    return imm.chart.grid(count, margin)


def test_hyperplane_hessian_vanishes(hyperplane):
    for p in grid(hyperplane):
        lemma, direct = hessian_height_paths(hyperplane, p)
        assert np.max(np.abs(lemma)) < 1e-14
        assert np.max(np.abs(direct)) < 1e-14


def test_sphere_hessian_is_minus_h_g(sphere2):
    for p in grid(sphere2):
        sd = shape_data(sphere2, p)
        expected = -sd.height * sd.metric
        assert np.max(np.abs(hessian_height(sphere2, p) - expected)) < 1e-12


def test_rotational_hessian_vanishes(rotational_soliton):
    for p in grid(rotational_soliton):
        lemma, direct = hessian_height_paths(rotational_soliton, p)
        assert np.max(np.abs(lemma)) < 1e-12
        assert np.max(np.abs(direct)) < 1e-12


def test_hessian_identity_universal(catalogue, rng):
    # the identity holds for arbitrary immersions, not only solitons
    for name, imm in catalogue:
        for p in grid(imm):
            lemma, direct = hessian_height_paths(imm, p)
            assert np.max(np.abs(lemma - direct)) < 1e-7, name
    for name, imm in catalogue[:3]:
        pert = perturbed_immersion(imm, rng)
        for p in grid(pert):
            lemma, direct = hessian_height_paths(pert, p)
            assert np.max(np.abs(lemma - direct)) < 1e-7, name


def test_hessian_trace_identity(catalogue):
    # trace_g Hess h = (f'/f)(n - |grad h|^2) + theta n H
    for name, imm in catalogue:
        for p in grid(imm, count=3, margin=0.15):
            sd = shape_data(imm, p)
            hess = hessian_height(imm, p)
            lap = float(np.trace(np.linalg.solve(sd.metric, hess)))
            f0, f1, _ = imm.ambient.warping_jet(sd.height)
            expected = (f1 / f0) * (sd.n - sd.grad_h_norm2) + sd.theta * sd.n * sd.mean_curvature
            assert abs(lap - expected) < 1e-8, name


def test_lambda_values(hyperplane, sphere2, rotational_soliton):
    assert abs(soliton_lambda(hyperplane, (0.3, -0.2))) < 1e-12
    p = (0.0, 0.4)  # h = sin(0) = 0 on the sphere chart
    assert abs(soliton_lambda(sphere2, p) - 2.0) < 1e-10
    for p in grid(sphere2, count=3):
        sd = shape_data(sphere2, p)
        assert abs(soliton_lambda(sphere2, p) - (2.0 + sd.height)) < 1e-7
    p = (0.5, 3.0)
    lam = soliton_lambda(rotational_soliton, p)
    scal = curvature_package(rotational_soliton, p).scal_gauss
    assert abs(lam) < 1e-10 and abs(lam - scal) < 1e-10


def test_lambda_equals_scal_on_trivial_slices(horosphere, spherical_slice):
    for imm in (horosphere, spherical_slice):
        for p in grid(imm, count=3):
            lam = soliton_lambda(imm, p)
            scal = curvature_package(imm, p).scal_gauss
            assert abs(lam - scal) < 1e-10


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
        for p in grid(imm, count=3):
            sd = shape_data(imm, p)
            flipped = flip_orientation(sd)
            f0, f1, _ = imm.ambient.warping_jet(sd.height)
            dh = sd.frame[0, :]
            base = (f1 / f0) * (sd.metric - np.outer(dh, dh))
            hess_default = base + sd.theta * sd.second_fundamental
            hess_flipped = base + flipped.theta * flipped.second_fundamental
            assert np.array_equal(hess_default, hess_flipped)
            assert sd.theta * sd.mean_curvature == flipped.theta * flipped.mean_curvature


def test_structural_identity_on_solitons(sphere2, rotational_soliton, hyperplane):
    rep = structural_identity(sphere2, grid(sphere2, count=4, margin=0.15))
    assert rep.sup_error < 1e-4
    rep = structural_identity(rotational_soliton, grid(rotational_soliton, count=4))
    assert rep.sup_error < 1e-8
    rep = structural_identity(hyperplane, grid(hyperplane, count=3))
    assert rep.sup_error < 1e-12


def test_structural_identity_guards(hyperplane):
    with pytest.raises(GridTooCoarse):
        structural_identity(hyperplane, grid(hyperplane), step=0.5)
    with pytest.raises(BoundaryTooClose):
        structural_identity(hyperplane, [(1.0 - 1e-4, 0.0)])


def test_theorem1_horosphere_orientations(horosphere):
    report = check_hypotheses(horosphere, grid(horosphere, count=3), "theorem1")
    # angle condition: |theta|^{-1} (log f)' = 1 needs H >= 1; holds with
    # equality only after the flip makes H = +1
    assert report.extras["as_oriented"]["angle_margin"] == pytest.approx(-2.0)
    assert report.extras["flipped"]["angle_margin"] == pytest.approx(0.0, abs=1e-12)
    # curvature condition fails either way: f''/f = 1 > (3/4) H^2
    assert report.extras["flipped"]["curvature_margin"] == pytest.approx(-0.25)
    assert report.status == "fail"


def test_theorem1_passes_on_spherical_slice(spherical_slice):
    report = check_hypotheses(spherical_slice, grid(spherical_slice, count=3), "theorem1")
    # f = sin at t0 = 1: f''/f = -1 <= 0.75 H^2 and cot(1) <= H = cot(1)
    assert report.status == "pass"


def test_theorem3_minimal_identity(hyperplane, sphere2):
    report = check_hypotheses(hyperplane, grid(hyperplane, count=3), "theorem3")
    assert report.status == "pass"
    assert report.sup_error < 1e-12
    report = check_hypotheses(sphere2, grid(sphere2, count=3), "theorem3")
    assert report.status == "not_applicable"


def test_theorem4_bounds(hyperplane, sphere2):
    for which in ("theorem4a", "theorem4b"):
        report = check_hypotheses(hyperplane, grid(hyperplane, count=3), which)
        assert report.status == "pass"
        assert report.worst_value == pytest.approx(0.0, abs=1e-12)
    # sphere: lambda = 2 + h vs bound 4 (4a) and 2 (4b)
    report = check_hypotheses(sphere2, grid(sphere2, count=4), "theorem4a")
    assert report.status == "fail"
    report = check_hypotheses(sphere2, grid(sphere2, count=4), "theorem4b")
    assert report.status == "fail"


def test_theorem5_sphere_fails_below_equator(sphere2):
    report = check_hypotheses(sphere2, grid(sphere2, count=5), "theorem5")
    assert report.status == "fail"
    assert report.extras["c"] == 0.0
    assert report.extras["failing_points"] > 0
    # worst margin is 2 + h - 2 = h at the lowest sampled height
    heights = [shape_data(sphere2, p).height for p in grid(sphere2, count=5)]
    assert report.worst_value == pytest.approx(min(heights), abs=1e-7)


def test_theorem5_passes_on_spherical_slice(spherical_slice):
    report = check_hypotheses(spherical_slice, grid(spherical_slice, count=3), "theorem5")
    # ambient is the round model (c = 1): lambda = 2/sin(1)^2 >= 1 + 2 cot(1)^2
    assert report.status == "pass"
    assert report.extras["c"] == pytest.approx(1.0)


def test_theorem5_not_applicable_off_space_forms():
    import warpgeo
    from warpgeo.hypersurface import ChartBox, Immersion

    W = warpgeo.WarpedProduct((-math.inf, math.inf), "t^2+1", "euclidean", 2)
    chart = ChartBox(("u", "v"), (-1.0, -1.0), (1.0, 1.0))
    imm = Immersion(W, chart, ["0.5", "u", "v"])
    report = check_hypotheses(imm, imm.chart.grid(3, 0.2), "theorem5")
    assert report.status == "not_applicable"


def test_unknown_theorem_rejected(hyperplane):
    with pytest.raises(ValueError):
        check_hypotheses(hyperplane, grid(hyperplane, count=3), "theorem2")
