"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
on failure); run the whole gate with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest

from warpgeo.ambient import space_form_models
from warpgeo.cli import main
from warpgeo.intrinsic import grid_geometry
from warpgeo.jets import eval_jet2
from warpgeo.rotational import RotationalProfile, solve_profile, verify_classification
from warpgeo.soliton import SOLITON_TOL, SolitonClass, Verdict, check_report

from oracles import (
    FD_TOL,
    christoffels,
    curvature,
    dense_metric_jets,
    eval_value,
    fd_gradient,
    flip_orientation,
    perturbed_immersion,
    point_geometries,
    random_fiber_point,
    scal_formula,
    scalar_fd_oracle,
    soliton_residual,
    standard_catalogue,
    structural_error_fd,
    weingarten_closed_form,
)

ROOT2 = math.sqrt(2.0)


def report(number, text, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def catalogue():
    return standard_catalogue()


def test_criterion_1_space_form_table():
    started = time.perf_counter()
    worst = 0.0
    for name, W, c, window in space_form_models():
        probes = np.linspace(window[0], window[1], 200)
        result = W.check_space_form(c, probes)
        worst = max(worst, result.ratio_residual, result.second_residual)
        assert result.passed, name
    elapsed = time.perf_counter() - started
    report(
        1,
        f"five models verify the warping characterization, worst residual "
        f"{worst:.2e} (< 1e-10), {elapsed:.2f} s (< 1 s)",
        worst < 1e-10 and elapsed < 1.0,
    )


def test_criterion_2_hessian_identity_universal(catalogue):
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    immersions = [imm for _, imm in catalogue]
    base = immersions * ((20 + len(immersions) - 1) // len(immersions))
    immersions = immersions + [perturbed_immersion(imm, rng) for imm in base[:20]]
    for imm in immersions:
        geo = grid_geometry(imm, imm.chart.grid(5, 0.1))
        worst = max(worst, float(np.max(np.abs(geo.hess_identity - geo.hess_direct))))
    elapsed = time.perf_counter() - started
    report(
        2,
        f"Hessian identity on {len(immersions)} immersions x 25 points, "
        f"sup error {worst:.2e} (< 1e-7), {elapsed:.1f} s (< 30 s)",
        worst < 1e-7 and elapsed < 30.0,
    )


def test_criterion_3_angle_identity(catalogue):
    worst = 0.0
    for name, imm in catalogue:
        sd = grid_geometry(imm, imm.chart.grid(5, 0.1))
        worst = max(worst, float(np.max(np.abs(sd.grad_h_norm2 + sd.theta**2 - 1.0))))
    report(
        3,
        f"|grad h|^2 + theta^2 = 1 with sup error {worst:.2e} (< 1e-10)",
        worst < 1e-10,
    )


def test_criterion_4_scalar_triangulation(catalogue):
    targets = {
        "hyperplane": 0.0,
        "sphere2": 2.0,
        "horosphere": 0.0,
        "rotational-soliton": 0.0,
    }
    worst_pair = 0.0
    worst_fd = 0.0
    by_name = dict(catalogue)
    for name, expected in targets.items():
        imm = by_name[name]
        points = imm.chart.grid(5, 0.1)
        for p, pack in zip(points, point_geometries(imm, points)):
            formula = scal_formula(imm, pack)
            worst_pair = max(worst_pair, abs(pack.scal_gauss - formula))
            fd = scalar_fd_oracle(imm, p)
            worst_fd = max(worst_fd, abs(pack.scal_gauss - fd), abs(formula - fd))
            assert abs(pack.scal_gauss - expected) < 1e-6, name
    report(
        4,
        f"scalar curvature triangulation: route disagreement {worst_pair:.2e} "
        f"(< 1e-6), vs FD oracle {worst_fd:.2e} (< 1e-3)",
        worst_pair < 1e-6 and worst_fd < 1e-3,
    )


def test_criterion_5_catalogue_solitons(catalogue):
    by_name = dict(catalogue)
    ok = True
    summaries = []

    hyper = soliton_residual(by_name["hyperplane"], by_name["hyperplane"].chart.grid(5, 0.1))
    ok &= hyper.verdict is Verdict.SOLITON and hyper.residual_sup < 1e-7
    ok &= hyper.classification is SolitonClass.STEADY
    ok &= abs(hyper.lambda_min) < 1e-7 and abs(hyper.lambda_max) < 1e-7
    summaries.append(f"hyperplane steady lambda=0 ({hyper.residual_sup:.1e})")

    for name in ("slice-spherical", "horosphere"):
        imm = by_name[name]
        rep = soliton_residual(imm, imm.chart.grid(5, 0.1))
        ok &= rep.verdict is Verdict.SOLITON and rep.residual_sup < 1e-7
        ok &= rep.classification is SolitonClass.TRIVIAL
        geo = grid_geometry(imm, imm.chart.grid(5, 0.1))
        ok &= bool(np.all(np.abs(geo.lam - geo.scal_gauss) < 1e-7))
        summaries.append(f"{name} trivial lambda=scal")

    rot = by_name["rotational-soliton"]
    rep = soliton_residual(rot, rot.chart.grid(5, 0.1))
    ok &= rep.verdict is Verdict.SOLITON and rep.residual_sup < 1e-7
    ok &= abs(rep.lambda_min) < 1e-7 and abs(rep.lambda_max) < 1e-7
    geo = grid_geometry(rot, rot.chart.grid(3, 0.2))
    ok &= bool(np.all(np.abs(geo.scal_gauss) < 1e-7))
    summaries.append("rotational lambda=scal=0")

    sphere = by_name["sphere2"]
    rep = soliton_residual(sphere, sphere.chart.grid(5, 0.1))
    ok &= rep.verdict is Verdict.SOLITON and rep.residual_sup < 1e-7
    ok &= rep.classification is SolitonClass.SHRINKING
    geo = grid_geometry(sphere, sphere.chart.grid(5, 0.1))
    ok &= bool(np.all(np.abs(geo.lam - (2.0 + geo.ambient_point.t)) < 1e-7))
    summaries.append("sphere shrinking lambda=n(n-1)+h")

    report(5, "; ".join(summaries), ok)


def test_criterion_6_classification_dichotomy():
    started = time.perf_counter()
    ok = True
    for f, interval, u_range in (
        ("exp(t)", (-math.inf, math.inf), (-1.5, 1.5)),
        ("3*exp(2*t)", (-math.inf, math.inf), (-1.0, 1.0)),
    ):
        prof = RotationalProfile(theta=0.5, f=f, n=2, u_range=u_range)
        rep = verify_classification(prof, interval=interval)
        ok &= rep.classified and rep.sigma_constancy < SOLITON_TOL
    for f, interval, u_range in (
        ("sin(t)", (0.0, math.pi), (0.5, 1.0)),
        ("t^2+1", (-math.inf, math.inf), (-1.0, 1.0)),
        ("cosh(t)", (-math.inf, math.inf), (-1.0, 1.0)),
    ):
        prof = RotationalProfile(theta=0.5, f=f, n=2, u_range=u_range)
        rep = verify_classification(prof, interval=interval)
        ok &= (not rep.classified) and rep.balance_residual > 1e-2

    import scipy.linalg

    worst_eig = 0.0
    for f, interval, u_range in (
        ("exp(t)", (-math.inf, math.inf), (-1.5, 1.5)),
        ("t^2+1", (-math.inf, math.inf), (-1.0, 1.0)),
    ):
        prof = RotationalProfile(theta=0.5, f=f, n=2, u_range=u_range)
        curve = solve_profile(prof)
        rep = verify_classification(prof, interval=interval)
        points = rep.immersion.chart.grid(4, 0.1)
        for p, sd in zip(points, point_geometries(rep.immersion, points)):
            eigs = np.sort(
                scipy.linalg.eigh(sd.second_fundamental, sd.metric, eigvals_only=True)
            )
            expected = np.sort(weingarten_closed_form(prof, curve, p[0]))
            worst_eig = max(worst_eig, float(np.max(np.abs(eigs - expected))))
    ok &= worst_eig < 1e-6
    elapsed = time.perf_counter() - started
    report(
        6,
        f"rotational dichotomy over five warpings; principal curvature "
        f"agreement {worst_eig:.2e} (< 1e-6); {elapsed:.1f} s (< 10 s)",
        ok and elapsed < 10.0,
    )


def test_criterion_7_mesh_reproduction(tmp_path):
    mesh_path = str(tmp_path / "surface.obj")
    theta = ROOT2 / 2
    code = main(
        ["rotational", "--theta", repr(theta), "--f", "exp(t)", "--n", "2",
         "--samples", "21", "--mesh", mesh_path]
    )
    assert code == 0
    prof = RotationalProfile(theta=theta, f="exp(t)", n=2, u_range=(-1.5, 1.5))
    curve = solve_profile(prof)
    worst_t = 0.0
    worst_r = 0.0
    u_values = np.linspace(-1.5, 1.5, 21)
    lines = [l for l in open(mesh_path).read().splitlines() if l.startswith("v ")]
    assert len(lines) == 21 * 21
    for idx, line in enumerate(lines):
        _, xs, ys, zs = line.split()
        t, y, z = float(xs), float(ys), float(zs)
        u = u_values[idx // 21]
        worst_t = max(worst_t, abs(t - u / ROOT2))
        worst_r = max(worst_r, abs(math.hypot(y, z) - abs(curve.beta(u))))
    report(
        7,
        f"OBJ vertices: height error {worst_t:.2e} (< 1e-12), radial error "
        f"{worst_r:.2e} (< 1e-10)",
        worst_t < 1e-12 and worst_r < 1e-10,
    )


def test_criterion_8_structural_identity(catalogue):
    by_name = dict(catalogue)
    sphere = by_name["sphere2"]
    rot = by_name["rotational-soliton"]
    geometries = [
        (imm, grid_geometry(imm, imm.chart.grid(5, 0.12), order=3)) for imm in (sphere, rot)
    ]
    worst = max(check_report("structural", imm, geo).sup_error for imm, geo in geometries)
    # the same identity with grad(Lap h) by central differences
    worst_fd = max(structural_error_fd(imm, geo) for imm, geo in geometries)
    report(
        8,
        f"Ric(grad h) + (n-1) grad(scal - lambda) = 0 with sup error "
        f"{worst:.2e} (< {SOLITON_TOL}), finite-difference oracle {worst_fd:.2e} (< {FD_TOL})",
        worst < SOLITON_TOL and worst_fd < FD_TOL,
    )


def test_criterion_9_property_suites(catalogue):
    rng = np.random.default_rng(9)
    ok = True

    # ambient tensor properties
    worst = 0.0
    for name, W, c, window in space_form_models():
        p = random_fiber_point(W, rng)
        X, Y, Z = rng.standard_normal((3, W.dim))
        anti = curvature(W, p, X, Y, Z) + curvature(W, p, Y, X, Z)
        bianchi = (
            curvature(W, p, X, Y, Z)
            + curvature(W, p, Y, Z, X)
            + curvature(W, p, Z, X, Y)
        )
        G, dG = dense_metric_jets(*W.metric_jets(p)[:2])
        gamma = christoffels(W, p)
        compat = (
            np.einsum("bca->abc", dG)
            - np.einsum("dab,dc->abc", gamma, G)
            - np.einsum("dac,bd->abc", gamma, G)
        )
        worst = max(
            worst,
            float(np.max(np.abs(anti))),
            float(np.max(np.abs(bianchi))),
            float(np.max(np.abs(compat))),
        )
    ok &= worst < 1e-8

    # shape operator self-adjointness
    selfadj = 0.0
    for name, imm in catalogue:
        for sd in point_geometries(imm, imm.chart.grid(3, 0.15)):
            gA = sd.metric @ sd.shape_operator
            selfadj = max(selfadj, float(np.max(np.abs(gA - gA.T))))
    ok &= selfadj < 1e-8

    # flip invariance of the soliton data
    flip_err = 0.0
    for name in ("sphere2", "horosphere"):
        imm = dict(catalogue)[name]
        for sd in point_geometries(imm, imm.chart.grid(3, 0.15)):
            fl = flip_orientation(sd)
            f0, f1, _ = imm.ambient.warping_jet(sd.ambient_point.t)
            dh = sd.frame[0, :]
            base = (f1 / f0) * (sd.metric - np.outer(dh, dh))
            hess_a = base + sd.theta * sd.second_fundamental
            hess_b = base + fl.theta * fl.second_fundamental
            flip_err = max(flip_err, float(np.max(np.abs(hess_a - hess_b))))
            flip_err = max(
                flip_err,
                abs(sd.theta * sd.mean_curvature - fl.theta * fl.mean_curvature),
            )
    ok &= flip_err == 0.0

    # jet derivatives against finite differences
    from warpgeo.expr import parse

    jet_err_1 = 0.0
    jet_err_2 = 0.0
    sources = ["sin(t)*exp(u)", "t^3 - u^2*t", "log(2 + cos(t) + u^2)", "tanh(t*u)"]
    for src in sources:
        expr = parse(src)
        point = {"t": float(rng.uniform(-1, 1)), "u": float(rng.uniform(-1, 1))}
        jet = eval_jet2(expr, point, ("t", "u"))
        fd1 = fd_gradient(
            lambda x: eval_value(expr, {"t": x[0], "u": x[1]}),
            [point["t"], point["u"]],
        )
        jet_err_1 = max(jet_err_1, float(np.max(np.abs(jet.grad - fd1))))
        for j in range(2):
            fd2 = fd_gradient(
                lambda x, j=j: eval_jet2(expr, {"t": x[0], "u": x[1]}, ("t", "u")).grad[j],
                [point["t"], point["u"]],
            )
            jet_err_2 = max(jet_err_2, float(np.max(np.abs(jet.hess[:, j] - fd2))))
    ok &= jet_err_1 < 1e-6 and jet_err_2 < 1e-4

    report(
        9,
        f"property suites: ambient tensors {worst:.1e} (< 1e-8), "
        f"self-adjointness {selfadj:.1e} (< 1e-8), flip invariance exact, "
        f"jet-vs-FD {jet_err_1:.1e}/{jet_err_2:.1e}",
        ok,
    )
