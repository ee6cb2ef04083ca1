import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from warpgeo import jets, rotational
from warpgeo.cli import main
from warpgeo.errors import DomainError, QuadratureFailure, SigmaZero
from warpgeo.expr import unparse, variables_in
from warpgeo.jets import eval_jet2
from warpgeo.objmesh import surface_vertices
from warpgeo.rotational import (
    RotationalProfile,
    profile_residuals,
    solve_profile,
    sphere_chart_expressions,
    verify_classification,
)
from warpgeo.soliton import SOLITON_TOL

from oracles import (
    build_rotational,
    point_geometries,
    profile_geodesic_residual,
    sphere_chart,
    weingarten_closed_form,
)

ROOT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def example_profile():
    return RotationalProfile(theta=ROOT2 / 2, f="exp(t)", n=2, u_range=(-1.5, 1.5))


@pytest.fixture(scope="module")
def example_curve(example_profile):
    return solve_profile(example_profile)


@pytest.fixture(scope="module", params=[(ROOT2 / 2, "exp(t)"), (0.5, "cosh(t)")],
                ids=["example5", "rotational-cosh"])
def preset_curve(request):
    """The solved profile of the example5 preset (closed-form beta) or of a
    rotational preset in cosh(t) (beta from the interpolant)."""
    theta, f = request.param
    return solve_profile(RotationalProfile(theta=theta, f=f, n=2, u_range=(-1.5, 1.5)))


def test_sphere_chart_values():
    assert np.allclose(sphere_chart((math.pi / 2,)), [0.0, 1.0], atol=1e-15)
    assert np.allclose(sphere_chart((math.pi / 2, 1e-9)), [0.0, 1.0, 0.0], atol=1e-8)
    assert np.allclose(
        sphere_chart((math.pi / 3, math.pi)), [0.5, -math.sqrt(3) / 2, 0.0], atol=1e-15
    )


def test_sphere_chart_is_unit(rng):
    for _ in range(20):
        m = int(rng.integers(1, 5))
        v = tuple(float(x) for x in rng.uniform(0.1, math.pi - 0.1, m))
        assert abs(np.linalg.norm(sphere_chart(v)) - 1.0) < 1e-14


def test_sphere_chart_range_checked():
    with pytest.raises(ValueError):
        sphere_chart((0.0,))
    with pytest.raises(ValueError):
        sphere_chart((3.5, 1.0))  # polar angle beyond pi
    with pytest.raises(ValueError):
        sphere_chart((math.pi / 2, 6.5))  # azimuth beyond 2 pi
    with pytest.raises(ValueError):
        sphere_chart(())


def test_sphere_chart_expressions_match_values(rng):
    from oracles import eval_value

    for n in (2, 3, 4):
        exprs = sphere_chart_expressions(n)
        v = tuple(float(x) for x in rng.uniform(0.2, math.pi - 0.2, n - 1))
        bindings = {f"v{j}": v[j - 1] for j in range(1, n)}
        values = np.array([eval_value(e, bindings) for e in exprs])
        assert np.allclose(values, sphere_chart(v), atol=1e-15)


def test_chart_expressions_keep_their_parsed_shape():
    from warpgeo.expr import parse

    assert sphere_chart_expressions(3) == (
        parse("cos(v1)"),
        parse("sin(v1)*cos(v2)"),
        parse("sin(v1)*sin(v2)"),
    )
    prof = RotationalProfile(theta=0.6, f="exp(t)", n=2, c1=-0.25)
    assert prof.alpha_expression() == parse(f"u*{prof.slope!r}+{prof.c1!r}")


def test_profile_closed_form(example_profile, example_curve):
    prof, curve = example_profile, example_curve
    assert curve.alpha(1.0) == pytest.approx(1.0 / ROOT2, abs=1e-15)
    assert curve.beta(0.0) == pytest.approx(-1.0, abs=1e-12)
    for u in np.linspace(-1.4, 1.4, 7):
        expected = -math.exp(-u / ROOT2)
        assert abs(curve.beta(u) - expected) < 1e-12


def test_profile_quadrature_matches_closed_form(example_profile, example_curve):
    # independent quadrature of the profile slope reproduces the
    # closed-form differences
    prof, curve = example_profile, example_curve

    def slope(s):
        return prof.theta / math.exp(curve.alpha(s))

    for u in (-1.0, -0.25, 0.5, 1.2):
        integral, err = scipy.integrate.quad(slope, 0.0, u, epsabs=1e-13)
        assert err < 1e-11
        assert abs((curve.beta(u) - curve.beta(0.0)) - integral) < 1e-10


def test_unit_speed_and_constant_angle(example_profile, example_curve):
    prof, curve = example_profile, example_curve
    for u in np.linspace(-1.45, 1.45, 100):
        f0 = math.exp(curve.alpha(u))
        beta_d1 = curve.beta_jet(u)[1]
        speed = prof.slope**2 + f0**2 * beta_d1**2
        assert abs(speed - 1.0) < 1e-10
        assert abs(f0 * beta_d1 - prof.theta) < 1e-10


def test_sigma_constant_minus_one(example_curve):
    for u in np.linspace(-1.4, 1.4, 25):
        sigma = math.exp(example_curve.alpha(u)) * example_curve.beta_jet(u)[0]
        assert abs(sigma + 1.0) < 1e-10


def test_build_matches_catalogued_surface(example_profile, example_curve):
    imm = build_rotational(example_profile, example_curve)
    for u, v in [(0.0, 1.0), (0.7, 2.0), (-1.2, 4.5)]:
        t, x1, x2 = imm.ambient_coordinates([(u, v)])[0]
        r = -math.exp(-u / ROOT2)
        assert abs(t - u / ROOT2) < 1e-14
        assert abs(x1 - r * math.cos(v)) < 1e-12
        assert abs(x2 - r * math.sin(v)) < 1e-12


def test_first_fundamental_form_structure(example_profile, example_curve):
    # sigma = -1 makes the induced metric the identity
    imm = build_rotational(example_profile, example_curve)
    for sd in point_geometries(imm, imm.chart.grid(3, 0.15)):
        assert np.allclose(sd.metric, np.eye(2), atol=1e-12)


def test_first_fundamental_form_general():
    prof = RotationalProfile(theta=0.4, f="exp(t)", n=3, u_range=(-1.0, 1.0))
    curve = solve_profile(prof)
    imm = build_rotational(prof, curve)
    points = imm.chart.grid({"u": 3, "v1": 3, "v2": 3}, {"u": 0.2, "v1": 0.2, "v2": 0.1})
    for p, sd in zip(points, point_geometries(imm, points)):
        f0 = math.exp(curve.alpha(p[0]))
        sigma2 = (f0 * curve.beta(p[0])) ** 2
        expected = np.diag([1.0, sigma2, sigma2 * math.sin(p[1]) ** 2])
        assert np.allclose(sd.metric, expected, atol=1e-10)
        assert np.max(np.abs(sd.metric - np.diag(np.diag(sd.metric)))) < 1e-10


def test_height_function(example_profile, example_curve):
    imm = build_rotational(example_profile, example_curve)
    prof = example_profile
    points = imm.chart.grid(3, 0.1)
    for p, sd in zip(points, point_geometries(imm, points)):
        assert abs(sd.ambient_point.t - (p[0] * prof.slope + prof.c1)) < 1e-14


def test_weingarten_example_values(example_profile, example_curve):
    ku, kv = weingarten_closed_form(example_profile, example_curve, 0.3)
    assert ku == pytest.approx(-ROOT2 / 2, abs=1e-12)
    assert kv == pytest.approx(-ROOT2, abs=1e-12)
    # det A = 1 and ambient curvature -1 give a flat surface
    assert ku * kv == pytest.approx(1.0, abs=1e-12)


def test_weingarten_matches_numerical_eigenvalues():
    cases = [
        (RotationalProfile(theta=ROOT2 / 2, f="exp(t)", n=2, u_range=(-1.5, 1.5)), (-math.inf, math.inf)),
        (RotationalProfile(theta=0.5, f="sin(t)", n=2, u_range=(0.5, 1.0)), (0.0, math.pi)),
        (RotationalProfile(theta=0.3, f="t^2+1", n=2, u_range=(-1.0, 1.0)), (-math.inf, math.inf)),
    ]
    for prof, interval in cases:
        curve = solve_profile(prof)
        imm = build_rotational(prof, curve, interval)
        points = imm.chart.grid(4, 0.1)
        for p, sd in zip(points, point_geometries(imm, points)):
            eigs = np.sort(
                scipy.linalg.eigh(sd.second_fundamental, sd.metric, eigvals_only=True)
            )
            ku, kv = weingarten_closed_form(prof, curve, p[0])
            expected = np.sort([ku, kv])
            assert np.max(np.abs(eigs - expected)) < 1e-6, (prof.f, p)


def test_weingarten_riemannian_product():
    prof = RotationalProfile(theta=0.5, f="2", n=2, c2=1.0, u_range=(0.0, 2.0))
    curve = solve_profile(prof)
    ku, kv = weingarten_closed_form(prof, curve, 1.0)
    assert ku == 0.0  # f' = 0


def test_sigma_zero_raises():
    prof = RotationalProfile(theta=0.5, f="1", n=2, c2=-0.5, u_range=(0.0, 2.0))
    curve = solve_profile(prof)
    # beta(u) = 0.5 u - 0.5 crosses zero at u = 1
    with pytest.raises(SigmaZero):
        weingarten_closed_form(prof, curve, 1.0)


def test_profile_line_is_geodesic(example_profile, example_curve):
    imm = build_rotational(example_profile, example_curve)
    assert np.max(profile_geodesic_residual(imm, imm.chart.grid(3, 0.15))) < 1e-8


def test_angle_recovered_from_shape_data():
    for theta in (0.3, ROOT2 / 2, 0.9):
        prof = RotationalProfile(theta=theta, f="exp(t)", n=2, u_range=(-1.0, 1.0))
        imm = build_rotational(prof)
        for sd in point_geometries(imm, imm.chart.grid(3, 0.15)):
            assert abs(abs(sd.theta) - theta) < 1e-10


def test_classification_dichotomy():
    passing = [
        ("exp(t)", (-math.inf, math.inf), (-1.5, 1.5)),
        ("3*exp(2*t)", (-math.inf, math.inf), (-1.0, 1.0)),
    ]
    failing = [
        ("sin(t)", (0.0, math.pi), (0.5, 1.0)),
        ("t^2+1", (-math.inf, math.inf), (-1.0, 1.0)),
        ("cosh(t)", (-math.inf, math.inf), (-1.0, 1.0)),
    ]
    for f, interval, u_range in passing:
        prof = RotationalProfile(theta=0.5, f=f, n=2, u_range=u_range)
        report = verify_classification(prof, interval=interval)
        assert report.classified, f
        assert report.sigma_constancy < SOLITON_TOL
        assert report.balance_residual < 1e-7
    for f, interval, u_range in failing:
        prof = RotationalProfile(theta=0.5, f=f, n=2, u_range=u_range)
        report = verify_classification(prof, interval=interval)
        assert not report.classified, f
        assert report.balance_residual > 1e-2, f


def test_any_theta_classifies_for_exponential():
    for theta in (0.2, 0.5, 0.9):
        prof = RotationalProfile(theta=theta, f="exp(t)", n=2, u_range=(-1.0, 1.0))
        assert verify_classification(prof).classified


def test_offset_constant_breaks_classification():
    prof = RotationalProfile(theta=0.5, f="exp(t)", n=2, c2=0.7, u_range=(-1.0, 1.0))
    report = verify_classification(prof)
    assert not report.classified
    assert report.sigma_constancy > 1e-2


def test_profile_validation():
    for theta in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            RotationalProfile(theta=theta, f="exp(t)", n=2)
    with pytest.raises(ValueError):
        RotationalProfile(theta=0.5, f="exp(t)", n=1)
    with pytest.raises(ValueError):
        RotationalProfile(theta=0.5, f="exp(t)", n=2, u_range=(1.0, 0.0))


def test_rotational_n3_classifies():
    prof = RotationalProfile(theta=0.6, f="exp(t)", n=3, u_range=(-1.0, 1.0))
    report = verify_classification(prof)
    assert report.classified


@pytest.mark.parametrize(
    "f, u_range",
    [
        ("cosh(t)", (-1.5, 1.5)),
        ("2+sin(t)", (-1.5, 1.5)),
        ("1/(1+t^2)", (-1.5, 1.5)),
        ("t^2+0.001", (-1.0, 1.0)),
    ],
)
def test_profile_interpolant_matches_quadrature(f, u_range):
    prof = RotationalProfile(theta=0.5, f=f, n=2, c2=0.25, u_range=u_range)
    curve = solve_profile(prof)
    assert curve.exponential_rate is None

    def slope(s):
        return prof.theta / float(eval_jet2(prof.f, {"t": curve.alpha(s)}).value)

    u0 = u_range[0]
    u = np.linspace(u0, u_range[1], 13)
    got = curve.beta(u) - curve.beta(u0)
    for ui, gi in zip(u, got):
        integral, err = scipy.integrate.quad(
            slope, u0, ui, epsabs=1e-13, epsrel=1e-13, limit=500
        )
        assert err < 1e-11
        assert abs(gi - integral) < 1e-10, (f, ui)


def test_wrong_closed_form_raises_quadrature_failure_naming_u(monkeypatch):
    # a closed form 1 % off the interpolant disagrees first at the second
    # of the 9 check points (at u0 both vanish)
    import warpgeo.rotational as rotational

    detect = rotational._detect_exponential
    monkeypatch.setattr(rotational, "_detect_exponential", lambda prof, tape: (1.01 * detect(prof, tape)[0], 1.0))
    prof = RotationalProfile(theta=0.5, f="exp(t)", n=2, u_range=(-1.0, 1.0))
    u = float(np.linspace(-1.0, 1.0, 9)[1])
    with pytest.raises(QuadratureFailure, match=rf"disagree at u={u!r}: "):
        solve_profile(prof)
    with pytest.raises(QuadratureFailure, match=rf"disagree at u={u!r}: "):
        verify_classification(prof)


def test_a_solved_profile_compiles_f_once(monkeypatch):
    # the probe for an exponential f runs the tape that the curve keeps
    import warpgeo.rotational as rotational

    compiled, init = [], rotational.Tape.__init__
    monkeypatch.setattr(rotational.Tape, "__init__", lambda tape, exprs, *args: compiled.append((tape, list(exprs)))
                        or init(tape, exprs, *args))
    prof = RotationalProfile(theta=0.5, f="cosh(t)", n=2)
    curve = solve_profile(prof)
    assert [tape for tape, exprs in compiled if exprs == [prof.f]] == [curve.tape]


def test_empty_interval_is_not_blamed_on_f():
    prof = RotationalProfile(theta=0.5, f="exp(t)", n=2)
    with pytest.raises(ValueError, match=r"^empty interval \(1.0, 0.0\)$"):
        verify_classification(prof, interval=(1.0, 0.0))


def test_interval_wider_than_a_float_is_not_blamed_on_f():
    prof = RotationalProfile(theta=0.5, f="exp(t)", n=2)
    with pytest.raises(ValueError, match=r"^width of interval \(-1e\+308, 1e\+308\) overflows a float$"):
        verify_classification(prof, interval=(-1e308, 1e308))


def test_vanishing_sigma_carries_the_index_of_its_sample():
    # beta = (u + 1)/2 - 0.23 vanishes at u = -0.54, the fourth of the 16 samples of sigma
    curve = solve_profile(RotationalProfile(theta=0.5, f="1", n=2, c2=-0.23))
    u = np.linspace(-0.9, 0.9, 16)
    with pytest.raises(SigmaZero, match=rf"^sigma vanishes at u={float(u[3])!r}$") as info:
        profile_residuals(curve)
    assert info.value.index == 3


def test_unresolved_profile_raises_quadrature_failure():
    # 1/f has poles at t = +-1e-4 i: no degree up to the cap resolves it
    prof = RotationalProfile(theta=0.5, f="t^2+1e-8", n=2, u_range=(-1.0, 1.0))
    with pytest.raises(QuadratureFailure, match="not resolved"):
        solve_profile(prof)
    argv = ["rotational", "--theta", "0.5", "--f", "t^2+1e-8", "--u0", "-1", "--u1", "1"]
    assert main(argv) == 2


# sqrt fails for 0.03 < t < 0.07: between the probes at t = 0 and 0.1,
# and around a node of the degree-64 interpolant
GAP = "2+sqrt((t-0.05)^2-0.0004)"


def test_integrand_failing_between_probes_names_u():
    prof = RotationalProfile(theta=0.6, f=GAP, n=2, u_range=(-1.0, 1.0))
    probes = np.linspace(prof.alpha(-1.0), prof.alpha(1.0), 17)
    eval_jet2(prof.f, {"t": probes}, ("t",))  # the probes pass
    with pytest.raises(DomainError, match=r"profile integrand at u=0\.04.*sqrt of negative"):
        solve_profile(prof)
    # the command probes f on the interval before the interpolant: bad input
    assert main(["rotational", "--theta", "0.6", "--f", GAP, "--u0", "-1", "--u1", "1"]) == 2


def test_a_failing_integrand_keeps_the_index_of_its_node():
    # the first failing node is node 33 of the degree-64 interpolant
    with pytest.raises(DomainError) as err:
        solve_profile(RotationalProfile(theta=0.6, f=GAP, n=2, u_range=(-1.0, 1.0)))
    nodes = -1.0 + 0.5 * 2.0 * (1.0 - np.cos(np.pi * np.arange(65) / 64))
    assert err.value.index == 33
    assert str(err.value).startswith(f"profile integrand at u={float(nodes[33])!r}: ")


@pytest.mark.parametrize("f", ["exp(t)", "cosh(t)"], ids=["closed-form", "interpolant"])
def test_beta_derivatives_match_differences(f):
    # the first three derivatives of beta in closed form from the jet of
    # f, against central differences of the derivative below each
    curve = solve_profile(RotationalProfile(theta=0.5, f=f, n=2, u_range=(-1.0, 1.0)))
    u, step = np.linspace(-0.9, 0.9, 7), 1e-5
    exact = curve.beta_jet(u)
    plus, minus = curve.beta_jet(u + step), curve.beta_jet(u - step)
    for k in range(3):
        fd = (plus[k] - minus[k]) / (2.0 * step)
        assert np.max(np.abs(exact[k + 1] - fd)) < 1e-6 * (1.0 + np.max(np.abs(fd))), k


def test_sigma_constancy_is_the_exact_derivative():
    # off the soliton, sup |d sigma / du| is far from 0 and equals the
    # central differences of sigma = f(alpha) beta on the same u samples
    prof = RotationalProfile(theta=0.5, f="cosh(t)", n=2, u_range=(-1.0, 1.0))
    report = verify_classification(prof)
    curve = solve_profile(prof)
    u, step = report.immersion.chart.axis_points("u", 16, 0.05), 1e-5

    def sigma(u):
        return np.cosh(curve.alpha(u)) * curve.beta(u)

    fd = np.max(np.abs((sigma(u + step) - sigma(u - step)) / (2.0 * step)))
    assert report.sigma_constancy > 1e-2
    assert abs(report.sigma_constancy - fd) < 1e-8


def test_rotational_components_share_one_profile_node(example_curve):
    imm = build_rotational(example_curve.profile, example_curve)
    _, *fiber = imm.components
    assert [unparse(c) for c in fiber] == ["beta(u)*cos(v1)", "beta(u)*sin(v1)"]
    assert [variables_in(c) for c in fiber] == [{"u", "v1"}] * 2
    assert fiber[0].left is fiber[1].left


def test_mesh_export_evaluates_beta_alone(monkeypatch, preset_curve):
    # surface_vertices takes no derivative: the profile node evaluates beta
    # once over the whole grid and no jet of f
    betas, f_jets = [], []

    def beta(u):
        betas.append(np.size(u))
        return preset_curve.beta(u)

    curve = preset_curve._replace(beta=beta)
    slots = jets.Tape.slots

    def counted_slots(tape, bindings, order):  # a jet of f along the profile runs the curve's tape
        if tape is curve.tape:
            f_jets.append(np.size(bindings["t"]))
        return slots(tape, bindings, order)

    monkeypatch.setattr(jets.Tape, "slots", counted_slots)
    imm = build_rotational(curve.profile, curve)
    vertices = surface_vertices(imm, np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 6.0, 7))
    assert vertices.shape == (5, 7, 3) and np.all(np.isfinite(vertices))
    assert betas == [35] and f_jets == []
