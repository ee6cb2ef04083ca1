import math

import numpy as np
import pytest

from warpgeo.ambient import AmbientPoint, Fiber, WarpedProduct, space_form_models
from warpgeo.errors import DomainError, SingularMetric
from warpgeo.expr import parse, variables_in

from oracles import (
    christoffels,
    christoffels_generic,
    curvature,
    curvature_fd,
    dense_metric,
    dense_metric_jets,
    metric_jets_ast,
    random_fiber_point,
    random_orthonormal_pair,
)

INF = math.inf


def hyperbolic(n=2):
    return WarpedProduct((-INF, INF), "exp(t)", Fiber.EUCLIDEAN, n)


def test_metric_flat_fiber_exponential():
    W = hyperbolic()
    G = dense_metric(W, AmbientPoint(0.0, (5.0, 7.0)))
    assert np.allclose(G, np.eye(3), atol=0.0)
    G = dense_metric(W, AmbientPoint(1.0, (0.0, 0.0)))
    f2 = math.exp(1.0) ** 2
    assert G[0, 0] == 1.0
    assert abs(G[1, 1] - f2) < 1e-12 and abs(G[2, 2] - f2) < 1e-12
    assert G[0, 1] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "interval, f, fiber",
    [
        ((-INF, INF), "exp(t)", Fiber.EUCLIDEAN),
        ((-INF, INF), "2+sin(3*t)", Fiber.EUCLIDEAN),
        ((0.0, math.pi), "sin(t)", Fiber.SPHERE),
        ((0.0, INF), "sinh(t)*(1+t^2)", Fiber.SPHERE),
        ((-INF, INF), "1", Fiber.EUCLIDEAN),
        ((-INF, INF), "2.5", Fiber.EUCLIDEAN),
        ((-INF, INF), "1", Fiber.SPHERE),
        ((-INF, INF), "2.5", Fiber.SPHERE),
    ],
)
def test_closed_form_metric_jets_match_the_expression_walk(interval, f, fiber, n):
    # D and (f, f', f'') equal the jet arithmetic of the entries 1, f^2,
    # f^2 sin(x1)^2, ... to the bit, one point at a time and as a batch.
    # So does dD, but for the sign of its zeros: the walk takes d f / d x_j
    # as f' times a zero derivative of t, which is -0 where f' < 0.  dD keeps
    # the K columns that can be nonzero, and every other column of the walk is
    # 0: t and x1 .. x_{n-1} on the sphere, t alone on the flat fiber where f
    # depends on t, and none for a t-free f there (Euclidean space).
    W = WarpedProduct(interval, f, fiber, n)
    K = n if fiber is Fiber.SPHERE else int("t" in variables_in(parse(f)))
    assert W.columns == K
    rng = np.random.default_rng(n)
    points = [random_fiber_point(W, rng) for _ in range(6)]
    t = np.array([p.t for p in points])
    batch = AmbientPoint(t, tuple(np.array(x) for x in zip(*(p.x for p in points))))
    for p in points + [batch]:
        D, dD, warping = W.metric_jets(p)
        D_ast, dD_ast, warping_ast = metric_jets_ast(W, p)
        assert D.tobytes() == D_ast.tobytes()
        assert dD.shape[:2] == (n + 1, K)
        assert np.array_equal(dD, dD_ast[:, :K])  # equal values: equal bits, or zeros
        assert not np.any(dD_ast[:, K:])
        for got, want in zip(warping, warping_ast):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_metric_equatorial_sphere_point():
    W = WarpedProduct((0.0, math.pi), "sin(t)", Fiber.SPHERE, 2)
    G = dense_metric(W, AmbientPoint(math.pi / 2, (math.pi / 2, 1.0)))
    assert np.allclose(G, np.eye(3), atol=1e-15)


def test_metric_positive_definite(rng):
    for name, W, c, window in space_form_models():
        p = random_fiber_point(W, rng)
        eigs = np.linalg.eigvalsh(dense_metric(W, p))
        assert np.all(eigs > 0.0), name


def test_christoffels_product_of_flats():
    W = WarpedProduct((-INF, INF), "1", Fiber.EUCLIDEAN, 3)
    gamma = christoffels(W, AmbientPoint(0.3, (0.1, -0.4, 2.0)))
    assert np.max(np.abs(gamma)) == 0.0


def test_christoffels_exponential_closed_form(rng):
    W = hyperbolic()
    for _ in range(5):
        t = float(rng.uniform(-1.5, 1.5))
        gamma = christoffels(W, AmbientPoint(t, (0.7, -0.3)))
        e2t = math.exp(2.0 * t)
        assert abs(gamma[1, 0, 1] - 1.0) < 1e-12
        assert abs(gamma[2, 0, 2] - 1.0) < 1e-12
        assert abs(gamma[0, 1, 1] + e2t) < 1e-10 * e2t
        assert abs(gamma[0, 2, 2] + e2t) < 1e-10 * e2t
        assert abs(gamma[0, 0, 0]) == 0.0
        assert abs(gamma[1, 0, 0]) == 0.0


def test_christoffels_symmetric_lower_indices(rng):
    for name, W, c, window in space_form_models():
        p = random_fiber_point(W, rng)
        gamma = christoffels(W, p)
        assert np.allclose(gamma, np.transpose(gamma, (0, 2, 1)), atol=1e-12), name


def test_sphere_fiber_christoffels():
    W = WarpedProduct((-INF, INF), "1", Fiber.SPHERE, 2)
    v1 = 0.9
    gamma = christoffels(W, AmbientPoint(0.0, (v1, 2.0)))
    #  polar/azimuthal block of the round 2-sphere
    assert abs(gamma[1, 2, 2] + math.sin(v1) * math.cos(v1)) < 1e-12
    assert abs(gamma[2, 1, 2] - math.cos(v1) / math.sin(v1)) < 1e-12


def test_metric_compatibility(rng):
    for name, W, c, window in space_form_models():
        p = random_fiber_point(W, rng)
        G, dG = dense_metric_jets(*W.metric_jets(p)[:2])
        gamma = christoffels(W, p)
        # d_a g_bc - Gamma^d_{ab} g_dc - Gamma^d_{ac} g_bd = 0
        res = (
            np.einsum("bca->abc", dG)
            - np.einsum("dab,dc->abc", gamma, G)
            - np.einsum("dac,bd->abc", gamma, G)
        )
        assert np.max(np.abs(res)) < 1e-8, name


def test_diagonal_christoffels_match_generic(rng):
    for n in (2, 3, 4):
        models = [(name, W) for name, W, c, window in space_form_models(n)]
        models.append(("sphere-fiber", WarpedProduct((-INF, INF), "2+sin(t)", Fiber.SPHERE, n)))
        models.append(("euclidean-fiber", WarpedProduct((-INF, INF), "t^2+1", Fiber.EUCLIDEAN, n)))
        for name, W in models:
            for _ in range(3):
                p = random_fiber_point(W, rng)
                gamma = christoffels(W, p)
                oracle = christoffels_generic(*dense_metric_jets(*W.metric_jets(p)[:2]))
                assert np.max(np.abs(gamma - oracle)) <= 1e-14 * np.max(np.abs(oracle)), (n, name)


def test_curvature_vanishes_for_euclidean(rng):
    W = WarpedProduct((-INF, INF), "1", Fiber.EUCLIDEAN, 2)
    p = AmbientPoint(0.1, (0.4, -0.2))
    for _ in range(3):
        X, Y, Z = rng.standard_normal((3, 3))
        assert np.max(np.abs(curvature(W, p, X, Y, Z))) == 0.0


def test_hyperbolic_sectional_curvature(rng):
    W = hyperbolic()
    for _ in range(5):
        p = AmbientPoint(float(rng.uniform(-1, 1)), tuple(rng.uniform(-1, 1, 2)))
        G = dense_metric(W, p)
        X, Y = random_orthonormal_pair(G, rng)
        K = curvature(W, p, X, Y, Y) @ G @ X
        assert abs(K + 1.0) < 1e-12


def test_model_sectional_curvatures(rng):
    for name, W, c, window in space_form_models():
        for _ in range(3):
            p = random_fiber_point(W, rng)
            G = dense_metric(W, p)
            X, Y = random_orthonormal_pair(G, rng)
            K = curvature(W, p, X, Y, Y) @ G @ X
            assert abs(K - c) < 1e-10, (name, K, c)


def test_curvature_antisymmetry_exact(rng):
    W = WarpedProduct((0.0, math.pi), "sin(t)", Fiber.SPHERE, 2)
    p = random_fiber_point(W, rng)
    X, Y, Z = rng.standard_normal((3, 3))
    lhs = curvature(W, p, X, Y, Z) + curvature(W, p, Y, X, Z)
    assert np.max(np.abs(lhs)) < 1e-14


def test_first_bianchi(rng):
    for name, W, c, window in space_form_models():
        p = random_fiber_point(W, rng)
        X, Y, Z = rng.standard_normal((3, W.dim))
        total = (
            curvature(W, p, X, Y, Z)
            + curvature(W, p, Y, Z, X)
            + curvature(W, p, Z, X, Y)
        )
        assert np.max(np.abs(total)) < 1e-8, name


def test_curvature_against_fd_oracle(rng):
    models = [(name, W) for name, W, c, window in space_form_models()]
    models.append(
        ("non-space-form", WarpedProduct((-INF, INF), "t^2+1", Fiber.EUCLIDEAN, 2))
    )
    for name, W in models:
        for _ in range(2):
            p = random_fiber_point(W, rng)
            X, Y, Z = rng.standard_normal((3, W.dim))
            closed = curvature(W, p, X, Y, Z)
            oracle = curvature_fd(W, p, X, Y, Z)
            assert np.max(np.abs(closed - oracle)) < 1e-5, name


def test_space_form_table():
    for name, W, c, window in space_form_models():
        probes = np.linspace(window[0], window[1], 200)
        result = W.check_space_form(c, probes)
        assert result.passed, (name, result)


def test_space_form_wrong_pairing_fails():
    # exponential warping needs a flat fiber; over the sphere it is not c = -1
    W = WarpedProduct((-INF, INF), "exp(t)", Fiber.SPHERE, 2)
    result = W.check_space_form(-1.0, np.linspace(-1.0, 1.0, 50))
    assert not result.passed
    assert result.ratio_residual > 1e-2


def test_construction_rejects_nonpositive_warping():
    with pytest.raises(ValueError):
        WarpedProduct((0.0, 2.0 * math.pi), "sin(t)", Fiber.EUCLIDEAN, 2)
    with pytest.raises(ValueError):
        WarpedProduct((-1.0, 1.0), "t", Fiber.EUCLIDEAN, 2)


def test_construction_validates_interval_and_dimension():
    with pytest.raises(ValueError):
        WarpedProduct((1.0, 1.0), "1", Fiber.EUCLIDEAN, 2)
    with pytest.raises(ValueError):
        WarpedProduct((0.0, 1.0), "1", Fiber.EUCLIDEAN, 0)
    with pytest.raises(ValueError):
        WarpedProduct((-1.0, 1.0), "exp(s)", Fiber.EUCLIDEAN, 2)
    # a width that overflows would put every probe of f at a nan height
    with pytest.raises(ValueError, match=r"^width of interval \(-1e\+308, 1e\+308\) overflows a float$"):
        WarpedProduct((-1e308, 1e308), "1", Fiber.EUCLIDEAN, 2)
    for interval in [(-math.inf, 1e308), (-1e308, math.inf), (-math.inf, math.inf), (1e308, 1.7e308)]:
        WarpedProduct(interval, "1", Fiber.EUCLIDEAN, 2)


def test_probe_window_stays_inside_the_interval():
    # an infinite end is cut 8 beyond a finite end at or past -4 or 4, so f = -5 - t,
    # positive on (-inf, -10), builds; the windows of the other intervals do not move
    W = WarpedProduct((-INF, -10.0), "-5 - t", Fiber.EUCLIDEAN, 2)
    assert W.probe_window() == (-17.84, -10.16)
    windows = {
        (10.0, INF): (10.16, 17.84),
        (-INF, -4.0): (-11.84, -4.16),
        (-INF, INF): (-3.84, 3.84),
        (0.0, INF): (0.08, 3.92),
        (-INF, 3.0): (-3.86, 2.86),
        (0.0, math.pi): (0.06283185307179587, 3.078760800517997),
    }
    for interval, window in windows.items():
        assert WarpedProduct(interval, "1", Fiber.EUCLIDEAN, 2).probe_window() == window, interval


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_probe_window_stays_strictly_inside_at_every_magnitude(sign):
    # a finite end +-10^k of a half-infinite interval: neither the cut 8
    # beyond it nor the 2% pad rounds back onto it, at any magnitude
    for k in range(301):
        end = sign * 10.0**k
        for interval in ((-INF, end), (end, INF)):
            lo, hi = WarpedProduct(interval, "1", Fiber.EUCLIDEAN, 2).probe_window()
            assert interval[0] < lo <= hi < interval[1], interval


def test_far_half_infinite_intervals_probe_inside():
    # f vanishes at the excluded finite end only, so each builds
    for interval, f in [((-INF, -1e16), "-1e16 - t"), ((-INF, -1e18), "-1e18 - t"), ((1e18, INF), "t - 1e18")]:
        lo, hi = WarpedProduct(interval, f, Fiber.EUCLIDEAN, 2).probe_window()
        assert interval[0] < lo < hi < interval[1]


def test_a_narrow_interval_keeps_its_window_inside_or_is_refused():
    # a pad below half an ulp rounds each end back: the window steps to the
    # floats next to the ends; an interval with no float inside is refused
    one_up = math.nextafter(1.0, 2.0)
    narrow = (1.0, math.nextafter(math.nextafter(one_up, 2.0), 2.0))
    assert WarpedProduct(narrow, "1", Fiber.EUCLIDEAN, 2).probe_window() == (one_up, math.nextafter(narrow[1], 0.0))
    top = math.nextafter(INF, 0.0)
    for interval in [(1.0, one_up), (-INF, -top), (top, INF)]:
        with pytest.raises(ValueError, match="holds no float strictly inside it"):
            WarpedProduct(interval, "1", Fiber.EUCLIDEAN, 2)


def test_a_failing_warping_function_keeps_the_index_of_its_height():
    # eval_warping names the height in the message of the DomainError it catches
    W = WarpedProduct((-INF, INF), "2 + sqrt(abs(t - 0.3))", Fiber.EUCLIDEAN, 2)
    with pytest.raises(DomainError, match=r"^warping function at t=0\.3: ") as err:
        W.check_space_form(None, np.array([0.0, 0.1, 0.3, 0.5]))
    assert err.value.index == 2


def test_point_validation():
    W = WarpedProduct((0.0, math.pi), "sin(t)", Fiber.SPHERE, 2)
    with pytest.raises(ValueError):
        W.metric_jets(AmbientPoint(-0.1, (1.0, 1.0)))
    with pytest.raises(ValueError):
        W.metric_jets(AmbientPoint(1.0, (3.5, 1.0)))  # polar angle beyond pi
    with pytest.raises(ValueError):
        W.metric_jets(AmbientPoint(1.0, (1.0,)))  # wrong coordinate count


def test_singular_chart_metric_raises():
    W = WarpedProduct((-INF, INF), "1", Fiber.SPHERE, 2)
    with pytest.raises(SingularMetric):
        christoffels(W, AmbientPoint(0.0, (1e-9, 1.0)))


def test_metric_jets_fail_like_the_first_failing_point():
    # f is positive on the probe window but undefined at t = 6; the second
    # point leaves the angle chart, which is checked before the entries
    W = WarpedProduct((-INF, INF), "sqrt(5-t)", Fiber.SPHERE, 2)
    batch = AmbientPoint(np.array([6.0, 0.0]), (np.array([1.0, 4.0]), np.array([1.0, 1.0])))
    with pytest.raises(DomainError) as err:
        W.metric_jets(batch)
    assert err.value.index == 0
