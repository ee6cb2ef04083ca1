import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo.errors import DomainError
from warpgeo.expr import FUNCTIONS, BinOp, Call, Const, Neg, Var, literal, parse, unparse
from warpgeo.jets import Jet2, eval_jet2, eval_value

from oracles import fd_gradient


def test_exp_jet_at_zero():
    jet = eval_jet2(parse("exp(t)"), {"t": 0.0}, ("t",))
    assert jet.value == 1.0
    assert jet.grad.tolist() == [1.0]
    assert jet.hess.tolist() == [[1.0]]


def test_polynomial_jet():
    jet = eval_jet2(parse("t^2 + 3*t"), {"t": 2.0}, ("t",))
    assert jet.value == 10.0
    assert jet.grad.tolist() == [7.0]
    assert jet.hess.tolist() == [[2.0]]


def test_sin_jet_at_half_pi():
    jet = eval_jet2(parse("sin(t)"), {"t": math.pi / 2}, ("t",))
    assert abs(jet.value - 1.0) < 1e-15
    assert abs(jet.grad[0]) < 1e-15
    assert abs(jet.hess[0, 0] + 1.0) < 1e-15


def test_empty_active_equals_plain_eval():
    expr = parse("sin(t)*exp(u) + t/u")
    bindings = {"t": 0.3, "u": 1.7}
    jet = eval_jet2(expr, bindings, ())
    assert jet.m == 0
    assert jet.value == eval_value(expr, bindings)


def test_inactive_variables_are_constants():
    expr = parse("t*u")
    jet = eval_jet2(expr, {"t": 2.0, "u": 5.0}, ("t",))
    assert jet.value == 10.0
    assert jet.grad.tolist() == [5.0]
    assert jet.hess.tolist() == [[0.0]]


def test_evaluation_is_deterministic():
    expr = parse("sinh(t)^3 / cosh(u) + log(t+3)")
    bindings = {"t": 0.9, "u": -0.4}
    first = eval_jet2(expr, bindings, ("t", "u"))
    second = eval_jet2(expr, bindings, ("t", "u"))
    assert first.value == second.value
    assert np.array_equal(first.grad, second.grad)
    assert np.array_equal(first.hess, second.hess)


_GENERATOR_SOURCES = [
    "sin({a}*t + {b})",
    "exp({a}*t)*cos({b}*u)",
    "t^3 - 2*t*u + u^2",
    "tanh(t)*sinh(u) + cosh(t*u)",
    "log(t^2 + u^2 + 2)",
    "sqrt(t^2 + 4)",
    "(t + u)^4 / (2 + cos(t))",
    "t/(u^2 + 1) + abs(u^2+1)",
    "exp(sin(t) + cos(u))",
    "tan(t/4)*u",
]


def _random_cases(rng, count=40):
    for _ in range(count):
        src = _GENERATOR_SOURCES[rng.integers(len(_GENERATOR_SOURCES))]
        a, b = (float(x) for x in rng.uniform(0.5, 1.5, 2))
        src = src.format(a=repr(a), b=repr(b))
        point = {
            "t": float(rng.uniform(-1.2, 1.2)),
            "u": float(rng.uniform(-1.2, 1.2)),
        }
        yield parse(src), point


def test_first_derivatives_match_finite_differences(rng):
    step = 1e-5
    for expr, point in _random_cases(rng):
        jet = eval_jet2(expr, point, ("t", "u"))

        def value_at(x):
            return eval_value(expr, {"t": x[0], "u": x[1]})

        fd = fd_gradient(value_at, [point["t"], point["u"]], step)
        for exact, approx in zip(jet.grad, fd):
            assert abs(exact - approx) < 1e-6 * (1.0 + abs(exact))


def test_second_derivatives_match_finite_differences(rng):
    step = 1e-5
    for expr, point in _random_cases(rng):
        jet = eval_jet2(expr, point, ("t", "u"))

        def grad_at(x):
            inner = eval_jet2(expr, {"t": x[0], "u": x[1]}, ("t", "u"))
            return inner.grad

        for j in range(2):
            def grad_j(x, j=j):
                return grad_at(x)[j]

            fd = fd_gradient(grad_j, [point["t"], point["u"]], step)
            for i in range(2):
                exact = jet.hess[i, j]
                assert abs(exact - fd[i]) < 1e-4 * (1.0 + abs(exact))


def test_hessian_is_exactly_symmetric(rng):
    for expr, point in _random_cases(rng, count=15):
        jet = eval_jet2(expr, point, ("t", "u"))
        assert np.array_equal(jet.hess, jet.hess.T)


def test_leibniz_rule_exact():
    f = parse("sin(t)*u")
    g = parse("exp(u) + t")
    bindings = {"t": 0.4, "u": -0.8}
    active = ("t", "u")
    jf = eval_jet2(f, bindings, active)
    jg = eval_jet2(g, bindings, active)
    product = jf * jg
    expected_grad = jf.value * jg.grad + jg.value * jf.grad
    assert np.allclose(product.grad, expected_grad, atol=0.0)
    cross = np.outer(jf.grad, jg.grad)
    expected_hess = jf.value * jg.hess + jg.value * jf.hess + cross + cross.T
    assert np.allclose(product.hess, expected_hess, atol=0.0)


def test_integer_powers_are_exact_products():
    jet = eval_jet2(parse("t^3"), {"t": -1.5}, ("t",))
    assert jet.value == (-1.5) * (-1.5) * (-1.5)
    assert jet.grad[0] == 3.0 * 1.5 * 1.5
    jet = eval_jet2(parse("(-2)^2"), {}, ())
    assert jet.value == 4.0


def test_negative_integer_power():
    jet = eval_jet2(parse("t^-2"), {"t": 2.0}, ("t",))
    assert jet.value == 0.25
    assert jet.grad[0] == -2.0 / 8.0


def test_nonconstant_exponent():
    jet = eval_jet2(parse("t^t"), {"t": 2.0}, ("t",))
    assert abs(jet.value - 4.0) < 1e-14
    assert abs(jet.grad[0] - 4.0 * (1.0 + math.log(2.0))) < 1e-13


@pytest.mark.parametrize(
    "src, bindings",
    [
        ("log(t)", {"t": -1.0}),
        ("log(t)", {"t": 0.0}),
        ("sqrt(t)", {"t": -4.0}),
        ("1/t", {"t": 0.0}),
        ("t^0.5", {"t": -1.0}),
        ("t^-1", {"t": 0.0}),
    ],
)
def test_domain_errors(src, bindings):
    with pytest.raises(DomainError):
        eval_jet2(parse(src), bindings, ("t",))
    with pytest.raises(DomainError):
        eval_value(parse(src), bindings)


def test_abs_kink_raises_with_active_variables():
    with pytest.raises(DomainError):
        eval_jet2(parse("abs(t)"), {"t": 0.0}, ("t",))
    # plain evaluation of the same expression is fine
    assert eval_jet2(parse("abs(t)"), {"t": 0.0}, ()).value == 0.0
    jet = eval_jet2(parse("abs(t)"), {"t": -2.0}, ("t",))
    assert jet.value == 2.0 and jet.grad[0] == -1.0


def test_sqrt_kink_raises_with_active_variables():
    with pytest.raises(DomainError):
        eval_jet2(parse("sqrt(t)"), {"t": 0.0}, ("t",))
    assert eval_jet2(parse("sqrt(t)"), {"t": 0.0}, ()).value == 0.0


def test_domain_error_carries_subexpression():
    expr = parse("1 + log(t-2)")
    with pytest.raises(DomainError) as err:
        eval_value(expr, {"t": 1.0})
    assert err.value.expression is not None
    assert "log" in unparse(err.value.expression)


def test_jet_scalar_mixing():
    t = Jet2.variable(3.0, 0, 1)
    out = 2.0 * t + 1.0 - t / 2.0
    assert out.value == 5.5
    assert out.grad[0] == 1.5


_LEAVES = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0).map(literal),
    st.sampled_from([Var("t"), Var("u"), Const("pi")]),
)


def _combine(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: Call(*t)),
    )


_COORD = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=300, deadline=None)
@given(
    expr=st.recursive(_LEAVES, _combine, max_leaves=8),
    points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=8),
    active=st.sampled_from([(), ("t",), ("u", "t")]),
)
def test_batched_jets_match_single_points(expr, points, active):
    t = np.array([p[0] for p in points])
    u = np.array([p[1] for p in points])
    singles = []
    for i in range(len(points)):
        try:
            singles.append(eval_jet2(expr, {"t": t[i : i + 1], "u": u[i : i + 1]}, active))
        except DomainError as exc:
            singles.append(exc)
    failing = [i for i, s in enumerate(singles) if isinstance(s, DomainError)]
    if failing:
        with pytest.raises(DomainError) as err:
            eval_jet2(expr, {"t": t, "u": u}, active)
        assert err.value.index == failing[0]
        assert str(err.value) == str(singles[failing[0]])
        return
    batch = eval_jet2(expr, {"t": t, "u": u}, active)
    assert batch.value.shape == (len(points),)
    for i, single in enumerate(singles):
        for name in ("value", "grad", "hess"):
            assert getattr(batch, name)[i].tobytes() == getattr(single, name)[0].tobytes(), name


def test_integer_rule_applies_per_point():
    # the exponent u is integral at some points only; each point takes its own rule
    expr = parse("t^u")
    t = np.array([2.0, 1.5, 3.0])
    u = np.array([3.0, 0.5, -1.0])
    batch = eval_jet2(expr, {"t": t, "u": u})
    for i in range(3):
        assert batch.value[i] == eval_value(expr, {"t": t[i], "u": u[i]})
    assert batch.value[0] == 8.0 and batch.value[2] == 1.0 / 3.0


def test_domain_error_names_the_first_failing_point():
    # point 2 fails at log, evaluated first; point 1 fails later, at sqrt
    expr = parse("log(t) + sqrt(u)")
    with pytest.raises(DomainError) as err:
        eval_jet2(expr, {"t": np.array([1.0, 1.0, -1.0]), "u": np.array([1.0, -4.0, 1.0])})
    assert err.value.index == 1
    assert "sqrt of negative value -4.0" in str(err.value)


def test_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        eval_jet2(parse("exp(1000*t)"), {"t": np.array([0.0, 1.0])}, ("t",))
    with pytest.raises(DomainError):
        eval_value(parse("cosh(t)"), {"t": 1000.0})


@settings(max_examples=300, deadline=None)
@given(
    expr=st.recursive(_LEAVES, _combine, max_leaves=8),
    points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=8),
    active=st.sampled_from([(), ("t",), ("u", "t")]),
)
def test_order_three_jets_match_single_points_and_order_two(expr, points, active):
    # the third slot comes from the same walk: the slots of order 2 are
    # the order-2 ones to the bit, a failure is the same, and each point
    # is bit-identical whether evaluated in the batch or alone (a NaN
    # counts as one value: numpy's loops for a batch and for a single
    # point may pass on the sign of either NaN operand)
    t = np.array([p[0] for p in points])
    u = np.array([p[1] for p in points])
    try:
        order2 = eval_jet2(expr, {"t": t, "u": u}, active)
    except DomainError as exc:
        with pytest.raises(DomainError) as err:
            eval_jet2(expr, {"t": t, "u": u}, active, order=3)
        assert err.value.index == exc.index and str(err.value) == str(exc)
        return
    batch = eval_jet2(expr, {"t": t, "u": u}, active, order=3)
    assert order2.third is None and batch.third.shape == (len(points),) + (len(active),) * 3
    for name in ("value", "grad", "hess"):
        assert getattr(batch, name).tobytes() == getattr(order2, name).tobytes(), name
    for i in range(len(points)):
        single = eval_jet2(expr, {"t": t[i : i + 1], "u": u[i : i + 1]}, active, order=3)
        for name in ("value", "grad", "hess", "third"):
            assert _bits(getattr(batch, name)[i]) == _bits(getattr(single, name)[0]), name


def _bits(a):
    """The bytes of ``a`` with every NaN as the one NaN of numpy."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


@pytest.mark.parametrize(
    "src, t",
    [
        ("-t*u + t", 0.4),  # negation, sum, product
        ("t - u*u*u", 0.4),
        ("t / (u + t)", 0.4),  # reciprocal
        ("t^3 * u^-2", 0.4),  # integer powers
        ("(t + 2)^u", 0.4),  # real power
        ("(t + 2)^w", np.array([0.4, 1.3])),  # the integer rule at one point, the real power at the other
        ("u^(t*t*t)", 0.0),  # an exponent whose derivatives start at the third
        ("sin(t*u)", 0.4),
        ("cos(t*u)", 0.4),
        ("tan(t*u/2)", 0.4),
        ("sinh(t*u)", 0.4),
        ("cosh(t*u)", 0.4),
        ("tanh(t*u)", 0.4),
        ("exp(t*u)", 0.4),
        ("log(t + u)", 0.4),
        ("sqrt(t + u)", 0.4),
        ("abs(t - u)", 0.4),
    ],
)
def test_third_derivatives_match_differences_of_the_hessian(src, t):
    # each rule's third derivative against central differences of the
    # exact Hessian along t and u
    expr, step = parse(src), 1e-5
    u, w = 1.7, np.where(np.asarray(t) == 1.3, 0.5, 3.0)  # w is inactive
    active = ("t", "u")
    jet = eval_jet2(expr, {"t": t, "u": u, "w": w}, active, order=3)
    for k, (dt, du) in enumerate([(step, 0.0), (0.0, step)]):
        plus = eval_jet2(expr, {"t": t + dt, "u": u + du, "w": w}, active).hess
        minus = eval_jet2(expr, {"t": t - dt, "u": u - du, "w": w}, active).hess
        fd = (plus - minus) / (2.0 * step)
        assert np.max(np.abs(jet.third[..., k] - fd) / (1.0 + np.abs(fd))) < 1e-6, k
    assert np.allclose(jet.third, np.swapaxes(jet.third, -1, -3), rtol=1e-12, atol=1e-12)
