import math
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpgeo.errors import DomainError, UnknownIdentifier
from warpgeo.expr import FUNCTIONS, BinOp, Call, Const, Neg, Num, Var, literal, parse, unparse
from warpgeo.jets import Jet2, Tape, as_expression, eval_jet2

from oracles import dense_jet2, eval_value, euclidean_ambient, fd_gradient, gather_packed


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
    # the tape's product rule on the jets of the two factors
    f = parse("sin(t)*u")
    g = parse("exp(u) + t")
    bindings = {"t": 0.4, "u": -0.8}
    active = ("t", "u")
    jf = eval_jet2(f, bindings, active)
    jg = eval_jet2(g, bindings, active)
    product = eval_jet2(BinOp("*", f, g), bindings, active)
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
    # an exponent without variables is read by its value: 4/2 is the integer 2
    jet = eval_jet2(parse("t^(4/2)"), {"t": -1.5}, ("t",))
    assert jet.value == (-1.5) * (-1.5) == 2.25


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
        ("t^(1e300*1e300)", {"t": -1.5}),  # an infinite exponent is no integer
        ("t^(0*(1e300*1e300))", {"t": -1.5}),  # nor is a nan one
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


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("t", [0.5, np.array([0.5, -1.0, 2.0])], ids=["point", "batch"])
@pytest.mark.parametrize("src", ["2", "t", "t+u"])
def test_every_returned_slot_is_an_array_of_its_shape(src, t, order):
    # slots that are zero by construction inside the walk are arrays here
    jet = eval_jet2(parse(src), {"t": t, "u": 1.5}, ("t", "u"), order)
    S = np.shape(t)
    assert np.shape(jet.value) == S
    for r, slot in enumerate(jet.slots()[1:], start=1):
        assert isinstance(slot, np.ndarray) and slot.shape == (2,) * r + S
    assert np.all(jet.hess == 0.0) and (order == 2 or np.all(jet.third == 0.0))


@pytest.mark.parametrize("order", [2, 3])
def test_a_list_of_expressions_gives_the_jet_of_each_alone(order):
    # one walk over the same bindings into one jet with a leading component
    # axis: component k holds the bits of expression k's own evaluation,
    # constants and bare variables included
    exprs = [parse(src) for src in ("sin(t)*u", "t^2", "exp(u)/t", "2", "u")]
    bindings = {"t": np.linspace(0.5, 1.5, 7), "u": np.linspace(-1.0, 1.0, 7)}
    for listed, active in ((exprs, ("t", "u")), (tuple(exprs), ("u",))):
        jets = eval_jet2(listed, bindings, active, order)
        assert isinstance(jets, Jet2) and jets.order == order
        m = len(active)
        for r, slot in enumerate(jets.slots()):
            assert slot.flags.c_contiguous and slot.shape == (len(exprs),) + (m,) * r + (7,)
        for k, expr in enumerate(exprs):
            alone = eval_jet2(expr, bindings, active, order)
            assert [a[k].tobytes() for a in jets.slots()] == [a.tobytes() for a in alone.slots()]


@pytest.mark.parametrize("src, u", [("u^(t*t*t*t)", 0.0), ("(u-3)^(t*t*t*t)", 1.0)])
def test_variable_exponent_refuses_a_non_positive_base_at_every_order(src, u):
    # at t = 0 the exponent is the integer 0, but it has a variable: the real
    # power, which refuses base <= 0 alike at orders 2 and 3
    errors = []
    for order in (2, 3):
        with pytest.raises(DomainError) as err:
            eval_jet2(parse(src), {"t": 0.0, "u": u}, ("t", "u"), order=order)
        errors.append((err.value.index, str(err.value)))
    assert errors[0] == errors[1] and "non-positive base" in errors[0][1]


def test_jet_scalar_mixing():
    out = eval_jet2(parse("2.0 * t + 1.0 - t / 2.0"), {"t": 3.0}, ("t",))
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
# numpy's loops for the batch and for the subnormal t alone pass on the
# NaN of different operands, so the Hessian NaNs differ in sign
@example(
    expr=parse("cos(0.0/t)*t"),
    points=[(1.0, 0.0), (1.0, 0.0), (2.2250738585e-313, 0.0)],
    active=("u", "t"),
)
# an exponent with a variable is the real power even where it is an integer,
# so the negative base fails alone and in the batch; a chain and products on
# Hessians that are zero by construction
@example(expr=parse("t^u"), points=[(1.5, 2.0), (-0.5, 2.0)], active=("u", "t"))
@example(expr=parse("sin(t+u)"), points=[(0.3, -1.2), (2.0, 1.0)], active=("u", "t"))
@example(expr=parse("t*u*t"), points=[(0.3, -1.2), (-0.0, 1.0)], active=("u", "t"))
def test_batched_jets_match_single_points(expr, points, active):
    # each point is bit-identical whether evaluated in the batch or alone,
    # a NaN counting as one value, and a failure is the first point's
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
            assert _bits(getattr(batch, name)[..., i]) == _bits(getattr(single, name)[..., 0]), name


def test_variable_exponent_takes_the_real_power_at_every_point():
    # the exponent u is integral at some points only; every point takes exp(u*log(t))
    t = np.array([2.0, 1.5, 3.0])
    u = np.array([3.0, 0.5, -1.0])
    batch = eval_jet2(parse("t^u"), {"t": t, "u": u}, ("t", "u"))
    assert batch.value.tobytes() == np.exp(u * np.log(t)).tobytes()
    real = eval_jet2(parse("exp(u*log(t))"), {"t": t, "u": u}, ("t", "u"))
    for name in ("value", "grad", "hess"):
        assert getattr(batch, name).tobytes() == getattr(real, name).tobytes(), name


def test_domain_error_names_the_first_failing_point():
    # point 2 fails at log, evaluated first; point 1 fails later, at sqrt
    expr = parse("log(t) + sqrt(u)")
    with pytest.raises(DomainError) as err:
        eval_jet2(expr, {"t": np.array([1.0, 1.0, -1.0]), "u": np.array([1.0, -4.0, 1.0])})
    assert err.value.index == 1
    assert "sqrt of negative value -4.0" in str(err.value)


def test_failing_power_names_its_point_in_the_batch():
    # point 0 (exponent -1, base 0) fails the real power's base check, as
    # point 2 does; the first of them is named, with its own message
    expr = parse("t^u")
    batch = {"t": np.array([0.0, 2.0, -1.0]), "u": np.array([-1.0, 0.5, 0.5])}
    with pytest.raises(DomainError) as err:
        eval_jet2(expr, batch)
    with pytest.raises(DomainError) as alone:
        eval_jet2(expr, {"t": 0.0, "u": -1.0})
    assert err.value.index == 0 and "non-positive base 0.0" in str(err.value)
    assert str(err.value) == str(alone.value)


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
# exponents with a variable, integral at some points and not at others:
# every point takes the real power, in the batch and alone
@example(expr=parse("0.5^u"), points=[(0.0, 0.0), (0.0, -0.5)], active=("t",))
@example(expr=parse("-sin(0.0^u)"), points=[(0.0, 0.0), (0.0, 1.0)], active=("t",))
@example(expr=parse("t^u"), points=[(1.5, 2.0), (-0.5, 2.0)], active=("u", "t"))
@example(expr=parse("sin(t+u)"), points=[(0.3, -1.2), (2.0, 1.0)], active=("u", "t"))
@example(expr=parse("t*u*t"), points=[(0.3, -1.2), (-0.0, 1.0)], active=("u", "t"))
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
    assert order2.third is None and batch.third.shape == (len(active),) * 3 + (len(points),)
    for name in ("value", "grad", "hess"):
        assert getattr(batch, name).tobytes() == getattr(order2, name).tobytes(), name
    for i in range(len(points)):
        single = eval_jet2(expr, {"t": t[i : i + 1], "u": u[i : i + 1]}, active, order=3)
        for name in ("value", "grad", "hess", "third"):
            assert _bits(getattr(batch, name)[..., i]) == _bits(getattr(single, name)[..., 0]), name


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
        ("(t + 2)^w", np.array([0.4, 1.3])),  # w = 3 and 0.5, inactive: the real power at both
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
        assert np.max(np.abs(jet.third[:, :, k] - fd) / (1.0 + np.abs(fd))) < 1e-6, k
    assert np.allclose(jet.third, np.swapaxes(jet.third, 0, 2), rtol=1e-12, atol=1e-12)


_JET_CASES = dict(
    expr=st.recursive(_LEAVES, _combine, max_leaves=8),
    points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=8),
    active=st.sampled_from([(), ("t",), ("u", "t")]),
    order=st.sampled_from([2, 3]),
)


def _jets_or_error(evaluate, expr, points, active, order):
    t = np.array([p[0] for p in points])
    u = np.array([p[1] for p in points])
    try:
        return evaluate(expr, {"t": t, "u": u}, active, order)
    except DomainError as exc:
        return exc.index, str(exc)


@settings(max_examples=300, deadline=None)
@given(**_JET_CASES)
# 1/t is inf at a subnormal t: the full slots multiply it by the zero
# gradient entry of u, and the NaN spreads to entries that are not zero
@example(expr=parse("(1/t)*u"), points=[(5e-324, 1.0), (0.5, -2.0)], active=("u", "t"), order=3)
@example(expr=parse("t*u*t"), points=[(0.3, -1.2), (-0.0, 1.0)], active=("u", "t"), order=3)
@example(expr=parse("sin(t+t+t)"), points=[(0.8217701239287258, -1.2)], active=("t",), order=3)
# at these points any other order of a product's or chain's sums changes bits
@example(expr=parse("sin(t*u)*cos(t+u)"), points=[(-1.423361549121465, 0.5849475849719483),
                                                  (1.106732457369192, 1.200015872044073),
                                                  (-0.3632034545233549, 0.16694543881106183)], active=("u", "t"), order=3)
def test_entries_match_the_full_slot_walk(expr, points, active, order):
    # at every sorted index the entry is the full-slot walk's, bit for bit
    # (a NaN counting as one value), but where that walk made a NaN of
    # inf * 0 or a zero of the other sign; a failure is the walk's
    new, old = (_jets_or_error(evaluate, expr, points, active, order) for evaluate in (eval_jet2, dense_jet2))
    if type(old) is tuple:  # an error
        assert new == old
        return
    for r, (mine, full) in enumerate(zip(new.slots(), old.slots(), strict=True)):
        assert mine.shape == full.shape
        for key in combinations_with_replacement(range(len(active)), r):
            a, b = mine[key], full[key]
            differ = (np.where(np.isnan(a), np.nan, a).view(np.int64) != np.where(np.isnan(b), np.nan, b).view(np.int64))
            assert np.all(~differ | np.isnan(b) | ((a == 0.0) & (b == 0.0))), (r, key)


@settings(max_examples=300, deadline=None)
@given(**_JET_CASES)
@example(expr=parse("t*u*t"), points=[(0.3, -1.2), (-0.0, 1.0)], active=("u", "t"), order=3)
def test_every_slot_is_exactly_symmetric(expr, points, active, order):
    jet = _jets_or_error(eval_jet2, expr, points, active, order)
    if type(jet) is tuple:  # an error
        return
    for r, slot in enumerate(jet.slots()[2:], start=2):
        for perm in permutations(range(r)):
            assert np.transpose(slot, perm + (r,)).tobytes() == slot.tobytes(), (r, perm)


@pytest.mark.parametrize("active", [(), ("t", "u")])
def test_an_empty_batch_gives_empty_slots(active):
    jet = eval_jet2([parse("sin(t)*u"), parse("2")], {"t": np.array([]), "u": np.array([])}, active, 3)
    m = len(active)
    assert [slot.shape for slot in jet.slots()] == [(2,) + (m,) * r + (0,) for r in range(4)]


def test_equal_subtrees_are_one_op_but_not_a_zero_of_the_other_sign_nor_a_constant_of_a_variable_name():
    # t*0.0 and t*-0.0 are equal trees to ==, and Var("pi") and Const("pi") share a name
    t = Var("t")
    exprs = [BinOp("*", t, Num(0.0)), BinOp("*", t, Num(-0.0)), Var("pi"), Const("pi"), BinOp("*", t, Num(0.0))]
    jet = eval_jet2(exprs, {"t": 1.5, "pi": 2.0}, ("t",))
    assert [math.copysign(1.0, x) for x in jet.value[:2]] == [1.0, -1.0]
    assert jet.value[2:].tolist() == [2.0, math.pi, 0.0]
    assert len(Tape(exprs, ("t",)).ops) == 7  # t, 0.0, t*0.0, -0.0, t*-0.0, pi (variable) and pi (constant)


def test_nested_constant_exponents_are_evaluated_once_each(monkeypatch):
    # t^2^...^2 is t^(2^(2^...)): each exponent without variables fixes its
    # power's rule, and compiling evaluates each of its ops once, so a chain
    # of 60 compiles in time linear in its length, not in 2^60
    from warpgeo import jets

    calls, real_pow = [], jets._real_pow
    monkeypatch.setattr(jets, "_real_pow", lambda *args: calls.append(1) or real_pow(*args))
    tape = Tape([parse("t" + "^2" * 60)], ("t",))
    # of its 59 constant powers 2^2, 2^4, 2^16 and 2^65536 (inf) are products, the rest exp(inf * log 2)
    assert len(tape.ops) == 62 and len(calls) == 55
    assert eval_jet2(parse("t" + "^2" * 3), {"t": 2.0}, ("t",)).value == 65536.0
    assert eval_jet2(parse("t" + "^2" * 4), {"t": 1.5}, ("t",)).value == math.inf


@pytest.mark.parametrize("order", [2, 3])
def test_slots_written_in_place_equal_the_packed_gather(order, monkeypatch):
    # each entry is written straight into its full slot at every permutation of
    # its sorted index tuple: the same bytes as the packed slots copied out by
    # take, for the component tape of the dense sphere (m = 3) and for roots that
    # are a constant, a variable alone and products with entries of every kind
    from warpgeo import jets
    from warpgeo.catalogue import sphere_immersion

    sphere = sphere_immersion(euclidean_ambient(3))
    calls, gather = [], jets._gather
    monkeypatch.setattr(jets, "_gather", lambda *args: calls.append((args, gather(*args))) or calls[-1][1])
    sphere.component_jets(sphere.chart.grid(5, 0.1), order)
    exprs = [parse(src) for src in ("2", "y", "x*y*z", "sin(x)*y^2 + x/z", "exp(x*x)*cos(z)")]
    eval_jet2(exprs, {"x": np.array([0.3, -1.2]), "y": 0.7, "z": np.array([1.5, 2.0])}, ("x", "y", "z"), order)
    assert len(calls) == 2
    for (roots, m, shape, order_), slots in calls:
        packed = gather_packed(roots, m, shape, order_)
        assert len(slots) == len(packed) == order + 1
        for got, want in zip(slots, packed):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_tape_refuses_a_node_that_is_no_expression_and_an_unknown_function():
    with pytest.raises(TypeError, match="not an Expression"):
        Tape([BinOp("+", Var("t"), (1.0,))], ("t",))
    with pytest.raises(UnknownIdentifier):
        Tape([Call("sec", Var("t"))], ("t",))


def test_as_expression_refuses_what_is_no_text_number_or_ast():
    assert as_expression(2) == Num(2.0) and as_expression("t") == Var("t")
    with pytest.raises(TypeError, match="cannot interpret"):
        as_expression(object())
