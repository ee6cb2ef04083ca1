import math
import sys
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpgeo.errors import DomainError, UnknownIdentifier
from warpgeo.expr import FUNCTIONS, BinOp, Call, Const, Neg, Num, Var, literal, parse, unparse, variables_in
from warpgeo.jets import Jet2, Tape, as_expression, eval_jet2

from oracles import eval_value
from reference import defined, held, intermediates, reference_jet


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


# expressions in t and u that use every function: cases of the reference comparison, and
# examples of the symmetry test
_SOURCES = [
    "sin(0.7*t + 1.3)",
    "exp(0.7*t)*cos(1.3*u)",
    "t^3 - 2*t*u + u^2",
    "tanh(t)*sinh(u) + cosh(t*u)",
    "log(t^2 + u^2 + 2)",
    "sqrt(t^2 + 4)",
    "(t + u)^4 / (2 + cos(t))",
    "t/(u^2 + 1) + abs(u^2+1)",
    "exp(sin(t) + cos(u))",
    "tan(t/4)*u",
]


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
    # the verdict is the expression's, whichever variables are differentiated
    for active in (("u",), ("t",), ("t", "u")):
        with pytest.raises(DomainError, match="abs is not differentiable at 0"):
            eval_jet2(parse("abs(t)*u"), {"t": 0.0, "u": 2.0}, active)
    # plain evaluation of the same expression is fine
    assert eval_jet2(parse("abs(t)"), {"t": 0.0}, ()).value == 0.0
    jet = eval_jet2(parse("abs(t)"), {"t": -2.0}, ("t",))
    assert jet.value == 2.0 and jet.grad[0] == -1.0
    # an argument without variables has no kink to refuse
    assert eval_jet2(parse("t*abs(0)"), {"t": 0.0}, ("t",)).grad.tolist() == [0.0]


def test_sqrt_kink_raises_with_active_variables():
    with pytest.raises(DomainError):
        eval_jet2(parse("sqrt(t)"), {"t": 0.0}, ("t",))
    assert eval_jet2(parse("sqrt(t)"), {"t": 0.0}, ()).value == 0.0
    for active in (("u",), ("t",), ("t", "u")):
        with pytest.raises(DomainError, match="sqrt is not differentiable at 0"):
            eval_jet2(parse("sqrt(t) + u"), {"t": 0.0, "u": 2.0}, active)
    assert eval_jet2(parse("t + sqrt(0)"), {"t": 0.0}, ("t",)).grad.tolist() == [1.0]


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


_JET_CASES = dict(
    expr=st.recursive(_LEAVES, _combine, max_leaves=8),
    points=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=8),
    active=st.sampled_from([(), ("t",), ("u", "t")]),
    order=st.sampled_from([2, 3]),
)


def _bindings(points):
    """The points, a list of (t, u), as bindings of t and u."""
    return {"t": np.array([p[0] for p in points]), "u": np.array([p[1] for p in points])}


def _point(bindings, i):
    """The bindings at point ``i``: a scalar binding holds at every point."""
    return {name: float(v[i] if np.ndim(v) else v) for name, v in bindings.items()}


def _check_refusal(err, bindings, active):
    # the refused node breaks a rule of the language at the operands the program computed there, which an
    # underflow or a rounding may have moved from the exact ones: a kink of an argument with a variable
    # where a variable is differentiated, or an operation undefined there (a real power is exp(b log a))
    node, point = err.expression, _point(bindings, err.index)
    a, *b = (Num(float(eval_jet2(kid, point).value)) for kid in node[1:])
    if str(err).endswith("is not differentiable at 0"):
        assert active and variables_in(node) and a.value == 0.0, (unparse(node), point)
        return
    real_power = type(node) is BinOp and node.op == "^" and variables_in(node.right)
    at = Call("exp", BinOp("*", *b, Call("log", a))) if real_power else type(node)(node[0], a, *b)
    assert not all(defined(reference_jet(n, {}, (), 0)[()]) for n in intermediates(at)), (unparse(node), point)


def _matches_the_reference(expr, bindings, active, order):
    """Whether the tape evaluated ``expr`` at ``bindings`` (by name, a 1-d array of the points or a scalar for
    all), after checking each entry of its full slots, at every point and index tuple, against the 40-digit
    reference; or its refusal."""
    try:
        jet = eval_jet2(expr, bindings, active, order)
    except DomainError as err:
        _check_refusal(err, bindings, active)
        return False
    nodes = None  # listed where an entry first needs the rounding bound, never for an undefined expression
    for i in range(jet.value.shape[-1]):
        point = _point(bindings, i)
        ref, inner = reference_jet(expr, point, active, order), None
        for r, slot in enumerate(jet.slots()):
            for index in np.ndindex((len(active),) * r):
                want, got = ref[tuple(sorted(index))], slot[index + (i,)]
                if not defined(want) or abs(got - want) <= 1e-11 * (1 + abs(want)):
                    continue
                # a rule's terms are products of up to r + 1 entries of the subexpressions (the root's own are
                # left out), each op rounding once, and such a product may overflow; where float64 cannot
                # hold an entry of a subexpression, the rules that read it are not compared
                nodes = nodes or list(intermediates(expr))
                inner = inner or [reference_jet(node, point, active, order) for node in nodes[1:]]
                entries = [x for jet in inner for key, x in jet.items() if len(key) <= r]
                if all(map(held, entries)):
                    size = (1 + max(map(abs, entries), default=0)) ** (r + 1)
                    assert abs(got - want) <= 4 * sys.float_info.epsilon * len(nodes) * size or (
                        size > sys.float_info.max and not np.isfinite(got)), (i, index, got, want)
    return True


@settings(max_examples=100, deadline=None)
@given(**_JET_CASES)
# 1/t is inf at a subnormal t: the entries of u, zero, are not a NaN of inf * 0
@example(expr=parse("(1/t)*u"), points=[(5e-324, 1.0), (0.5, -2.0)], active=("u", "t"), order=3)
@example(expr=parse("t*u*t"), points=[(0.3, -1.2), (-0.0, 1.0)], active=("u", "t"), order=3)
@example(expr=parse("sin(t+t+t)"), points=[(0.8217701239287258, -1.2)], active=("t",), order=3)
# functions at order 3 of two-variable arguments with no Hessian
@example(expr=parse("sin(t+u+u+u)*cos(t-u)"), points=[(0.3, -1.2), (-0.7, 2.5)], active=("u", "t"), order=3)
# an argument without variables has no kink: it is neither refused nor differentiated
@example(expr=parse("t + sqrt(0)"), points=[(0.0, 0.0), (1.5, 0.0)], active=("t",), order=3)
@example(expr=parse("t*abs(0)"), points=[(0.0, 0.0), (1.5, 0.0)], active=("t",), order=3)
@example(expr=parse("t^sqrt(0)"), points=[(0.0, 0.0), (1.5, 0.0)], active=("t",), order=3)
def test_entries_match_the_40_digit_reference(expr, points, active, order):
    _matches_the_reference(expr, _bindings(points), active, order)


@pytest.mark.parametrize(
    "src, t",
    [
        *((src, np.array([0.4, -1.1])) for src in _SOURCES),
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
        ("log(u - 1.69) / (t - 0.39)", 0.4),  # an argument and a divisor near their refusals, 0.01 each
    ],
)
def test_each_rule_matches_the_40_digit_reference(src, t):
    t = np.atleast_1d(t)
    bindings = {"t": t, "u": np.full_like(t, 1.7), "w": np.where(t == 1.3, 0.5, 3.0)}  # w is inactive
    assert _matches_the_reference(parse(src), bindings, ("t", "u"), 3)


def test_three_active_variables_and_a_scalar_binding_match_the_40_digit_reference():
    # a triple of three distinct indices fills six places of the third slot, and w, one number, is
    # broadcast against the points' arrays
    bindings = {"t": np.array([0.4, -1.1, 2.3]), "u": np.array([1.7, -0.6, 0.9]), "w": 1.3}
    assert _matches_the_reference(parse("sin(t*u)*w + tan(t/w)*u"), bindings, ("u", "w", "t"), 3)


def _at_the_sources(test):
    """``test`` with an example of each of _SOURCES, in t and u at order 2."""
    for src in _SOURCES:
        test = example(expr=parse(src), points=[(0.4, 1.7), (-1.1, -0.6)], active=("t", "u"), order=2)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(**_JET_CASES)
@example(expr=parse("t*u*t"), points=[(0.3, -1.2), (-0.0, 1.0)], active=("u", "t"), order=3)
@_at_the_sources
def test_every_slot_is_exactly_symmetric(expr, points, active, order):
    try:
        jet = eval_jet2(expr, _bindings(points), active, order)
    except DomainError:
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
    # t^2^...^2 is t^(2^(2^...)): compiling evaluates nothing, and a run reads
    # each power's rule from its exponent's value, each op once, so a chain
    # of 60 runs in time linear in its length, not in 2^60
    from warpgeo import jets

    products, messages, pow_int, flag_at = [], [], jets._pow_int_jet, jets._flag_at
    monkeypatch.setattr(jets, "_pow_int_jet", lambda *args: products.append(1) or pow_int(*args))
    monkeypatch.setattr(jets, "_flag_at", lambda *args: messages.append(args[2]) or flag_at(*args))
    tape = Tape([parse("t" + "^2" * 60)], ("t",))
    assert len(tape.ops) == 62 and products == messages == []
    tape.slots({"t": 1.5}, 2)
    # of its 59 constant powers 2^2, 2^4, 2^16 and 2^65536 (inf) are products,
    # the other 55 exp(inf * log 2), and so is t^inf: each real power flags once
    assert len(products) == 4 and sum(message.startswith("power") for message in messages) == 56
    assert eval_jet2(parse("t" + "^2" * 3), {"t": 2.0}, ("t",)).value == 65536.0
    assert eval_jet2(parse("t" + "^2" * 4), {"t": 1.5}, ("t",)).value == math.inf


@pytest.mark.parametrize("active, repeated", [(("t", "t"), "['t']"), (("u", "t", "u"), "['u']")],
                         ids=["twice", "among-others"])
def test_repeated_active_variables_are_refused(active, repeated):
    # a repeated name took one gradient entry and left its other entry 0
    with pytest.raises(ValueError) as err:
        eval_jet2(parse("t*u"), {"t": 1.0, "u": 2.0}, active)
    assert str(err.value) == f"repeated active variables: {repeated}"


@pytest.mark.parametrize("order", [0, 1, 4])
def test_eval_jet2_refuses_an_order_other_than_two_or_three(order):
    with pytest.raises(ValueError) as err:
        eval_jet2(parse("t"), {"t": 1.0}, ("t",), order)
    assert str(err.value) == f"eval_jet2 takes order 2 or 3, not {order}"
    assert [slot.tolist() for slot in Tape([parse("t*t")], ("t",)).slots({"t": 3.0}, 0)] == [[9.0]]  # values alone


def test_eval_jet2_reads_text_and_numbers_as_expressions():
    # each is one expression, as a WarpedProduct or an Immersion reads it; a list or tuple is K of them
    bindings, active = {"t": np.array([0.5, -1.5])}, ("t",)
    text, ast = eval_jet2("t*t", bindings, active, 3), eval_jet2(parse("t*t"), bindings, active, 3)
    assert [slot.tobytes() for slot in text.slots()] == [slot.tobytes() for slot in ast.slots()]
    assert eval_jet2(2, bindings, active).value.tolist() == [2.0, 2.0]
    listed = eval_jet2(("t*t", 2, parse("t")), bindings, active)
    assert listed.value.tolist() == [[0.25, 2.25], [2.0, 2.0], [0.5, -1.5]]


def test_a_tape_refuses_a_node_that_is_no_expression_and_an_unknown_function():
    with pytest.raises(TypeError, match="not an Expression"):
        Tape([BinOp("+", Var("t"), (1.0,))], ("t",))
    with pytest.raises(UnknownIdentifier):
        Tape([Call("sec", Var("t"))], ("t",))


def test_as_expression_refuses_what_is_no_text_number_or_ast():
    assert as_expression(2) == Num(2.0) and as_expression("t") == Var("t")
    with pytest.raises(TypeError, match="cannot interpret"):
        as_expression(object())
