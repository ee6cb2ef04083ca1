import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo.errors import ExprSyntaxError, UnknownIdentifier
from warpgeo.expr import BinOp, Call, Const, Num, Neg, Var, literal, parse, unparse, variables_in
from warpgeo.jets import eval_value


def test_single_function_ast():
    assert parse("exp(t)") == Call("exp", Var("t"))


def test_pythagorean_identity():
    expr = parse("sin(t)^2 + cos(t)^2")
    assert abs(eval_value(expr, {"t": 0.7}) - 1.0) < 1e-15


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("2t")


def test_precedence_and_associativity():
    assert eval_value(parse("-2^2"), {}) == -4.0
    assert eval_value(parse("2^3^2"), {}) == 512.0
    assert eval_value(parse("2^-1"), {}) == 0.5
    assert eval_value(parse("1-2-3"), {}) == -4.0
    assert eval_value(parse("6/3/2"), {}) == 1.0
    assert eval_value(parse("1+2*3"), {}) == 7.0
    assert eval_value(parse("(1+2)*3"), {}) == 9.0
    assert eval_value(parse("2*-3"), {}) == -6.0


def test_constants():
    assert eval_value(parse("pi"), {}) == math.pi
    assert eval_value(parse("e"), {}) == math.e
    assert eval_value(parse("cos(pi)"), {}) == -1.0


def test_scientific_literals():
    assert eval_value(parse("1e-05"), {}) == 1e-05
    assert eval_value(parse("2.5e3"), {}) == 2500.0
    # "2e" is the literal 2 followed by the constant e: implicit product
    with pytest.raises(ExprSyntaxError):
        parse("2e")


def test_non_finite_literals_rejected():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*1e400")
    assert err.value.offset == 2


@pytest.mark.parametrize("value", [0.5, -0.5, 0.0, -0.0, 1e-05, -3e20])
def test_literal_matches_parsed_repr(value):
    assert literal(value) == parse(repr(value))


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + $")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin 1")
    assert err.value.offset == 0
    with pytest.raises(ExprSyntaxError):
        parse("(1+2")
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")


def test_unknown_identifier_at_parse_time():
    with pytest.raises(UnknownIdentifier):
        parse("t + q", variables={"t"})
    parse("t + q")  # deferred when no variable set is given


def test_unknown_identifier_at_eval_time():
    with pytest.raises(UnknownIdentifier):
        eval_value(parse("t + q"), {"t": 1.0})


def test_variables_in():
    assert variables_in(parse("sin(u)*cos(v1)+pi")) == {"u", "v1"}


_LEAVES = st.one_of(
    st.floats(min_value=0.01, max_value=4.0).map(lambda v: Num(float(v))),
    st.sampled_from([Var("t"), Var("u"), Const("pi"), Const("e")]),
)


def _combine(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh", "sinh"]), children).map(
            lambda t: Call(t[0], t[1])
        ),
        st.tuples(children, st.integers(min_value=0, max_value=4)).map(
            lambda t: BinOp("^", t[0], Num(float(t[1])))
        ),
    )


_ASTS = st.recursive(_LEAVES, _combine, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(expr=_ASTS, t=st.floats(min_value=-2, max_value=2), u=st.floats(min_value=-2, max_value=2))
def test_unparse_round_trip_evaluates_identically(expr, t, u):
    from warpgeo.errors import DomainError

    text = unparse(expr)
    reparsed = parse(text)
    bindings = {"t": t, "u": u}
    try:
        expected = eval_value(expr, bindings)
    except DomainError:
        return
    if not math.isfinite(expected):
        return
    assert eval_value(reparsed, bindings) == expected


def test_unparse_parenthesizes_negative_literals():
    expr = BinOp("^", Num(-1.5), Num(2.0))
    assert eval_value(parse(unparse(expr)), {}) == 2.25


@pytest.mark.parametrize(
    "open_, close",
    [("(", ")"), ("sin(", ")"), ("-", ""), ("1^", "")],
    ids=["parentheses", "calls", "unary-minus", "power"],
)
def test_nesting_is_bounded(open_, close):
    from warpgeo.expr import MAX_EXPRESSION_DEPTH

    deepest = open_ * (MAX_EXPRESSION_DEPTH - 1) + "t" + close * (MAX_EXPRESSION_DEPTH - 1)
    assert math.isfinite(eval_value(parse(deepest), {"t": 0.5}))
    for levels in (MAX_EXPRESSION_DEPTH + 1, 2000):
        with pytest.raises(ExprSyntaxError, match="MAX_EXPRESSION_DEPTH"):
            parse(open_ * levels + "t" + close * levels)


def test_long_flat_chain_is_bounded():
    from warpgeo.expr import MAX_EXPRESSION_DEPTH, depth

    longest = parse("+".join(["t"] * MAX_EXPRESSION_DEPTH))
    assert depth(longest) == MAX_EXPRESSION_DEPTH
    assert eval_value(longest, {"t": 1.0}) == MAX_EXPRESSION_DEPTH
    for terms in (MAX_EXPRESSION_DEPTH + 1, 5000):
        with pytest.raises(ExprSyntaxError, match="MAX_EXPRESSION_DEPTH"):
            parse("*".join(["t"] * terms))


def test_long_chain_is_refused_before_the_rest_is_read():
    # the depth error comes before the bad character at the end
    with pytest.raises(ExprSyntaxError, match="MAX_EXPRESSION_DEPTH"):
        parse("t+" * 200_000 + "t$")


def test_long_chain_is_refused_quickly():
    text = "+".join(["t"] * 200_000)
    started = time.perf_counter()
    with pytest.raises(ExprSyntaxError, match="MAX_EXPRESSION_DEPTH"):
        parse(text)
    assert time.perf_counter() - started < 0.05
