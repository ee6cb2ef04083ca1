import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo.errors import ExprSyntaxError, UnknownIdentifier
from warpgeo.expr import (
    BinOp, Call, Const, Num, Neg, Var, _tokenize, is_name, literal, parse, unparse, variables_in
)

from oracles import eval_value


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
    # a point needs digits on one side only: DIGITS [ "." { DIGIT } ] | "." DIGITS
    assert parse("2.") == Num(2.0)
    assert parse("2.e3") == Num(2000.0)
    assert parse(".5e-1") == Num(0.05)
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
    with pytest.raises(ExprSyntaxError, match="unexpected character '.'") as err:
        parse(".")
    assert err.value.offset == 0
    # an exponent without digits is no part of the number: 1, then the constant e
    with pytest.raises(ExprSyntaxError, match="unexpected token 'e'") as err:
        parse("1e+")
    assert err.value.offset == 1
    with pytest.raises(ExprSyntaxError):
        parse("(1+2")
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError, match="empty expression"):  # what is no text
        parse(5)
    with pytest.raises(ExprSyntaxError):
        parse("1 2")
    # digits are ASCII: "²" and "٣" satisfy str.isdigit() but start no number
    for text, offset in (("²", 0), ("exp(t)+²", 7), ("٣", 0), ("1.٣", 2), ("2e²", 1)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset, text
    # a token where another belongs is named, at its offset
    for text, message, offset in (("(t t)", "expected ')', found 't'", 3), ("+t", "unexpected token '+'", 0)):
        with pytest.raises(ExprSyntaxError, match=re.escape(message)) as err:
            parse(text)
        assert err.value.offset == offset, text


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


@pytest.mark.parametrize("text", ["t^(1.0+t)", "(t+1.0)*t", "t^2.0", "t+1.0*t"])
def test_unparse_parenthesizes_where_precedence_needs_it(text):
    assert unparse(parse(text)) == text


def test_unparse_refuses_what_is_not_an_expression():
    with pytest.raises(TypeError, match="not an Expression"):
        unparse(5)


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


def test_depth_is_bounded_after_parsing():
    # no chain (59 links) and no nesting (1 level) reaches the bound, but the
    # parenthesized chain hangs at the foot of the outer one: depth 119
    from warpgeo.expr import MAX_EXPRESSION_DEPTH

    text = "(" + "+".join(["t"] * 60) + ")+" + "+".join(["t"] * 59)
    with pytest.raises(ExprSyntaxError, match="MAX_EXPRESSION_DEPTH") as err:
        parse(text)
    assert err.value.offset == 0
    assert MAX_EXPRESSION_DEPTH < 119


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


# ASCII and a few characters that str methods read in ways a lexer can trip on:
# "²", "٣" and "½" are digits or numeric, "é" a letter, U+00A0 and "\x1c" space
_LEXER_ALPHABET = "".join(map(chr, range(128))) + "²٣½é\xa0\x1c"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_LEXER_ALPHABET, max_size=30))
def test_tokens_cover_the_text(text):
    tokens = []
    try:
        tokens.extend(_tokenize(text))
    except ExprSyntaxError as exc:
        if not str(exc).startswith("unexpected character"):
            raise
        error = exc.offset
    else:
        error = None
    end = 0
    for tok in tokens:
        assert text[end:tok.pos].isspace() or tok.pos == end
        assert tok.text == text[tok.pos : tok.pos + len(tok.text)]
        if tok.kind == "name":
            assert is_name(tok.text)
        elif tok.kind == "num":
            float(tok.text)
        elif tok.kind != "end":
            assert tok.kind == tok.text and tok.text in tuple("+-*/^()")
        end = tok.pos + len(tok.text)
    if error is None:
        assert tokens[-1].kind == "end" and tokens[-1].pos == len(text)
        assert [tok.kind for tok in tokens].count("end") == 1
    else:
        # the first character that starts no token: not a space, an operator,
        # a letter or "_", an ASCII digit, nor "." before an ASCII digit
        assert text[end:error].isspace() or error == end
        c = text[error]
        assert not (c.isspace() or c in "+-*/^()" or c.isalpha() or c == "_" or c in "0123456789")
        assert not (c == "." and text[error + 1 : error + 2] in tuple("0123456789"))
