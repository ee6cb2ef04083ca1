"""Scalar expression language: tokenizer, parser, AST and printer.

Grammar (EBNF, whitespace insignificant, no implicit multiplication)::

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" factor ] ;
    atom     = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;
    NUMBER   = DIGITS [ "." { DIGIT } ] [ ("e" | "E") [ "+" | "-" ] DIGITS ]
             | "." DIGITS [ ("e" | "E") [ "+" | "-" ] DIGITS ] ;
    NAME     = (LETTER | "_") { LETTER | DIGIT | "_" } ;

``^`` is right-associative and binds tighter than unary minus, so
``-t^2`` parses as ``-(t^2)``.  A number literal that is not finite as a
float (``1e400``) is a syntax error.  Recognized functions: sin, cos, tan,
sinh, cosh, tanh, exp, log, sqrt, abs.  Recognized constants: pi, e.
A function name must be followed by a parenthesized argument.
Nesting (parentheses, calls, unary minus, ``^``) and the depth of the
tree are both bounded by ``MAX_EXPRESSION_DEPTH``; deeper text is a
syntax error, so no evaluation of a parsed tree runs out of stack.
Tokens are read as the parser needs them: a ``+``/``-`` or ``*``/``/``
chain longer than the bound is refused without reading the rest of the
text, and an error is reported before any bad character after it.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from typing import NamedTuple

from .errors import ExprSyntaxError, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}
MAX_EXPRESSION_DEPTH = 100
_TOO_DEEP = f"expression deeper than MAX_EXPRESSION_DEPTH = {MAX_EXPRESSION_DEPTH}"


class Expression(tuple):
    """Base class for AST nodes: named tuples, so immutable, equal and
    hashed by node type and fields (``Var("pi") != Const("pi")``)."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), *self))


class Num(Expression, namedtuple("Num", "value")):
    __slots__ = ()


class Var(Expression, namedtuple("Var", "name")):
    __slots__ = ()


class Const(Expression, namedtuple("Const", "name")):
    __slots__ = ()


class Neg(Expression, namedtuple("Neg", "operand")):
    __slots__ = ()


class BinOp(Expression, namedtuple("BinOp", "op left right")):
    __slots__ = ()


class Call(Expression, namedtuple("Call", "func arg")):
    __slots__ = ()


class Profile(Expression, namedtuple("Profile", "curve arg")):
    """beta(arg) of a profile curve that an immersion supplies: ``curve.beta``
    gives its values and ``curve.beta_jet`` (beta, beta', beta'', beta''')
    at an array of arguments.  No text parses to it."""

    __slots__ = ()


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "end" | the operator itself
    text: str
    pos: int


_OPERATORS = "+-*/^()"
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?")
_WORD = re.compile(r"\w+")  # letters, digits and "_" as str.isalnum() reads them


def is_name(text):
    """Whether ``text`` is one NAME token: a letter or "_", then letters, digits or "_"."""
    return (text[:1].isalpha() or text[:1] == "_") and _WORD.fullmatch(text) is not None


def _tokenize(text):
    """Tokens of ``text``, produced one at a time as the parser asks; the last is "end"."""
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _OPERATORS:
            yield _Token(c, c, i)
            i += 1
        else:
            if match := _NUMBER.match(text, i):
                kind = "num"
            elif c.isalpha() or c == "_":
                match, kind = _WORD.match(text, i), "name"
            else:
                raise ExprSyntaxError(f"unexpected character {c!r}", i)
            yield _Token(kind, match[0], i)
            i = match.end()
    yield _Token("end", "", i)


class _Parser:
    """Recursive descent over the token stream, one token of lookahead."""

    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.variables = variables
        self.lookahead = next(self.tokens)
        self.nesting = 0

    def nested(self, parse, pos):
        """``parse()`` one nesting level deeper, within MAX_EXPRESSION_DEPTH."""
        self.nesting += 1
        if self.nesting > MAX_EXPRESSION_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, pos)
        node = parse()
        self.nesting -= 1
        return node

    def next(self):
        tok = self.lookahead
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.pos)
        self.lookahead = next(self.tokens)
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text!r}", tok.pos)

    def chain(self, operand, ops):
        """``operand { ops operand }``, left-associative.

        Each operator adds a level to the left spine, so a chain longer
        than MAX_EXPRESSION_DEPTH is refused before the rest is read.
        """
        node = operand()
        links = 0
        while (tok := self.lookahead).kind in ops:
            links += 1
            if links >= MAX_EXPRESSION_DEPTH:
                raise ExprSyntaxError(_TOO_DEEP, tok.pos)
            self.next()
            node = BinOp(tok.kind, node, operand())
        return node

    def parse_expr(self):
        return self.chain(self.parse_term, ("+", "-"))

    def parse_term(self):
        return self.chain(self.parse_factor, ("*", "/"))

    def parse_factor(self):
        tok = self.lookahead
        if tok.kind == "-":
            self.next()
            return Neg(self.nested(self.parse_factor, tok.pos))
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        tok = self.lookahead
        if tok.kind == "^":
            self.next()
            node = BinOp("^", node, self.nested(self.parse_factor, tok.pos))
        return node

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text!r} is not finite", tok.pos)
            return Num(value)
        if tok.kind == "(":
            node = self.nested(self.parse_expr, tok.pos)
            self.expect(")")
            return node
        if tok.kind == "name":
            name = tok.text
            if name in FUNCTIONS:
                if self.lookahead.kind != "(":
                    raise ExprSyntaxError(f"function {name!r} must be called with parentheses", tok.pos)
                self.next()
                arg = self.nested(self.parse_expr, tok.pos)
                self.expect(")")
                return Call(name, arg)
            if name in CONSTANTS:
                return Const(name)
            if self.variables is not None and name not in self.variables:
                raise UnknownIdentifier(name, tok.pos)
            return Var(name)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text, variables=None):
    """Parse ``text`` into an :class:`Expression`.

    When ``variables`` is given, any name outside it (and outside the
    function/constant tables) raises :class:`UnknownIdentifier` at parse
    time; otherwise unknown names are resolved at evaluation.
    """
    if not isinstance(text, str):
        raise TypeError(f"cannot parse {text!r}: {type(text).__name__} is not text")
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, variables)
    node = parser.parse_expr()
    trailing = parser.lookahead
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected token {trailing.text!r}", trailing.pos)
    if depth(node) > MAX_EXPRESSION_DEPTH:  # long chains such as t+t+...+t
        raise ExprSyntaxError(_TOO_DEEP, 0)
    return node


def literal(value):
    """AST of a float, shaped like ``parse(repr(value))`` (a sign becomes Neg)."""
    value = float(value)
    if math.copysign(1.0, value) < 0.0:
        return Neg(Num(-value))
    return Num(value)


def _nodes(expr):
    """Every node of ``expr`` with its level (the root's is 1), without recursion."""
    stack = [(expr, 1)]
    while stack:
        node, level = stack.pop()
        yield node, level
        if isinstance(node, Neg):
            stack.append((node.operand, level + 1))
        elif isinstance(node, BinOp):
            stack += [(node.left, level + 1), (node.right, level + 1)]
        elif isinstance(node, (Call, Profile)):
            stack.append((node.arg, level + 1))


def variables_in(expr):
    """Set of variable names referenced by ``expr``."""
    return {node.name for node, _ in _nodes(expr) if isinstance(node, Var)}


def depth(expr):
    """Number of nodes on the longest root-to-leaf path of ``expr``."""
    return max(level for _, level in _nodes(expr))


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Num) and node.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def unparse(expr):
    """Render ``expr`` as source text.

    Parenthesization preserves the tree shape, so re-parsing the output
    of a parsed tree evaluates bit-identically to it at every point.  A
    :class:`Profile` node has no source text and prints as ``beta(arg)``.
    """
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var) or isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Neg):
        inner = unparse(expr.operand)
        if _prec(expr.operand) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.func}({unparse(expr.arg)})"
    if isinstance(expr, Profile):
        return f"beta({unparse(expr.arg)})"
    if isinstance(expr, BinOp):
        op = expr.op
        mine = _prec(expr)
        left = unparse(expr.left)
        right = unparse(expr.right)
        if op == "^":
            # right-associative; exponent may be any factor
            if _prec(expr.left) <= _PREC_POW:
                left = f"({left})"
            if _prec(expr.right) < _PREC_NEG:
                right = f"({right})"
        else:
            if _prec(expr.left) < mine:
                left = f"({left})"
            if _prec(expr.right) <= mine:
                right = f"({right})"
        return f"{left}{op}{right}"
    raise TypeError(f"not an Expression: {expr!r}")
