"""Scalar expression language: tokenizer, parser, AST and printer.

Grammar (EBNF, whitespace insignificant, no implicit multiplication)::

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" factor ] ;
    atom     = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;
    NUMBER   = DIGITS [ "." DIGITS ] [ ("e" | "E") [ "+" | "-" ] DIGITS ]
             | "." DIGITS [ ("e" | "E") [ "+" | "-" ] DIGITS ] ;
    NAME     = LETTER { LETTER | DIGIT | "_" } ;

``^`` is right-associative and binds tighter than unary minus, so
``-t^2`` parses as ``-(t^2)``.  A number literal that is not finite as a
float (``1e400``) is a syntax error.  Recognized functions: sin, cos, tan,
sinh, cosh, tanh, exp, log, sqrt, abs.  Recognized constants: pi, e.
A function name must be followed by a parenthesized argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExprSyntaxError, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


class Expression:
    """Base class for AST nodes; all nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Const(Expression):
    name: str


@dataclass(frozen=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Call(Expression):
    func: str
    arg: Expression


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op"
    text: str
    pos: int


_OPERATOR_CHARS = "+-*/^()"


def _tokenize(text):
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATOR_CHARS:
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < size and text[i + 1].isdigit()):
            start = i
            while i < size and text[i].isdigit():
                i += 1
            if i < size and text[i] == ".":
                i += 1
                while i < size and text[i].isdigit():
                    i += 1
            # exponent part only when followed by digits (with optional sign)
            if i < size and text[i] in "eE":
                j = i + 1
                if j < size and text[j] in "+-":
                    j += 1
                if j < size and text[j].isdigit():
                    i = j
                    while i < size and text[i].isdigit():
                        i += 1
            tokens.append(_Token("num", text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, length, variables):
        self.tokens = tokens
        self.length = length
        self.variables = variables
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    def parse_expr(self):
        node = self.parse_term()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in "+-":
            self.i += 1
            node = BinOp(tok.text, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in "*/":
            self.i += 1
            node = BinOp(tok.text, node, self.parse_factor())
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.i += 1
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.i += 1
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text!r} is not finite", tok.pos)
            return Num(value)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            name = tok.text
            if name in FUNCTIONS:
                nxt = self.peek()
                if nxt is None or nxt.kind != "op" or nxt.text != "(":
                    raise ExprSyntaxError(
                        f"function {name!r} must be called with parentheses", tok.pos
                    )
                self.i += 1
                arg = self.parse_expr()
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
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), len(text), variables)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ExprSyntaxError(f"unexpected token {trailing.text!r}", trailing.pos)
    return node


def literal(value):
    """AST of a float, shaped like ``parse(repr(value))`` (a sign becomes Neg)."""
    value = float(value)
    if math.copysign(1.0, value) < 0.0:
        return Neg(Num(-value))
    return Num(value)


def variables_in(expr):
    """Set of variable names referenced by ``expr``."""
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return out


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
    evaluates bit-identically to the original at every point.
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
