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
Nesting (parentheses, calls, unary minus, ``^``) and the depth of the
tree are both bounded by ``MAX_EXPRESSION_DEPTH``; deeper text is a
syntax error, so no evaluation of a parsed tree runs out of stack.
Tokens are read as the parser needs them: a ``+``/``-`` or ``*``/``/``
chain longer than the bound is refused without reading the rest of the
text, and an error is reported before any bad character after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExprSyntaxError, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}
MAX_EXPRESSION_DEPTH = 100
_TOO_DEEP = f"expression deeper than MAX_EXPRESSION_DEPTH = {MAX_EXPRESSION_DEPTH}"


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
    """Tokens of ``text``, produced one at a time as the parser asks."""
    i = 0
    size = len(text)
    while i < size:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATOR_CHARS:
            yield _Token("op", c, i)
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
            yield _Token("num", text[start:i], start)
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            yield _Token("name", text[start:i], start)
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)


class _Parser:
    """Recursive descent over the token stream, one token of lookahead."""

    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.length = len(text)
        self.variables = variables
        self.lookahead = next(self.tokens, None)
        self.nesting = 0

    def nested(self, parse, pos):
        """``parse()`` one nesting level deeper, within MAX_EXPRESSION_DEPTH."""
        self.nesting += 1
        if self.nesting > MAX_EXPRESSION_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, pos)
        node = parse()
        self.nesting -= 1
        return node

    def peek(self):
        return self.lookahead

    def next(self):
        tok = self.lookahead
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", self.length)
        self.lookahead = next(self.tokens, None)
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    def chain(self, operand, ops):
        """``operand { ops operand }``, left-associative.

        Each operator adds a level to the left spine, so a chain longer
        than MAX_EXPRESSION_DEPTH is refused before the rest is read.
        """
        node = operand()
        links = 0
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in ops:
            links += 1
            if links >= MAX_EXPRESSION_DEPTH:
                raise ExprSyntaxError(_TOO_DEEP, tok.pos)
            self.next()
            node = BinOp(tok.text, node, operand())
        return node

    def parse_expr(self):
        return self.chain(self.parse_term, "+-")

    def parse_term(self):
        return self.chain(self.parse_factor, "*/")

    def parse_factor(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.nested(self.parse_factor, tok.pos))
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
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
        if tok.kind == "op" and tok.text == "(":
            node = self.nested(self.parse_expr, tok.pos)
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
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, variables)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
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
        elif isinstance(node, Call):
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
