"""A 40-digit reference for the jets of ``warpgeo.jets``, sharing no code with it.

sympy differentiates an expression symbolically and mpmath evaluates each
derivative at 40 significant digits (Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13-14; Meurer et al., *SymPy: symbolic computing
in Python*, PeerJ Computer Science 3:e103, 2017).  Only the AST of
``warpgeo.expr`` is read.

Each occurrence of a number or constant is a symbol bound to its float64 value,
exact, so that sympy folds and cancels nothing before the evaluation.  ``a ^ b``
is the power of the language: a product when b has no variables and its value
is an integer k, |k| <= 2^31, else exp(b * log(a)), undefined at a <= 0 as log
is (nan at 0, complex below).  Where the rounding of b's operations picks the
branch, the power is undefined.  abs differentiates to sign and sign to
2 DiracDelta, which is 0 here, as for sympy's own Abs (its sqrt(x^2)): exact
away from the kink, and the tape refuses the kink itself.
"""

from __future__ import annotations

import functools
import operator
import sys
from itertools import combinations_with_replacement

import mpmath
import sympy

from warpgeo.expr import BinOp, Call, Const, CONSTANTS, Neg, Num, Var, variables_in

DPS = 40
_TINY = mpmath.ldexp(1, -1075)  # half the smallest subnormal: a float64 result below it is 0


class _sign(sympy.Function):
    """The sign of a real argument, as mpmath's sign; its derivative, 2 DiracDelta, is 0 away from 0."""

    def fdiff(self, argindex=1):
        return sympy.S.Zero


class _abs(sympy.Function):
    """The absolute value of a real argument, as mpmath's fabs."""

    def fdiff(self, argindex=1):
        return _sign(self.args[0])


_FUNCTIONS = {"abs": _abs, "sqrt": sympy.sqrt, **{
    name: getattr(sympy, name) for name in ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log")}}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_MODULES = [{"_abs": mpmath.fabs, "_sign": mpmath.sign, "DiracDelta": lambda *args: 0,
             "log": lambda x: mpmath.nan if x == 0 else mpmath.log(x)}, "mpmath"]


def reference_jet(expr, point, active, order):
    """The derivatives of ``expr`` at ``point`` (a float by variable name) in the ``active`` variables up
    to ``order``, by sorted index tuple, at DPS digits: mpmath numbers, nan where one is undefined."""
    names = tuple(sorted(point))
    keys, numbers, functions = _compiled(expr, names, tuple(active), order)
    with mpmath.workdps(DPS):
        args = [mpmath.mpf(x) for x in (*(point[name] for name in names), *numbers)]
        return {key: _call(function, args) for key, function in zip(keys, functions)}


@functools.lru_cache(maxsize=1024)  # a batch evaluates its expression at each of its points
def _compiled(expr, names, active, order):
    symbols, numbers = {name: sympy.Symbol(name, real=True) for name in names}, {}
    keys = [key for r in range(order + 1) for key in combinations_with_replacement(range(len(active)), r)]
    try:
        derivatives = {(): _sympy(expr, symbols, numbers)}
    except _Borderline:  # undefined
        return keys, [], [None] * len(keys)
    for key in keys[1:]:
        derivatives[key] = sympy.diff(derivatives[key[:-1]], symbols[active[key[-1]]])
    arguments = [*symbols.values(), *numbers]
    functions = [None if item.has(sympy.zoo, sympy.nan) else sympy.lambdify(arguments, item, _MODULES)
                 for item in derivatives.values()]
    return keys, list(numbers.values()), functions


def _call(function, args):
    try:
        return mpmath.nan if function is None else function(*args)
    except (ZeroDivisionError, ValueError, OverflowError):  # a pole
        return mpmath.nan


def _sympy(node, symbols, numbers):
    """The sympy expression of ``node``: a variable is ``symbols[name]``, each number or constant a new
    symbol, which ``numbers`` (filled in here) binds to its value."""
    kind = type(node)
    if kind is Var:
        return symbols[node.name]
    if kind is Num or kind is Const:
        symbol = sympy.Symbol(f"c{len(numbers)}", real=True)
        numbers[symbol] = float(node.value if kind is Num else CONSTANTS[node.name])
        return symbol
    if kind is Neg:
        return -_sympy(node.operand, symbols, numbers)
    if kind is Call:
        return _FUNCTIONS[node.func](_sympy(node.arg, symbols, numbers))
    if kind is not BinOp:
        raise TypeError(f"no reference for {node!r}")
    left, right = _sympy(node.left, symbols, numbers), _sympy(node.right, symbols, numbers)
    if node.op != "^":
        return _BINOPS[node.op](left, right)
    k = _integer_exponent(node.right)
    return sympy.exp(right * sympy.log(left)) if k is None else left ** sympy.Integer(k)


class _Borderline(Exception):
    """The branch of a power is picked by the rounding of its exponent's operations."""


def _integer_exponent(exponent):
    """k for an exponent without variables whose value is an integer k, |k| <= 2^31, and None for any other;
    _Borderline for a value formed by operations within 1e-12 of an integer other than 0, as the program's
    float64 value may lie on either side."""
    if variables_in(exponent):
        return None
    k = reference_jet(exponent, {}, (), 0)[()]
    if mpmath.im(k) != 0 or not abs(k) <= 2**31:
        return None
    k, n = mpmath.re(k), mpmath.nint(mpmath.re(k))
    exact = type(exponent) is Num or type(exponent) is Neg and type(exponent.operand) is Num
    if not exact and n != 0 and abs(k - n) <= 1e-12 * abs(n):
        raise _Borderline
    return int(n) if k == n else None


def held(x):
    """Whether float64 holds ``x`` up to rounding: real and at most the largest float64 in size."""
    return mpmath.im(x) == 0 and abs(x) <= sys.float_info.max  # False for nan


def defined(x):
    """Whether ``x`` is a float64 result: held and, unless 0, at least half the smallest subnormal."""
    return held(x) and (x == 0 or _TINY <= abs(x))


def intermediates(expr):
    """``expr``, each of its subexpressions and what the tape computes inside them: the reciprocal of
    each divisor, and log(a) and b * log(a) of each real power a ^ b.  (An expression with a borderline
    exponent is undefined, so no entry of it is compared and its intermediates are never asked for.)"""
    yield expr
    kind = type(expr)
    if kind is BinOp and expr.op == "/":
        yield BinOp("/", Num(1.0), expr.right)
    if kind is BinOp and expr.op == "^" and _integer_exponent(expr.right) is None:
        yield Call("log", expr.left)
        yield BinOp("*", expr.right, Call("log", expr.left))
    for kid in expr[1:] if kind in (BinOp, Call) else expr[:1] if kind is Neg else ():
        yield from intermediates(kid)
