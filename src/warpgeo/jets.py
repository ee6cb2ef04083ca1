"""Forward-mode jets of order 2 or 3 and exact evaluation of expressions.

A :class:`Jet2` carries a value together with its gradient, Hessian and,
at order 3, third derivative with respect to an ordered list of active
variables.  Arithmetic on jets propagates derivatives exactly (to
floating-point rounding; Griewank and Walther, *Evaluating Derivatives*,
ch. 13), so every quantity that needs at most three derivatives of an
immersion is free of truncation error.  At order 2 the third slot is None.

Jets are evaluated in vector forward mode: a binding may be an array of
N values, and the jet then has a trailing point axis (value ``(N,)``, grad
``(m, N)``, hess ``(m, m, N)`` and so on), so every elementary operation
runs once over all points, contiguously along them.  Which rule a node
takes depends only on the expression, the active variables and the order,
never on the values: a power whose exponent has no variables and an integer
value is a product, any other power exp(exponent * log(base)).  The zero
pattern is structural (Griewank and Walther, ch. 7): a constant's or
variable's Hessian and third slot are zero by construction, a sentinel that
every rule propagates, so no slot is masked per point and each point's
result does not depend on the batch it is evaluated in.

A batch is evaluated in one pass (``one_pass``): a check flags the points
that fail it and the pass computes on, with inf and nan propagating, as
IEEE 754's flags do (Hauser, *Handling floating-point exceptions in numeric
programs*, ACM TOPLAS 18(2), 1996).  At its end the first flagged point
raises the error of the first check that flagged it, with ``index`` set;
as each point's result does not depend on the batch, that is the error the
point raises alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UnknownIdentifier
from .expr import (FUNCTIONS, BinOp, Call, Const, CONSTANTS, Expression, Neg, Num, Profile, Var, literal,
                   parse, variables_in)


def _value(v):
    """A value as a float64 array, or a float64 scalar when 0-d."""
    return np.asarray(v, dtype=float)[()]


class _Zero:
    """A Hessian or third slot that is zero by construction at every point: it
    adds nothing (not even the sign of a zero) and absorbs every factor."""

    __array_ufunc__ = None  # numpy defers to the operators below
    __neg__ = __mul__ = __rmul__ = lambda self, other=None: self
    __add__ = __radd__ = __rsub__ = lambda self, other: other
    __sub__ = lambda self, other: -other


_ZERO = _Zero()


class Jet2(NamedTuple):
    """Value, gradient and symmetric Hessian in ``m`` active variables, and
    at order 3 the symmetric third derivative (None at order 2).

    The value may carry trailing point axes, which follow the derivative
    axes: value ``S``, grad ``(m,) + S``, hess ``(m, m) + S``, third
    ``(m, m, m) + S``.  Inside the walk a slot that is zero by construction is
    the sentinel ``_ZERO``; :func:`eval_jet2` returns arrays only.
    A jet is a named tuple; numpy defers to its operators rather than
    reading it as a sequence (``np.float64(2.0) * jet`` is ``jet * 2.0``).
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None = None

    __array_ufunc__ = None

    @property
    def m(self):
        return self.grad.shape[0]

    @property
    def order(self):
        return 2 if self.third is None else 3

    def slots(self):
        """The value and the derivatives up to the jet's order."""
        return (self.value, self.grad, self.hess, self.third)[: self.order + 1]

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        return _constant(other, self.m, self.order, (1,) * (self.grad.ndim - 1))

    def __neg__(self):
        return Jet2(*(-a for a in self.slots()))

    def __add__(self, other):
        return Jet2(*(a + b for a, b in zip(self.slots(), self._lift(other).slots())))

    __radd__ = __add__

    def __sub__(self, other):
        return Jet2(*(a - b for a, b in zip(self.slots(), self._lift(other).slots())))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        a, b = self.value, other.value
        cross = self.grad[:, None] * other.grad[None, :]
        third = None
        if self.third is not None:
            t = _outer(self.hess, other.grad) + _outer(other.hess, self.grad)
            third = _sym3(t) + a * other.third + b * self.third
        return Jet2(
            a * b,
            a * other.grad + b * self.grad,
            a * other.hess + b * self.hess + cross + np.swapaxes(cross, 0, 1),
            third,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(self._lift(other), None)

    def __rtruediv__(self, other):
        return self._lift(other) / self


def _constant(value, m, order=2, tail=()):  # tail: singleton point axes of a batch
    return Jet2(_value(value), np.zeros((m,) + tail), _ZERO, None if order == 2 else _ZERO)


def _outer(h, g):
    """t[i, j, k] = h_ij g_k."""
    return h if h is _ZERO else h[:, :, None] * g[None, None, :]


def _sym3(t):
    """t_ijk + t_ikj + t_jki for t symmetric in its first two indices."""
    return t if t is _ZERO else t + np.swapaxes(t, 1, 2) + np.swapaxes(np.swapaxes(t, 1, 2), 0, 1)


def first_index(mask):
    """Position of the first True entry of ``mask`` (flattened), or None.

    The one place where "the first offending point" is decided.
    """
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


# The open pass of this thread (a new thread starts with an empty context):
# its (mask, offset, make_error) records, in program order.
_PASS = ContextVar("pass", default=None)


def _error(make_error, i, offset):
    exc = make_error(i)  # a PointError for row i of the mask
    exc.index = i + offset
    return exc


@contextmanager
def one_pass():
    """Evaluate a batch as one pass, with float semantics (inf and nan
    propagate) and the checks recording, not raising.

    At the outermost exit the first row any check flagged raises the
    error of the first check, in program order, that flagged it; an inner
    pass joins the outer one.
    """
    if _PASS.get() is not None:
        yield
        return
    records = []
    token = _PASS.set(records)
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _PASS.reset(token)
    hits = [(i + offset, k) for k, (mask, offset, _) in enumerate(records)
            if (i := first_index(mask)) is not None]
    if hits:
        row, k = min(hits)  # on a tie, the earlier check
        _, offset, make_error = records[k]
        raise _error(make_error, row - offset, offset)


def flag(mask, make_error, offset=0):
    """Record that the rows of ``mask`` (from row ``offset`` of the pass on)
    fail a check; ``make_error(i)`` builds the error of its row ``i``.
    Outside a pass the first flagged row raises at once."""
    records = _PASS.get()
    if records is not None:
        records.append((mask, offset, make_error))
        return
    i = first_index(mask)
    if i is not None:
        raise _error(make_error, i, offset)


def _leaves(fn, *records):
    """``fn`` applied to the matching arrays of batched records.

    Records are named tuples whose fields are arrays, plain tuples of
    arrays, records again (``PointGeometry``, ``PointJets``,
    ``AmbientPoint``) or None; a bare array is its own leaf.
    """
    first = records[0]
    if first is None:
        return None
    if hasattr(first, "_fields"):
        return type(first)(*(_leaves(fn, *items) for items in zip(*records)))
    if isinstance(first, tuple):
        return tuple(_leaves(fn, *items) for items in zip(*records))
    return fn(*records)


def _flag_at(bad, node, message, value=None):
    """Flag the points where ``bad`` holds with a DomainError at ``node``;
    ``message`` is formatted with the offending ``value`` when given."""
    flag(bad, lambda i: DomainError(
        message if value is None else message.format(float(np.ravel(value)[i])), node))


def _chain(u, f0, f1, f2, f3):
    """Compose a scalar function with jet ``u`` via the chain rule;
    ``f3`` is a callable giving the third derivative, called at order 3 only.
    Where u's Hessian is zero by construction (a variable, say) the third
    slot is f3 u_i u_j u_k, f3 summed as the three f3/3 terms of ``_sym3``
    (the general rule's bits when u_i is 0 or +-1) without forming them.
    The choice is fixed by the expression, so no slot is masked per point."""
    outer = u.grad[:, None] * u.grad[None, :]
    hess = f1 * u.hess + f2 * outer
    third = None
    if u.third is not None:
        s = f3() / 3.0
        if u.hess is _ZERO:
            third = ((s + s) + s) * (outer[:, :, None] * u.grad[None, None, :])
        else:
            third = _sym3(_outer(f2 * u.hess + s * outer, u.grad))
        third = third + f1 * u.third
    return Jet2(f0, f1 * u.grad, hess, third)


def _reciprocal(u, node):
    v = u.value
    _flag_at(v == 0.0, node, "division by zero")
    return _chain(u, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v), lambda: -6.0 / (v * v * v * v))


def _pow_int_jet(u, k, node):
    """Binary exponentiation on jets."""
    if k == 0:
        return u._lift(1.0)
    if k < 0:
        return _reciprocal(_pow_int_jet(u, -k, node), node)
    result = None
    acc = u
    while k:
        if k & 1:
            result = acc if result is None else result * acc
        acc = acc * acc
        k >>= 1
    return result


def _elementary(name, v, node=None):
    """Value of the elementary function ``name`` at ``v`` (any shape).

    The single place where function values and their domain rules live:
    log needs a positive and sqrt a non-negative argument, and exp,
    sinh and cosh must not overflow at a finite argument.
    """
    if name not in FUNCTIONS:
        raise UnknownIdentifier(name)
    if name == "log":
        _flag_at(v <= 0.0, node, "log of non-positive value {!r}", v)
    if name == "sqrt":
        _flag_at(v < 0.0, node, "sqrt of negative value {!r}", v)
    w = getattr(np, name)(v)
    if name in ("exp", "sinh", "cosh"):
        _flag_at(np.isinf(w) & np.isfinite(v), node, name + " overflows at {!r}", v)
    return w


def _apply_function(name, u, node):
    v = u.value
    w = _elementary(name, v, node)
    if name == "sin":
        return _chain(u, w, np.cos(v), -w, lambda: -np.cos(v))
    if name == "cos":
        return _chain(u, w, -np.sin(v), -w, lambda: np.sin(v))
    if name == "tan":
        d = 1.0 + w * w
        return _chain(u, w, d, 2.0 * w * d, lambda: 2.0 * d * (d + 2.0 * w * w))
    if name == "sinh":
        c = np.cosh(v)
        return _chain(u, w, c, w, lambda: c)
    if name == "cosh":
        return _chain(u, w, np.sinh(v), w, lambda: np.sinh(v))
    if name == "tanh":
        d = 1.0 - w * w
        return _chain(u, w, d, -2.0 * w * d, lambda: 2.0 * d * (2.0 * w * w - d))
    if name == "exp":
        return _chain(u, w, w, w, lambda: w)
    if name == "log":
        return _chain(u, w, 1.0 / v, -1.0 / (v * v), lambda: 2.0 / (v * v * v))
    if u.m == 0:  # sqrt and abs have no kink to refuse without derivatives
        return Jet2(w, u.grad, u.hess, u.third)
    if name == "sqrt":
        _flag_at(v == 0.0, node, "sqrt is not differentiable at 0")
        return _chain(u, w, 0.5 / w, -0.25 / (w * v), lambda: 0.375 / (w * v * v))
    _flag_at(v == 0.0, node, "abs is not differentiable at 0")
    return _chain(u, w, np.where(v > 0.0, 1.0, -1.0), np.zeros_like(v), lambda: 0.0)


def _real_pow(base, exponent, node):
    _flag_at(base.value <= 0.0, node,
             "power of non-positive base {!r} needs a constant integer exponent k, |k| <= 2^31",
             base.value)
    return _apply_function("exp", exponent * _apply_function("log", base, node), node)


def _pow_jet(base, exponent, node):
    """The power rule the expression fixes: an exponent without variables
    whose value is an integer k with |k| <= 2^31 takes repeated
    multiplication, any other exponent exp(exponent * log(base))."""
    if not variables_in(node.right):
        k = float(exponent.value)
        if abs(k) <= 2**31 and k.is_integer():  # False for inf and nan
            return _pow_int_jet(base, int(k), node)
    return _real_pow(base, exponent, node)


def _profile(curve, u):
    """Jet of beta(u) for the profile ``curve``: the chain rule on the slots of
    ``curve.beta_jet``, or beta alone when no variable is active."""
    if u.m == 0:
        return Jet2(curve.beta(u.value), u.grad, u.hess, u.third)
    b0, b1, b2, b3 = curve.beta_jet(u.value)
    return _chain(u, b0, b1, b2, lambda: b3)


def _walk(expr, values, index, m, order, tail, profiles):
    """Jet of ``expr``; ``profiles`` holds the jets of the Profile nodes walked so far, by identity."""

    def rec(node):
        if isinstance(node, Num):
            return _constant(node.value, m, order, tail)
        if isinstance(node, Const):
            return _constant(CONSTANTS[node.name], m, order, tail)
        if isinstance(node, Var):
            if node.name not in values:
                raise UnknownIdentifier(node.name)
            jet = _constant(values[node.name], m, order, tail)
            if node.name in index:
                jet.grad[index[node.name]] = 1.0
            return jet
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Call):
            return _apply_function(node.func, rec(node.arg), node)
        if isinstance(node, Profile):
            if id(node) not in profiles:
                profiles[id(node)] = _profile(node.curve, rec(node.arg))
            return profiles[id(node)]
        if isinstance(node, BinOp):
            left = rec(node.left)
            right = rec(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left * _reciprocal(right, node)
            return _pow_jet(left, right, node)
        raise TypeError(f"not an Expression: {node!r}")

    return rec(expr)


def eval_jet2(expr, bindings, active=(), order=2):
    """Evaluate ``expr`` as a jet of ``order`` 2 or 3; a list or tuple of K expressions
    gives one jet whose slots carry a leading component axis of K, written once
    from one walk in which a :class:`Profile` node they share is evaluated once.

    ``bindings`` maps every variable appearing in ``expr`` to a real
    value, or to a 1-d array of N values (one per point); ``active`` is the
    ordered subset of variables that derivatives are taken against.
    With an empty ``active`` list this is a plain evaluation; the slots of
    order 2 do not depend on ``order``.  A DomainError carries in ``index``
    the first point whose evaluation fails.
    """
    single = isinstance(expr, Expression)
    exprs = [expr] if single else expr
    active = tuple(active)
    m = len(active)
    index = {name: i for i, name in enumerate(active)}
    values = {name: _value(v) for name, v in bindings.items()}
    shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
    profiles = {}
    with one_pass():
        jets = [_walk(e, values, index, m, order, (1,) * len(shape), profiles) for e in exprs]
    slots = [np.empty((len(jets),) + (m,) * r + shape) for r in range(order + 1)]
    for k, jet in enumerate(jets):  # each slot written once; a structural zero as 0.0
        for out, a in zip(slots, jet.slots()):
            out[k] = 0.0 if a is _ZERO else a
    return Jet2(*(a[0] for a in slots)) if single else Jet2(*slots)


def as_expression(obj):
    """Coerce a string or AST into an :class:`Expression`."""
    if isinstance(obj, Expression):
        return obj
    if isinstance(obj, str):
        return parse(obj)
    if isinstance(obj, (int, float)):
        return literal(obj)
    raise TypeError(f"cannot interpret {obj!r} as an expression")


__all__ = [
    "Jet2",
    "eval_jet2",
    "as_expression",
    "first_index",
]
