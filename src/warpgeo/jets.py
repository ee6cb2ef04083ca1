"""Order-2 forward-mode jets and exact evaluation of expressions.

A :class:`Jet2` carries a value together with its gradient and Hessian
with respect to an ordered list of active variables.  Arithmetic on jets
propagates derivatives exactly (to floating-point rounding), so every
geometric quantity that needs at most two derivatives of an immersion is
free of truncation error.

Jets are evaluated in vector forward mode: a binding may be an array of
N values, and the jet then has a leading point axis (value ``(N,)``,
grad ``(N, m)``, hess ``(N, m, m)``).  Every elementary operation runs
once over all points, with the same arithmetic per point as for a
single point, so each point's result does not depend on the batch it is
evaluated in.  A domain error names the first point, in binding order,
whose own evaluation fails (``DomainError.index``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PointError, UnknownIdentifier
from .expr import FUNCTIONS, BinOp, Call, Const, CONSTANTS, Expression, Neg, Num, Var, parse, unparse


def _value(v):
    """A value as a float64 array, or a float64 scalar when 0-d."""
    return np.asarray(v, dtype=float)[()]


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and symmetric Hessian in ``m`` active variables.

    The value may carry leading point axes, which the gradient and
    Hessian share: value ``S``, grad ``S + (m,)``, hess ``S + (m, m)``.
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    @property
    def m(self):
        return self.grad.shape[-1]

    @staticmethod
    def constant(value, m):
        return Jet2(_value(value), np.zeros(m), np.zeros((m, m)))

    @staticmethod
    def variable(value, index, m):
        g = np.zeros(m)
        g[index] = 1.0
        return Jet2(_value(value), g, np.zeros((m, m)))

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(other, self.m)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __add__(self, other):
        other = self._lift(other)
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        a = np.asarray(self.value)[..., None]
        b = np.asarray(other.value)[..., None]
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        return Jet2(
            self.value * other.value,
            a * other.grad + b * self.grad,
            a[..., None] * other.hess + b[..., None] * self.hess + cross + np.swapaxes(cross, -1, -2),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self * _reciprocal(other, None)

    def __rtruediv__(self, other):
        return self._lift(other) / self


def first_index(mask):
    """Position of the first True entry of ``mask`` (flattened), or None.

    The one place where "the first offending point" is decided.
    """
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def first_failure(evaluate, count):
    """``evaluate(count)``, failing like the first point that fails alone.

    ``evaluate(k)`` evaluates the first ``k`` points of a batch in
    stages; a :class:`PointError` it raises names in ``index`` a point
    that fails the stage that failed.  An earlier point may fail a
    later stage, so the points before it are evaluated again until none
    fails: the error raised is the one of the first point whose own
    evaluation fails, whatever the batch.
    """
    try:
        return evaluate(count)
    except PointError as exc:
        error = exc
    while error.index:
        try:
            evaluate(error.index)
        except PointError as exc:
            error = exc
        else:
            break
    raise error


def _raise_at(bad, node, message, value=None):
    """Raise a DomainError at the first point where ``bad`` holds.

    ``message`` is formatted with the offending ``value`` when given.
    """
    i = first_index(bad)
    if i is not None:
        if value is not None:
            message = message.format(float(np.ravel(value)[i]))
        raise DomainError(message, node, index=i)


def _chain(u, f0, f1, f2):
    """Compose a scalar function with jet ``u`` via the chain rule."""
    f1 = np.asarray(f1)[..., None]
    f2 = np.asarray(f2)[..., None, None]
    outer = u.grad[..., :, None] * u.grad[..., None, :]
    return Jet2(f0, f1 * u.grad, f1[..., None] * u.hess + f2 * outer)


def _reciprocal(u, node):
    v = u.value
    _raise_at(v == 0.0, node, "division by zero")
    return _chain(u, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))


def _integral(k):
    """Where an exponent takes the integer-power rule."""
    return (k == np.round(k)) & (np.abs(k) <= 2**31)


def _pow_int(base_value, k):
    """Binary exponentiation on plain floats, k >= 1."""
    result = None
    acc = base_value
    while k:
        if k & 1:
            result = acc if result is None else result * acc
        acc = acc * acc
        k >>= 1
    return result


def _pow_int_jet(u, k, node):
    """Binary exponentiation on jets; mirrors :func:`_pow_int` exactly."""
    if k == 0:
        return Jet2.constant(1.0, u.m)
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
        _raise_at(v <= 0.0, node, "log of non-positive value {!r}", v)
    if name == "sqrt":
        _raise_at(v < 0.0, node, "sqrt of negative value {!r}", v)
    w = getattr(np, name)(v)
    if name in ("exp", "sinh", "cosh"):
        _raise_at(np.isinf(w) & np.isfinite(v), node, name + " overflows at {!r}", v)
    return w


def _apply_function(name, u, node):
    v = u.value
    w = _elementary(name, v, node)
    if name == "sin":
        return _chain(u, w, np.cos(v), -w)
    if name == "cos":
        return _chain(u, w, -np.sin(v), -w)
    if name == "tan":
        d = 1.0 + w * w
        return _chain(u, w, d, 2.0 * w * d)
    if name == "sinh":
        c = np.cosh(v)
        return _chain(u, w, c, w)
    if name == "cosh":
        return _chain(u, w, np.sinh(v), w)
    if name == "tanh":
        d = 1.0 - w * w
        return _chain(u, w, d, -2.0 * w * d)
    if name == "exp":
        return _chain(u, w, w, w)
    if name == "log":
        return _chain(u, w, 1.0 / v, -1.0 / (v * v))
    if u.m == 0:  # sqrt and abs have no kink to refuse without derivatives
        return Jet2(w, u.grad, u.hess)
    if name == "sqrt":
        _raise_at(v == 0.0, node, "sqrt is not differentiable at 0")
        return _chain(u, w, 0.5 / w, -0.25 / (w * v))
    _raise_at(v == 0.0, node, "abs is not differentiable at 0")
    return _chain(u, w, np.where(v > 0.0, 1.0, -1.0), np.zeros_like(v))


def _real_pow(base, exponent, node):
    _raise_at(base.value <= 0.0, node, "non-integer power of non-positive base {!r}", base.value)
    return _apply_function("exp", exponent * _apply_function("log", base, node), node)


def _take(jet, shape, idx):
    """The points ``idx`` of a jet broadcast to ``shape``."""
    m = jet.m
    return Jet2(
        np.broadcast_to(jet.value, shape)[idx],
        np.broadcast_to(jet.grad, shape + (m,))[idx],
        np.broadcast_to(jet.hess, shape + (m, m))[idx],
    )


def _pow_jet(base, exponent, node):
    k = exponent.value
    # An exponent without derivatives at a point and integral there takes
    # the integer rule at that point; every other point the real power.
    integral = ~exponent.grad.any(-1) & ~exponent.hess.any((-2, -1)) & _integral(k)
    if np.all(integral):
        ks = np.unique(k) if np.ndim(k) else [k]
        if len(ks) == 1:
            return _pow_int_jet(base, int(ks[0]), node)
    elif not np.any(integral):
        return _real_pow(base, exponent, node)
    shape = np.broadcast_shapes(np.shape(base.value), np.shape(k), integral.shape)
    integral = np.broadcast_to(integral, shape)
    kk = np.broadcast_to(k, shape)
    m = base.m
    value, grad, hess = np.empty(shape), np.empty(shape + (m,)), np.empty(shape + (m, m))
    groups = [(np.flatnonzero(~integral), None)]
    groups += [(np.flatnonzero(integral & (kk == e)), int(e)) for e in np.unique(kk[integral])]
    for idx, e in groups:
        if not idx.size:
            continue
        sub_base = _take(base, shape, idx)
        try:
            if e is None:
                part = _real_pow(sub_base, _take(exponent, shape, idx), node)
            else:
                part = _pow_int_jet(sub_base, e, node)
        except DomainError as exc:
            raise DomainError(str(exc), node, index=int(idx[exc.index])) from None
        value[idx] = part.value
        grad[idx] = part.grad
        hess[idx] = part.hess
    return Jet2(value, grad, hess)


def _walk(expr, values, index, m):
    def rec(node):
        if isinstance(node, Num):
            return Jet2.constant(node.value, m)
        if isinstance(node, Const):
            return Jet2.constant(CONSTANTS[node.name], m)
        if isinstance(node, Var):
            if node.name not in values:
                raise UnknownIdentifier(node.name)
            value = values[node.name]
            if node.name in index:
                return Jet2.variable(value, index[node.name], m)
            return Jet2(value, np.zeros(m), np.zeros((m, m)))
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Call):
            return _apply_function(node.func, rec(node.arg), node)
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


def _full(a, shape):
    return a if a.shape == shape else np.broadcast_to(a, shape).copy()


def eval_jet2(expr, bindings, active=()):
    """Evaluate ``expr`` as an order-2 jet.

    ``bindings`` maps every variable appearing in ``expr`` to a real
    value, or to a 1-d array of N values (one per point); ``active`` is the
    ordered subset of variables that derivatives are taken against.
    With an empty ``active`` list this is a plain evaluation.  A
    DomainError carries in ``index`` the first point whose evaluation
    fails.
    """
    active = tuple(active)
    m = len(active)
    index = {name: i for i, name in enumerate(active)}
    values = {name: _value(v) for name, v in bindings.items()}
    shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))

    def evaluate(k):
        prefix = {name: v[:k] if np.ndim(v) else v for name, v in values.items()}
        with np.errstate(all="ignore"):  # float semantics: inf and nan propagate
            return _walk(expr, prefix, index, m)

    jet = first_failure(evaluate, shape[0] if shape else 1)
    return Jet2(
        _value(_full(np.asarray(jet.value), shape)),
        _full(jet.grad, shape + (m,)),
        _full(jet.hess, shape + (m, m)),
    )


def eval_value(expr, bindings):
    """Plain evaluation at one point; the scalar twin of ``eval_jet2``.

    Uses the same elementary functions and domain rules, so the result
    equals ``eval_jet2(expr, bindings, ()).value`` bit for bit.
    """

    def rec(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Const):
            return CONSTANTS[node.name]
        if isinstance(node, Var):
            if node.name not in bindings:
                raise UnknownIdentifier(node.name)
            return float(bindings[node.name])
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Call):
            return _elementary(node.func, rec(node.arg), node)
        if isinstance(node, BinOp):
            a = rec(node.left)
            b = rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if b == 0.0:
                    raise DomainError("division by zero", node)
                return a * (1.0 / b)
            if _integral(b):
                k = int(b)
                if k == 0:
                    return 1.0
                p = _pow_int(a, abs(k))
                if k > 0:
                    return p
                if p == 0.0:
                    raise DomainError("division by zero", node)
                return 1.0 / p
            if a <= 0.0:
                raise DomainError(
                    f"non-integer power of non-positive base {float(a)!r}", node
                )
            return _elementary("exp", b * _elementary("log", a, node), node)
        raise TypeError(f"not an Expression: {node!r}")

    with np.errstate(all="ignore"):
        return float(rec(expr))


def as_expression(obj):
    """Coerce a string or AST into an :class:`Expression`."""
    if isinstance(obj, Expression):
        return obj
    if isinstance(obj, str):
        return parse(obj)
    if isinstance(obj, (int, float)):
        value = float(obj)
        return Neg(Num(-value)) if value < 0 else Num(value)
    raise TypeError(f"cannot interpret {obj!r} as an expression")


__all__ = [
    "Jet2",
    "eval_jet2",
    "eval_value",
    "as_expression",
    "first_failure",
    "first_index",
    "parse",
    "unparse",
]
