"""Forward-mode jets of order 2 or 3 and exact evaluation of expressions.

A :class:`Jet2` carries a value together with its gradient, Hessian and,
at order 3, third derivative with respect to an ordered list of active
variables.  Arithmetic on jets propagates derivatives exactly (to
floating-point rounding; Griewank and Walther, *Evaluating Derivatives*,
ch. 13), so every quantity that needs at most three derivatives of an
immersion is free of truncation error.  At order 2 the third slot is None.

Jets are evaluated in vector forward mode: a binding may be an array of
N values, and the jet then has a leading point axis (value ``(N,)``, grad
``(N, m)`` and so on).  Every elementary operation runs once over all
points, with the same arithmetic per point as for a single point, so each
point's result does not depend on the batch it is evaluated in.  A domain
error names the first point, in binding order, whose own evaluation fails
(``DomainError.index``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PointError, UnknownIdentifier
from .expr import FUNCTIONS, BinOp, Call, Const, CONSTANTS, Expression, Neg, Num, Var, literal, parse, unparse


def _value(v):
    """A value as a float64 array, or a float64 scalar when 0-d."""
    return np.asarray(v, dtype=float)[()]


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and symmetric Hessian in ``m`` active variables, and
    at order 3 the symmetric third derivative (None at order 2).

    The value may carry leading point axes, which the derivatives share:
    value ``S``, grad ``S + (m,)``, hess ``S + (m, m)``, third ``S + (m, m, m)``.
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None = None

    @property
    def m(self):
        return self.grad.shape[-1]

    @property
    def order(self):
        return 2 if self.third is None else 3

    def slots(self):
        """The value and the derivatives up to the jet's order."""
        return (self.value, self.grad, self.hess, self.third)[: self.order + 1]

    @staticmethod
    def constant(value, m, order=2):
        third = None if order == 2 else np.zeros((m, m, m))
        return Jet2(_value(value), np.zeros(m), np.zeros((m, m)), third)

    @staticmethod
    def variable(value, index, m, order=2):
        jet = Jet2.constant(value, m, order)
        jet.grad[index] = 1.0
        return jet

    def _lift(self, other):
        return other if isinstance(other, Jet2) else Jet2.constant(other, self.m, self.order)

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
        a = np.asarray(self.value)[..., None]
        b = np.asarray(other.value)[..., None]
        cross = self.grad[..., :, None] * other.grad[..., None, :]
        third = None
        if self.third is not None:
            t = _outer(self.hess, other.grad) + _outer(other.hess, self.grad)
            third = _plus(_plus(_sym3(t), a, other.third), b, self.third)
        return Jet2(
            self.value * other.value,
            a * other.grad + b * self.grad,
            a[..., None] * other.hess + b[..., None] * self.hess + cross + np.swapaxes(cross, -1, -2),
            third,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self * _reciprocal(other, None)

    def __rtruediv__(self, other):
        return self._lift(other) / self


def _outer(h, g):
    """t[i, j, k] = h_ij g_k."""
    return h[..., :, :, None] * g[..., None, None, :]


def _plus(total, c, third):
    """total + c third; a zero third slot without point axis (a constant's
    or a variable's) adds nothing."""
    return total + c[..., None, None] * third if third.ndim > 3 or third.any() else total


def _sym3(t):
    """t_ijk + t_ikj + t_jki for t symmetric in its first two indices."""
    return t + np.swapaxes(t, -1, -2) + np.swapaxes(np.swapaxes(t, -2, -1), -3, -2)


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


def _chain(u, f0, f1, f2, f3):
    """Compose a scalar function with jet ``u`` via the chain rule;
    ``f3`` is a callable giving the third derivative, called at order 3 only."""
    f1 = np.asarray(f1)[..., None]
    f2 = np.asarray(f2)[..., None, None]
    outer = u.grad[..., :, None] * u.grad[..., None, :]
    third = None
    if u.third is not None:
        # f2 (u_ij u_k + u_ik u_j + u_jk u_i) + f3 u_i u_j u_k by one symmetrization
        t = _outer(f2 * u.hess + np.asarray(f3() / 3.0)[..., None, None] * outer, u.grad)
        third = _plus(_sym3(t), f1, u.third)
    return Jet2(f0, f1 * u.grad, f1[..., None] * u.hess + f2 * outer, third)


def _reciprocal(u, node):
    v = u.value
    _raise_at(v == 0.0, node, "division by zero")
    return _chain(u, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v), lambda: -6.0 / (v * v * v * v))


def _pow_int_jet(u, k, node):
    """Binary exponentiation on jets."""
    if k == 0:
        return Jet2.constant(1.0, u.m, u.order)
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
        _raise_at(v == 0.0, node, "sqrt is not differentiable at 0")
        return _chain(u, w, 0.5 / w, -0.25 / (w * v), lambda: 0.375 / (w * v * v))
    _raise_at(v == 0.0, node, "abs is not differentiable at 0")
    return _chain(u, w, np.where(v > 0.0, 1.0, -1.0), np.zeros_like(v), lambda: 0.0)


def _real_pow(base, exponent, node):
    _raise_at(base.value <= 0.0, node, "non-integer power of non-positive base {!r}", base.value)
    return _apply_function("exp", exponent * _apply_function("log", base, node), node)


def _take(jet, shape, idx):
    """The points ``idx`` of a jet broadcast to ``shape``."""
    return Jet2(*(np.broadcast_to(a, shape + (jet.m,) * r)[idx] for r, a in enumerate(jet.slots())))


def _int_pow(base, exponent, k, node):
    """The integer rule base^k.  At order 3 an exponent whose derivatives start
    at the third adds base^k log(base) times it (nan where base <= 0)."""
    part = _pow_int_jet(base, k, node)
    if part.third is None or not exponent.third.any():
        return part
    log_b = np.log(np.where(exponent.third.any((-3, -2, -1)), base.value, 1.0))
    third = part.third + (part.value * log_b)[..., None, None, None] * exponent.third
    return Jet2(part.value, part.grad, part.hess, third)


def _pow_jet(base, exponent, node):
    k = exponent.value
    # An exponent without derivatives at a point and integral there takes
    # the integer rule at that point; every other point the real power.
    integral = ~exponent.grad.any(-1) & ~exponent.hess.any((-2, -1))
    integral = integral & (k == np.round(k)) & (np.abs(k) <= 2**31)
    if np.all(integral):
        ks = np.unique(k) if np.ndim(k) else [k]
        if len(ks) == 1:
            return _int_pow(base, exponent, int(ks[0]), node)
    elif not np.any(integral):
        return _real_pow(base, exponent, node)
    shape = np.broadcast_shapes(np.shape(base.value), np.shape(k), integral.shape)
    integral = np.broadcast_to(integral, shape)
    kk = np.broadcast_to(k, shape)
    out = [np.empty(shape + (base.m,) * r) for r in range(base.order + 1)]
    groups = [(np.flatnonzero(~integral), None)]
    groups += [(np.flatnonzero(integral & (kk == e)), int(e)) for e in np.unique(kk[integral])]
    for idx, e in groups:
        if not idx.size:
            continue
        sub_base, sub_exponent = _take(base, shape, idx), _take(exponent, shape, idx)
        try:
            if e is None:
                part = _real_pow(sub_base, sub_exponent, node)
            else:
                part = _int_pow(sub_base, sub_exponent, e, node)
        except DomainError as exc:
            raise DomainError(str(exc), node, index=int(idx[exc.index])) from None
        for slot, values in zip(out, part.slots()):
            slot[idx] = values
    return Jet2(*out)


def _walk(expr, values, index, m, order):
    def rec(node):
        if isinstance(node, Num):
            return Jet2.constant(node.value, m, order)
        if isinstance(node, Const):
            return Jet2.constant(CONSTANTS[node.name], m, order)
        if isinstance(node, Var):
            if node.name not in values:
                raise UnknownIdentifier(node.name)
            value = values[node.name]
            if node.name in index:
                return Jet2.variable(value, index[node.name], m, order)
            return Jet2.constant(value, m, order)
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


def eval_jet2(expr, bindings, active=(), order=2):
    """Evaluate ``expr`` as a jet of ``order`` 2 or 3.

    ``bindings`` maps every variable appearing in ``expr`` to a real
    value, or to a 1-d array of N values (one per point); ``active`` is the
    ordered subset of variables that derivatives are taken against.
    With an empty ``active`` list this is a plain evaluation; the slots of
    order 2 do not depend on ``order``.  A DomainError carries in ``index``
    the first point whose evaluation fails.
    """
    active = tuple(active)
    m = len(active)
    index = {name: i for i, name in enumerate(active)}
    values = {name: _value(v) for name, v in bindings.items()}
    shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))

    def evaluate(k):
        prefix = {name: v[:k] if np.ndim(v) else v for name, v in values.items()}
        with np.errstate(all="ignore"):  # float semantics: inf and nan propagate
            return _walk(expr, prefix, index, m, order)

    jet = first_failure(evaluate, shape[0] if shape else 1)
    value, *derivatives = jet.slots()
    return Jet2(
        _value(_full(np.asarray(value), shape)),
        *(_full(a, shape + (m,) * r) for r, a in enumerate(derivatives, start=1)),
    )


def eval_value(expr, bindings):
    """Plain evaluation at one point: the value of the jet with no
    active variables, as a float."""
    return float(eval_jet2(expr, bindings).value)


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
    "eval_value",
    "as_expression",
    "first_failure",
    "first_index",
    "parse",
    "unparse",
]
