"""Forward-mode jets of order 2 or 3 and exact evaluation of expressions.

A jet carries a value with its gradient, Hessian and, at order 3, third
derivative in ordered active variables, exact to rounding (Griewank and
Walther, *Evaluating Derivatives*, ch. 13).  Inside a run a jet is a plain
dict of its entries, only those that can be nonzero (ch. 7), keyed by sorted
index tuples: () the value, (i,) the gradient, (i, j) with i <= j the Hessian,
(i, j, k) the third slot; a variable has the one entry 1.0, a constant none.
A run's order reaches every rule as an argument; no jet stores it.  A rule
touches only the terms present, not those zero by construction (the product
and chain rules sum them through one helper, ``_dot``), and the chain rule has
one form for every argument.  Which entries exist and each node's rule depend
only on the expression, the active variables and the order, never on the
values: a power whose exponent has no variables and an integer value is a
product, any other exp(exponent * log(base)); sqrt and abs refuse their kink
where their argument has a variable.

Expressions are compiled once into a straight-line :class:`Tape` of ops (ch. 6), equal
subtrees interned, with each op's rule and the arrays it reads for the last time.  A
run binds each variable to a value or an array of N values, runs each op once over all
points (no slot is masked per point), drops each array after its last use and writes
full slots, symmetric to the bit: each entry straight into its slot, at every permutation
of its sorted index tuple, by a table of the variable count (``_layout``, the module's
one memo).

A batch is evaluated in one pass (``one_pass``): a check flags the points
that fail it and the pass computes on, with inf and nan propagating, as
IEEE 754's flags do (Hauser, *Handling floating-point exceptions in numeric
programs*, ACM TOPLAS 18(2), 1996).  At its end the first flagged point
raises the error of the first check that flagged it, with ``index`` set;
as each point's result does not depend on the batch, that is the error the
point raises alone.
"""

from __future__ import annotations

from collections import namedtuple
from contextvars import ContextVar
from functools import cache
from itertools import combinations_with_replacement as _keys, permutations
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UnknownIdentifier
from .expr import FUNCTIONS, BinOp, Call, Const, CONSTANTS, Expression, Neg, Num, Profile, Var, literal, parse

_Mode = namedtuple("_Mode", "order values")  # a run's order (0: values alone) and bindings


class Jet2(NamedTuple):
    """Value, gradient and symmetric Hessian in ``m`` active variables, and at order 3
    the symmetric third derivative (else None).  Point axes follow the derivative
    axes: value ``S``, grad ``(m,) + S``, hess ``(m, m) + S``, third ``(m, m, m) + S``.
    A jet holds a tape's result and has no arithmetic: ``+`` and ``*``, which a
    tuple would read as concatenation and repetition, raise TypeError, and numpy
    defers to them (``np.float64(2.0) * jet`` raises too)."""

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None = None

    __array_ufunc__ = None
    m = property(lambda self: self.grad.shape[0])
    order = property(lambda self: 2 if self.third is None else 3)

    def __add__(self, other):
        raise TypeError("a Jet2 has no arithmetic: build the expression and evaluate it with eval_jet2")
    __mul__ = __rmul__ = __add__

    def slots(self):
        """The value and the derivatives up to the jet's order."""
        return self[: self.order + 1]


def _dot(*pairs):
    """The sum from the left of x * y over ``pairs``, given x, y, x, y, ..., with both factors present, None
    (zero by construction) if none is; x * 1.0 is x, to the bit: a variable's entry, or a term passed whole."""
    total, it = None, iter(pairs)
    for x, y in zip(it, it):
        if x is None or y is None:
            continue
        term = x if y.__class__ is float and y == 1.0 else y if x.__class__ is float and x == 1.0 else x * y
        total = term if total is None else total + term
    return total


def _support(*jets):
    """The gradient's indices of ``jets``, sorted."""
    return sorted({key[0] for jet in jets for key in jet if len(key) == 1})


def _neg(u):
    return {key: -x for key, x in u.items()}


def _add(u, w):
    out = dict(u)
    for key, y in w.items():
        out[key] = y if (x := out.get(key)) is None else x + y
    return out


def _mul(u, w, order):
    p, q, a, b = u.get, w.get, u[()], w[()]
    if len(u) == len(w) == 1:  # two values alone
        return {(): a * b}
    support = _support(u, w)
    out = {(): a * b}
    for i in support:
        out[i,] = _dot(a, q((i,)), b, p((i,)))
    for i, j in _keys(support, 2):
        out[i, j] = _dot(a, q((i, j)), b, p((i, j)), p((i,)), q((j,)), p((j,)), q((i,)))
    if order == 3:  # t[x, y, z] = p_xy q_z + q_xy p_z, each read by one triple, up to thrice
        t = {(x, y, z): _dot(p((x, y)), q((z,)), q((x, y)), p((z,))) for x, y in _keys(support, 2) for z in support}
        for i, j, k in _keys(support, 3):
            out[i, j, k] = _dot(t[i, j, k], 1.0, t[i, k, j], 1.0, t[j, k, i], 1.0, a, q((i, j, k)), b, p((i, j, k)))
    return {key: x for key, x in out.items() if x is not None}


class Tape:
    """Expressions compiled into a straight-line list of ops, one per distinct subtree (a
    Num told by its bits, -0.0 from 0.0); compiling evaluates nothing.  A run takes an order
    0, 2 or 3; at 0 it takes no derivative: sqrt and abs refuse no kink, a profile gives beta."""

    def __init__(self, exprs, active=()):
        self.m = len(active)
        index = {name: i for i, name in enumerate(active)}
        if len(index) < self.m:
            raise ValueError(f"repeated active variables: {[name for name in index if active.count(name) > 1]}")
        memo = {}  # op by interning key: a variable by its name, a number by kind and repr
        ops = []  # (rule, argument, kids, the kids it reads for the last time)
        free = []  # by op, whether it has a variable
        last = {}  # the op that reads an op last

        def emit(key, rule, arg, kids, has_variable):  # a new op, so far the last to read its kids
            memo[key] = len(ops)
            ops.append((rule, arg, kids, []))
            free.append(has_variable)
            for kid in kids:
                last[kid] = memo[key]

        def compile_node(node):  # the op of a distinct subtree, made once, kids first
            kind = type(node)
            if kind is Var:
                key = node[0]
                if key not in memo:
                    gradient = {(index[key],): 1.0} if key in index else {}
                    emit(key, _RULES[Var], (key, gradient), (), True)
                return memo[key]
            if kind is Num or kind is Const:
                key = (kind, repr(node[0]))  # -0.0 is not 0.0
                if key not in memo:
                    value = node[0] if kind is Num else CONSTANTS[node[0]]
                    emit(key, _RULES[kind], np.float64(value), (), False)
                return memo[key]
            if kind not in _RULES or kind is Call and node[0] not in FUNCTIONS:
                raise UnknownIdentifier(node[0]) if kind is Call else TypeError(f"not an Expression: {node!r}")
            kids = (compile_node(node[1]), compile_node(node[2])) if kind is BinOp else (compile_node(node[-1]),)
            key = (kind, id(node[0]) if kind is Profile else kind is Neg or node[0], *kids)
            if key not in memo:  # its rule's argument: the node, and whether its last kid has a variable
                varies = free[kids[-1]]
                emit(key, _RULES[node[0] if kind is BinOp else kind], (node, varies), kids, free[kids[0]] or varies)
            return memo[key]

        self.roots = [compile_node(expr) for expr in exprs]
        del compile_node  # its cell held it: no cycle is left for the collector
        self.variables = dict.fromkeys(key for key in memo if isinstance(key, str))  # the names, in order
        for kid in last.keys() - set(self.roots):  # each op's list of the jets it reads for the last time
            ops[last[kid]][3].append(kid)
        self.ops = ops

    def slots(self, bindings, order):
        """The slots up to ``order`` (0, 2 or 3; 0: values) at ``bindings``, by expression, in one pass."""
        values = {name: np.asarray(v, dtype=float)[()] for name, v in bindings.items()}
        if missing := [name for name in self.variables if name not in values]:
            raise UnknownIdentifier(missing[0])
        shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
        mode = _Mode(order if self.m else 0, values)
        jets = [None] * len(self.ops)
        with one_pass():
            for i, (fn, arg, kids, dead) in enumerate(self.ops):
                jets[i] = fn(arg, mode, *map(jets.__getitem__, kids))
                for kid in dead:
                    jets[kid] = None
        return _gather([jets[root] for root in self.roots], self.m, shape, order)


# The rule of each kind of node, called with its op's argument, the run's mode and the kids' jets.
_RULES = {
    Var: lambda var, mode: {(): mode.values[var[0]], **(var[1] if mode.order else {})},
    Num: lambda value, mode: {(): value},
    Neg: lambda arg, mode, u: _neg(u),
    Call: lambda arg, mode, u: _apply_function(arg[0].func, u, arg[0], mode.order if arg[1] else 0),
    BinOp: None,
    Profile: lambda arg, mode, u: _profile(arg[0].curve, u, mode.order),
    "+": lambda arg, mode, a, b: _add(a, b),
    "-": lambda arg, mode, a, b: _add(a, _neg(b)),  # x + (-y) is x - y, to the bit
    "*": lambda arg, mode, a, b: _mul(a, b, mode.order),
    "/": lambda arg, mode, a, b: _mul(a, _reciprocal(b, arg[0], mode.order), mode.order),
}
_RULES[Const] = _RULES[Num]


@cache  # a constant of m: every run reads it
def _layout(m):
    """By sorted index tuple of slots 0 to 3 over m variables, the index of the places it fills in
    its slot: the tuple itself if it has one permutation, else an array per axis over its permutations."""
    table = {}
    for r in range(4):
        for key in _keys(range(m), r):
            spots = sorted(set(permutations(key)))
            table[key] = key if len(spots) == 1 else tuple(np.array(axis, dtype=np.intp) for axis in zip(*spots))
    return table


def _gather(jets, m, shape, order):
    """The full slots up to ``order`` of ``jets`` over ``m`` variables, point axes ``shape``: each entry
    is written straight into its slot, at every permutation of its sorted index tuple; an absent one is 0."""
    layout, slots = _layout(m), [np.zeros((len(jets),) + (m,) * r + shape) for r in range(order + 1)]
    for k, jet in enumerate(jets):
        for key, value in jet.items():
            slots[len(key)][(k, *layout[key])] = value
    return slots


# The open pass of this thread (a new thread starts with an empty context):
# its (mask, offset, make_error) records, in program order.
_PASS = ContextVar("pass", default=None)


class one_pass:
    """Evaluate a batch as one pass, with float semantics (inf and nan
    propagate) and the checks recording, not raising.

    At the outermost exit the first row any check flagged raises the
    error of the first check, in program order, that flagged it, with
    ``index`` set: the one place where "the first failing point" is
    decided.  An inner pass joins the outer one.
    """

    __slots__ = ("records", "token", "errstate")

    def __enter__(self):
        self.records = [] if _PASS.get() is None else None  # None: the pass joins the open one
        if self.records is not None:
            self.token, self.errstate = _PASS.set(self.records), np.errstate(all="ignore")
            self.errstate.__enter__()

    def __exit__(self, kind, *info):
        if self.records is None:
            return
        self.errstate.__exit__(kind, *info)
        _PASS.reset(self.token)
        if kind is not None:  # an exception raised in the pass propagates as it is
            return
        hits = [(int(mask.argmax()) + offset, k) for k, (mask, offset, _) in enumerate(self.records) if mask.any()]
        if hits:
            row, k = min(hits)  # on a tie, the earlier check
            _, offset, make_error = self.records[k]
            exc = make_error(row - offset)  # the error of that row of the check's mask
            exc.index = row
            raise exc


def flag(mask, make_error, offset=0):
    """Record that the rows of ``mask`` (from row ``offset`` of the pass on)
    fail a check; ``make_error(i)`` builds the error of its row ``i``.
    Outside a pass the check is a pass of its own, so its first flagged row
    raises at once, with ``index`` set.  By this rule the probe of f, a
    rotational profile's closed form and sigma, and the structural gradient
    refuse their first failing point."""
    records = _PASS.get()
    if records is None:
        with one_pass():
            return flag(mask, make_error, offset)
    records.append((mask, offset, make_error))


def _leaves(fn, *records):
    """``fn`` applied to the matching arrays of batched records.

    Records are named tuples whose fields are arrays, plain tuples of
    arrays, records again (``PointGeometry``, ``PointJets``,
    ``AmbientPoint``) or None; a bare array is its own leaf.
    """
    first = records[0]
    if first is None:
        return None
    if not isinstance(first, tuple):
        return fn(*records)
    items = [_leaves(fn, *items) for items in zip(*records)]
    return type(first)(*items) if hasattr(first, "_fields") else tuple(items)


def _flag_at(bad, node, message, value=None):
    """Flag the points where ``bad`` holds with a DomainError at ``node``, formatted with ``value``."""
    flag(bad, lambda i: DomainError(
        message if value is None else message.format(float(np.ravel(value)[i])), node))


def _chain(u, order, f0, f1, f2, f3):
    """Compose a scalar function with jet ``u`` by the chain rule; ``f3()`` is the third derivative,
    taken at ``order`` 3 only; None is a derivative zero by construction."""
    if len(u) == 1:  # a value alone
        return {(): f0}
    g, support = u.get, _support(u)
    outer = {key: _dot(g(key[:1]), g(key[1:])) for key in _keys(support, 2)}
    out = {(): f0}
    for i in support:
        out[i,] = _dot(f1, g((i,)))
    for key, gg in outer.items():
        out[key] = _dot(f1, g(key), f2, gg)
    if order == 3:  # t_ijk = P_ij u_k + P_ik u_j + P_jk u_i + f1 u_ijk, with P_ij = f2 u_ij + f3/3 u_i u_j
        s, P = f3(), {}
        s = None if s is None else s / 3.0
        for key, gg in outer.items():  # a loop: a comprehension would be one more call
            P[key] = _dot(f2, g(key), s, gg)
        for i, j, k in _keys(support, 3):
            out[i, j, k] = _dot(P[i, j], g((k,)), P[i, k], g((j,)), P[j, k], g((i,)), f1, g((i, j, k)))
    return {key: x for key, x in out.items() if x is not None}


def _reciprocal(u, node, order):
    v = u[()]
    _flag_at(v == 0.0, node, "division by zero")
    if not order:  # a value alone: no derivative to take
        return {(): 1.0 / v}
    vv = v * v
    return _chain(u, order, 1.0 / v, -1.0 / vv, 2.0 / (vv * v), lambda: -6.0 / (vv * v * v))


def _pow_int_jet(u, k, node, order):
    """Binary exponentiation on jets."""
    if k == 0:
        return {(): np.float64(1.0)}
    if k < 0:
        return _reciprocal(_pow_int_jet(u, -k, node, order), node, order)
    result, acc = None, u
    while True:
        result = (acc if result is None else _mul(result, acc, order)) if k & 1 else result
        k >>= 1
        if not k:
            return result
        acc = _mul(acc, acc, order)


def _apply_function(name, u, node, order):
    """Jet of the elementary function ``name`` at ``u``: the one place for its domain rules (log
    needs a positive and sqrt a non-negative argument; exp, sinh and cosh must not overflow)."""
    v = u[()]
    if name == "log":
        _flag_at(v <= 0.0, node, "log of non-positive value {!r}", v)
    if name == "sqrt":
        _flag_at(v < 0.0, node, "sqrt of negative value {!r}", v)
    w = getattr(np, name)(v)
    if name in ("exp", "sinh", "cosh"):
        _flag_at(np.isinf(w) & np.isfinite(v), node, name + " overflows at {!r}", v)
    if not order:  # a value alone, as where the argument has no variable: no derivative, no kink to refuse
        return {(): w}
    if name in ("sin", "cos"):  # f''' = -f'
        d = np.cos(v) if name == "sin" else -np.sin(v)
        return _chain(u, order, w, d, -w, lambda: -d)
    if name in ("sinh", "cosh"):  # f''' = f'
        d = np.cosh(v) if name == "sinh" else np.sinh(v)
        return _chain(u, order, w, d, w, lambda: d)
    if name == "tan":
        d = 1.0 + w * w
        return _chain(u, order, w, d, 2.0 * w * d, lambda: 2.0 * d * (d + 2.0 * w * w))
    if name == "tanh":
        d = 1.0 - w * w
        return _chain(u, order, w, d, -2.0 * w * d, lambda: 2.0 * d * (2.0 * w * w - d))
    if name == "exp":
        return _chain(u, order, w, w, w, lambda: w)
    if name == "log":
        vv = v * v
        return _chain(u, order, w, 1.0 / v, -1.0 / vv, lambda: 2.0 / (vv * v))
    _flag_at(v == 0.0, node, name + " is not differentiable at 0")
    if name == "sqrt":
        wv = w * v
        return _chain(u, order, w, 0.5 / w, -0.25 / wv, lambda: 0.375 / (wv * v))
    return _chain(u, order, w, np.where(v > 0.0, 1.0, -1.0), None, lambda: None)


def _power(arg, mode, base, exponent):
    """The rule of ``^`` at ``arg`` = (node, whether the exponent has a variable): an exponent
    without variables whose value is an integer k, |k| <= 2^31, takes products, any other
    exp(exponent * log(base)).  That value is 0-d and fixed by the expression."""
    (node, free), order = arg, mode.order
    if not free:
        k = float(exponent[()])
        if abs(k) <= 2**31 and k.is_integer():  # False for inf and nan
            return _pow_int_jet(base, int(k), node, order)
    _flag_at(base[()] <= 0.0, node,
             "power of non-positive base {!r} needs a constant integer exponent k, |k| <= 2^31", base[()])
    return _apply_function("exp", _mul(exponent, _apply_function("log", base, node, order), order), node, order)


_RULES["^"] = _power


def _profile(curve, u, order):
    """Jet of beta(u): the chain rule on ``curve.beta_jet``, or beta alone with no derivative taken."""
    if not order:
        return {(): curve.beta(u[()])}
    b0, b1, b2, b3 = curve.beta_jet(u[()], order)
    return _chain(u, order, b0, b1, b2, lambda: b3)


def eval_jet2(expr, bindings, active=(), order=2):
    """Evaluate ``expr`` (text, a number or an AST) as a jet of ``order`` 2 or 3; a list or
    tuple of K of them gives one jet whose slots carry a leading component axis of K, from
    one tape compiled on the call, on which a subtree they share is evaluated once.

    ``bindings`` maps every variable appearing in ``expr`` to a real
    value, or to a 1-d array of N values (one per point); ``active`` is the
    ordered subset of variables that derivatives are taken against.
    With an empty ``active`` list this is a plain evaluation; the slots of
    order 2 do not depend on ``order``.  A DomainError carries in ``index``
    the first point whose evaluation fails.
    """
    if order not in (2, 3):
        raise ValueError(f"eval_jet2 takes order 2 or 3, not {order!r}")
    single = isinstance(expr, Expression) or not isinstance(expr, (list, tuple))
    slots = Tape(list(map(as_expression, [expr] if single else expr)), tuple(active)).slots(bindings, order)
    return Jet2(*(slot[0] for slot in slots) if single else slots)


def as_expression(obj):
    """Coerce a string, a number or an AST into an :class:`Expression`."""
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
]
