"""Warped-product ambient spaces dt^2 + f(t)^2 g_M and their geometry.

The base is an interval with coordinate ``t``; the fiber is either flat
Euclidean n-space (identity chart) or the unit round n-sphere in the
nested angular chart, so the fiber has constant sectional curvature
``k`` equal to 0 or 1.  Ambient coordinates are ``(t, x1, ..., xn)``.

In these charts the metric is diagonal, G = diag(D) with
D = (1, f^2, f^2 sin(x1)^2, ...), so every routine works with the d
entries D_a, their derivatives dD[a, c] = d_c D_a and, for the
structural check, d2D.  All come in closed form from the warping triple
(f, f', f''), one order-2 jet of f at the heights of a batch, which the
curvature reads too.  The products follow the jet arithmetic of f^2 *
sin(x1)^2 * ..., so D and the nonzero entries of dD equal that
arithmetic to the bit.  The Christoffel symbols take the
closed form (O'Neill, *Semi-Riemannian Geometry*, ch. 7)

    Gamma^a_bc = (delta_ac d_b D_a + delta_ab d_c D_a - delta_bc d_a D_b) / (2 D_a)

and a metric is numerically singular where its condition number
max D / min D exceeds ``CONDITION_LIMIT``.  No Christoffel tensor is
built: the geometry pass reads Gamma contracted with a vector in closed
form (``intrinsic.grid_geometry``).  Nor is a curvature tensor: the
curvature is fixed by two scalars of the triple, a = (k - f'^2)/f^2 on
planes tangent to the fiber and a + b = -f''/f on planes that contain
d_t (O'Neill, ch. 7).

Curvature sign convention, fixed once for the whole package:

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    K(X, Y)  = <R(X, Y)Y, X> / (|X|^2 |Y|^2 - <X, Y>^2)

Under this convention the round sphere has K = +1 and the five constant
curvature models produced by ``check_space_form`` come out with exactly
their advertised ``c``.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OutsideChart, SingularMetric
from .expr import unparse, variables_in
from .jets import as_expression, eval_jet2, flag, one_pass

CONDITION_LIMIT = 1e12
SPACE_FORM_TOL = 1e-10


class Fiber(enum.Enum):
    """Fiber model of the warped product."""

    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"

    @property
    def curvature(self):
        return 0.0 if self is Fiber.EUCLIDEAN else 1.0


class AmbientPoint(NamedTuple):
    """A point (t, x) in ambient chart coordinates.

    ``t`` and the entries of ``x`` are floats, or arrays of N values for
    N points; every ``WarpedProduct`` method accepts either form.
    """

    t: float
    x: tuple


class SpaceFormCheck(NamedTuple):
    """Residuals of the constant-curvature characterization of f and k.

    ``ratio_residual`` is sup |((f')^2 - k)/f^2 + c| and
    ``second_residual`` is sup |f''/f + c| over the probe grid.
    """

    c: float
    ratio_residual: float
    second_residual: float

    @property
    def passed(self):
        return (
            self.ratio_residual < SPACE_FORM_TOL
            and self.second_residual < SPACE_FORM_TOL
        )


class WarpedProduct:
    """Interval x_f fiber with the metric dt^2 + f(t)^2 g_fiber.

    Parameters
    ----------
    interval : pair of floats, endpoints may be infinite
    f : expression in the single variable ``t`` (string or AST)
    fiber : :class:`Fiber`
    n : fiber dimension, at least 1

    Positivity of ``f`` is probed on a 1024-point grid over a finite
    window of the interval at construction; a non-positive sample is a
    construction error.  This cannot prove positivity for arbitrary
    expressions and is a documented limitation.
    """

    def __init__(self, interval, f, fiber, n):
        if fault := interval_fault(interval):
            raise ValueError(fault)
        if n < 1:
            raise ValueError("fiber dimension must be >= 1")
        self.interval = (float(interval[0]), float(interval[1]))
        self.f = as_expression(f)
        extra = variables_in(self.f) - {"t"}
        if extra:
            raise ValueError(f"warping function may only use 't', found {sorted(extra)}")
        self.fiber = Fiber(fiber)
        self.n = int(n)
        self.k = self.fiber.curvature
        self._probe_positivity()

    def __repr__(self):
        return (
            f"WarpedProduct(interval={self.interval}, f={unparse(self.f)!r}, "
            f"fiber={self.fiber.value!r}, n={self.n})"
        )

    @property
    def dim(self):
        return self.n + 1

    def probe_window(self, margin=0.02, clip=4.0):
        """Finite sub-window of the interval suitable for sampling."""
        lo, hi = self.interval
        if math.isinf(lo):
            lo = -clip
        if math.isinf(hi):
            hi = clip
        pad = margin * (hi - lo)
        return lo + pad, hi - pad

    def _probe_positivity(self):
        a, b = self.probe_window()
        t = np.linspace(a, b, 1024)
        values = eval_warping(self.f, t).value

        def refusal(i):
            problem = "underflows to 0" if values[i] == 0.0 else "is not positive"
            return ValueError(f"warping function {unparse(self.f)!r} {problem} at t={float(t[i])!r}")

        flag(~(values > 0.0), refusal)

    def warping_jet(self, t):
        """Return (f(t), f'(t), f''(t)); ``t`` may be an array of heights."""
        jet = eval_jet2(self.f, {"t": t}, ("t",))
        return jet.value, jet.grad[0], jet.hess[0, 0]

    def validate_point(self, p):
        """Flag the points outside the interval or the angle chart."""
        if len(p.x) != self.n:
            raise ValueError(f"expected {self.n} fiber coordinates, got {len(p.x)}")
        lo, hi = self.interval
        tops = [2.0 * math.pi if j == self.n else math.pi for j in range(1, self.n + 1)]
        t = np.asarray(p.t)
        x = [np.asarray(v) for v in p.x]
        ok = (lo < t) & (t < hi)
        if self.fiber is Fiber.SPHERE:
            for v, top in zip(x, tops):
                ok = ok & (0.0 < v) & (v < top)

        def outside(i):
            t_i, *x_i = (float(np.ravel(a)[i]) for a in [t] + x)
            if not lo < t_i < hi:
                return OutsideChart(f"t={t_i!r} outside interval {self.interval}")
            for j, (v, top) in enumerate(zip(x_i, tops), start=1):
                if not 0.0 < v < top:
                    return OutsideChart(f"sphere angle x{j}={v!r} outside (0, {top!r})")

        flag(~ok, outside)

    def metric_jets(self, p):
        """Diagonal of the metric, its exact first coordinate derivatives
        and the warping triple, from one jet of f.

        Returns ``(D, dD, (f, f', f''))`` where ``D[a] = G_aa``, ``dD[a, c]
        = d G_aa / d x^c`` and the triple is taken at the heights ``p.t``, each
        with a trailing point axis at a batch of points.  The batch is one
        pass (:func:`warpgeo.jets.one_pass`): the first flagged point raises
        the error of its first check.
        """
        with one_pass():
            self.validate_point(p)
            warping = self.warping_jet(p.t)
            return *self.diagonal_jets(p.x, warping)[:2], warping

    def diagonal_jets(self, x, warping, second=False):
        """``(D, dD, d2D)`` at fiber coordinates ``x`` from the warping triple at
        the heights, the point axis last: ``D[a]``, ``dD[a, c] = d_c D_a`` and,
        only when ``second`` (else None), ``d2D[a, b, c] = d_b d_c D_a``."""
        f0, f1, f2 = warping
        d, shape = self.dim, np.shape(f0)
        D = np.ones((d,) + shape)
        dD = np.zeros((d, d) + shape)
        d2D = np.zeros((d, d, d) + shape) if second else None
        with np.errstate(all="ignore"):  # float semantics, as in eval_jet2
            D[1:] = f0 * f0
            dD[1:, 0] = f0 * f1 + f0 * f1
            if second:
                d2D[1:, 0, 0] = 2.0 * (f1 * f1 + f0 * f2)
            if self.fiber is Fiber.SPHERE:
                # D_i = D_{i-1} sin(x_{i-1})^2: row i of dD is row i-1 times
                # that factor, plus D_{i-1} d sin(x_{i-1})^2 in column i-1,
                # and d2D follows by the product rule once more
                for i in range(2, d):
                    s, c = np.sin(x[i - 2]), np.cos(x[i - 2])
                    if second:
                        d2D[i] = d2D[i - 1] * (s * s)
                        d2D[i, i - 1] += dD[i - 1] * (s * c + s * c)
                        d2D[i, :, i - 1] += dD[i - 1] * (s * c + s * c)
                        d2D[i, i - 1, i - 1] += 2.0 * D[i - 1] * (c * c - s * s)
                    D[i] = D[i - 1] * (s * s)
                    dD[i] = dD[i - 1] * (s * s)
                    dD[i, i - 1] = D[i - 1] * (s * c + s * c)
        return D, dD, d2D

    def check_space_form(self, c, probes):
        """Residuals of ((f')^2 - k)/f^2 = -c = f''/f over ``probes``, where
        ``c`` None is fitted as -mean(f''/f); a vanishing f, or a DomainError
        of f, is a DomainError naming the height."""
        t = np.asarray(probes, dtype=float)
        jet = eval_warping(self.f, t, ("t",))
        f0, f1, f2 = jet.value, jet.grad[0], jet.hess[0, 0]
        flag(f0 == 0.0, lambda i: DomainError(f"warping function vanishes at t={float(t[i])!r}", self.f))
        c = -float(np.mean(f2 / f0)) + 0.0 if c is None else float(c)  # + 0.0 normalizes -0.0
        ratio = np.abs((f1 * f1 - self.k) / (f0 * f0) + c)
        second = np.abs(f2 / f0 + c)
        return SpaceFormCheck(
            c, float(np.max(ratio, initial=0.0)), float(np.max(second, initial=0.0))
        )


def interval_fault(interval):
    """Why ``interval`` is refused as a base interval, or None: it is empty, or its
    endpoints are finite and their distance, so its probe window, overflows a float."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        return f"empty interval {interval!r}"
    if math.isinf(hi - lo) and math.isfinite(lo + hi):  # lo + hi is inf or nan at an infinite endpoint
        return f"width of interval {interval!r} overflows a float"
    return None


def eval_warping(f, t, active=()):
    """``eval_jet2`` of the warping function ``f`` over the heights ``t``;
    a DomainError names the first height at which f fails."""
    try:
        return eval_jet2(f, {"t": t}, active)
    except DomainError as exc:
        raise DomainError(
            f"warping function at t={float(t[exc.index])!r}: {exc}", exc.expression
        ) from None


def check_conditioning(p, D, skip=0):
    """Flag the points of ``p``, from row ``skip`` on, whose metric diagonal
    ``D`` (d, N) is numerically singular."""
    D = D[:, skip:]

    def singular(i):
        t = float(np.ravel(p.t)[i + skip])
        x = tuple(float(np.ravel(v)[i + skip]) for v in p.x)
        return SingularMetric(f"chart metric at t={t!r}, x={x!r} is numerically singular")

    flag(np.max(D, axis=0) > CONDITION_LIMIT * np.min(D, axis=0), singular, skip)


def space_form_models(n=2):
    """The five constant-curvature warped models with their c values.

    Each entry is ``(name, WarpedProduct, c, probe_window)``.
    """
    rows = [
        ("sphere", (0.0, math.pi), "sin(t)", Fiber.SPHERE, 1.0, (0.05, math.pi - 0.05)),
        ("euclidean", (-math.inf, math.inf), "1", Fiber.EUCLIDEAN, 0.0, (-4.0, 4.0)),
        ("euclidean-polar", (0.0, math.inf), "t", Fiber.SPHERE, 0.0, (0.05, 4.0)),
        ("hyperbolic", (-math.inf, math.inf), "exp(t)", Fiber.EUCLIDEAN, -1.0, (-2.0, 2.0)),
        ("hyperbolic-polar", (0.0, math.inf), "sinh(t)", Fiber.SPHERE, -1.0, (0.05, 4.0)),
    ]
    out = []
    for name, interval, f, fiber, c, window in rows:
        out.append((name, WarpedProduct(interval, f, fiber, n), c, window))
    return out
