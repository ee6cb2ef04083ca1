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
form (``shape_from_jets``), and the diagonal Ricci tensor Ric_aa =
D_a rho_a with rho_0 = -n f''/f and rho_a = (n-1)(k - f'^2)/f^2 - f''/f
for a >= 1.

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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutsideChart, SingularMetric
from .expr import unparse, variables_in
from .jets import as_expression, eval_jet2, first_failure, first_index

CONDITION_LIMIT = 1e12
SPACE_FORM_TOL = 1e-10


class Fiber(enum.Enum):
    """Fiber model of the warped product."""

    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"

    @property
    def curvature(self):
        return 0.0 if self is Fiber.EUCLIDEAN else 1.0


@dataclass(frozen=True)
class AmbientPoint:
    """A point (t, x) in ambient chart coordinates.

    ``t`` and the entries of ``x`` are floats, or arrays of N values for
    N points; every ``WarpedProduct`` method accepts either form.
    """

    t: float
    x: tuple

    def prefix(self, k):
        """The first ``k`` points (the point itself when not a batch)."""

        def cut(v):
            return v[:k] if np.ndim(v) else v

        return AmbientPoint(cut(self.t), tuple(map(cut, self.x)))


@dataclass(frozen=True)
class SpaceFormCheck:
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
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ValueError(f"empty interval {interval!r}")
        if n < 1:
            raise ValueError("fiber dimension must be >= 1")
        self.interval = (lo, hi)
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
        bad = first_index(~(values > 0.0))
        if bad is not None:
            problem = "underflows to 0" if values[bad] == 0.0 else "is not positive"
            raise ValueError(
                f"warping function {unparse(self.f)!r} {problem} at t={float(t[bad])!r}"
            )

    def warping_jet(self, t):
        """Return (f(t), f'(t), f''(t)); ``t`` may be an array of heights."""
        jet = eval_jet2(self.f, {"t": t}, ("t",))
        return jet.value, jet.grad[..., 0], jet.hess[..., 0, 0]

    def validate_point(self, p):
        """Reject the first point outside the interval or the angle chart."""
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
        i = first_index(~ok)
        if i is None:
            return
        t = float(np.ravel(t)[i])
        if not lo < t < hi:
            raise OutsideChart(f"t={t!r} outside interval {self.interval}", i)
        for j, (v, top) in enumerate(zip(x, tops), start=1):
            v = float(np.ravel(v)[i])
            if not 0.0 < v < top:
                raise OutsideChart(f"sphere angle x{j}={v!r} outside (0, {top!r})", i)

    def metric_jets(self, p):
        """Diagonal of the metric, its exact first coordinate derivatives
        and the warping triple, from one jet of f.

        Returns ``(D, dD, (f, f', f''))`` where ``D[a] = G_aa``, ``dD[a, c]
        = d G_aa / d x^c`` and the triple is taken at the heights ``p.t``.
        A batch fails like its first point that fails alone (see
        :func:`warpgeo.jets.first_failure`).
        """
        return first_failure(lambda k: self._metric_jets(p.prefix(k)), np.size(p.t))

    def _metric_jets(self, p):
        self.validate_point(p)
        jet = eval_jet2(self.f, {"t": p.t}, ("t",))
        warping = jet.value, jet.grad[..., 0], jet.hess[..., 0, 0]
        return *self.diagonal_jets(p.x, warping)[:2], warping

    def diagonal_jets(self, x, warping, second=False):
        """``(D, dD, d2D)`` at fiber coordinates ``x`` from the warping triple at
        the heights; ``d2D[a, b, c] = d_b d_c D_a`` only when ``second``, else None."""
        f0, f1, f2 = warping
        d = self.dim
        D = np.ones(np.shape(f0) + (d,))
        dD = np.zeros(np.shape(f0) + (d, d))
        d2D = np.zeros(np.shape(f0) + (d, d, d)) if second else None
        with np.errstate(all="ignore"):  # float semantics, as in eval_jet2
            D[..., 1:] = (f0 * f0)[..., None]
            dD[..., 1:, 0] = (f0 * f1 + f0 * f1)[..., None]
            if second:
                d2D[..., 1:, 0, 0] = (2.0 * (f1 * f1 + f0 * f2))[..., None]
            if self.fiber is Fiber.SPHERE:
                # D_i = D_{i-1} sin(x_{i-1})^2: row i of dD is row i-1 times
                # that factor, plus D_{i-1} d sin(x_{i-1})^2 in column i-1,
                # and d2D follows by the product rule once more
                for i in range(2, d):
                    s, c = np.sin(x[i - 2]), np.cos(x[i - 2])
                    if second:
                        d2D[..., i, :, :] = d2D[..., i - 1, :, :] * (s * s)[..., None, None]
                        d2D[..., i, i - 1, :] += dD[..., i - 1, :] * (s * c + s * c)[..., None]
                        d2D[..., i, :, i - 1] += dD[..., i - 1, :] * (s * c + s * c)[..., None]
                        d2D[..., i, i - 1, i - 1] += 2.0 * D[..., i - 1] * (c * c - s * s)
                    D[..., i] = D[..., i - 1] * (s * s)
                    dD[..., i, :] = dD[..., i - 1, :] * (s * s)[..., None]
                    dD[..., i, i - 1] = D[..., i - 1] * (s * c + s * c)
        return D, dD, d2D

    def curvature_from(self, D, warping, X, Y, Z):
        """R(X, Y)Z from the metric diagonal and warping triple of ``metric_jets``.

        Uses the closed form for a warped product over a constant
        curvature fiber; the overall sign is pinned by the convention in
        the module docstring (round models have K = c).  Vectors are
        ``(..., d)`` arrays; leading axes of the vectors, of ``D`` and of
        the warping values broadcast against each other.
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        Z = np.asarray(Z, dtype=float)
        f0, f1, f2 = (np.asarray(w, dtype=float)[..., None] for w in warping)
        lf1 = f1 / f0
        lf2 = f2 / f0 - lf1 * lf1

        def ip(a, b):
            return np.sum(a * D * b, axis=-1, keepdims=True)

        e0 = np.zeros(self.dim)
        e0[0] = 1.0
        X0, Y0, Z0 = X[..., :1], Y[..., :1], Z[..., :1]
        out = lf1 * lf1 * (ip(X, Z) * Y - ip(Y, Z) * X)
        out = out - lf2 * Z0 * (Y0 * X - X0 * Y)
        out = out + lf2 * (Y0 * ip(X, Z) - X0 * ip(Y, Z)) * e0
        if self.k != 0.0:
            Xs = X - X0 * e0
            Ys = Y - Y0 * e0
            Zs = Z - Z0 * e0
            out = out - (self.k / (f0 * f0)) * (ip(Xs, Zs) * Ys - ip(Ys, Zs) * Xs)
        return out

    def _nonvanishing_warping(self, t):
        f0, f1, f2 = self.warping_jet(t)
        zero = first_index(f0 == 0.0)
        if zero is not None:
            raise DomainError(f"warping function vanishes at t={float(t[zero])!r}", self.f, zero)
        return f0, f1, f2

    def check_space_form(self, c, probes):
        """Residuals of ((f')^2 - k)/f^2 = -c = f''/f over ``probes``, where
        ``c`` None is fitted as -mean(f''/f); a vanishing f is a DomainError."""
        t = np.asarray(probes, dtype=float)
        f0, f1, f2 = first_failure(lambda k: self._nonvanishing_warping(t[:k]), t.size)
        c = -float(np.mean(f2 / f0)) + 0.0 if c is None else float(c)  # + 0.0 normalizes -0.0
        ratio = np.abs((f1 * f1 - self.k) / (f0 * f0) + c)
        second = np.abs(f2 / f0 + c)
        return SpaceFormCheck(
            c, float(np.max(ratio, initial=0.0)), float(np.max(second, initial=0.0))
        )


def eval_warping(f, t, active=()):
    """``eval_jet2`` of the warping function ``f`` over the heights ``t``;
    a DomainError names the first height at which f fails."""
    try:
        return eval_jet2(f, {"t": t}, active)
    except DomainError as exc:
        raise DomainError(
            f"warping function at t={float(t[exc.index])!r}: {exc}", exc.expression
        ) from None


def check_conditioning(p, D):
    """Name the first point of ``p`` whose metric diagonal ``D`` is numerically singular."""
    i = first_index(np.max(D, axis=-1) > CONDITION_LIMIT * np.min(D, axis=-1))
    if i is not None:
        t = float(np.ravel(p.t)[i])
        x = tuple(float(np.ravel(v)[i]) for v in p.x)
        raise SingularMetric(f"chart metric at t={t!r}, x={x!r} is numerically singular", i)


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
