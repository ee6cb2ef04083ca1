"""Rotational constant-angle hypersurfaces in R x_f R^n.

The profile curve (alpha(u), beta(u)) of a rotational hypersurface with
constant angle theta in (0, 1) satisfies

    alpha(u) = u sqrt(1 - theta^2) + c1,
    beta'(u) = theta / f(alpha(u)),

so beta is an antiderivative of theta/f(alpha) plus a constant c2.  For
exponential warpings f(t) = c3 exp(c5 t) the decaying antiderivative

    B(u) = -theta / (c3 c5 sqrt(1 - theta^2)) * exp(-c5 alpha(u))

is used (this normalization, with c2 = 0, is the one that produces a
soliton); for all other warpings beta is the antiderivative, vanishing
at u0, of a Chebyshev interpolant of theta/f(alpha), one per profile,
whose degree doubles until its coefficients have decayed (Battles and
Trefethen, SIAM J. Sci. Comput. 25, 2004), kept as its coefficients and
integrated and evaluated by numpy.polynomial's steps, to the bit, without
importing it.  The derivatives of beta need no interpolant: with
a = sqrt(1 - theta^2), beta' = theta / f,
beta'' = -theta a f' / f^2 and beta''' = -theta a^2 (f f'' - 2 f'^2) / f^3
come from one jet of f at alpha(u).  The surface is the orbit of the
profile under rotation of the fiber about the axis, with first
fundamental form diag(1, sigma^2 x sphere-chart weights) where sigma(u)
= f(alpha(u)) beta(u), so d sigma / du = f'(alpha) a beta + theta
exactly.  Its n fiber coordinates beta(u) X_j share one Profile node
for beta(u), which a pass evaluates once per batch: beta and the jet of
f once for all of them, or beta alone when no variable is active.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .ambient import Fiber, WarpedProduct, eval_warping, interval_fault
from .errors import DomainError, QuadratureFailure, SigmaZero
from .expr import BinOp, Call, Profile, Var, literal
from .hypersurface import ChartBox, Immersion
from .jets import Tape, as_expression, flag
from .intrinsic import grid_geometry
from .soliton import SOLITON_TOL, Verdict, soliton_report

CHEB_MIN_DEGREE = 16  # first degree of the profile interpolant
CHEB_MAX_DEGREE = 4096  # degree cap; an integrand unresolved there fails
CHEB_TAIL_DECAY = 1e-13  # resolved: upper-half coefficients below this times the largest
_POLAR_MARGIN = 0.2  # keeps grids away from sphere-chart poles for n >= 3
AZIMUTH_SAMPLES = 9  # classification grid points along the last angle
CLASSIFICATION_U_COUNT = 9  # classification grid points along u
PROFILE_RESIDUALS = ("sigma_constancy", "balance_residual", "logf_slope_variation")


def sphere_chart_expressions(n):
    """Component expressions X_1 .. X_n of S^{n-1} in angles v1 .. v_{n-1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    sines = None  # sin(v1) * ... * sin(v_{j-1}), multiplied left to right
    for j in range(1, n):
        cos_j = Call("cos", Var(f"v{j}"))
        out.append(cos_j if sines is None else BinOp("*", sines, cos_j))
        sin_j = Call("sin", Var(f"v{j}"))
        sines = sin_j if sines is None else BinOp("*", sines, sin_j)
    out.append(sines)
    return tuple(out)


class RotationalProfile(namedtuple("RotationalProfile", "theta f n c1 c2 u_range")):
    """Data of a constant-angle rotational profile.

    ``theta`` must lie strictly in (0, 1); the endpoints are degenerate.
    ``f`` is held as an expression AST.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, theta, f, n, c1=0.0, c2=0.0, u_range=(-1.0, 1.0)):
        f = as_expression(f)
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta={theta!r} must lie strictly in (0, 1)")
        if n < 2:
            raise ValueError("rotational hypersurfaces need n >= 2")
        u0, u1 = u_range
        if not u0 < u1:
            raise ValueError(f"empty u range {u_range!r}")
        return super().__new__(cls, theta, f, n, c1, c2, u_range)

    @property
    def slope(self):
        return math.sqrt(1.0 - self.theta * self.theta)

    def alpha(self, u):
        return u * self.slope + self.c1

    def alpha_expression(self):
        return BinOp("+", BinOp("*", Var("u"), literal(self.slope)), literal(self.c1))


class ProfileCurve(NamedTuple):
    """Solved profile, from :func:`solve_profile`, the one solve: beta, and alpha and the jet of
    beta derived from it, each of a float or an array of u values; the jet runs ``tape``, f compiled once."""

    profile: RotationalProfile
    beta: object
    exponential_rate: float | None  # c5 when f = c3 exp(c5 t), else None
    tape: Tape

    def alpha(self, u):
        return self.profile.alpha(u)

    def beta_jet(self, u, order=3):
        """(beta, beta', beta'', beta''') at ``u`` from one jet of f at alpha(u); beta''' only at ``order`` 3."""
        prof = self.profile
        theta, a = prof.theta, prof.slope
        f0, f1, f2 = eval_warping(self.tape, u * a + prof.c1)  # prof.alpha(u), the slope read once
        third = -theta * a * a * (f0 * f2 - 2.0 * f1 * f1) / (f0 * f0 * f0) if order == 3 else None
        return self.beta(u), theta / f0, -theta * f1 * a / (f0 * f0), third


def _detect_exponential(prof, tape):
    """Return (c3, c5) when f = c3 exp(c5 t) with c5 != 0, else None.

    Probes f and f' (``tape``, f compiled) at 17 points of the profile's t
    range, where (log f)' must be constant.
    """
    u0, u1 = prof.u_range
    t_values = np.linspace(prof.alpha(u0), prof.alpha(u1), 17)
    f0, f1, _ = eval_warping(tape, t_values)
    with np.errstate(divide="ignore", invalid="ignore"):  # a vanishing f is no exponential
        rates = f1 / f0
    c5 = float(rates[0])
    if np.any(np.abs(rates - c5) > 1e-12 * (1.0 + abs(c5))) or not abs(c5) > 1e-12:
        return None
    c3 = float(f0[0] * np.exp(-c5 * float(t_values[0])))
    return c3, c5


def _chebyshev_coefficients(values):
    """Chebyshev coefficients of the interpolant through the values at
    cos(j pi / n), j = n, ..., 0: a type-I cosine transform by one FFT."""
    n = values.size - 1
    samples = values[::-1]
    coef = np.fft.rfft(np.concatenate([samples, samples[-2:0:-1]])).real / n
    coef[0] /= 2.0
    coef[n] /= 2.0
    return coef


def _antiderivative(coef, u0, u1):
    """(terms, off, scl): ``_clenshaw(terms, off + scl * u)`` is the antiderivative, vanishing at u0, of
    the Chebyshev series ``coef`` on [u0, u1], by numpy.polynomial's steps in their order (``mapparms``,
    then ``chebint`` vectorized), so it has the bits of ``Chebyshev(coef, [u0, u1]).integ(lbnd=u0)(u)``."""
    off, scl = (u1 * -1.0 - u0 * 1.0) / (u1 - u0), 2.0 / (u1 - u0)
    c, n = coef * (1.0 / scl), coef.size
    terms = np.concatenate([[c[0] * 0, c[0], c[1] / 4], c[2:] / (2.0 * np.arange(3, n + 1))])
    terms[1 : n - 1] -= c[2:] / (2.0 * np.arange(1, n - 1))
    terms = terms.tolist()
    terms[0] += 0 - _clenshaw(terms, off + scl * u0)
    return terms, off, scl


def _clenshaw(c, x):
    """numpy's ``chebval(x, c)``, the Clenshaw recurrence, over the list of floats ``c``."""
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def _profile_interpolant(prof):
    """Chebyshev coefficients of theta / f(alpha(u)) on the u range, and
    the error estimate (tail magnitude) x (range length) of its integral.

    The degree doubles from ``CHEB_MIN_DEGREE`` until the upper half of
    the coefficients has decayed below ``CHEB_TAIL_DECAY`` of the largest.
    """
    u0, u1 = prof.u_range
    integrand = Tape([BinOp("/", literal(prof.theta), prof.f)])
    degree = CHEB_MIN_DEGREE
    while True:
        u = u0 + 0.5 * (u1 - u0) * (1.0 - np.cos(np.pi * np.arange(degree + 1) / degree))
        try:
            values = integrand.slots({"t": prof.alpha(u)}, 0)[0][0]
        except DomainError as exc:  # renamed in place, so it keeps its index
            exc.args = (f"profile integrand at u={float(u[exc.index])!r}: {exc}",)
            raise
        coef = _chebyshev_coefficients(values)
        tail = float(np.max(np.abs(coef[degree // 2 + 1 :])))
        if tail <= CHEB_TAIL_DECAY * np.max(np.abs(coef)):
            return coef, tail * (u1 - u0)
        if degree >= CHEB_MAX_DEGREE:
            raise QuadratureFailure(
                f"profile integrand not resolved at degree {degree}: tail coefficient {tail!r}"
            )
        degree *= 2


def solve_profile(prof):
    """Solve the constant-angle conditions for the profile curve.

    beta is the pinned antiderivative of theta/f(alpha) plus c2 (see the
    module docstring for the normalization).  The antiderivative of the
    Chebyshev interpolant must meet the bound 1e-10 (1 + |value|); for
    exponential warpings the closed form is used, after checking it
    against that antiderivative at 9 of its 17 probes, to 1e-10 plus the
    interpolant's error estimate.  f is probed at 17 points before the
    interpolant is built.  f is compiled once, for the probe and the curve,
    and the integrand theta/f once, for every degree of the interpolant.
    """
    tape = Tape([prof.f], ("t",))
    exponential = _detect_exponential(prof, tape)
    u0, u1 = prof.u_range
    coef, estimate = _profile_interpolant(prof)
    terms, off, scl = _antiderivative(coef, u0, u1)
    probes = np.linspace(u0, u1, 17)
    values = _clenshaw(terms, off + scl * probes)
    if estimate > 1e-10 * (1.0 + float(np.max(np.abs(values)))):
        raise QuadratureFailure(f"profile integral error estimate {estimate!r}")

    if exponential is not None:
        c3, c5 = exponential
        slope = prof.slope
        scale = -prof.theta / (c3 * c5 * slope)

        def base(u):  # alpha(u) = u * slope + c1 inline, as RotationalProfile.alpha takes it
            return scale * np.exp(-c5 * (u * slope + prof.c1))

        u, got = probes[::2], values[::2]  # linspace(u0, u1, 9), to the bit
        expected = base(u) - base(u0)
        # the interpolant cannot be checked beyond its own error estimate
        bad = np.abs(expected - got) > 1e-10 * (1.0 + np.abs(expected)) + estimate
        flag(bad, lambda i: QuadratureFailure(f"closed form and interpolant disagree at u={float(u[i])!r}: "
                                              f"{float(expected[i])!r} vs {float(got[i])!r}"))
        rate = c5

        def beta(u):
            return base(u) + prof.c2
    else:
        rate = None

        def beta(u):
            return _clenshaw(terms, off + scl * u) + prof.c2

    return ProfileCurve(profile=prof, beta=beta, exponential_rate=rate, tape=tape)


def default_chart(prof):
    """Chart box (u range) x (angle box) for the rotational immersion."""
    names = ("u",) + tuple(f"v{j}" for j in range(1, prof.n))
    upper = (prof.u_range[1],) + (math.pi,) * (prof.n - 2) + (2.0 * math.pi,)
    return ChartBox(names, (prof.u_range[0],) + (0.0,) * (prof.n - 1), upper)


def assemble_rotational(curve, ambient):
    """The rotational immersion of a solved profile into ``ambient``.

    ``ambient`` must be a Euclidean-fiber warped product with the
    profile's warping function and dimension.
    """
    prof = curve.profile
    beta = Profile(curve, Var("u"))
    fiber = [BinOp("*", beta, x_expr) for x_expr in sphere_chart_expressions(prof.n)]
    return Immersion(ambient, default_chart(prof), [prof.alpha_expression(), *fiber])


class ClassificationReport(NamedTuple):
    """Results of the four constant-angle soliton checks.

    The construction is a soliton exactly when sigma is constant, the
    pointwise balance (f'/f)(1 - theta^2) + theta sqrt(1 - theta^2) /
    sigma vanishes, the trace-free Hessian residual vanishes, and f'/f
    is constant along the profile, which forces f(t) = c3 exp(c5 t).
    """

    sigma_constancy: float
    balance_residual: float
    soliton: object
    logf_slope_variation: float
    classified: bool
    immersion: object

    def residuals(self):
        """The three profile residuals by name, in report order."""
        return {key: getattr(self, key) for key in PROFILE_RESIDUALS}

    def to_dict(self):
        soliton = self.soliton.to_dict()
        return {"classified": self.classified, **self.residuals(), "soliton": soliton}


def classification_grid(prof, u_count=CLASSIFICATION_U_COUNT):
    """Chart points on which a rotational surface is classified.

    ``u_count`` values of u, 5 values of every polar angle and
    ``AZIMUTH_SAMPLES`` of the last angle; a grid of more than
    ``MAX_GRID_POINTS`` points is refused (ValueError) before it is built.
    """
    counts = {"u": u_count}
    margins = {"u": 0.05}
    for j in range(1, prof.n):
        polar = j < prof.n - 1
        counts[f"v{j}"] = 5 if polar else AZIMUTH_SAMPLES
        margins[f"v{j}"] = _POLAR_MARGIN / math.pi if polar else 0.05
    return default_chart(prof).grid(counts, margins)


def verify_classification(prof, interval=(-math.inf, math.inf), u_count=CLASSIFICATION_U_COUNT):
    """Build the rotational surface of ``prof`` and classify it, in a scene's order.

    The classification grid is built first, so an oversized ``u_count``
    is refused (ValueError) before any profile work; then the ambient,
    whose probe of f over the interval runs before :func:`solve_profile`
    probes f along the profile; the profile residuals run before the one
    geometry pass over the grid.  An f undefined or not positive on an
    interval that ``interval_fault`` accepts is bad input, not a failing
    point: a ValueError naming ``--f``, the flag of ``warpgeo rotational``,
    as a scene names ``ambient.f``.
    """
    grid = classification_grid(prof, u_count)
    try:
        ambient = WarpedProduct(interval, prof.f, Fiber.EUCLIDEAN, prof.n)
    except (DomainError, ValueError) as exc:
        if interval_fault(interval):  # the interval's fault, not f's
            raise
        raise ValueError(f"--f: {exc}") from None
    curve = solve_profile(prof)
    imm = assemble_rotational(curve, ambient)
    residuals = profile_residuals(curve, u_count)
    return classify_rotational(imm, grid_geometry(imm, grid), residuals)


def profile_residuals(curve, u_count=CLASSIFICATION_U_COUNT):
    """(sigma constancy, balance residual, log-slope variation) along the profile.

    sigma is sampled at ``max(u_count, 16)`` values of u; sigma, its exact
    derivative d sigma / du = f'(alpha) alpha' beta + theta (as
    f(alpha) beta' = theta) and the slopes f'/f come from one jet of f
    and one evaluation of beta.  A sigma that vanishes is a SigmaZero
    naming u.
    """
    prof = curve.profile
    a = prof.slope
    u = default_chart(prof).axis_points("u", max(u_count, 16), 0.05)
    f0, f1, _ = eval_warping(curve.tape, u * a + prof.c1)  # prof.alpha(u), the slope read once
    beta = curve.beta(u)
    sigma = f0 * beta
    slopes = f1 / f0
    d_sigma = f1 * a * beta + prof.theta
    sigma_sup = float(np.max(np.abs(d_sigma), initial=0.0))
    flag(np.abs(sigma) < 1e-12, lambda i: SigmaZero(f"sigma vanishes at u={float(u[i])!r}"))
    balance = slopes * (1.0 - prof.theta**2) + prof.theta * a / sigma
    balance_sup = float(np.max(np.abs(balance), initial=0.0))
    return sigma_sup, balance_sup, float(np.max(slopes) - np.min(slopes))


def classify_rotational(imm, geometry, residuals):
    """Decide whether a rotational surface is a soliton from the four checks.

    ``geometry`` is the :class:`PointGeometry` record of the surface
    ``imm`` over its classification grid (see :func:`classification_grid`);
    ``residuals`` are the :func:`profile_residuals` of its profile.
    """
    report = soliton_report(geometry)
    classified = all(r < SOLITON_TOL for r in residuals) and report.verdict is Verdict.SOLITON
    return ClassificationReport(
        **dict(zip(PROFILE_RESIDUALS, residuals)),
        soliton=report,
        classified=classified,
        immersion=imm,
    )
