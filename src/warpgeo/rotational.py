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
Trefethen, SIAM J. Sci. Comput. 25, 2004).  The derivatives of beta
need no interpolant: with a = sqrt(1 - theta^2), beta' = theta / f,
beta'' = -theta a f' / f^2 and beta''' = -theta a^2 (f f'' - 2 f'^2) / f^3
come from one jet of f at alpha(u).  The surface is the orbit of the
profile under rotation of the fiber about the axis, with first
fundamental form diag(1, sigma^2 x sphere-chart weights) where sigma(u)
= f(alpha(u)) beta(u), so d sigma / du = f'(alpha) a beta + theta
exactly; its n fiber coordinates are one block, beta times the sphere
chart, so a batch of chart points evaluates beta and the jet of f once
for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev

from .ambient import Fiber, WarpedProduct, eval_warping
from .errors import DomainError, QuadratureFailure, SigmaZero
from .expr import BinOp, Call, Var, literal
from .hypersurface import CallableComponent, ChartBox, ExpressionComponent, Immersion
from .jets import Jet2, as_expression, eval_jet2, first_index
from .soliton import SOLITON_TOL, Verdict, soliton_residual

CHEB_MIN_DEGREE = 16  # first degree of the profile interpolant
CHEB_MAX_DEGREE = 4096  # degree cap; an integrand unresolved there fails
CHEB_TAIL_DECAY = 1e-13  # resolved: upper-half coefficients below this times the largest
_POLAR_MARGIN = 0.2  # keeps grids away from sphere-chart poles for n >= 3
AZIMUTH_SAMPLES = 9  # classification grid points along the last angle
CLASSIFICATION_U_COUNT = 9  # classification grid points along u


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


@dataclass(frozen=True)
class RotationalProfile:
    """Data of a constant-angle rotational profile.

    ``theta`` must lie strictly in (0, 1); the endpoints are degenerate.
    """

    theta: float
    f: object
    n: int
    c1: float = 0.0
    c2: float = 0.0
    u_range: tuple = (-1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "f", as_expression(self.f))
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta={self.theta!r} must lie strictly in (0, 1)")
        if self.n < 2:
            raise ValueError("rotational hypersurfaces need n >= 2")
        u0, u1 = self.u_range
        if not u0 < u1:
            raise ValueError(f"empty u range {self.u_range!r}")

    @property
    def slope(self):
        return math.sqrt(1.0 - self.theta * self.theta)

    def alpha(self, u):
        return u * self.slope + self.c1

    def alpha_expression(self):
        return BinOp("+", BinOp("*", Var("u"), literal(self.slope)), literal(self.c1))


@dataclass(frozen=True)
class ProfileCurve:
    """Solved profile: the callable beta, and alpha and the jet of beta
    derived from it.

    Each takes a float or an array of u values.
    """

    profile: RotationalProfile
    beta: object
    exponential_rate: float | None  # c5 when f = c3 exp(c5 t), else None

    def alpha(self, u):
        return self.profile.alpha(u)

    def beta_jet(self, u):
        """(beta, beta', beta'', beta''') at ``u`` from one jet of f at alpha(u)."""
        prof = self.profile
        jet = eval_jet2(prof.f, {"t": prof.alpha(u)}, ("t",))
        f0, f1, f2 = jet.value, jet.grad[..., 0], jet.hess[..., 0, 0]
        theta, a = prof.theta, prof.slope
        third = -theta * a * a * (f0 * f2 - 2.0 * f1 * f1) / (f0 * f0 * f0)
        return self.beta(u), theta / f0, -theta * f1 * a / (f0 * f0), third


def _detect_exponential(prof):
    """Return (c3, c5) when f = c3 exp(c5 t) with c5 != 0, else None.

    Probes f and f' at 17 points of the profile's t range, where (log f)'
    must be constant.
    """
    u0, u1 = prof.u_range
    t_values = np.linspace(prof.alpha(u0), prof.alpha(u1), 17)
    jet = eval_warping(prof.f, t_values, ("t",))
    with np.errstate(divide="ignore", invalid="ignore"):  # a vanishing f is no exponential
        rates = jet.grad[:, 0] / jet.value
    c5 = float(rates[0])
    if np.any(np.abs(rates - c5) > 1e-12 * (1.0 + abs(c5))) or not abs(c5) > 1e-12:
        return None
    c3 = float(jet.value[0] * np.exp(-c5 * float(t_values[0])))
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


def _profile_interpolant(prof):
    """Chebyshev interpolant of theta / f(alpha(u)) on the u range, and
    the error estimate (tail magnitude) x (range length) of its integral.

    The degree doubles from ``CHEB_MIN_DEGREE`` until the upper half of
    the coefficients has decayed below ``CHEB_TAIL_DECAY`` of the largest.
    """
    u0, u1 = prof.u_range
    integrand = BinOp("/", literal(prof.theta), prof.f)
    degree = CHEB_MIN_DEGREE
    while True:
        u = u0 + 0.5 * (u1 - u0) * (1.0 - np.cos(np.pi * np.arange(degree + 1) / degree))
        try:
            values = eval_jet2(integrand, {"t": prof.alpha(u)}).value
        except DomainError as exc:
            raise DomainError(
                f"profile integrand at u={float(u[exc.index])!r}: {exc}", exc.expression
            ) from None
        coef = _chebyshev_coefficients(values)
        tail = float(np.max(np.abs(coef[degree // 2 + 1 :])))
        if tail <= CHEB_TAIL_DECAY * np.max(np.abs(coef)):
            return Chebyshev(coef, domain=[u0, u1]), tail * (u1 - u0)
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
    against that antiderivative at 9 points, to 1e-10 plus the
    interpolant's error estimate.  f is probed at 17 points before the
    interpolant is built.
    """
    return _solve(prof, _detect_exponential(prof))


def _solve(prof, exponential):
    theta = prof.theta
    slope = prof.slope
    u0, u1 = prof.u_range
    alpha = prof.alpha

    interpolant, estimate = _profile_interpolant(prof)
    integral = interpolant.integ(lbnd=u0)
    value = float(np.max(np.abs(integral(np.linspace(u0, u1, 17)))))
    if estimate > 1e-10 * (1.0 + value):
        raise QuadratureFailure(f"profile integral error estimate {estimate!r}")

    if exponential is not None:
        c3, c5 = exponential

        def base(u):
            return -theta / (c3 * c5 * slope) * np.exp(-c5 * alpha(u))

        for u in np.linspace(u0, u1, 9):
            expected = base(u) - base(u0)
            got = integral(u)
            # the interpolant cannot be checked beyond its own error estimate
            if abs(expected - got) > 1e-10 * (1.0 + abs(expected)) + estimate:
                raise QuadratureFailure(
                    f"closed form and interpolant disagree at u={u!r}: "
                    f"{expected!r} vs {got!r}"
                )
        rate = c5
    else:
        base = integral
        rate = None

    def beta(u):
        return base(u) + prof.c2

    return ProfileCurve(profile=prof, beta=beta, exponential_rate=rate)


def _profile_jet(curve, values, active, order):
    """Jet of beta(u) of ``order`` in the chart's active variables, at every point."""
    u = np.asarray(values["u"], dtype=float)
    slots = [np.zeros(u.shape + (len(active),) * r) for r in range(1, order + 1)]
    if "u" not in active:
        return Jet2(curve.beta(u), *slots)
    beta, *derivatives = curve.beta_jet(u)
    for r, (slot, value) in enumerate(zip(slots, derivatives), start=1):
        slot[(...,) + (active.index("u"),) * r] = value
    return Jet2(beta, *slots)


def default_chart(prof):
    """Chart box (u range) x (angle box) for the rotational immersion."""
    names = ("u",) + tuple(f"v{j}" for j in range(1, prof.n))
    lower = [prof.u_range[0]]
    upper = [prof.u_range[1]]
    for j in range(1, prof.n - 1):
        lower.append(0.0)
        upper.append(math.pi)
    lower.append(0.0)
    upper.append(2.0 * math.pi)
    return ChartBox(tuple(names), tuple(lower), tuple(upper))


def build_rotational(prof, curve=None, interval=(-math.inf, math.inf)):
    """Assemble the rotational immersion for a solved profile.

    The ambient is ``interval x_f R^n`` with the profile's warping
    function; pass a finite interval when f is positive only there.
    """
    if curve is None:
        curve = solve_profile(prof)
    ambient = WarpedProduct(interval, prof.f, Fiber.EUCLIDEAN, prof.n)
    return assemble_rotational(curve, ambient)


def assemble_rotational(curve, ambient):
    """The rotational immersion of a solved profile into ``ambient``.

    ``ambient`` must be a Euclidean-fiber warped product with the
    profile's warping function and dimension.
    """
    prof = curve.profile
    sphere = sphere_chart_expressions(prof.n)

    def fiber(values, active, order):
        beta = _profile_jet(curve, values, active, order)
        return [beta * eval_jet2(x_expr, values, active, order) for x_expr in sphere]

    components = [ExpressionComponent(prof.alpha_expression()), CallableComponent(fiber, prof.n)]
    return Immersion(ambient, default_chart(prof), components)


def weingarten_closed_form(prof, curve, u):
    """Principal curvatures (kappa_u, kappa_v) of the rotational surface.

    kappa_u belongs to the profile direction, kappa_v to each rotation
    direction (multiplicity n-1); the formulas divide by the signed
    radius sigma, so a vanishing sigma is an error rather than a branch.
    """
    u = float(u)
    jet = eval_jet2(prof.f, {"t": curve.alpha(u)}, ("t",))
    lf1 = jet.grad[0] / jet.value
    sigma = jet.value * curve.beta(u)
    if abs(sigma) < 1e-12:
        raise SigmaZero(f"sigma(u)={sigma!r} vanishes at u={u!r}")
    kappa_u = -lf1 * prof.theta
    kappa_v = prof.slope / sigma - lf1 * prof.theta
    return kappa_u, kappa_v


@dataclass
class ClassificationReport:
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

    def to_dict(self):
        return {
            "classified": self.classified,
            "sigma_constancy": self.sigma_constancy,
            "balance_residual": self.balance_residual,
            "logf_slope_variation": self.logf_slope_variation,
            "soliton": self.soliton.to_dict(),
        }


def classification_grid(prof, u_count=CLASSIFICATION_U_COUNT):
    """Chart points on which a rotational surface is classified.

    ``u_count`` values of u, 5 values of every polar angle and
    ``AZIMUTH_SAMPLES`` of the last angle; a grid of more than
    ``MAX_GRID_POINTS`` points is refused (ValueError) before it is built.
    """
    counts = {"u": u_count}
    margins = {"u": 0.05}
    for j in range(1, prof.n):
        name = f"v{j}"
        counts[name] = AZIMUTH_SAMPLES if j == prof.n - 1 else 5
        if j < prof.n - 1:
            margins[name] = _POLAR_MARGIN / math.pi
        else:
            margins[name] = 0.05
    return default_chart(prof).grid(counts, margins)


def verify_classification(prof, interval=(-math.inf, math.inf), u_count=CLASSIFICATION_U_COUNT):
    """Build the rotational surface of ``prof`` and classify it.

    The classification grid is built first, so an oversized ``u_count``
    is refused (ValueError) before any profile work.  The cheap probes
    of f, on the profile and then on the interval, run before the
    interpolant, so they are the ones to report a bad warping.
    """
    grid = classification_grid(prof, u_count)
    exponential = _detect_exponential(prof)
    ambient = WarpedProduct(interval, prof.f, Fiber.EUCLIDEAN, prof.n)
    curve = _solve(prof, exponential)
    return classify_rotational(curve, assemble_rotational(curve, ambient), grid, u_count)


def classify_rotational(curve, imm, grid, u_count=CLASSIFICATION_U_COUNT):
    """Run the four checks deciding whether a rotational surface is a soliton.

    ``imm`` is the surface of the solved profile ``curve`` and ``grid``
    its classification grid for ``u_count`` (see
    :func:`classification_grid`); sigma is sampled at
    ``max(u_count, 16)`` values of u; sigma, its exact derivative
    d sigma / du = f'(alpha) alpha' beta + theta (as f(alpha) beta' = theta)
    and the slopes f'/f come from one jet of f and one evaluation of beta.
    """
    prof = curve.profile
    u = imm.chart.axis_points("u", max(u_count, 16), 0.05)
    jet = eval_jet2(prof.f, {"t": curve.alpha(u)}, ("t",))
    beta = curve.beta(u)
    sigma = jet.value * beta
    slopes = jet.grad[:, 0] / jet.value
    d_sigma = jet.grad[:, 0] * prof.slope * beta + prof.theta
    sigma_sup = float(np.max(np.abs(d_sigma), initial=0.0))
    vanishing = first_index(np.abs(sigma) < 1e-12)
    if vanishing is not None:
        raise SigmaZero(f"sigma vanishes at u={float(u[vanishing])!r}")
    balance = slopes * (1.0 - prof.theta**2) + prof.theta * prof.slope / sigma
    balance_sup = float(np.max(np.abs(balance), initial=0.0))
    slope_variation = float(np.max(slopes) - np.min(slopes))

    report = soliton_residual(imm, grid)
    classified = bool(
        sigma_sup < SOLITON_TOL
        and balance_sup < SOLITON_TOL
        and report.verdict is Verdict.SOLITON
        and slope_variation < SOLITON_TOL
    )
    return ClassificationReport(
        sigma_constancy=float(sigma_sup),
        balance_residual=float(balance_sup),
        soliton=report,
        logf_slope_variation=float(slope_variation),
        classified=classified,
        immersion=imm,
    )
