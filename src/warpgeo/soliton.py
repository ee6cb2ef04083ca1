"""Soliton structure of an immersed hypersurface with height potential.

A metric g with potential h satisfies the gradient soliton equation when
Hess h = (scal - lambda) g for some function lambda.  Because the trace
determines lambda = scal - (Lap h)/n, the equation holds at a point
exactly when the trace-free part of Hess h vanishes there; the residual
reported here is the g-operator norm of that trace-free part.

Two Hessian routes ship: the direct definition through induced
Christoffel symbols, and the warped-product identity

    Hess h = (f'/f)(h) [g - dh (x) dh] + theta * g A

which holds for every immersion, soliton or not, and is used as a
universal cross-check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryTooClose, GridTooCoarse
from .intrinsic import laplacian_height, point_geometry

SOLITON_TOL = 1e-7  # jet-exact derivative paths
FD_TOL = 1e-4  # any quantity involving finite differences
CLASS_TOL = 1e-8  # absolute thresholds on lambda and |grad h|
_MARGIN_TOL = 1e-9  # slack for inequality checks that hold with equality


class Verdict(enum.Enum):
    SOLITON = "soliton"
    NOT_SOLITON = "not_soliton"


class SolitonClass(enum.Enum):
    TRIVIAL = "trivial"
    EXPANDING = "expanding"
    STEADY = "steady"
    SHRINKING = "shrinking"
    SIGN_CHANGING = "sign_changing"


def hessian_height_paths(imm, p):
    """Both Hessian routes at a point, (identity, direct)."""
    geo = point_geometry(imm, p)
    return geo.hess_identity, geo.hess_direct


def hessian_height(imm, p):
    """Hessian of h via induced Christoffel symbols (exact jets)."""
    return point_geometry(imm, p).hess_direct


def soliton_lambda(imm, p):
    """Trace-derived soliton function lambda = scal - (Lap h)/n."""
    return point_geometry(imm, p).lam


def classify(lambda_samples, gradh_sup):
    """Classification from lambda samples and sup |grad h| over a grid."""
    if gradh_sup < CLASS_TOL:
        return SolitonClass.TRIVIAL
    lams = np.asarray(lambda_samples, dtype=float)
    if np.max(np.abs(lams)) < CLASS_TOL:
        return SolitonClass.STEADY
    if np.all(lams < -CLASS_TOL):
        return SolitonClass.EXPANDING
    if np.all(lams > CLASS_TOL):
        return SolitonClass.SHRINKING
    return SolitonClass.SIGN_CHANGING


@dataclass
class SolitonReport:
    """Grid-wise soliton verification results."""

    grid: tuple
    residual_sup: float
    worst_point: tuple
    lambda_samples: np.ndarray
    gradh_sup: float
    verdict: Verdict
    classification: SolitonClass
    identity_checks: dict = field(default_factory=dict)

    @property
    def lambda_min(self):
        return float(np.min(self.lambda_samples))

    @property
    def lambda_max(self):
        return float(np.max(self.lambda_samples))

    def to_dict(self):
        return {
            "verdict": self.verdict.value,
            "classification": self.classification.value,
            "residual_sup": self.residual_sup,
            "worst_point": list(self.worst_point),
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "identity_checks": dict(sorted(self.identity_checks.items())),
        }


def soliton_residual(imm, grid):
    """Evaluate the soliton condition over a grid of chart points."""
    return soliton_report([point_geometry(imm, p) for p in grid])


def soliton_report(geometry):
    """Soliton verdict over a list of :class:`PointGeometry` records.

    The verdict is SOLITON when the sup of the trace-free residual stays
    below ``SOLITON_TOL``.  Lambda samples are always populated; for a
    NOT_SOLITON verdict they are advisory only.  The universal Hessian
    identity error is recorded under ``identity_checks['lemma_hessian']``.
    """
    residual_sup = -1.0
    worst = geometry[0].point
    lams = np.zeros(len(geometry))
    gradh_sup = 0.0
    identity_sup = 0.0
    for idx, geo in enumerate(geometry):
        if geo.residual > residual_sup:
            residual_sup = geo.residual
            worst = geo.point
        lams[idx] = geo.lam
        gradh_sup = max(gradh_sup, math.sqrt(max(geo.shape.grad_h_norm2, 0.0)))
        identity_sup = max(
            identity_sup, float(np.max(np.abs(geo.hess_identity - geo.hess_direct)))
        )
    verdict = Verdict.SOLITON if residual_sup < SOLITON_TOL else Verdict.NOT_SOLITON
    return SolitonReport(
        grid=tuple(geo.point for geo in geometry),
        residual_sup=residual_sup,
        worst_point=worst,
        lambda_samples=lams,
        gradh_sup=gradh_sup,
        verdict=verdict,
        classification=classify(lams, gradh_sup),
        identity_checks={"lemma_hessian": identity_sup},
    )


@dataclass
class StructuralReport:
    sup_error: float
    worst_point: tuple


def _check_stencil(imm, points, step):
    if step > 1e-2:
        raise GridTooCoarse(f"finite-difference step {step!r} exceeds 1e-2")
    for p in points:
        for v, lo, hi in zip(p, imm.chart.lower, imm.chart.upper):
            if v - lo < 2.0 * step or hi - v < 2.0 * step:
                raise BoundaryTooClose(
                    f"stencil at {tuple(map(float, p))!r} would leave the chart box"
                )


def structural_identity(imm, points, step=1e-3):
    """Sup-error of Ric(grad h) + (n-1) grad(scal - lambda) over points."""
    _check_stencil(imm, points, step)
    return structural_report(imm, [point_geometry(imm, p) for p in points], step)


def structural_report(imm, geometry, step=1e-3):
    """Structural identity over a list of :class:`PointGeometry` records.

    The gradient of scal - lambda = (Lap h)/n is taken by central
    differences with the given step (meaningful only when the soliton
    verdict holds, so that lambda is the soliton function); stencil
    points evaluate Lap h alone.  Raises GridTooCoarse for steps above
    1e-2 and BoundaryTooClose when a stencil would leave the chart box.
    """
    _check_stencil(imm, [geo.point for geo in geometry], step)
    n = imm.n
    sup_error = 0.0
    worst = None

    def scal_minus_lambda(q):
        return laplacian_height(imm, q) / n

    for geo in geometry:
        p = geo.point
        grad_s = np.zeros(n)
        for k in range(n):
            plus = list(p)
            minus = list(p)
            plus[k] += step
            minus[k] -= step
            grad_s[k] = (scal_minus_lambda(tuple(plus)) - scal_minus_lambda(tuple(minus))) / (
                2.0 * step
            )
        # both terms as covectors; norm taken with the inverse metric
        omega = geo.ric @ geo.shape.grad_h + (n - 1) * grad_s
        err = math.sqrt(
            max(float(omega @ np.linalg.solve(geo.shape.metric, omega)), 0.0)
        )
        if err > sup_error:
            sup_error = err
            worst = p
    return StructuralReport(sup_error=sup_error, worst_point=worst)


THEOREMS = ("theorem1", "theorem3", "theorem4a", "theorem4b", "theorem5")


@dataclass
class HypothesisReport:
    """Pointwise margins of one theorem hypothesis over a grid.

    For inequality checks ``worst_margin`` is the most violated slack
    (nonnegative margins mean the condition holds); for the identity
    check of theorem3 ``sup_error`` carries the equation error instead.
    """

    name: str
    status: str  # "pass" | "fail" | "not_applicable"
    worst_margin: float | None
    worst_point: tuple | None
    sup_error: float | None = None
    details: dict = field(default_factory=dict)


def _ratio_or_limit(lf1, theta):
    """|theta|^{-1} (log f)'(h) with the 0/0 limit taken as 0."""
    if lf1 == 0.0:
        return 0.0
    if theta == 0.0:
        return math.inf if lf1 > 0.0 else -math.inf
    return lf1 / abs(theta)


def _theorem1_margins(n, geometry, flipped):
    """Worst margins of the two hypothesis conditions over the grid.

    Condition 1: f''(h)/f(h) <= (n+1)/n^2 H^2.
    Condition 2: 0 <= |theta|^{-1} (log f)'(h) <= H.
    """
    curvature_worst = math.inf
    angle_worst = math.inf
    worst = math.inf
    worst_point = None
    for geo in geometry:
        sd = geo.shape
        theta = -sd.theta if flipped else sd.theta
        H = -sd.mean_curvature if flipped else sd.mean_curvature
        f0, f1, f2 = geo.warping
        m1 = (n + 1) / (n * n) * H * H - f2 / f0
        q = _ratio_or_limit(f1 / f0, theta)
        if math.isfinite(q):
            m2 = min(q, H - q)
        else:
            m2 = -math.inf
        curvature_worst = min(curvature_worst, m1)
        angle_worst = min(angle_worst, m2)
        margin = min(m1, m2)
        if margin < worst:
            worst = margin
            worst_point = geo.point
    return worst, worst_point, curvature_worst, angle_worst


def check_hypotheses(imm, grid, which):
    """Evaluate one theorem hypothesis pointwise over a grid."""
    which = str(which).lower()
    if which not in THEOREMS:
        raise ValueError(f"unknown hypothesis check {which!r}")
    return hypotheses_report(imm, [point_geometry(imm, p) for p in grid], which)


def hypotheses_report(imm, geometry, which):
    """One theorem hypothesis over a list of :class:`PointGeometry` records.

    ``which`` is one of ``THEOREMS``.  theorem1 evaluates both
    orientations and passes when either one satisfies the inequalities
    everywhere (the orientation making H nonnegative is not canonical).
    theorem3 requires a minimal immersion and otherwise reports
    not_applicable.  theorem5 needs the ambient to be a space form; its
    curvature c is fitted from the warping function.
    """
    n = imm.n

    if which == "theorem1":
        default = _theorem1_margins(n, geometry, flipped=False)
        flipped = _theorem1_margins(n, geometry, flipped=True)
        best = max(default, flipped, key=lambda row: row[0])
        status = "pass" if best[0] >= -_MARGIN_TOL else "fail"
        return HypothesisReport(
            name=which,
            status=status,
            worst_margin=best[0],
            worst_point=best[1],
            details={
                "as_oriented": {
                    "margin": default[0],
                    "curvature_margin": default[2],
                    "angle_margin": default[3],
                },
                "flipped": {
                    "margin": flipped[0],
                    "curvature_margin": flipped[2],
                    "angle_margin": flipped[3],
                },
            },
        )

    if which == "theorem3":
        sup_H = max(abs(geo.shape.mean_curvature) for geo in geometry)
        if sup_H >= CLASS_TOL:
            return HypothesisReport(
                name=which,
                status="not_applicable",
                worst_margin=None,
                worst_point=None,
                details={"sup_mean_curvature": sup_H},
            )
        sup_err = 0.0
        worst_point = None
        for geo in geometry:
            f0, f1, _ = geo.warping
            rhs = (f1 / f0) * (n - 1 + geo.shape.theta * geo.shape.theta)
            err = abs(n * (geo.scal_gauss - geo.lam) - rhs)
            if err > sup_err:
                sup_err = err
                worst_point = geo.point
        status = "pass" if sup_err < SOLITON_TOL else "fail"
        return HypothesisReport(
            name=which,
            status=status,
            worst_margin=None,
            worst_point=worst_point,
            sup_error=sup_err,
        )

    if which == "theorem5":
        window = imm.ambient.probe_window()
        probes = np.linspace(window[0], window[1], 64)
        f2_over_f = [
            imm.ambient.warping_jet(t)[2] / imm.ambient.warping_jet(t)[0]
            for t in probes
        ]
        c = -float(np.mean(f2_over_f)) + 0.0  # normalizes -0.0
        fit = imm.ambient.check_space_form(c, probes)
        if fit.ratio_residual > 1e-8 or fit.second_residual > 1e-8:
            return HypothesisReport(
                name=which,
                status="not_applicable",
                worst_margin=None,
                worst_point=None,
                details={"reason": "ambient is not a space form"},
            )
    worst = math.inf
    worst_point = None
    failing = 0
    for geo in geometry:
        H = geo.shape.mean_curvature
        f0, _, f2 = geo.warping
        if which == "theorem4a":
            bound = -n * (n - 1) * f2 / f0 + n * n * H * H
        elif which == "theorem4b":
            bound = n * (n - 1) * (H * H - f2 / f0)
        else:  # theorem5
            bound = (n - 1) * c + n * H * H
        margin = geo.lam - bound
        failing += margin < -_MARGIN_TOL
        if margin < worst:
            worst = margin
            worst_point = geo.point
    status = "pass" if worst >= -_MARGIN_TOL else "fail"
    details = {}
    if which == "theorem5":
        details["c"] = c
        details["failing_points"] = failing
    return HypothesisReport(
        name=which,
        status=status,
        worst_margin=worst,
        worst_point=worst_point,
        details=details,
    )
