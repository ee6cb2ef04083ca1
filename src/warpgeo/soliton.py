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
universal cross-check.  The structural identity Ric(grad h) + (n-1)
grad(scal - lambda) = 0 takes grad(Lap h) exactly from third jets.

Every check is a numpy reduction over the batched geometry record of a
grid; ties go to the first point in grid order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .intrinsic import grid_geometry
from .jets import first_index

SOLITON_TOL = 1e-7  # jet-exact derivative paths
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


def first_extreme(values, start=0.0, lowest=False):
    """(value, index) of the first extreme entry strictly beyond ``start``.

    NaN entries never win; when no entry passes ``start`` the result is
    ``(start, None)``.  This is the scan "keep the first strictly larger
    (or smaller) value" over the points in grid order.
    """
    v = np.asarray(values, dtype=float)
    v = np.where(np.isnan(v), np.inf if lowest else -np.inf, v)
    if not v.size:
        return start, None
    best = np.min(v) if lowest else np.max(v)
    if best < start if lowest else best > start:
        i = first_index(v == best)
        return float(v[i]), i
    return start, None


def soliton_residual(imm, grid):
    """Evaluate the soliton condition over a grid of chart points."""
    return soliton_report(grid_geometry(imm, grid))


def soliton_report(geometry):
    """Soliton verdict over the :class:`PointGeometry` record of a grid.

    The verdict is SOLITON when the sup of the trace-free residual stays
    below ``SOLITON_TOL``.  Lambda samples are always populated; for a
    NOT_SOLITON verdict they are advisory only.  The universal Hessian
    identity error is recorded under ``identity_checks['lemma_hessian']``.
    """
    residual_sup, worst = first_extreme(geometry.residual, start=-1.0)
    lams = np.array(geometry.lam, dtype=float)
    gradh_sup, _ = first_extreme(np.sqrt(np.maximum(geometry.shape.grad_h_norm2, 0.0)))
    identity_sup, _ = first_extreme(
        np.max(np.abs(geometry.hess_identity - geometry.hess_direct), axis=(-2, -1))
    )
    verdict = Verdict.SOLITON if residual_sup < SOLITON_TOL else Verdict.NOT_SOLITON
    return SolitonReport(
        grid=geometry.points,
        residual_sup=residual_sup,
        worst_point=geometry.chart_point(worst or 0),
        lambda_samples=lams,
        gradh_sup=gradh_sup,
        verdict=verdict,
        classification=classify(lams, gradh_sup),
        identity_checks={"lemma_hessian": identity_sup},
    )


@dataclass
class CheckResult:
    """Outcome of one check, as it enters a scene report.

    For inequality checks ``worst_value`` is the most violated slack
    (nonnegative margins mean the condition holds); for identity checks
    ``sup_error`` carries the error and ``worst_value`` stays None.
    ``to_dict`` writes a set ``worst_value`` once more as the last extra,
    ``worst_margin``.
    """

    name: str
    status: str  # "pass" | "fail" | "not_applicable"
    sup_error: float | None = None
    worst_point: tuple | None = None
    worst_value: float | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self, chart_names):
        out = {"name": self.name, "status": self.status}
        if self.sup_error is not None:
            out["sup_error"] = self.sup_error
        if self.worst_point is not None:
            value = self.worst_value if self.worst_value is not None else self.sup_error
            out["worst"] = {
                "point": dict(zip(chart_names, self.worst_point)),
                "value": value,
            }
        extras = dict(self.extras)
        if self.worst_value is not None:
            extras["worst_margin"] = self.worst_value
        if extras:
            out["extras"] = extras
        return out


def structural_report(imm, geometry):
    """Structural identity over the :class:`PointGeometry` record of a grid.

    The gradient of scal - lambda = (Lap h)/n is the exact
    ``lap_gradient`` of a record of order 3; a record of order 2 is built
    again at order 3.  It is meaningful only when the soliton verdict
    holds, so that lambda is the soliton function.  The check passes when
    the sup error stays below ``SOLITON_TOL``; a gradient that is not
    finite is a DomainError.
    """
    if geometry.lap_gradient is None:
        geometry = grid_geometry(imm, geometry.shape.chart, order=3)
    bad = first_index(~np.isfinite(geometry.lap_gradient).all(axis=-1))
    if bad is not None:
        p = imm.bindings(geometry.shape.chart[bad])
        raise DomainError(f"gradient of Lap h not finite (at chart point {p!r})", index=bad)
    n = imm.n
    grad_s = geometry.lap_gradient / n
    # both terms as covectors; norm taken with the inverse metric
    omega = (geometry.ric @ geometry.shape.grad_h[..., None])[..., 0] + (n - 1) * grad_s
    dual = (geometry.shape.metric_inverse @ omega[..., None])[..., 0]
    err = np.sqrt(np.maximum(np.sum(omega * dual, axis=-1), 0.0))
    sup_error, worst = first_extreme(err)
    status = "pass" if sup_error < SOLITON_TOL else "fail"
    return CheckResult(
        "structural", status, sup_error=sup_error, worst_point=geometry.chart_point(worst)
    )


THEOREMS = ("theorem1", "theorem3", "theorem4a", "theorem4b", "theorem5")


def _ratio_or_limit(lf1, theta):
    """|theta|^{-1} (log f)'(h) with the 0/0 limit taken as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lf1 / np.abs(theta)
    limit = np.where(lf1 > 0.0, math.inf, -math.inf)
    return np.where(lf1 == 0.0, 0.0, np.where(theta == 0.0, limit, ratio))


def _theorem1_margins(n, geometry, flipped):
    """Worst margins of the two hypothesis conditions over the grid.

    Condition 1: f''(h)/f(h) <= (n+1)/n^2 H^2.
    Condition 2: 0 <= |theta|^{-1} (log f)'(h) <= H.
    """
    sd = geometry.shape
    theta = -sd.theta if flipped else sd.theta
    H = -sd.mean_curvature if flipped else sd.mean_curvature
    f0, f1, f2 = geometry.warping
    m1 = (n + 1) / (n * n) * H * H - f2 / f0
    q = _ratio_or_limit(f1 / f0, theta)
    m2 = np.where(np.isfinite(q), np.minimum(q, H - q), -math.inf)
    curvature_worst, _ = first_extreme(m1, math.inf, lowest=True)
    angle_worst, _ = first_extreme(m2, math.inf, lowest=True)
    worst, i = first_extreme(np.minimum(m1, m2), math.inf, lowest=True)
    worst_point = geometry.chart_point(i)
    return worst, worst_point, curvature_worst, angle_worst


def hypotheses_report(imm, geometry, which):
    """One theorem hypothesis over the :class:`PointGeometry` record of a grid.

    ``which`` is one of ``THEOREMS``.  theorem1 evaluates both
    orientations and passes when either one satisfies the inequalities
    everywhere (the orientation making H nonnegative is not canonical).
    theorem3 requires a minimal immersion and otherwise reports
    not_applicable.  theorem5 needs the ambient to be a space form; its
    curvature c is fitted from the warping function on 64 probe heights,
    from the same jet of f as the residuals of the fit.  The result is the
    :class:`CheckResult` named ``which``.
    """
    n = imm.n

    if which == "theorem1":
        default = _theorem1_margins(n, geometry, flipped=False)
        flipped = _theorem1_margins(n, geometry, flipped=True)
        best = max(default, flipped, key=lambda row: row[0])
        status = "pass" if best[0] >= -_MARGIN_TOL else "fail"
        extras = {
            name: {"margin": row[0], "curvature_margin": row[2], "angle_margin": row[3]}
            for name, row in (("as_oriented", default), ("flipped", flipped))
        }
        return CheckResult(which, status, worst_point=best[1], worst_value=best[0], extras=extras)

    sd = geometry.shape
    H = sd.mean_curvature
    f0, f1, f2 = geometry.warping

    if which == "theorem3":
        sup_H = float(np.max(np.abs(H)))
        if sup_H >= CLASS_TOL:
            return CheckResult(
                which, "not_applicable", extras={"sup_mean_curvature": sup_H}
            )
        rhs = (f1 / f0) * (n - 1 + sd.theta * sd.theta)
        sup_err, i = first_extreme(np.abs(n * (geometry.scal_gauss - geometry.lam) - rhs))
        status = "pass" if sup_err < SOLITON_TOL else "fail"
        return CheckResult(
            which, status, sup_error=sup_err, worst_point=geometry.chart_point(i)
        )

    if which == "theorem5":
        window = imm.ambient.probe_window()
        fit = imm.ambient.check_space_form(None, np.linspace(window[0], window[1], 64))
        c = fit.c
        if fit.ratio_residual > 1e-8 or fit.second_residual > 1e-8:
            return CheckResult(
                which, "not_applicable", extras={"reason": "ambient is not a space form"}
            )
    if which == "theorem4a":
        bound = -n * (n - 1) * f2 / f0 + n * n * H * H
    elif which == "theorem4b":
        bound = n * (n - 1) * (H * H - f2 / f0)
    else:  # theorem5
        bound = (n - 1) * c + n * H * H
    margin = geometry.lam - bound
    worst, i = first_extreme(margin, math.inf, lowest=True)
    status = "pass" if worst >= -_MARGIN_TOL else "fail"
    extras = {}
    if which == "theorem5":
        extras["c"] = c
        extras["failing_points"] = int(np.count_nonzero(margin < -_MARGIN_TOL))
    return CheckResult(
        which,
        status,
        worst_point=geometry.chart_point(i),
        worst_value=worst,
        extras=extras,
    )
