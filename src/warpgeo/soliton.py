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

Every check a scene may ask for is a row of one table, ``CHECKS``: its
name, the jet order of the grid record it reads, the number of probe
heights at which it reads f and the rule that decides it.  One function,
:func:`check_report`, runs a row.  A grid check forms a per-point array
of the record, and one function, :func:`grid_check`, reduces it by the
row's rule; ties go to the first point in grid order.  An identity
(Lemma 1's Hess h, Theorem 3's scalar identity, the structural identity)
passes when the sup of its error stays below ``SOLITON_TOL``; an
inequality (Theorem 1's conditions, the bounds on lambda of Theorems 4a,
4b and 5) passes when its least margin is at least ``-_MARGIN_TOL``.
The soliton, rotational-classification and spaceform checks have a
verdict of their own, and their rule is empty.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .hypersurface import contract
from .jets import flag

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
    if np.abs(lams).max() < CLASS_TOL:
        return SolitonClass.STEADY
    if (lams < -CLASS_TOL).all():
        return SolitonClass.EXPANDING
    if (lams > CLASS_TOL).all():
        return SolitonClass.SHRINKING
    return SolitonClass.SIGN_CHANGING


class SolitonReport(NamedTuple):
    """Grid-wise soliton verification results."""

    residual_sup: float
    worst_point: tuple
    lambda_samples: np.ndarray  # the lam of the record, read-only
    gradh_sup: float
    verdict: Verdict
    classification: SolitonClass
    identity_checks: Mapping  # read-only

    @property
    def lambda_min(self):
        return float(self.lambda_samples.min())

    @property
    def lambda_max(self):
        return float(self.lambda_samples.max())

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


def first_extreme(values, lowest=False):
    """(value, index) of the first extreme entry strictly beyond the start, 0.0 for the
    largest entry and inf for the smallest (``lowest``).

    NaN entries never win; when no entry passes the start the result is
    ``(start, None)``.  This is the scan "keep the first strictly larger
    (or smaller) value" over the points in grid order.  A zero is reported
    as 0.0, never -0.0.
    """
    start, v = math.inf if lowest else 0.0, np.asarray(values, dtype=float)
    if not v.size:
        return start, None
    i = int(v.argmin() if lowest else v.argmax())  # the first extreme entry, or the first NaN
    if v[i] != v[i]:  # the scan again, each NaN made the value that never wins
        v = np.where(np.isnan(v), np.inf if lowest else -np.inf, v)
        i = int(v.argmin() if lowest else v.argmax())
    if v[i] < start if lowest else v[i] > start:
        return float(v[i]) + 0.0, i  # + 0.0 normalizes -0.0
    return start, None


def soliton_report(geometry):
    """Soliton verdict over the :class:`PointGeometry` record of a grid.

    The verdict is SOLITON when the sup of the trace-free residual stays
    below ``SOLITON_TOL``.  Lambda samples are always populated; for a
    NOT_SOLITON verdict they are advisory only.  The universal Hessian
    identity error is recorded under ``identity_checks['lemma_hessian']``.
    """
    residual_sup, worst = first_extreme(geometry.residual)
    gradh_sup, _ = first_extreme(np.sqrt(np.maximum(geometry.grad_h_norm2, 0.0)))
    identity_sup, _ = first_extreme(geometry.identity_error)
    verdict = Verdict.SOLITON if residual_sup < SOLITON_TOL else Verdict.NOT_SOLITON
    return SolitonReport(
        residual_sup=residual_sup,
        worst_point=geometry.chart_point(worst or 0),
        lambda_samples=geometry.lam,
        gradh_sup=gradh_sup,
        verdict=verdict,
        classification=classify(geometry.lam, gradh_sup),
        identity_checks=MappingProxyType({"lemma_hessian": identity_sup}),
    )


def _copy(mapping, kind):
    """A copy of ``mapping`` and of its nested dicts and proxies as ``kind``: MappingProxyType
    to hold it read-only, dict to write it as ``json`` does."""
    return kind({k: _copy(v, kind) if isinstance(v, (dict, MappingProxyType)) else v for k, v in mapping.items()})


class CheckResult(namedtuple("CheckResult", "name status sup_error worst_point worst_value extras")):
    """Outcome of one check, as it enters a scene report.

    ``status`` is "pass", "fail" or "not_applicable".  For inequality checks
    ``worst_value`` is the most violated slack (nonnegative margins mean the
    condition holds); for identity checks ``sup_error`` carries the error and
    ``worst_value`` stays None.  ``extras`` is held read-only, nested mappings
    too.  ``to_dict`` writes a set ``worst_value`` once more as the last extra,
    ``worst_margin``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace freezes too

    def __new__(cls, name, status, sup_error=None, worst_point=None, worst_value=None,
                extras=MappingProxyType({})):
        extras = _copy(extras, MappingProxyType)
        return super().__new__(cls, name, status, sup_error, worst_point, worst_value, extras)

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
        extras = _copy(self.extras, dict)
        if self.worst_value is not None:
            extras["worst_margin"] = self.worst_value
        if extras:
            out["extras"] = extras
        return out


def grid_check(kind, geometry, values, extras):
    """The grid check ``kind`` from its per-point ``values``, decided by the rule of its row of
    ``CHECKS``: an identity passes when the sup of its error stays below ``SOLITON_TOL``, an
    inequality when its least margin, its ``worst_value``, is at least ``-_MARGIN_TOL``."""
    if CHECKS[kind][2] == "identity":
        sup, i = first_extreme(values)
        return CheckResult(kind, "pass" if sup < SOLITON_TOL else "fail", sup, geometry.chart_point(i), extras=extras)
    worst, i = first_extreme(values, lowest=True)
    return CheckResult(kind, "pass" if worst >= -_MARGIN_TOL else "fail", None, geometry.chart_point(i), worst, extras)


# Every check a scene may ask for, by name, in the order errors list them: the jet order of
# the grid record it reads (0 for none), the number of probe heights at which it reads f and
# the rule of grid_check that decides it ("" for a check with a verdict of its own).
# spaceform, the last, is asked for as "spaceform c=<number>".
CHECKS = {
    "lemma1": (2, 0, "identity"),
    "soliton": (2, 0, ""),
    "structural": (3, 0, "identity"),
    "theorem1": (2, 0, "inequality"),
    "theorem3": (2, 0, "identity"),
    "theorem4a": (2, 0, "inequality"),
    "theorem4b": (2, 0, "inequality"),
    "theorem5": (2, 64, "inequality"),
    "rotational-classification": (0, 0, ""),
    "spaceform": (0, 200, ""),
}


def check_report(kind, imm, geometry, probes=None, soliton=None, classification=None, c=None):
    """The :class:`CheckResult` of the check ``kind``, a row of ``CHECKS``, on ``imm``.

    ``geometry`` is the :class:`PointGeometry` record of the grid at the row's jet order,
    ``probes`` the row's probe heights and f's triple at them (None for the triple where
    f failed there), taken afresh when None, ``soliton`` the :class:`SolitonReport` of the
    grid (the soliton row forms it from ``geometry`` when None), ``classification`` the
    rotational classification (None off rotational presets) and ``c`` the value of
    ``spaceform c=``.

    A grid check forms its per-point values, and :func:`grid_check` decides them by the
    row's rule: lemma1, theorem3 and structural are identities, theorem1, theorem4a,
    theorem4b and theorem5 inequalities.
    structural is meaningful only when the soliton verdict holds, so that lambda is the
    soliton function; it is not_applicable when ``soliton`` holds another verdict (None
    runs it ungated).  grad(scal - lambda) = grad(Lap h)/n is the exact ``lap_gradient``
    of a record of order 3; a record of order 2 is a ValueError, and a gradient that is
    not finite a DomainError.  theorem1 evaluates both orientations and passes when
    either one satisfies f''(h)/f(h) <= (n+1)/n^2 H^2 and 0 <= |theta|^{-1} (log f)'(h)
    <= H everywhere (the orientation making H nonnegative is not canonical).  theorem3
    requires a minimal immersion and otherwise reports not_applicable.  theorem5 needs
    the ambient to be a space form; its curvature c is fitted from f on the probe heights.
    """
    if probes is None and CHECKS[kind][1]:  # a probing row takes its heights afresh when given none
        probes = np.linspace(*imm.ambient.probe_window(), CHECKS[kind][1]), None
    if kind == "soliton":
        soliton = soliton or soliton_report(geometry)
        status = "pass" if soliton.verdict is Verdict.SOLITON else "fail"
        extras = {"verdict": soliton.verdict.value, "classification": soliton.classification.value}
        return CheckResult(kind, status, soliton.residual_sup, soliton.worst_point, extras=extras)
    if kind == "spaceform":
        result = imm.ambient.check_space_form(c, *probes)
        status = "pass" if result.passed else "fail"
        return CheckResult(f"spaceform c={c!r}", status, max(result.ratio_residual, result.second_residual),
                           extras={"c": c})
    if kind == "rotational-classification":
        if classification is None:
            return CheckResult(kind, "not_applicable", extras={"reason": "immersion is not a rotational preset"})
        extras = classification.residuals()
        status = "pass" if classification.classified else "fail"
        return CheckResult(kind, status, max(classification.soliton.residual_sup, *extras.values()), extras=extras)
    n, H = len(geometry.metric), geometry.mean_curvature  # geometry.n, read without the property's call
    f0, f1, f2 = geometry.warping
    extras = {}
    if kind == "lemma1":
        values = geometry.identity_error
    elif kind == "structural":
        if soliton is not None and soliton.verdict is not Verdict.SOLITON:
            return CheckResult(kind, "not_applicable", extras={"reason": "soliton verdict required"})
        if geometry.lap_gradient is None:
            raise ValueError("the structural check needs a record of grid_geometry(..., order=3)")
        flag(~np.isfinite(geometry.lap_gradient).all(axis=0), lambda i: DomainError(
            f"gradient of Lap h not finite (at chart point {imm.bindings(geometry.chart[:, i])!r})"))
        # Ric(grad h) + (n-1) grad(scal - lambda) as a covector; its norm taken with the inverse metric
        omega = contract("ijp,jp->ip", geometry.ric, geometry.grad_h) + (n - 1) * (geometry.lap_gradient / n)
        dual = contract("ijp,jp->ip", geometry.metric_inverse, omega)
        values = np.sqrt(np.maximum(contract("ip,ip->p", omega, dual), 0.0))
    elif kind == "theorem1":  # H enters the curvature margin only as H^2 and theta only as |theta|
        curvature = (n + 1) / (n * n) * H * H - f2 / f0
        lf1, theta = f1 / f0, geometry.theta  # q = |theta|^-1 (log f)'(h), with the 0/0 limit taken as 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = lf1 / np.abs(theta)
        q = np.where(lf1 == 0.0, 0.0, np.where(theta == 0.0, np.where(lf1 > 0.0, math.inf, -math.inf), ratio))
        curvature_margin, margins = first_extreme(curvature, lowest=True)[0], []
        for name, sign in (("as_oriented", 1.0), ("flipped", -1.0)):
            angle = np.where(np.isfinite(q), np.minimum(q, sign * H - q), -math.inf)
            margins.append(np.minimum(curvature, angle))
            extras[name] = {"margin": first_extreme(margins[-1], lowest=True)[0], "curvature_margin": curvature_margin,
                            "angle_margin": first_extreme(angle, lowest=True)[0]}
        values = margins[extras["flipped"]["margin"] > extras["as_oriented"]["margin"]]  # ties go to as_oriented
    elif kind == "theorem3":
        sup_H = float(np.abs(H).max())
        if sup_H >= CLASS_TOL:
            return CheckResult(kind, "not_applicable", extras={"sup_mean_curvature": sup_H})
        rhs = (f1 / f0) * (n - 1 + geometry.theta * geometry.theta)
        values = np.abs(n * (geometry.scal_gauss - geometry.lam) - rhs)
    elif kind == "theorem5":
        fit = imm.ambient.check_space_form(None, *probes)
        if fit.ratio_residual > 1e-8 or fit.second_residual > 1e-8:
            return CheckResult(kind, "not_applicable", extras={"reason": "ambient is not a space form"})
        values = geometry.lam - ((n - 1) * fit.c + n * H * H)
        extras = {"c": fit.c, "failing_points": int(np.count_nonzero(values < -_MARGIN_TOL))}
    elif kind == "theorem4a":
        values = geometry.lam - (-n * (n - 1) * f2 / f0 + n * n * H * H)
    else:  # theorem4b
        values = geometry.lam - n * (n - 1) * (H * H - f2 / f0)
    return grid_check(kind, geometry, values, extras)
