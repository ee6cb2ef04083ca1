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

Every grid check reduces a per-point array of the batched geometry
record of a grid by one of two rules; ties go to the first point in
grid order.  An identity (Lemma 1's Hess h, Theorem 3's scalar identity,
the structural identity) passes when the sup of its error stays below
``SOLITON_TOL`` (:func:`identity_check`); an inequality (Theorem 1's
conditions, the bounds on lambda of Theorems 4a, 4b and 5) passes when
its least margin is at least ``-_MARGIN_TOL`` (:func:`inequality_check`).
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
THEOREM5_PROBES = 64  # the probe heights at which theorem5 fits the ambient's curvature c


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


def first_extreme(values, start=0.0, lowest=False):
    """(value, index) of the first extreme entry strictly beyond ``start``.

    NaN entries never win; when no entry passes ``start`` the result is
    ``(start, None)``.  This is the scan "keep the first strictly larger
    (or smaller) value" over the points in grid order.  A zero is reported
    as 0.0, never -0.0.
    """
    v = np.asarray(values, dtype=float)
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
    residual_sup, worst = first_extreme(geometry.residual, start=-1.0)
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


def identity_check(name, geometry, error):
    """The identity ``name`` over a grid from its per-point ``error``: it
    passes when the sup error stays below ``SOLITON_TOL``."""
    sup, i = first_extreme(error)
    status = "pass" if sup < SOLITON_TOL else "fail"
    return CheckResult(name, status, sup_error=sup, worst_point=geometry.chart_point(i))


def inequality_check(name, geometry, margin, extras=MappingProxyType({})):
    """The inequality ``name`` over a grid from its per-point ``margin``: it
    passes when the least margin, its ``worst_value``, is at least ``-_MARGIN_TOL``."""
    worst, i = first_extreme(margin, math.inf, lowest=True)
    status = "pass" if worst >= -_MARGIN_TOL else "fail"
    return CheckResult(name, status, worst_point=geometry.chart_point(i), worst_value=worst, extras=extras)


def structural_report(imm, geometry):
    """Structural identity over the :class:`PointGeometry` record of a grid.

    The gradient of scal - lambda = (Lap h)/n is the exact
    ``lap_gradient`` of a record of order 3; a record of order 2 is a
    ValueError.  It is meaningful only when the soliton verdict holds, so
    that lambda is the soliton function.  It is an identity
    (:func:`identity_check`); a gradient that is not finite is a
    DomainError.
    """
    if geometry.lap_gradient is None:
        raise ValueError("structural_report needs a record of grid_geometry(..., order=3)")
    flag(~np.isfinite(geometry.lap_gradient).all(axis=0), lambda i: DomainError(
        f"gradient of Lap h not finite (at chart point {imm.bindings(geometry.chart[:, i])!r})"))
    n = imm.n
    grad_s = geometry.lap_gradient / n
    # both terms as covectors; norm taken with the inverse metric
    omega = contract("ijp,jp->ip", geometry.ric, geometry.grad_h) + (n - 1) * grad_s
    dual = contract("ijp,jp->ip", geometry.metric_inverse, omega)
    err = np.sqrt(np.maximum(contract("ip,ip->p", omega, dual), 0.0))
    return identity_check("structural", geometry, err)


THEOREMS = ("theorem1", "theorem3", "theorem4a", "theorem4b", "theorem5")


def hypotheses_report(imm, geometry, which, probes=None):
    """One theorem hypothesis over the :class:`PointGeometry` record of a grid.

    ``which`` is one of ``THEOREMS``.  theorem1 evaluates both orientations
    and passes when either one satisfies f''(h)/f(h) <= (n+1)/n^2 H^2 and
    0 <= |theta|^{-1} (log f)'(h) <= H everywhere (the orientation making H
    nonnegative is not canonical).  theorem3 requires a minimal immersion
    and otherwise reports not_applicable.  theorem5 needs the ambient to be
    a space form; its curvature c is fitted from the warping function on 64
    probe heights, from the same jet of f as the residuals of the fit
    (``probes``: the heights and that jet, if already taken).  The result
    is the :class:`CheckResult` named ``which``, by :func:`identity_check`
    for theorem3 and by :func:`inequality_check` for the others.
    """
    n, H = imm.n, geometry.mean_curvature
    f0, f1, f2 = geometry.warping

    if which == "theorem1":  # H enters the curvature margin only as H^2 and theta only as |theta|
        curvature = (n + 1) / (n * n) * H * H - f2 / f0
        lf1, theta = f1 / f0, geometry.theta  # q = |theta|^-1 (log f)'(h), with the 0/0 limit taken as 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = lf1 / np.abs(theta)
        q = np.where(lf1 == 0.0, 0.0, np.where(theta == 0.0, np.where(lf1 > 0.0, math.inf, -math.inf), ratio))
        curvature_margin = first_extreme(curvature, math.inf, lowest=True)[0]
        results, extras = [], {}
        for name, sign in (("as_oriented", 1.0), ("flipped", -1.0)):
            angle = np.where(np.isfinite(q), np.minimum(q, sign * H - q), -math.inf)
            results.append(inequality_check(which, geometry, np.minimum(curvature, angle)))
            extras[name] = {"margin": results[-1].worst_value, "curvature_margin": curvature_margin,
                            "angle_margin": first_extreme(angle, math.inf, lowest=True)[0]}
        return max(results, key=lambda result: result.worst_value)._replace(extras=extras)

    if which == "theorem3":
        sup_H = float(np.abs(H).max())
        if sup_H >= CLASS_TOL:
            return CheckResult(which, "not_applicable", extras={"sup_mean_curvature": sup_H})
        rhs = (f1 / f0) * (n - 1 + geometry.theta * geometry.theta)
        return identity_check(which, geometry, np.abs(n * (geometry.scal_gauss - geometry.lam) - rhs))

    if which == "theorem5":
        t, f = probes or (np.linspace(*imm.ambient.probe_window(), THEOREM5_PROBES), None)
        fit = imm.ambient.check_space_form(None, t, f)
        if fit.ratio_residual > 1e-8 or fit.second_residual > 1e-8:
            return CheckResult(which, "not_applicable", extras={"reason": "ambient is not a space form"})
        margin = geometry.lam - ((n - 1) * fit.c + n * H * H)
        extras = {"c": fit.c, "failing_points": int(np.count_nonzero(margin < -_MARGIN_TOL))}
        return inequality_check(which, geometry, margin, extras)
    if which == "theorem4a":
        bound = -n * (n - 1) * f2 / f0 + n * n * H * H
    else:  # theorem4b
        bound = n * (n - 1) * (H * H - f2 / f0)
    return inequality_check(which, geometry, geometry.lam - bound)
