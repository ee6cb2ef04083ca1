"""Scene files, check execution and JSON report documents.

A scene is a JSON object with exactly these blocks::

    {
      "schema_version": 1,
      "ambient":   {"interval": [lo, hi], "f": "...", "fiber": "...", "n": int},
      "immersion": {"preset": name, "params": {...}}
                   or {"components": [...], "chart": {"names": [...],
                       "lower": [...], "upper": [...]}},
      "grid":      {"samples": {var: int, ...}, "margins": {var: frac, ...}},
      "checks":    ["lemma1", "soliton", "structural", "theorem1", ...,
                    "spaceform c=<value>", "rotational-classification"],
      "output":    {"report": path, "mesh": path-optional}
    }

Interval endpoints may be the strings "inf" / "-inf".  Unknown fields
anywhere are validation errors, not silently ignored.  Reports are
deterministic: identical scenes produce byte-identical documents apart
from the timing field.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .ambient import WarpedProduct
from .catalogue import build_preset
from .errors import DomainError, SceneError, WarpGeoError
from .expr import parse as parse_expr, variables_in
from .hypersurface import MAX_DIMENSION, MAX_GRID_POINTS, ChartBox, Immersion
from .intrinsic import grid_geometry
from .objmesh import surface_vertices, write_obj
from .rotational import classification_grid, classify_rotational
from .soliton import (
    SOLITON_TOL,
    THEOREMS,
    CheckResult,
    Verdict,
    first_extreme,
    hypotheses_report,
    soliton_report,
    structural_report,
)

SCHEMA_VERSION = 1
SPACEFORM_RE = re.compile(r"^spaceform\s+c=(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)$")
CHECK_NAMES = (
    "lemma1",
    "soliton",
    "structural",
    "theorem1",
    "theorem3",
    "theorem4a",
    "theorem4b",
    "theorem5",
    "rotational-classification",
)

MESH_WARNING = (
    "mesh coordinates are ambient-chart coordinates, not an isometric "
    "embedding; do not read distances from the render"
)


def _require_keys(block, allowed, required, where):
    unknown = set(block) - set(allowed)
    if unknown:
        raise SceneError(
            f"unknown field(s) {sorted(unknown)}", field=where
        )
    for key in required:
        if key not in block:
            raise SceneError(f"missing required field {key!r}", field=where)


def _parse_endpoint(value, where):
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "+inf", "infinity"):
            return math.inf
        if text == "-inf":
            return -math.inf
        raise SceneError(f"bad interval endpoint {value!r}", field=where)
    if isinstance(value, (int, float)):
        return float(value)
    raise SceneError(f"bad interval endpoint {value!r}", field=where)


@dataclass
class Scene:
    raw: dict
    ambient: WarpedProduct
    immersion: Immersion
    profile: object  # solved ProfileCurve for rotational presets, else None
    grid: list
    checks: list
    report_path: str | None
    mesh_path: str | None


def validate_scene(data):
    """Validate a scene dictionary and build the runtime objects."""
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    _require_keys(
        data,
        ("schema_version", "ambient", "immersion", "grid", "checks", "output"),
        ("ambient", "immersion", "checks"),
        where="<root>",
    )
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SceneError(
            f"unsupported schema_version {version!r}", field="schema_version"
        )

    amb = data["ambient"]
    _require_keys(amb, ("interval", "f", "fiber", "n"), ("interval", "f", "fiber", "n"), "ambient")
    interval = amb["interval"]
    if not isinstance(interval, (list, tuple)) or len(interval) != 2:
        raise SceneError("interval must be a [lo, hi] pair", field="ambient.interval")
    lo = _parse_endpoint(interval[0], "ambient.interval")
    hi = _parse_endpoint(interval[1], "ambient.interval")
    if amb["fiber"] not in ("euclidean", "sphere"):
        raise SceneError(
            f"fiber must be 'euclidean' or 'sphere', got {amb['fiber']!r}",
            field="ambient.fiber",
        )
    if isinstance(amb["n"], bool) or not isinstance(amb["n"], int) or amb["n"] < 1:
        raise SceneError("n must be a positive integer", field="ambient.n")
    if amb["n"] > MAX_DIMENSION:
        raise SceneError(
            f"n must be at most {MAX_DIMENSION}: a grid of 3 samples per axis would "
            f"exceed MAX_GRID_POINTS = {MAX_GRID_POINTS}", field="ambient.n")
    try:
        f_expr = parse_expr(str(amb["f"]), variables={"t"})
        ambient = WarpedProduct((lo, hi), f_expr, amb["fiber"], amb["n"])
    except WarpGeoError as exc:
        raise SceneError(str(exc), field="ambient.f") from None
    except ValueError as exc:
        raise SceneError(str(exc), field="ambient") from None

    imm_block = data["immersion"]
    profile = None
    if "preset" in imm_block:
        _require_keys(imm_block, ("preset", "params"), ("preset",), "immersion")
        immersion, profile = build_preset(
            str(imm_block["preset"]), ambient, imm_block.get("params")
        )
    else:
        _require_keys(imm_block, ("components", "chart"), ("components", "chart"), "immersion")
        chart_block = imm_block["chart"]
        _require_keys(chart_block, ("names", "lower", "upper"), ("names", "lower", "upper"), "immersion.chart")
        try:
            chart = ChartBox(
                tuple(map(str, chart_block["names"])),
                tuple(map(float, chart_block["lower"])),
                tuple(map(float, chart_block["upper"])),
            )
        except ValueError as exc:
            raise SceneError(str(exc), field="immersion.chart") from None
        components = imm_block["components"]
        if not isinstance(components, list):
            raise SceneError("components must be a list", field="immersion.components")
        exprs = []
        for idx, src in enumerate(components):
            try:
                expr = parse_expr(str(src))
            except WarpGeoError as exc:
                raise SceneError(
                    str(exc), field=f"immersion.components[{idx}]"
                ) from None
            extra = variables_in(expr) - set(chart.names)
            if extra:
                raise SceneError(
                    f"undeclared variables {sorted(extra)}",
                    field=f"immersion.components[{idx}]",
                )
            exprs.append(expr)
        try:
            immersion = Immersion(ambient, chart, exprs)
        except DomainError:
            raise  # surfaces as a numeric error, not a validation error
        except (WarpGeoError, ValueError) as exc:
            raise SceneError(str(exc), field="immersion") from None

    grid_block = data.get("grid", {})
    _require_keys(grid_block, ("samples", "margins"), (), "grid")
    samples = grid_block.get("samples", {})
    margins = grid_block.get("margins", {})
    counts = {}
    for name in immersion.chart.names:
        count = samples.get(name, 7)
        if not isinstance(count, int) or count < 3:
            raise SceneError(
                f"sample count for {name!r} must be an integer >= 3",
                field="grid.samples",
            )
        counts[name] = count
    for key, given in (("samples", samples), ("margins", margins)):
        unknown = set(given) - set(immersion.chart.names)
        if unknown:
            raise SceneError(f"{key} given for unknown variables {sorted(unknown)}", f"grid.{key}")
    margin_map = {}
    for name in immersion.chart.names:
        frac = float(margins.get(name, 0.05))
        if not 0.0 < frac < 0.5:
            raise SceneError(
                f"margin for {name!r} must lie in (0, 0.5)", field="grid.margins"
            )
        margin_map[name] = frac
    try:
        grid = immersion.chart.grid(counts, margin_map)
    except ValueError as exc:  # more than MAX_GRID_POINTS, refused before building
        raise SceneError(str(exc), field="grid.samples") from None

    checks = []
    raw_checks = data["checks"]
    if not isinstance(raw_checks, list) or not raw_checks:
        raise SceneError("checks must be a non-empty list", field="checks")
    for raw in raw_checks:
        raw = str(raw)
        match = SPACEFORM_RE.match(raw)
        if match:
            checks.append(("spaceform", raw, float(match.group(1))))
        elif raw in CHECK_NAMES:
            checks.append((raw, raw, None))
        else:
            raise SceneError(f"unknown check {raw!r}", field="checks")

    output = data.get("output", {})
    _require_keys(output, ("report", "mesh"), (), "output")
    return Scene(
        raw=data,
        ambient=ambient,
        immersion=immersion,
        profile=profile,
        grid=grid,
        checks=checks,
        report_path=output.get("report"),
        mesh_path=output.get("mesh"),
    )


def load_scene(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SceneError(f"cannot read scene file: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
        raise SceneError(f"scene file is not valid JSON: {exc}")
    return validate_scene(data)


def _run_lemma1(scene, geometry, soliton):
    errors = np.max(np.abs(geometry.hess_identity - geometry.hess_direct), axis=(-2, -1))
    sup, i = first_extreme(errors)
    status = "pass" if sup < SOLITON_TOL else "fail"
    worst = geometry.chart_point(i)
    return CheckResult("lemma1", status, sup_error=sup, worst_point=worst)


def _run_soliton(scene, geometry, soliton):
    status = "pass" if soliton.verdict is Verdict.SOLITON else "fail"
    return CheckResult(
        "soliton",
        status,
        sup_error=soliton.residual_sup,
        worst_point=soliton.worst_point,
        extras={
            "verdict": soliton.verdict.value,
            "classification": soliton.classification.value,
        },
    )


def _run_structural(scene, geometry, soliton):
    if soliton.verdict is not Verdict.SOLITON:
        reason = {"reason": "soliton verdict required"}
        return CheckResult("structural", "not_applicable", extras=reason)
    return structural_report(scene.immersion, geometry)


def _run_spaceform(c):
    def runner(scene, geometry, soliton):
        window = scene.ambient.probe_window()
        probes = np.linspace(window[0], window[1], 200)
        result = scene.ambient.check_space_form(c, probes)
        sup = max(result.ratio_residual, result.second_residual)
        status = "pass" if result.passed else "fail"
        return CheckResult(f"spaceform c={c!r}", status, sup_error=sup, extras={"c": c})

    return runner


def _run_rotational_classification(scene, geometry, soliton):
    if scene.profile is None:
        reason = {"reason": "immersion is not a rotational preset"}
        return CheckResult("rotational-classification", "not_applicable", extras=reason)
    curve = scene.profile
    report = classify_rotational(curve, scene.immersion, classification_grid(curve.profile))
    status = "pass" if report.classified else "fail"
    extras = {
        key: getattr(report, key)
        for key in ("sigma_constancy", "balance_residual", "logf_slope_variation")
    }
    sup = max(report.soliton.residual_sup, *extras.values())
    return CheckResult("rotational-classification", status, sup_error=sup, extras=extras)


RUNNERS = {
    "lemma1": _run_lemma1,
    "soliton": _run_soliton,
    "structural": _run_structural,
    "rotational-classification": _run_rotational_classification,
}
GRID_CHECKS = ("lemma1", "soliton", "structural") + THEOREMS


def run_scene(scene):
    """Execute the requested checks; returns (report_dict, all_passed).

    The geometry of every grid point is computed once, as one batch,
    before the first check, and shared by all grid checks.  A
    DomainError raised mid-run names the first chart point, in grid
    order, at which the failing stage fails.
    """
    started = time.perf_counter()
    kinds = {kind for kind, _, _ in scene.checks}
    geometry = soliton = None
    if kinds & set(GRID_CHECKS):  # structural reads the third jets of the same pass
        geometry = grid_geometry(scene.immersion, scene.grid, 3 if "structural" in kinds else 2)
    if kinds & {"soliton", "structural"}:
        soliton = soliton_report(geometry)
    results = []
    for kind, raw, param in scene.checks:
        if kind in THEOREMS:
            results.append(hypotheses_report(scene.immersion, geometry, kind))
            continue
        runner = _run_spaceform(param) if kind == "spaceform" else RUNNERS[kind]
        results.append(runner(scene, geometry, soliton))

    if soliton is not None:
        for result in results:
            if result.name == "soliton" or result.status == "not_applicable":
                continue
            if result.sup_error is not None:
                soliton.identity_checks[result.name] = result.sup_error
            elif result.worst_value is not None:
                # inequality checks: record the violation magnitude
                soliton.identity_checks[result.name] = max(0.0, -result.worst_value)

    warnings = []
    if scene.mesh_path:
        chart = scene.immersion.chart
        u_values = chart.axis_points(chart.names[0], 33, 0.02)
        v_values = chart.axis_points(chart.names[1], 33, 0.02)
        write_obj(scene.mesh_path, surface_vertices(scene.immersion, u_values, v_values))
        warnings.append(MESH_WARNING)

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "scene": scene.raw,
        "checks": [r.to_dict(scene.immersion.chart.names) for r in results],
        "soliton": None if soliton is None else soliton.to_dict(),
        "warnings": warnings,
        "timing_seconds": time.perf_counter() - started,
    }
    all_passed = all(r.status in ("pass", "not_applicable") for r in results)
    return report, all_passed


def report_to_json(report):
    return json.dumps(report, indent=2) + "\n"


def write_report(path, report):
    with open(path, "w") as handle:
        handle.write(report_to_json(report))
