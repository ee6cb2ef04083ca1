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

Every number is read by one rule, ``errors._number``, with the arguments
of its field in ``NUMBER_FIELDS`` (preset parameters: ``catalogue.PRESETS``):
a boolean is never a number, text is one only as the interval endpoint
"inf" / "-inf", and numbers are finite elsewhere.  Chart names are NAMEs
of the expression grammar.  Unknown fields anywhere are validation
errors, not silently ignored.  Reports are deterministic: identical
scenes produce byte-identical documents apart from the timing field.
"""

from __future__ import annotations

import json
import math
import re
import time
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import __version__
from .ambient import WarpedProduct
from .catalogue import build_preset
from .errors import MAX_DIMENSION, MAX_GRID_POINTS, PointError, SceneError, WarpGeoError, _number
from .expr import CONSTANTS, FUNCTIONS, is_name, parse as parse_expr
from .hypersurface import ChartBox, Immersion
from .intrinsic import grid_geometry
from .jets import _leaves
from .objmesh import surface_vertices, write_obj
from .rotational import classification_grid, classify_rotational, profile_residuals
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
# Largest scene file read.  A scene is a few KB of JSON; a larger file is
# refused before it is parsed.
MAX_SCENE_BYTES = 1 << 20
SPACEFORM_RE = re.compile(r"^spaceform\s+c=(-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\Z", re.ASCII)
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


def _typed(value, where, kind=dict):
    """``value`` if it is a ``kind``, a JSON object (dict) or a string (str); anything
    else is refused, naming ``where``."""
    if not isinstance(value, kind):
        raise SceneError("must be a JSON object" if kind is dict else "must be a string", field=where)
    return value


def _require_keys(block, allowed, required, where):
    unknown = set(_typed(block, where)) - set(allowed)
    if unknown:
        raise SceneError(f"unknown field(s) {sorted(unknown)}", field=where)
    for key in required:
        if key not in block:
            raise SceneError(f"missing required field {key!r}", field=where)


# A numeric scene field: the arguments of errors._number, and its default.
Number = namedtuple("Number", "integer lo hi finite default", defaults=(-math.inf, math.inf, True, None))

# Every numeric field of a scene, under the name its errors report.
NUMBER_FIELDS = {
    "schema_version": Number(True, SCHEMA_VERSION, SCHEMA_VERSION, default=SCHEMA_VERSION),
    "ambient.interval": Number(False, finite=False),
    "ambient.n": Number(True, 1, MAX_DIMENSION),
    "immersion.chart": Number(False),  # each bound of "lower" and "upper"
    "grid.samples": Number(True, 3, MAX_GRID_POINTS, default=7),
    "grid.margins": Number(False, 0.0, 0.5, default=0.05),
}


def _field(value, field, name):
    return _number(value, field, name, *NUMBER_FIELDS[field][:4])


class Scene(NamedTuple):
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
    blocks = ("schema_version", "ambient", "immersion", "grid", "checks", "output")
    _require_keys(data, blocks, ("ambient", "immersion", "checks"), where="<root>")
    _field(data.get("schema_version", SCHEMA_VERSION), "schema_version", "schema_version")

    amb = data["ambient"]
    _require_keys(amb, ("interval", "f", "fiber", "n"), ("interval", "f", "fiber", "n"), "ambient")
    interval = amb["interval"]
    if not isinstance(interval, (list, tuple)) or len(interval) != 2:
        raise SceneError("interval must be a [lo, hi] pair", field="ambient.interval")
    lo, hi = (_field(end, "ambient.interval", "interval endpoint") for end in interval)
    if amb["fiber"] not in ("euclidean", "sphere"):
        message = f"fiber must be 'euclidean' or 'sphere', got {amb['fiber']!r}"
        raise SceneError(message, field="ambient.fiber")
    _field(amb["n"], "ambient.n", "n")
    f_text = _typed(amb["f"], "ambient.f", str)
    try:
        f_expr = parse_expr(f_text, variables={"t"})
        ambient = WarpedProduct((lo, hi), f_expr, amb["fiber"], amb["n"])
    except WarpGeoError as exc:
        raise SceneError(str(exc), field="ambient.f") from None
    except ValueError as exc:  # the interval's fault when it is empty, else f's
        raise SceneError(str(exc), field="ambient.f" if lo < hi else "ambient") from None

    output = data.get("output", {})
    _require_keys(output, ("report", "mesh"), (), "output")
    for key, path in output.items():
        if path is not None and not (isinstance(path, str) and path):
            raise SceneError(f"{key} must be a file path", field=f"output.{key}")
    if output.get("mesh") and ambient.n != 2:
        raise SceneError(f"mesh export needs n = 2, got n = {ambient.n}", field="output.mesh")

    imm_block = data["immersion"]
    profile = None
    if "preset" in _typed(imm_block, "immersion"):
        _require_keys(imm_block, ("preset", "params"), ("preset",), "immersion")
        params = _typed(imm_block.get("params", {}), "immersion.params")
        preset = _typed(imm_block["preset"], "immersion.preset", str)
        immersion, profile = build_preset(preset, ambient, params)
    else:
        _require_keys(imm_block, ("components", "chart"), ("components", "chart"), "immersion")
        chart_block = imm_block["chart"]
        _require_keys(chart_block, ("names", "lower", "upper"), ("names", "lower", "upper"), "immersion.chart")
        for key in ("names", "lower", "upper"):
            if not isinstance(chart_block[key], list):
                raise SceneError(f"{key} must be a list", field=f"immersion.chart.{key}")
        names = tuple(chart_block["names"])
        valid = all(isinstance(v, str) and is_name(v) for v in names)
        if not valid or len(set(names)) < len(names) or set(names) & {*CONSTANTS, *FUNCTIONS}:
            message = f"chart names must be distinct NAMEs, not constants or functions: {list(names)}"
            raise SceneError(message, field="immersion.chart.names")
        lower, upper = (tuple(_field(b, "immersion.chart", "chart bound") for b in chart_block[k])
                        for k in ("lower", "upper"))
        try:
            chart = ChartBox(names, lower, upper)
        except ValueError as exc:
            raise SceneError(str(exc), field="immersion.chart") from None
        components = imm_block["components"]
        if not isinstance(components, list):
            raise SceneError("components must be a list", field="immersion.components")
        exprs = []
        for idx, src in enumerate(components):
            field = f"immersion.components[{idx}]"
            src = _typed(src, field, str)
            try:  # an undeclared variable is an UnknownIdentifier
                exprs.append(parse_expr(src, variables=set(names)))
            except WarpGeoError as exc:
                raise SceneError(str(exc), field=field) from None
        try:
            immersion = Immersion(ambient, chart, exprs)
        except ValueError as exc:
            raise SceneError(str(exc), field="immersion") from None

    grid_block = data.get("grid", {})
    _require_keys(grid_block, ("samples", "margins"), (), "grid")
    samples = _typed(grid_block.get("samples", {}), "grid.samples")
    margins = _typed(grid_block.get("margins", {}), "grid.margins")
    names = immersion.chart.names
    count, margin = (NUMBER_FIELDS[f"grid.{key}"].default for key in ("samples", "margins"))
    counts = {v: _field(samples.get(v, count), "grid.samples", f"sample count for {v!r}")
              for v in names}
    for key, given in (("samples", samples), ("margins", margins)):
        unknown = set(given) - set(names)
        if unknown:
            raise SceneError(f"{key} given for unknown variables {sorted(unknown)}", f"grid.{key}")
    margin_map = {v: _field(margins.get(v, margin), "grid.margins", f"margin for {v!r}")
                  for v in names}
    try:
        grid = immersion.chart.grid(counts, margin_map)
    except ValueError as exc:  # more than MAX_GRID_POINTS, refused before building
        raise SceneError(str(exc), field="grid.samples") from None

    checks = []
    raw_checks = data["checks"]
    if not isinstance(raw_checks, list) or not raw_checks:
        raise SceneError("checks must be a non-empty list", field="checks")
    for raw in raw_checks:
        raw = _typed(raw, "checks", str)
        match = SPACEFORM_RE.match(raw)
        if match:
            checks.append(("spaceform", raw, _number(float(match[1]), "checks", "spaceform c")))
        elif raw in CHECK_NAMES:
            checks.append((raw, raw, None))
        else:
            raise SceneError(f"unknown check {raw!r}", field="checks")

    report_path, mesh_path = output.get("report"), output.get("mesh")
    return Scene(data, ambient, immersion, profile, grid, checks, report_path, mesh_path)


def load_scene(path):
    """Read, parse and validate a scene file; reading stops one byte past ``MAX_SCENE_BYTES``."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read(MAX_SCENE_BYTES + 1)
    except OSError as exc:
        raise SceneError(f"cannot read scene file: {exc}")
    if len(raw) > MAX_SCENE_BYTES:
        raise SceneError(f"scene file {path} exceeds MAX_SCENE_BYTES = {MAX_SCENE_BYTES} bytes")
    try:
        data = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
        raise SceneError(f"scene file is not valid JSON: {exc}")
    return validate_scene(data)


def _run_check(kind, c, scene, geometry, soliton, classification):
    """The :class:`CheckResult` of one check; ``c`` is the value of ``spaceform c=``."""
    if kind in THEOREMS:
        return hypotheses_report(scene.immersion, geometry, kind)
    if kind == "lemma1":
        sup, i = first_extreme(geometry.identity_error)
        status = "pass" if sup < SOLITON_TOL else "fail"
        return CheckResult(kind, status, sup_error=sup, worst_point=geometry.chart_point(i))
    if kind == "soliton":
        status = "pass" if soliton.verdict is Verdict.SOLITON else "fail"
        extras = {"verdict": soliton.verdict.value, "classification": soliton.classification.value}
        return CheckResult(kind, status, soliton.residual_sup, soliton.worst_point, extras=extras)
    if kind == "structural":
        if soliton.verdict is Verdict.SOLITON:
            return structural_report(scene.immersion, geometry)
        return CheckResult(kind, "not_applicable", extras={"reason": "soliton verdict required"})
    if kind == "spaceform":
        window = scene.ambient.probe_window()
        result = scene.ambient.check_space_form(c, np.linspace(window[0], window[1], 200))
        sup = max(result.ratio_residual, result.second_residual)
        status = "pass" if result.passed else "fail"
        return CheckResult(f"spaceform c={c!r}", status, sup_error=sup, extras={"c": c})
    if classification is None:
        reason = {"reason": "immersion is not a rotational preset"}
        return CheckResult(kind, "not_applicable", extras=reason)
    extras = classification.residuals()
    sup = max(classification.soliton.residual_sup, *extras.values())
    status = "pass" if classification.classified else "fail"
    return CheckResult(kind, status, sup_error=sup, extras=extras)


GRID_CHECKS = ("lemma1", "soliton", "structural") + THEOREMS


def run_scene(scene):
    """Execute the requested checks; returns (report_dict, all_passed).

    Every chart point's geometry is computed once, in one pass before the
    first check (the probe block of ``grid_geometry`` runs even when no
    check reads a point): the scene grid when a grid check asks for it,
    then the points of the classification grid that it lacks.  The
    checks read their own rows of that record; the profile residuals,
    which may raise SigmaZero, run first.  A failing probe that is the
    immersion's fault (``PointError.immersion_fault``) is a SceneError
    naming the immersion block.
    """
    started = time.perf_counter()
    kinds = {kind for kind, _, _ in scene.checks}
    imm, curve = scene.immersion, scene.profile
    points = list(scene.grid) if kinds & set(GRID_CHECKS) else []
    size = len(points)
    classify = curve is not None and "rotational-classification" in kinds
    if classify:
        residuals = profile_residuals(curve)
        extra = classification_grid(curve.profile)
        known = set(points)
        points += [p for p in dict.fromkeys(extra) if p not in known]
    geometry = soliton = classification = None
    try:  # structural reads the third jets of the same pass
        record = grid_geometry(imm, points, 3 if "structural" in kinds else 2)
    except PointError as exc:
        if not exc.immersion_fault:
            raise
        field = "immersion.params" if "preset" in scene.raw["immersion"] else "immersion"
        raise SceneError(str(exc), field=field) from None
    if size:
        geometry = record if size == len(points) else _leaves(lambda a: a[..., :size], record)
    if classify:
        index = {p: i for i, p in enumerate(points)}
        rows = [index[p] for p in extra]
        if rows != list(range(len(points))):
            record = _leaves(lambda a: a[..., rows], record)
        classification = classify_rotational(imm, record, residuals)
    if kinds & {"soliton", "structural"}:
        soliton = soliton_report(geometry)
    results = [
        _run_check(kind, c, scene, geometry, soliton, classification)
        for kind, _, c in scene.checks
    ]

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
