"""Scene files, check execution and JSON report documents.

A scene's fields are the rows of one table, ``FIELDS``, which one walk
checks before anything is built; ``validate_scene`` then parses and
builds.  Unknown fields anywhere are validation errors.  Reports are
deterministic: identical scenes produce byte-identical documents apart
from the timing field.
"""

from __future__ import annotations

import json
import math
import re
import time
from collections import namedtuple
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .ambient import WarpedProduct, eval_warping, interval_fault
from .catalogue import PRESETS, build_preset
from .errors import DomainError, MAX_DIMENSION, MAX_GRID_POINTS, PointError, SceneError, WarpGeoError, _number, _short
from .expr import CONSTANTS, FUNCTIONS, is_name, parse as parse_expr
from .hypersurface import ChartBox, Immersion
from .intrinsic import grid_geometry
from .jets import _leaves
# report_to_json is not used here; it stays, as the benchmark (bench/measure.py, bench/tracing.py) calls it from here
from .report import MESH_WARNING, SCHEMA_VERSION, document, report_to_json
from .soliton import CHECKS, check_report, soliton_report

# Largest scene file read.  A scene is a few KB of JSON; a larger file is
# refused before it is parsed.
MAX_SCENE_BYTES = 1 << 20
SPACEFORM = "spaceform c=<number>"  # how errors and README show the check SPACEFORM_RE reads
SPACEFORM_RE = re.compile(r"^spaceform\s+c=(-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\Z", re.ASCII)

# The kinds of a field.  An object's keys are the rows below it (one with no rows below
# takes any keys); an expression is a string, and each entry of a list of them a field.
OBJECT, STRING, EXPRESSION, PATH, ENUM, NUMBER = "object", "string", "expression", "path", "enum", "number"
LIST, PAIR = "non-empty list", "[lo, hi] pair"  # shapes of a list; an OBJECT shape holds numbers, one per key

# A number's rule: the arguments of errors._number (which reads every number), and its default.
Number = namedtuple("Number", "integer lo hi finite default", defaults=(-math.inf, math.inf, True, None))
# A row of FIELDS.  ``rule`` is what a value meets: a number's Number or an enum's values.
# ``form`` is a pattern that a string may match instead of being one of those values.  An
# object's ``variant`` names the rows of its second form, the first of them selecting it.
Field = namedtuple("Field", "kind required rule shape form variant", defaults=(False, None, None, None, None))

# Every field of a scene, under the name its errors report, in the order they are checked.
FIELDS = {
    "schema_version": Field(NUMBER, rule=Number(True, SCHEMA_VERSION, SCHEMA_VERSION, default=SCHEMA_VERSION)),
    "ambient": Field(OBJECT, True),
    "ambient.interval": Field(NUMBER, True, Number(False, finite=False), PAIR),
    "ambient.fiber": Field(ENUM, True, ("euclidean", "sphere")),
    "ambient.n": Field(NUMBER, True, Number(True, 1, MAX_DIMENSION)),
    "ambient.f": Field(EXPRESSION, True),
    "output": Field(OBJECT),
    "output.report": Field(PATH),
    "output.mesh": Field(PATH),
    "immersion": Field(OBJECT, True, variant=("preset", "params")),
    "immersion.preset": Field(ENUM, True, tuple(PRESETS)),
    "immersion.params": Field(OBJECT),
    "immersion.chart": Field(OBJECT, True),
    "immersion.chart.names": Field(STRING, True, shape=LIST),
    "immersion.chart.lower": Field(NUMBER, True, Number(False), LIST),
    "immersion.chart.upper": Field(NUMBER, True, Number(False), LIST),
    "immersion.components": Field(EXPRESSION, True, shape=LIST),
    "grid": Field(OBJECT),
    "grid.samples": Field(NUMBER, rule=Number(True, 3, MAX_GRID_POINTS, default=7), shape=OBJECT),
    "grid.margins": Field(NUMBER, rule=Number(False, 0.0, 0.5, default=0.05), shape=OBJECT),
    "checks": Field(ENUM, True, tuple(CHECKS)[:-1], LIST, form=SPACEFORM_RE),  # spaceform by SPACEFORM_RE
}
_ROWS = {}  # the rows below each object, (key, field, kind, required, rule, shape, form, variant), in order
for _name, _row in FIELDS.items():
    _ROWS.setdefault(_name.rpartition(".")[0], []).append((_name.rpartition(".")[2], _name, *_row))
# (object, whether it has its variant key) -> its rows, their keys and the required ones
_OBJECTS = {}
for _name, _row in [("", Field(OBJECT)), *FIELDS.items()]:
    for _has in (False, True) if _row.kind == OBJECT else ():
        _rows = [e for e in _ROWS.get(_name, ()) if not _row.variant or (e[0] in _row.variant) == _has]
        _OBJECTS[_name, _has] = _rows, {e[0] for e in _rows}, {e[0] for e in _rows if e[3]}


def _object(value, field, variant, numbers):
    """Check ``value``, the object ``field`` with variant key ``variant`` (or None), against
    the rows below it; every number is recorded in ``numbers`` as read, by field."""
    where = field or "<root>"
    if not isinstance(value, dict):
        raise SceneError("must be a JSON object", where)
    rows, keys, required = _OBJECTS[field, variant is not None and variant in value]
    if not keys.issuperset(value):
        raise SceneError(f"unknown field(s) {sorted(value.keys() - keys)}", where)
    if not value.keys() >= required:
        missing = next(e[0] for e in rows if e[0] in required and e[0] not in value)
        raise SceneError(f"missing required field {missing!r}", where)
    for key, child, kind, _, rule, shape, form, variant in rows:
        if key not in value:
            continue
        v = value[key]
        if shape:
            _entries(v, child, key, kind, rule, shape, form, numbers)
        elif kind == NUMBER:
            numbers[child] = _number(v, child, key, *rule[:4])
        elif kind == OBJECT:
            if child in _ROWS or not isinstance(v, dict):  # an object with no rows below takes any keys
                _object(v, child, variant and variant[0], numbers)
        elif kind == PATH:
            if v is not None and not (isinstance(v, str) and v):
                raise SceneError(f"{key} must be a file path", child)
        elif not isinstance(v, str) or (kind == ENUM and v not in rule):
            _refuse_text(v, child, key, rule, form)


def _entries(value, field, key, kind, rule, shape, form, numbers):
    """Check the entries of a field of LIST or PAIR ``shape``, or the numbers of an OBJECT."""
    if shape == OBJECT:
        if not isinstance(value, dict):
            raise SceneError("must be a JSON object", field)
        numbers[field] = {k: _number(v, field, f"{key}[{k!r}]", *rule[:4]) for k, v in value.items()}
        return
    if not isinstance(value, list) or not value or (shape == PAIR and len(value) != 2):
        raise SceneError(f"{key} must be a {shape}", field)
    if kind == NUMBER:
        numbers[field] = [_number(v, field, f"{key}[{i}]", *rule[:4]) for i, v in enumerate(value)]
        return
    for i, v in enumerate(value):
        if not isinstance(v, str) or (kind == ENUM and v not in rule):
            _refuse_text(v, f"{field}[{i}]" if kind == EXPRESSION else field, key, rule, form)


def _refuse_text(value, field, key, rule, form):
    """Refuse a string field's ``value`` that is not text, or is neither one of an enum's
    values (``rule``) nor of its ``form`` (shown as SPACEFORM, the one form)."""
    if not isinstance(value, str):
        raise SceneError("must be a string", field)
    if not (form and form.match(value)):
        shown = rule + (SPACEFORM,) if form else rule
        raise SceneError(f"{key} must be one of {', '.join(shown)}, got {_short(value)}", field)


class Scene(NamedTuple):
    raw: dict
    ambient: WarpedProduct
    immersion: Immersion
    profile: object  # solved ProfileCurve for rotational presets, else None
    grid: np.ndarray  # (N, n) chart points, row-major
    checks: list  # (kind, c) pairs: c is the value of "spaceform c=", else None
    report_path: str | None
    mesh_path: str | None


def validate_scene(data):
    """Check a scene dictionary against ``FIELDS``, then build the runtime objects."""
    numbers = {}
    _object(data, "", None, numbers)
    amb, output = data["ambient"], data.get("output", {})
    if output.get("mesh") and amb["n"] != 2:
        raise SceneError(f"mesh export needs n = 2, got n = {amb['n']}", field="output.mesh")
    lo, hi = numbers["ambient.interval"]
    try:
        f_expr = parse_expr(amb["f"], variables={"t"})
        ambient = WarpedProduct((lo, hi), f_expr, amb["fiber"], amb["n"])
    except WarpGeoError as exc:
        raise SceneError(str(exc), field="ambient.f") from None
    except ValueError as exc:  # the interval's fault when it is refused, else f's
        raise SceneError(str(exc), field="ambient" if interval_fault((lo, hi)) else "ambient.f") from None

    imm_block = data["immersion"]
    profile = None
    if "preset" in imm_block:
        immersion, profile = build_preset(imm_block["preset"], ambient, imm_block.get("params", {}))
    else:
        names = tuple(imm_block["chart"]["names"])
        if not all(map(is_name, names)) or len(set(names)) < len(names) or set(names) & {*CONSTANTS, *FUNCTIONS}:
            message = f"chart names must be distinct NAMEs, not constants or functions: {list(names)}"
            raise SceneError(message, field="immersion.chart.names")
        try:
            chart = ChartBox(names, *(tuple(numbers[f"immersion.chart.{k}"]) for k in ("lower", "upper")))
        except ValueError as exc:
            raise SceneError(str(exc), field="immersion.chart") from None
        exprs = []
        for idx, src in enumerate(imm_block["components"]):
            try:  # an undeclared variable is an UnknownIdentifier
                exprs.append(parse_expr(src, variables=set(names)))
            except WarpGeoError as exc:
                raise SceneError(str(exc), field=f"immersion.components[{idx}]") from None
        try:
            immersion = Immersion(ambient, chart, exprs)
        except ValueError as exc:
            raise SceneError(str(exc), field="immersion") from None

    names, per_name = immersion.chart.names, []
    for field in ("grid.samples", "grid.margins"):
        given = numbers.get(field, {})
        if not given.keys() <= set(names):
            message = f"{field[5:]} given for unknown variables {sorted(given.keys() - set(names))}"
            raise SceneError(message, field)
        default = FIELDS[field].rule.default
        per_name.append({v: given.get(v, default) for v in names})
    try:
        grid = immersion.chart.grid(*per_name)
    except ValueError as exc:  # more than MAX_GRID_POINTS, refused before building
        raise SceneError(str(exc), field="grid.samples") from None

    checks = [(raw, None) if raw in CHECKS else
              ("spaceform", _number(float(SPACEFORM_RE.match(raw)[1]), "checks", "spaceform c"))
              for raw in data["checks"]]
    return Scene(data, ambient, immersion, profile, grid, checks, output.get("report"), output.get("mesh"))


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


def _probe_warping(scene):
    """The probe heights of each check whose row of ``CHECKS`` counts some, with f's triple at them, by kind,
    from one run of f over them in check order; where f fails there it is None: each check runs f alone, the
    first to fail raises."""
    window = scene.ambient.probe_window()
    heights = {kind: np.linspace(*window, CHECKS[kind][1]) for kind, _ in scene.checks if CHECKS[kind][1]}
    ends = np.cumsum([0, *map(len, heights.values())])
    try:
        triple = eval_warping(scene.ambient.tape, np.concatenate(list(heights.values()))) if heights else None
    except DomainError:
        triple = None
    return {kind: (t, triple and tuple(a[lo:hi] for a in triple)) for (kind, t), lo, hi in
            zip(heights.items(), ends, ends[1:])}


def run_scene(scene):
    """Execute the requested checks; returns (report_dict, all_passed).

    The geometry is computed in one pass before the first check (the probe
    block of ``grid_geometry`` runs even when no check reads a point): the
    scene grid when a check's row of ``CHECKS`` names a jet order, at the
    highest order named, then the whole classification
    grid unless it is that grid, so a point in both is evaluated twice.
    The classification reads the tail of the pass that holds its grid; the
    profile residuals, which may raise SigmaZero, run first.  A failing
    probe that is the immersion's fault (``PointError.immersion_fault``) is
    a SceneError naming the immersion block.
    """
    started = time.perf_counter()
    kinds = {kind for kind, _ in scene.checks}
    imm, curve = scene.immersion, scene.profile
    order = max(map(CHECKS.get, kinds))[0]  # the highest jet order at which a check reads the scene grid, or 0
    points = scene.grid if order else scene.grid[:0]
    size = len(points)
    classify = curve is not None and "rotational-classification" in kinds
    if classify:
        from .rotational import classification_grid, classify_rotational, profile_residuals

        residuals = profile_residuals(curve)
        extra = classification_grid(curve.profile)
        points = points if size else extra  # with no grid check, the classification grid alone
        tail = 0 if np.array_equal(points, extra) else size  # the first row of the classification grid
        points = np.concatenate([points, extra]) if tail else points
    geometry = soliton = classification = None
    try:
        record = grid_geometry(imm, points, max(order, 2))
    except PointError as exc:
        if not exc.immersion_fault:
            raise
        field = "immersion.params" if "preset" in scene.raw["immersion"] else "immersion"
        raise SceneError(str(exc), field=field) from None
    if size:
        geometry = record if size == len(points) else _leaves(lambda a: a[..., :size], record)
    if classify:  # a view of a read-only array is read-only
        classification = classify_rotational(imm, _leaves(lambda a: a[..., tail:], record) if tail else record,
                                             residuals)
    if kinds & {"soliton", "structural"}:
        soliton = soliton_report(geometry)
    warping = _probe_warping(scene)
    results = [check_report(kind, imm, geometry, warping.get(kind), soliton, classification, c)
               for kind, c in scene.checks]

    if soliton is not None:  # the block adds each applicable check's sup error, or an inequality's violation
        recorded = {r.name: max(0.0, -r.worst_value) if r.sup_error is None else r.sup_error
                    for r in results if r.name != "soliton" and r.status != "not_applicable"}
        soliton = soliton._replace(identity_checks=MappingProxyType({**soliton.identity_checks, **recorded}))

    warnings = []
    if scene.mesh_path:
        from .objmesh import surface_vertices, write_obj

        chart = imm.chart
        u_values = chart.axis_points(chart.names[0], 33, 0.02)
        v_values = chart.axis_points(chart.names[1], 33, 0.02)
        write_obj(scene.mesh_path, surface_vertices(imm, u_values, v_values))
        warnings.append(MESH_WARNING)

    report = document({"scene": scene.raw, "checks": [r.to_dict(imm.chart.names) for r in results],
                       "soliton": None if soliton is None else soliton.to_dict()}, warnings, started)
    all_passed = all(r.status in ("pass", "not_applicable") for r in results)
    return report, all_passed
