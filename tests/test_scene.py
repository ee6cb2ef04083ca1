import contextlib
import copy
import io
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpgeo import hypersurface, jets, rotational
from warpgeo import scene as scene_module
from warpgeo.ambient import WarpedProduct
from warpgeo.catalogue import PRESETS, build_preset, sphere_immersion
from warpgeo.cli import main
from warpgeo.errors import DomainError, SceneError, _number
from warpgeo.hypersurface import MAX_GRID_POINTS, Immersion
from warpgeo.jets import _leaves
from warpgeo.intrinsic import grid_geometry
from warpgeo.scene import FIELDS, report_to_json, run_scene, validate_scene
from warpgeo.soliton import CHECKS, SolitonReport, soliton_report


def hyperplane_scene(**overrides):
    scene = {
        "schema_version": 1,
        "ambient": {"interval": ["-inf", "inf"], "f": "1", "fiber": "euclidean", "n": 2},
        "immersion": {"preset": "hyperplane"},
        "grid": {"samples": {"u": 5, "v1": 5}},
        "checks": ["lemma1", "soliton"],
        "output": {},
    }
    scene.update(overrides)
    return scene


def test_valid_scene_builds():
    scene = validate_scene(hyperplane_scene())
    assert scene.ambient.n == 2
    assert len(scene.grid) == 25
    assert scene.profile is None


def test_unknown_root_field_rejected():
    data = hyperplane_scene()
    data["extra"] = 1
    with pytest.raises(SceneError) as err:
        validate_scene(data)
    assert "extra" in str(err.value)


def test_unknown_ambient_field_rejected():
    data = hyperplane_scene()
    data["ambient"]["warp"] = "exp(t)"
    with pytest.raises(SceneError) as err:
        validate_scene(data)
    assert err.value.field == "ambient"


@pytest.mark.parametrize(
    "drop, field, key",
    [(lambda d: d.pop("checks"), "<root>", "checks"), (lambda d: d["ambient"].pop("f"), "ambient", "f")],
    ids=["checks", "ambient-f"],
)
def test_missing_required_field_is_named(drop, field, key):
    data = hyperplane_scene()
    drop(data)
    with pytest.raises(SceneError, match=f"missing required field {key!r}") as err:
        validate_scene(data)
    assert err.value.field == field


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d["ambient"].update(fiber="weird"), "ambient.fiber"),
        (lambda d: d["ambient"].update(n=0), "ambient.n"),
        pytest.param(lambda d: d["ambient"].update(n=True), "ambient.n", id="boolean-n"),
        (lambda d: d["ambient"].update(interval=[3, 1]), "ambient"),
        (lambda d: d["ambient"].update(f="2x"), "ambient.f"),
        pytest.param(lambda d: d["ambient"].update(f="1e400"), "ambient.f", id="infinite-f"),
        pytest.param(
            lambda d: d["ambient"].update(f="(" * 2000 + "1" + ")" * 2000), "ambient.f",
            id="deep-f",
        ),
        (lambda d: d["ambient"].update(interval=["oops", 1]), "ambient.interval"),
        (lambda d: d.update(checks=[]), "checks"),
        (lambda d: d.update(checks=["nonsense"]), "checks"),
        pytest.param(lambda d: d.update(checks=["spaceform c=٣"]), "checks", id="spaceform-digit-three"),
        pytest.param(lambda d: d.update(checks=["spaceform c=-١"]), "checks", id="spaceform-digit-one"),
        pytest.param(lambda d: d.update(checks=["spaceform\u3000c=3"]), "checks", id="spaceform-ideographic-space"),
        pytest.param(lambda d: d.update(checks=["spaceform\u00a0c=3"]), "checks", id="spaceform-no-break-space"),
        pytest.param(lambda d: d.update(checks=["spaceform c=3\n"]), "checks", id="spaceform-trailing-newline"),
        pytest.param(lambda d: d.update(checks=["spaceform c=<number>"]), "checks", id="spaceform-placeholder"),
        (lambda d: d["grid"].update(samples={"u": 2, "v1": 5}), "grid.samples"),
        (lambda d: d["grid"].update(samples={"w": 5}), "grid.samples"),
        pytest.param(
            lambda d: d["grid"].update(samples={"u": 1000, "v1": 1000}), "grid.samples",
            id="oversized-grid",
        ),
        (lambda d: d["grid"].update(margins={"u": 0.9}), "grid.margins"),
        (lambda d: d["immersion"].update(preset="missing"), "immersion.preset"),
        (lambda d: d.update(schema_version=2), "schema_version"),
    ],
)
def test_validation_errors_name_the_field(mutate, field):
    data = hyperplane_scene()
    mutate(data)
    with pytest.raises(SceneError) as err:
        validate_scene(data)
    assert err.value.field == field


def _chart_scene(lower, names=("u", "v")):
    data = hyperplane_scene(grid={})
    chart = {"names": list(names), "lower": lower, "upper": [1, 1]}
    data["immersion"] = {"components": ["u", "0", "v"], "chart": chart}
    return data


@pytest.mark.parametrize(
    "data, field, message",
    [
        (hyperplane_scene(checks=["nonsense"]), "checks",
         "checks must be one of lemma1, soliton, structural, theorem1, theorem3, theorem4a, "
         "theorem4b, theorem5, rotational-classification, spaceform c=<number>, got 'nonsense'"),
        (hyperplane_scene(ambient={"interval": [0, "oops"], "f": "1", "fiber": "euclidean", "n": 2}),
         "ambient.interval", "interval[1] must be a number, got 'oops'"),
        (hyperplane_scene(grid={"samples": {"u": 2}}), "grid.samples", "samples['u'] must lie in [3, 10000], got 2"),
        (hyperplane_scene(grid={"margins": {"v1": 0.9}}), "grid.margins",
         "margins['v1'] must lie in (0.0, 0.5), got 0.9"),
        (_chart_scene([-1, True]), "immersion.chart.lower", "lower[1] must be a number, got True"),
        (_chart_scene([]), "immersion.chart.lower", "lower must be a non-empty list"),
        # entries are read before the grid and the chart names are checked against the chart
        (hyperplane_scene(grid={"samples": {"w": 2}}), "grid.samples", "samples['w'] must lie in [3, 10000], got 2"),
        (_chart_scene(["x", -1], names=("pi", "v")), "immersion.chart.lower", "lower[0] must be a number, got 'x'"),
        (hyperplane_scene(ambient={"interval": [0, 1, 2], "f": "1", "fiber": "euclidean", "n": 2}),
         "ambient.interval", "interval must be a [lo, hi] pair"),
        # three names and three lower bounds, two upper ones
        (_chart_scene([-1, -1, -1], names=("u", "v", "w")), "immersion.chart",
         "chart names and bounds must have equal length"),
        # a repeated name is the scene's to refuse, before the immersion's tape is compiled
        (_chart_scene([-1, -1], names=("u", "u")), "immersion.chart.names",
         "chart names must be distinct NAMEs, not constants or functions: ['u', 'u']"),
    ],
    ids=["check", "interval", "samples", "margins", "chart-bound", "chart-bounds-empty", "samples-unknown-name",
         "bound-before-names", "interval-of-three", "chart-bounds-unequal", "chart-names-repeated"],
)
def test_refusals_name_the_entry(data, field, message):
    with pytest.raises(SceneError) as err:
        validate_scene(data)
    assert err.value.field == field and str(err.value) == f"scene field {field!r}: {message}"


@pytest.mark.parametrize(
    "value, rule, expected",
    [
        (2, {"integer": True, "lo": 1, "hi": 8}, 2),
        (0.25, {"lo": 0.0, "hi": 0.5}, 0.25),
        (3, {}, 3.0),
        ("-inf", {"finite": False}, -math.inf),
        (" Infinity ", {"finite": False}, math.inf),
        (10**400, {"finite": False}, math.inf),
    ],
)
def test_number_rule_reads(value, rule, expected):
    number = _number(value, "grid.margins", "x", **rule)
    assert number == expected and type(number) is type(expected)


@pytest.mark.parametrize(
    "value, rule",
    [
        (True, {}), (False, {"integer": True}), (True, {"finite": False}), (None, {}), ([1], {}),
        ("1", {}), ("inf", {}), ("-infinity", {"finite": False}), (1.0, {"integer": True}),
        (math.inf, {}), (math.nan, {}), (10**400, {}), (0.5, {"lo": 0.0, "hi": 0.5}),
        (0, {"integer": True, "lo": 1}), (9, {"integer": True, "lo": 1, "hi": 8}),
    ],
)
def test_number_rule_refuses(value, rule):
    with pytest.raises(SceneError) as err:
        _number(value, "grid.margins", "x", **rule)
    assert err.value.field == "grid.margins" and str(err.value).startswith("scene field")


def test_a_preset_refuses_what_it_cannot_build():
    # library callers reach the builders without validate_scene: an unknown name is a
    # SceneError naming the preset field, a sphere over a sphere fiber a ValueError
    ambient = WarpedProduct((0.1, 3.0), "sin(t)", "sphere", 2)
    with pytest.raises(SceneError, match="unknown preset 'missing'") as err:
        build_preset("missing", ambient, {})
    assert err.value.field == "immersion.preset"
    with pytest.raises(ValueError, match="sphere preset needs a Euclidean fiber"):
        sphere_immersion(ambient)


def test_readme_lists_every_scene_field_and_preset():
    # one bullet per row of FIELDS, marked required as the row is, with
    # every number's default and every enum value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scene files", 1)[1].split("\n## ", 1)[0]
    bullets = {item.split("`")[1]: " ".join(item.split()) for item in section.split("\n* ")[1:]}
    assert list(bullets) == list(FIELDS)
    for field, row in FIELDS.items():
        assert bullets[field].startswith(f"`{field}` (required") == row.required, field
        if row.kind == scene_module.NUMBER and row.rule.default is not None:
            assert f"default {row.rule.default}" in bullets[field], field
        if row.kind == scene_module.ENUM:
            for value in row.rule + ((scene_module.SPACEFORM,) if row.form else ()):
                assert f"`{value}`" in bullets[field], (field, value)
    for name, (_, params, _) in PRESETS.items():
        assert f"`{name}`" in bullets["immersion.preset"], name
        for key in params:
            assert f"`{key}`" in bullets["immersion.preset"], (name, key)


def test_readme_lists_the_checks_in_table_order():
    # the checks field has one sub-bullet per row of CHECKS (theorem1 to theorem5 share one),
    # its names before the colon, and spaceform shown as it is written in a scene
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n* `checks` (required)", 1)[1].split("\n\n", 1)[0]
    heads = [line.split("`:", 1)[0] + "`" for line in section.splitlines() if line.startswith("  - ")]
    names = [name for head in heads for name in head.split("`")[1::2]]
    assert names == [scene_module.SPACEFORM if kind == "spaceform" else kind for kind in CHECKS]


@pytest.mark.parametrize("kind", CHECKS)
def test_each_row_of_the_check_table_drives_the_run(monkeypatch, kind):
    # a scene with this one check: the pass reads the scene grid at the row's jet order, or
    # none of it at order 0, and f runs once over as many probe heights as the row counts
    passes, probes = [], []
    record, warping = scene_module.grid_geometry, scene_module.eval_warping
    monkeypatch.setattr(scene_module, "grid_geometry",
                        lambda imm, points, order=2: passes.append((len(points), order)) or record(imm, points, order))
    monkeypatch.setattr(scene_module, "eval_warping", lambda tape, t: probes.append(len(t)) or warping(tape, t))
    scene = validate_scene(hyperplane_scene(checks=["spaceform c=0" if kind == "spaceform" else kind]))
    report, _ = run_scene(scene)
    order, count, rule = CHECKS[kind]
    assert passes == [(len(scene.grid), order) if order else (0, 2)]
    assert probes == ([count] if count else [])
    [entry] = report["checks"]
    assert entry["name"] == (kind if kind != "spaceform" else "spaceform c=0.0")
    # an identity reports its sup error and no margin, an inequality the reverse
    if rule:
        assert entry["status"] == "pass"
        assert ("sup_error" in entry) == (rule == "identity")
        assert ("worst_margin" in entry.get("extras", {})) == (rule == "inequality")


def _scene_with_every_field(field):
    """A valid scene holding every row of its immersion form: the form of ``field``."""
    data = hyperplane_scene(
        grid={"samples": {"u": 3, "v1": 3}, "margins": {"u": 0.1, "v1": 0.1}},
        checks=["lemma1", "spaceform c=0"],
        output={"report": "report.json", "mesh": "mesh.obj"},
    )
    data["immersion"]["params"] = {"half_width": 1.0}
    if field.startswith(("immersion.chart", "immersion.components")):
        data["immersion"] = {
            "components": ["u", "0", "v1"],
            "chart": {"names": ["u", "v1"], "lower": [-1, -1], "upper": [1, 1]},
        }
    return data


# text that looks like an enum's value: how the spaceform check is shown, and every enum's values
_ENUM_LIKE = [scene_module.SPACEFORM, *(v for row in FIELDS.values() if row.kind == scene_module.ENUM for v in row.rule)]
# values of the JSON kinds: a boolean, null, lists, objects, text, non-finite
# and non-ASCII-digit text, an integer beyond the float range, numbers
_VALUES = [True, None, [], [1], {}, {"a": 1}, "text", "", "nan", "inf", "\u0661", 10**400, 1.5, 0, *_ENUM_LIKE]


def _wrong_kind(row, value, whole):
    """Whether ``row`` refuses ``value`` by its kind alone: as the whole field,
    or (``whole`` false) as one entry of a list, pair or object of them."""
    shape = row.shape if whole else None
    if shape in (scene_module.LIST, scene_module.PAIR):
        return not (isinstance(value, list) and value)
    if scene_module.OBJECT in (shape, row.kind):
        return not isinstance(value, dict)
    if row.kind == scene_module.NUMBER:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return row.rule.finite or value != "inf"
        return value == 10**400 and row.rule.finite
    if row.kind == scene_module.PATH:
        return value is not None and not (isinstance(value, str) and value)
    if not isinstance(value, str) or row.kind != scene_module.ENUM:
        return not isinstance(value, str)
    return value not in row.rule and not (row.form and row.form.match(value))


@pytest.mark.parametrize("form", ["immersion.preset", "immersion.chart"])
def test_the_fuzzed_scenes_are_valid(form):
    assert validate_scene(_scene_with_every_field(form)).report_path == "report.json"


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_value_of_the_wrong_kind_is_refused_naming_its_field(tmp_path, data):
    # every row of FIELDS, set (or one entry of it set) to a value of a
    # kind it does not take: validation names the row or its block, and
    # the CLI exits 2 with no traceback
    field = data.draw(st.sampled_from(list(FIELDS)), label="field")
    row = FIELDS[field]
    whole = row.shape is None or data.draw(st.booleans(), label="whole")
    value = data.draw(st.sampled_from([v for v in _VALUES if _wrong_kind(row, v, whole)]), label="value")
    _assert_refused_naming(tmp_path, field, whole, value)


@pytest.mark.parametrize(
    "field, value",
    [(field, v) for field, row in FIELDS.items() if row.kind == scene_module.ENUM
     for v in _ENUM_LIKE if _wrong_kind(row, v, False)],
)
def test_text_like_an_enum_value_is_refused_naming_its_field(tmp_path, field, value):
    # every enum row, or one entry of it, set to text that is not among its
    # values: another enum's value, or how the spaceform check is shown
    _assert_refused_naming(tmp_path, field, FIELDS[field].shape is None, value)


def _assert_refused_naming(tmp_path, field, whole, value):
    """Set ``field`` (``whole``) or its first entry to ``value`` in a valid scene: validation
    names the row or its block, and the CLI exits 2 naming it with no traceback."""
    scene = _scene_with_every_field(field)
    block, _, key = field.rpartition(".")
    holder = scene
    for part in filter(None, block.split(".")):
        holder = holder[part]
    if whole:
        holder[key] = value
    else:
        entries = holder[key]
        entries[next(iter(entries)) if isinstance(entries, dict) else 0] = value
    with pytest.raises(SceneError) as err:
        validate_scene(copy.deepcopy(scene))
    named = err.value.field
    assert named in (field, block or "<root>") or named.startswith(f"{field}["), (named, value)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", str(path)]) == 2
    assert f"scene field {named!r}" in stderr.getvalue() and "Traceback" not in stderr.getvalue()


class _Built(Exception):
    pass


def _refuse_build(*args, **kwargs):
    raise _Built


def test_fiber_dimension_refused_before_the_ambient_is_built(monkeypatch):
    # every grid axis takes at least 3 samples and 3^9 > MAX_GRID_POINTS,
    # so n = 8 is the largest; a larger n never reaches WarpedProduct
    monkeypatch.setattr(scene_module, "WarpedProduct", _refuse_build)
    scene = hyperplane_scene()
    scene["ambient"]["n"] = 8
    with pytest.raises(_Built):
        validate_scene(scene)
    for n in (9, 150, 10**6):
        scene["ambient"]["n"] = n
        with pytest.raises(SceneError) as err:
            validate_scene(scene)
        assert err.value.field == "ambient.n", n


def test_component_immersion_scene():
    data = hyperplane_scene()
    data["immersion"] = {
        "components": ["u", "0", "v"],
        "chart": {"names": ["u", "v"], "lower": [-1, -1], "upper": [1, 1]},
    }
    data["grid"] = {"samples": {"u": 4, "v": 4}}
    scene = validate_scene(data)
    assert len(scene.grid) == 16


def test_component_with_undeclared_variable():
    data = hyperplane_scene()
    data["immersion"] = {
        "components": ["u", "0", "w"],
        "chart": {"names": ["u", "v"], "lower": [-1, -1], "upper": [1, 1]},
    }
    with pytest.raises(SceneError) as err:
        validate_scene(data)
    assert "components[2]" in err.value.field


def test_spaceform_check_parsing():
    data = hyperplane_scene(checks=["spaceform c=0"])
    scene = validate_scene(data)
    assert scene.checks[0][0] == "spaceform"
    assert scene.checks[0][1] == 0.0
    with pytest.raises(SceneError):
        validate_scene(hyperplane_scene(checks=["spaceform c=abc"]))


def test_spaceform_check_fails_at_the_wrong_curvature():
    # f = exp(t) over a flat fiber is hyperbolic space, of curvature -1
    data = hyperplane_scene(checks=["spaceform c=-1", "spaceform c=1"])
    data["ambient"]["f"] = "exp(t)"
    report, passed = run_scene(validate_scene(data))
    assert [c["status"] for c in report["checks"]] == ["pass", "fail"] and not passed


def test_run_hyperplane_scene():
    scene = validate_scene(hyperplane_scene())
    report, passed = run_scene(scene)
    assert passed
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses == {"lemma1": "pass", "soliton": "pass"}
    assert report["soliton"]["classification"] == "steady"
    assert report["soliton"]["verdict"] == "soliton"


def test_run_sphere_scene():
    data = hyperplane_scene()
    data["immersion"] = {"preset": "sphere"}
    data["grid"] = {"samples": {"u": 5, "v1": 5}}
    data["checks"] = ["lemma1", "soliton", "structural"]
    scene = validate_scene(data)
    report, passed = run_scene(scene)
    assert passed
    assert report["soliton"]["classification"] == "shrinking"
    assert 1.0 < report["soliton"]["lambda_min"] < report["soliton"]["lambda_max"] < 3.0
    structural = next(c for c in report["checks"] if c["name"] == "structural")
    assert structural["status"] == "pass"
    assert structural["sup_error"] < 1e-12


def test_structural_not_applicable_without_soliton():
    data = hyperplane_scene()
    data["ambient"] = {
        "interval": [0, math.pi],
        "f": "sin(t)",
        "fiber": "euclidean",
        "n": 2,
    }
    data["immersion"] = {
        "preset": "rotational",
        "params": {"theta": 0.5, "u0": 0.5, "u1": 1.0},
    }
    data["grid"] = {"samples": {"u": 5, "v1": 5}}
    data["checks"] = ["soliton", "structural", "rotational-classification"]
    scene = validate_scene(data)
    report, passed = run_scene(scene)
    assert not passed
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["soliton"] == "fail"
    assert statuses["structural"] == "not_applicable"
    assert statuses["rotational-classification"] == "fail"
    soliton = next(c for c in report["checks"] if c["name"] == "soliton")
    assert soliton["sup_error"] > 1e-2


def test_rotational_classification_pass():
    data = hyperplane_scene()
    data["ambient"] = {
        "interval": ["-inf", "inf"],
        "f": "exp(t)",
        "fiber": "euclidean",
        "n": 2,
    }
    data["immersion"] = {"preset": "example5"}
    data["grid"] = {"samples": {"u": 5, "v1": 5}}
    data["checks"] = ["soliton", "rotational-classification", "spaceform c=-1"]
    scene = validate_scene(data)
    report, passed = run_scene(scene)
    assert passed
    assert report["soliton"]["classification"] == "steady"


def test_rotational_classification_not_applicable_for_presets():
    scene = validate_scene(hyperplane_scene(checks=["rotational-classification"]))
    report, passed = run_scene(scene)
    assert passed  # not_applicable does not fail the run
    assert report["checks"][0]["status"] == "not_applicable"


def test_every_requested_check_appears_once():
    checks = ["lemma1", "soliton", "theorem1", "theorem3", "theorem4a", "theorem4b", "theorem5"]
    scene = validate_scene(hyperplane_scene(checks=checks))
    report, _ = run_scene(scene)
    names = [c["name"] for c in report["checks"]]
    assert names == checks


def test_soliton_block_aggregates_identity_checks():
    checks = ["lemma1", "soliton", "structural", "theorem3", "theorem4a"]
    scene = validate_scene(hyperplane_scene(checks=checks))
    report, _ = run_scene(scene)
    identity = report["soliton"]["identity_checks"]
    assert "lemma_hessian" in identity
    assert "lemma1" in identity and identity["lemma1"] < 1e-7
    assert "structural" in identity and identity["structural"] < 1e-12
    assert "theorem3" in identity
    assert identity["theorem4a"] == 0.0  # bound holds with equality


def test_run_scene_builds_the_soliton_block_without_mutating_its_report(monkeypatch):
    built = []

    def spied_soliton_report(geometry):
        report = soliton_report(geometry)
        built.append((report, dict(report.identity_checks)))
        return report

    monkeypatch.setattr(scene_module, "soliton_report", spied_soliton_report)
    checks = ["lemma1", "soliton", "structural", "theorem4a"]
    report, _ = run_scene(validate_scene(hyperplane_scene(checks=checks)))
    [(soliton, before)] = built
    assert soliton.identity_checks == before and list(before) == ["lemma_hessian"]
    assert list(report["soliton"]["identity_checks"]) == ["lemma1", "lemma_hessian", "structural", "theorem4a"]


def test_published_mappings_refuse_writes(monkeypatch):
    # the extras of every check result, nested ones too, and the soliton block before
    # and after the run adds its checks are read-only, and _replace keeps them so
    results, blocks = [], []
    run_check, block_to_dict = scene_module.check_report, SolitonReport.to_dict
    monkeypatch.setattr(scene_module, "check_report", lambda *args: results.append(run_check(*args)) or results[-1])
    monkeypatch.setattr(scene_module, "soliton_report", lambda g: blocks.append(soliton_report(g)) or blocks[-1])
    monkeypatch.setattr(SolitonReport, "to_dict", lambda self: blocks.append(self) or block_to_dict(self))
    checks = ["soliton", "theorem1", "theorem5", "spaceform c=-1", "rotational-classification"]
    report, _ = run_scene(validate_scene(example5_scene(checks)))
    assert [r.name for r in results] == [entry["name"] for entry in report["checks"]] and len(blocks) == 2
    theorem1 = results[1]
    replaced = theorem1._replace(extras={"as_oriented": {"margin": 0.0}})
    mappings = [r.extras for r in results] + [b.identity_checks for b in blocks]
    mappings += [theorem1.extras["as_oriented"], replaced.extras, replaced.extras["as_oriented"]]
    for mapping in mappings:
        assert mapping
        with pytest.raises(TypeError):
            mapping["x"] = 1.0


def _writable(record):
    """Whether each array of ``record`` is writable."""
    flags = []
    _leaves(lambda a: flags.append(a.flags.writeable), record)
    return flags


@pytest.mark.parametrize("slice_points", [hypersurface.SLICE_POINTS, 32], ids=["one-slice", "joined-slices"])
def test_published_arrays_refuse_writes(monkeypatch, rotational_soliton, slice_points):
    # every array of a record, also after its slices are joined (np.concatenate returns
    # writable arrays), and the lambda samples of its soliton report are read-only
    monkeypatch.setattr(hypersurface, "SLICE_POINTS", slice_points)
    geometry = grid_geometry(rotational_soliton, rotational_soliton.chart.grid(9), 3)
    flags = _writable(geometry)
    assert len(flags) > 20 and not any(flags)
    with pytest.raises(ValueError, match="read-only"):
        geometry.lam[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        soliton_report(geometry).lambda_samples[0] = 99.0


def test_classification_rows_refuse_writes(monkeypatch):
    # the classification reads views of the tail of the scene's record, and a
    # view of a read-only array is read-only: every array of every field
    seen = []
    classify = rotational.classify_rotational
    monkeypatch.setattr(rotational, "classify_rotational", lambda imm, g, r: seen.append(g) or classify(imm, g, r))
    run_scene(validate_scene(rotational_cosh_scene(["soliton", "rotational-classification"])))
    flags = _writable(seen[0])
    assert len(flags) > 20 and not any(flags)
    with pytest.raises(ValueError, match="read-only"):
        seen[0].lam[0] = 5.0


def test_report_schema_round_trip():
    scene = validate_scene(hyperplane_scene())
    report, _ = run_scene(scene)
    text = report_to_json(report)
    assert json.loads(text) == report
    assert report_to_json(json.loads(text)) == text


def test_report_determinism_modulo_timing():
    data = hyperplane_scene()
    first, _ = run_scene(validate_scene(copy.deepcopy(data)))
    second, _ = run_scene(validate_scene(copy.deepcopy(data)))
    first["timing_seconds"] = 0.0
    second["timing_seconds"] = 0.0
    assert report_to_json(first) == report_to_json(second)
    assert report_to_json(first).encode() == report_to_json(second).encode()


def test_report_carries_schema_and_version():
    scene = validate_scene(hyperplane_scene())
    report, _ = run_scene(scene)
    assert report["schema_version"] == 1
    import warpgeo

    assert report["tool_version"] == warpgeo.__version__


def example5_scene(checks):
    data = hyperplane_scene(checks=checks)
    data["ambient"]["f"] = "exp(t)"
    data["immersion"] = {"preset": "example5"}
    return data


def _without_timing(report):
    return json.loads(report_to_json({**report, "timing_seconds": 0.0}))


@pytest.mark.parametrize(
    "data",
    [
        example5_scene(list(CHECKS)[:-1] + ["spaceform c=-1"]),
        hyperplane_scene(
            ambient={"interval": ["-inf", "inf"], "f": "1", "fiber": "euclidean", "n": 3},
            immersion={"preset": "sphere"},
            grid={"samples": {"u": 3, "v1": 3, "v2": 3}},
            checks=["structural"],
        ),
    ],
    ids=["example5-every-check", "sphere3-structural"],
)
def test_one_scene_runs_from_two_threads_at_once(data):
    # an Immersion does not change after construction and a pass keeps its
    # state to itself, so one validated scene may run from two threads at
    # once: each report equals the serial one apart from the timing
    scene = validate_scene(data)
    serial = _without_timing(run_scene(scene)[0])
    start, reports = threading.Barrier(2), [None, None]

    def run(slot):
        start.wait()
        reports[slot] = _without_timing(run_scene(scene)[0])

    threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-pass
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [serial, serial]


def count_component_jets(monkeypatch):
    """The (points, order) of every ``Immersion.component_jets`` call from now on."""
    calls = []
    component_jets = Immersion.component_jets

    def counted(self, points, order=2):
        calls.append((len(points), order))
        return component_jets(self, points, order)

    monkeypatch.setattr(Immersion, "component_jets", counted)
    return calls


@pytest.mark.parametrize("classification", [False, True])
@pytest.mark.parametrize("structural", [False, True])
def test_run_scene_evaluates_jets_once_per_grid_point(monkeypatch, structural, classification):
    # one batched call each, covering the probe rows and every grid point
    # exactly once.  f is compiled once per owner and never at run time:
    # the only tapes run are the immersion's (once, over the pass), the
    # profile's (for beta in that pass and, for the classification, once
    # before it on the 16 heights of profile_residuals) and the ambient's
    # (once per batch in metric_jets, and once on the 64 probe heights of
    # theorem5 and the 200 of spaceform c=-1 together, in check order:
    # theorem5's fit of c and the residuals of each check_space_form read
    # that jet).  Only structural makes its one pass of order 3, and takes
    # d2D from the warping triple without running f again.  The 9 x 9
    # grid is the classification grid of example5, so the classification
    # adds no point to that pass
    checks = ["lemma1", "soliton", "theorem1", "theorem3", "theorem4a", "theorem4b", "theorem5", "spaceform c=-1"]
    checks += ["structural"] * structural + ["rotational-classification"] * classification
    data = example5_scene(checks)
    data["grid"] = {"samples": {"u": 9, "v1": 9}}
    scene = validate_scene(data)
    calls = {"component_jets": count_component_jets(monkeypatch), "metric_jets": []}
    owners = {id(owner.tape): name for name, owner in
              [("immersion", scene.immersion), ("ambient", scene.ambient), ("profile", scene.profile)]}
    runs, slots = [], jets.Tape.slots
    monkeypatch.setattr(jets.Tape, "slots", lambda tape, bindings, order: runs.append(
        (owners.get(id(tape)), np.size(next(iter(bindings.values()))), order)) or slots(tape, bindings, order))
    metric_jets = WarpedProduct.metric_jets

    def counted_metric_jets(self, q):
        calls["metric_jets"].append(len(q.t))
        return metric_jets(self, q)

    monkeypatch.setattr(WarpedProduct, "metric_jets", counted_metric_jets)
    report, _ = run_scene(scene)
    statuses = {check["name"]: check["status"] for check in report["checks"]}
    assert statuses["soliton"] == statuses.get("structural", "pass") == "pass"
    assert statuses.get("rotational-classification", "pass") == "pass"
    N = len(scene.grid)
    assert N == 81
    rows = 10 + N  # the chart center and the 3^2 probes lead the pass
    assert calls == {"component_jets": [(rows, 2 + structural)], "metric_jets": [rows]}
    pass_runs = [("immersion", rows, 2 + structural), ("profile", rows, 2), ("ambient", rows, 2)]
    assert runs == [("profile", 16, 2)] * classification + pass_runs + [("ambient", 64 + 200, 2)]


@pytest.mark.parametrize("checks", [["theorem5", "spaceform c=0"], ["spaceform c=0", "theorem5"], ["spaceform c=0"]])
def test_f_failing_at_a_probe_height_raises_as_its_check_alone(checks):
    # f has a kink at the third of the 200 heights of spaceform c=0 and at
    # none of theorem5's 64: the one run of f over both sets fails, so each
    # check runs f on its own heights, and the error, its height and its
    # index are the ones spaceform raises alone, whatever the check order
    window = WarpedProduct((-math.inf, math.inf), "1", "euclidean", 2).probe_window()
    t2 = float(np.linspace(*window, 200)[2])
    assert t2 not in np.linspace(*window, 64)
    data = hyperplane_scene(checks=checks)
    data["ambient"]["f"] = f"2+abs(t-({t2!r}))"
    with pytest.raises(DomainError) as err:
        run_scene(validate_scene(data))
    assert str(err.value) == f"warping function at t={t2!r}: abs is not differentiable at 0"
    assert err.value.index == 2


def rotational_cosh_scene(checks):
    data = hyperplane_scene(checks=checks, grid={"samples": {"u": 7, "v1": 7}})
    data["ambient"]["f"] = "cosh(t)"
    data["immersion"] = {"preset": "rotational", "params": {"theta": 0.5}}
    return data


@pytest.mark.parametrize("name, samples, added", [("example5", 9, 0), ("rotational-cosh", 7, 81)])
def test_the_classification_reads_the_tail_of_the_pass(monkeypatch, name, samples, added):
    # the pass holds the scene grid in its row-major order, then the whole
    # 9 x 9 classification grid in its own, and the classification reads
    # that tail, bit for bit; when the two grids are equal the pass holds
    # the scene grid alone, and the classification reads the record itself
    data = (example5_scene if name == "example5" else rotational_cosh_scene)(["soliton", "rotational-classification"])
    data["grid"] = {"samples": {"u": samples, "v1": samples}}
    scene = validate_scene(data)
    extra = rotational.classification_grid(scene.profile.profile)
    passes, records, classified = [], [], []
    geometry, classify = scene_module.grid_geometry, rotational.classify_rotational
    monkeypatch.setattr(scene_module, "grid_geometry", lambda imm, points, order=2: passes.append(points)
                        or records.append(geometry(imm, points, order)) or records[-1])
    monkeypatch.setattr(rotational, "classify_rotational", lambda imm, record, residuals: classified.append(record)
                        or classify(imm, record, residuals))
    run_scene(scene)
    assert len(passes[0]) == samples * samples + added and len(extra) == 81
    assert passes[0].tobytes() == (scene.grid if added == 0 else np.concatenate([scene.grid, extra])).tobytes()
    assert (classified[0] is records[0]) == (added == 0)
    assert classified[0].chart.T.tobytes() == extra.tobytes()
    assert classified[0].residual.tobytes() == grid_geometry(scene.immersion, extra).residual.tobytes()


@pytest.mark.parametrize(
    "checks, points",
    [
        # 49 grid points, then the 81 of the 9 x 9 classification grid,
        # 9 of them a second time
        (["soliton", "rotational-classification"], 130),
        # no grid check: the classification grid alone
        (["rotational-classification"], 81),
    ],
)
def test_rotational_scene_evaluates_jets_once(monkeypatch, checks, points):
    scene = validate_scene(rotational_cosh_scene(checks))
    calls = count_component_jets(monkeypatch)
    report, _ = run_scene(scene)
    assert calls == [(10 + points, 2)]  # after the center and the 3^2 probes
    assert report["checks"][-1]["status"] == "fail"  # cosh(t) is no exponential


@pytest.mark.parametrize(
    "data",
    [
        rotational_cosh_scene(["soliton", "rotational-classification"]),
        rotational_cosh_scene(["soliton", "structural", "rotational-classification"]),
        example5_scene(["soliton", "rotational-classification"]),
        example5_scene(["soliton", "structural", "rotational-classification"]),
    ],
    ids=["rotational-cosh", "rotational-cosh-structural", "example5", "example5-structural"],
)
def test_classification_rows_equal_their_own_pass(monkeypatch, data):
    # the record the classification reads holds, in every field, the bits
    # of a pass over the classification grid alone (a NaN counts as one
    # value): a result of a point does not depend on the rows before it
    seen = []
    classify = rotational.classify_rotational
    monkeypatch.setattr(rotational, "classify_rotational", lambda imm, g, r: seen.append(g) or classify(imm, g, r))
    scene = validate_scene(data)
    run_scene(scene)
    order = 3 if "structural" in data["checks"] else 2
    alone = grid_geometry(scene.immersion, rotational.classification_grid(scene.profile.profile), order)
    same = []
    _leaves(lambda a, b: same.append(_bits(a) == _bits(b)), seen[0], alone)
    assert len(same) > 20 and all(same)


def _bits(a):
    """The bytes of ``a`` with every NaN as the one NaN of numpy."""
    a = np.asarray(a)
    return np.where(np.isnan(a), np.nan, a).tobytes() + str(a.shape).encode()


def test_rotational_profile_is_evaluated_once_per_batch(monkeypatch):
    # the fiber block evaluates beta and the jet of f at alpha(u) once per
    # batch, for all n fiber coordinates; the classification takes sigma,
    # its exact derivative and the slopes f'/f from one jet of f and one
    # beta over 16 values of u, before the scene's one pass, which holds
    # the 10 probe rows (the center and 3^2 probes), the 25 grid points and
    # the 81 classification points, 25 of them a second time.  Each jet of f along the
    # profile is one run of the profile's own tape, compiled when it was solved
    scene = validate_scene(example5_scene(["soliton", "rotational-classification"]))
    betas, f_jets = [], []

    def beta(u):
        betas.append(np.size(u))
        return scene.profile.beta(u)

    curve = scene.profile._replace(beta=beta)
    slots = jets.Tape.slots

    def counted_slots(tape, bindings, order):
        if tape is curve.tape:
            f_jets.append(np.size(bindings["t"]))
        return slots(tape, bindings, order)

    monkeypatch.setattr(jets.Tape, "slots", counted_slots)
    imm = rotational.assemble_rotational(curve, scene.ambient)
    betas.clear()
    f_jets.clear()
    report, passed = run_scene(scene._replace(immersion=imm, profile=curve))
    assert passed
    assert len(scene.grid) == 25 and len(rotational.classification_grid(curve.profile)) == 81
    assert betas == f_jets == [16, 10 + 25 + 81]


def test_rotational_scene_builds_its_surface_once(monkeypatch):
    # validation solves the profile and builds the surface against the
    # scene's ambient; the classification check reuses both
    import warpgeo.rotational as rotational

    calls = {"_profile_interpolant": 0, "Immersion": 0, "WarpedProduct": 0}

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(rotational, "_profile_interpolant", "_profile_interpolant")
    count(Immersion, "__init__", "Immersion")
    count(WarpedProduct, "__init__", "WarpedProduct")
    report, passed = run_scene(validate_scene(example5_scene(["rotational-classification"])))
    assert passed and report["checks"][0]["status"] == "pass"
    assert calls == {"_profile_interpolant": 1, "Immersion": 1, "WarpedProduct": 1}


def test_reports_do_not_depend_on_check_order_or_state():
    checks = [
        "lemma1", "soliton", "structural", "theorem1", "theorem3", "theorem4a",
        "theorem4b", "theorem5", "rotational-classification", "spaceform c=-1",
    ]
    scene = validate_scene(example5_scene(checks))
    state = {key: repr(value) for key, value in vars(scene.immersion).items()}
    forward, _ = run_scene(scene)
    assert {key: repr(value) for key, value in vars(scene.immersion).items()} == state
    backward, _ = run_scene(validate_scene(example5_scene(checks[::-1])))
    assert forward["checks"] == backward["checks"][::-1]


@pytest.mark.parametrize("n, samples", [(4, 10), (5, 6)])
def test_maximal_grid_stays_under_256_mb(n, samples):
    # the largest grids these dimensions allow, with the structural check
    # (third jets of every component) on a soliton horosphere
    names = [f"u{i}" for i in range(1, n + 1)]
    scene = {
        "ambient": {"interval": ["-inf", "inf"], "f": "exp(t)", "fiber": "euclidean", "n": n},
        "immersion": {
            "components": ["0.5"] + names,
            "chart": {"names": names, "lower": [-1] * n, "upper": [1] * n},
        },
        "grid": {"samples": {name: samples for name in names}},
        "checks": ["soliton", "structural"],
    }
    assert samples**n <= MAX_GRID_POINTS < (samples + 1) ** n
    tracemalloc.start()
    try:
        report, passed = run_scene(validate_scene(scene))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passed and report["checks"][1]["status"] == "pass"
    assert peak < 256 * 2**20


def test_dense_sphere3_run_stays_within_its_working_set():
    # the tracemalloc peak of run_scene over dense-sphere3 (n = 3, 1,331 points in one
    # slice, f = 1 over the flat fiber): the geometry pass builds no (n, n, n, N) tensor,
    # writes each entry straight into its component slot, with no packed copy, forms
    # no dD column and no P = dD E in this Euclidean ambient, and frees the Hessian
    # slot once II and Hess h are formed; 1.64 MB above the start when recorded
    # (1.86 MB with the packed slots and dD's t column, 2.34 MB with the dense dD and
    # the slots held, 3.27 MB with dg and the per-component copies), and the bound
    # is that figure plus 10%
    path = Path(__file__).parent / "golden" / "dense-sphere3.scene.json"
    scene = validate_scene(json.loads(path.read_text()))
    run_scene(scene)  # a first run loads what later runs reuse
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_scene(scene)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 1.64e6, peak
