import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import warpgeo
from warpgeo.cli import main
from warpgeo.errors import DomainError, MeshUnsupported
from warpgeo.intrinsic import grid_geometry
from warpgeo import scene as scene_module
from warpgeo.scene import validate_scene
from warpgeo.objmesh import obj_lines, surface_vertices
from warpgeo.catalogue import PRESETS, REQUIRED, rotational_soliton_immersion


def write_scene(tmp_path, data, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def hyperplane_scene(report_path=None):
    out = {}
    if report_path:
        out["report"] = report_path
    return {
        "schema_version": 1,
        "ambient": {"interval": ["-inf", "inf"], "f": "1", "fiber": "euclidean", "n": 2},
        "immersion": {"preset": "hyperplane"},
        "grid": {"samples": {"u": 5, "v1": 5}},
        "checks": ["lemma1", "soliton"],
        "output": out,
    }


def test_spaceforms_exit_zero(capsys):
    assert main(["spaceforms"]) == 0
    out = capsys.readouterr().out
    assert "5/5 models passed" in out
    for token in ("sin(t)", "exp(t)", "sinh(t)"):
        assert token in out


def test_presets_lists_catalogue(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("slice", "hyperplane", "sphere", "horosphere", "rotational", "example5"):
        assert name in out


def test_cli_module_runs_as_a_script(capsys):
    # python -m warpgeo.cli is the console script: the same output and exit code
    src = os.path.dirname(os.path.dirname(warpgeo.__file__))
    out = subprocess.run([sys.executable, "-m", "warpgeo.cli", "presets"], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert main(["presets"]) == out.returncode == 0
    assert out.stdout == capsys.readouterr().out and out.stderr == ""


def test_presets_list_every_parameter_and_default(capsys):
    assert main(["presets"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert set(lines) == set(PRESETS)
    for name, (_, params, _) in PRESETS.items():
        for key, default in params.items():
            shown = "required" if default is REQUIRED else repr(default)
            assert f"{key}={shown}" in lines[name], (name, key)


def test_analyze_pass(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    path = write_scene(tmp_path, hyperplane_scene(report_path))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "classification=steady" in out
    doc = json.loads(open(report_path).read())
    assert doc["soliton"]["verdict"] == "soliton"


def test_analyze_check_failure_exit_one(tmp_path):
    scene = hyperplane_scene()
    scene["ambient"] = {
        "interval": [0, math.pi],
        "f": "sin(t)",
        "fiber": "euclidean",
        "n": 2,
    }
    scene["immersion"] = {
        "preset": "rotational",
        "params": {"theta": 0.5, "u0": 0.5, "u1": 1.0},
    }
    scene["checks"] = ["soliton"]
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 1


def test_analyze_validation_error_exit_two(tmp_path, capsys):
    scene = hyperplane_scene()
    scene["surprise"] = True
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    assert "surprise" in capsys.readouterr().err


def horosphere_scene():
    return {
        "ambient": {"interval": ["-inf", "inf"], "f": "exp(t)", "fiber": "euclidean", "n": 2},
        "immersion": {"preset": "horosphere", "params": {"t0": 0.0}},
        "grid": {"samples": {"u1": 5, "u2": 5}},
        "checks": ["soliton"],
    }


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda s: s.update(grid=5), "grid"),
        (lambda s: s.update(ambient=5), "ambient"),
        (lambda s: s.update(immersion=5), "immersion"),
        (lambda s: s.update(grid={"samples": [1, 2]}), "grid.samples"),
        (lambda s: s["grid"].update(margins={"u1": "abc"}), "grid.margins"),
        (lambda s: s["grid"].update(margins={"u1": [1]}), "grid.margins"),
        (lambda s: s["immersion"].update(params=[1]), "immersion.params"),
        (
            lambda s: s.update(
                immersion={
                    "components": ["0", "u1", "u2"],
                    "chart": {"names": 5, "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                }
            ),
            "immersion.chart.names",
        ),
        # output paths must be strings: open() takes an integer as a file descriptor
        (lambda s: s.update(output={"report": ["r.json"]}), "output.report"),
        (lambda s: s.update(output={"mesh": {}}), "output.mesh"),
        # a mesh is a surface: refused before the immersion is built for any other n
        (lambda s: s["ambient"].update(n=1) or s.update(output={"mesh": "mesh.obj"}), "output.mesh"),
        (
            lambda s: s.update(
                ambient={"interval": ["-inf", "inf"], "f": "1", "fiber": "euclidean", "n": 3},
                immersion={"preset": "sphere"},
                grid={},
                output={"mesh": "mesh.obj"},
            ),
            "output.mesh",
        ),
        # rotational parameters must be finite numbers before the profile is solved
        (lambda s: s.update(immersion={"preset": "rotational", "params": {"theta": [1]}}),
         "immersion.params"),
        (lambda s: s.update(immersion={"preset": "rotational", "params": {"theta": None}}),
         "immersion.params"),
        (lambda s: s.update(immersion={"preset": "rotational", "params": {"theta": 0.5, "c2": "nan"}}),
         "immersion.params"),
        (lambda s: s.update(immersion={"preset": "rotational", "params": {"theta": 0.5, "u0": "-inf"}}),
         "immersion.params"),
        (lambda s: s.update(checks=["spaceform c=1e400"]), "checks"),
        # how errors show the spaceform check is not itself a check
        (lambda s: s.update(checks=["spaceform c=<number>"]), "checks"),
        # preset parameters: missing, unknown, or text where a number belongs
        (lambda s: s["immersion"].update(params={}), "immersion.params"),
        (lambda s: s["immersion"]["params"].update(pad=0.1), "immersion.params"),
        (lambda s: s.update(immersion={"preset": "sphere", "params": {"pad": "0.1"}}),
         "immersion.params"),
        (lambda s: s["immersion"]["params"].update(half_width="1"), "immersion.params"),
        (lambda s: s["immersion"]["params"].update(t0="0"), "immersion.params"),
        # chart names must be NAMEs of the expression grammar
        (lambda s: s.update(immersion={
            "components": ["0", "u", "v"],
            "chart": {"names": [1, 2], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}),
         "immersion.chart.names"),
        (lambda s: s.update(immersion={
            "components": ["0", "u v", "w"],
            "chart": {"names": ["u v", "w"], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}),
         "immersion.chart.names"),
        # text is a number only as an interval endpoint, and 1.0 is not an integer
        (lambda s: s["grid"].update(margins={"u1": "0.1"}), "grid.margins"),
        (lambda s: s.update(immersion={
            "components": ["0", "u", "v"],
            "chart": {"names": ["u", "v"], "lower": ["-1", "-1"], "upper": [1.0, 1.0]}}),
         "immersion.chart.lower"),
        (lambda s: s.update(immersion={"preset": "example5", "params": {"u0": "-1"}}),
         "immersion.params"),
        (lambda s: s.update(immersion={"preset": "rotational", "params": {"theta": "0.5"}}),
         "immersion.params"),
        (lambda s: s.update(schema_version=True), "schema_version"),
        (lambda s: s.update(schema_version=1.0), "schema_version"),
        # an integer beyond the float range is not a finite number
        (lambda s: s["grid"].update(margins={"u1": 10**400}), "grid.margins"),
        (lambda s: s["immersion"]["params"].update(t0=10**400), "immersion.params"),
        (lambda s: s["grid"]["samples"].update(u1=10**400), "grid.samples"),
        # params is an object: no other value stands for "no parameters"
        *[(lambda s, v=v: s.update(immersion={"preset": "example5", "params": v}, grid={}),
           "immersion.params") for v in ([], None, 0, False, "")],
        # an empty output path would write nothing and report nothing
        (lambda s: s.update(output={"report": ""}), "output.report"),
        (lambda s: s.update(output={"mesh": ""}), "output.mesh"),
        # "²" satisfies str.isdigit() but is no digit of a number
        (lambda s: s.update(immersion={
            "components": ["²", "u1", "u2"],
            "chart": {"names": ["u1", "u2"], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}),
         "immersion.components[0]"),
        (lambda s: s["ambient"].update(interval=[1, 2]), "immersion.params"),
        # a list of chart names, bounds or components is never empty
        (lambda s: s.update(immersion={
            "components": [], "chart": {"names": ["u1", "u2"], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}),
         "immersion.components"),
        (lambda s: s.update(immersion={
            "components": ["0", "1", "2"], "chart": {"names": [], "lower": [], "upper": []}}),
         "immersion.chart.names"),
    ],
    ids=[
        "grid", "ambient", "immersion", "samples-list", "margin-text", "margin-list",
        "params-list", "chart-names", "report-list", "mesh-object", "mesh-n1", "mesh-n3",
        "theta-list", "theta-null", "c2-nan", "u0-inf", "spaceform-inf", "spaceform-placeholder",
        "t0-missing", "pad-unknown", "pad-text", "half-width-text", "t0-text",
        "names-numbers", "names-with-space",
        "margin-number-text", "bound-text", "u0-text", "theta-text", "schema-true", "schema-float",
        "margin-long-integer", "t0-long-integer", "samples-long-integer",
        "params-empty-list", "params-null", "params-zero", "params-false", "params-empty-text",
        "report-empty", "mesh-empty", "component-superscript-two", "t0-outside-interval",
        "components-empty", "names-empty",
    ],
)
def test_analyze_block_of_the_wrong_type_exit_two(tmp_path, capsys, edit, field):
    assert main(["analyze", write_scene(tmp_path, horosphere_scene())]) == 0
    scene = horosphere_scene()
    edit(scene)
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert f"scene field {field!r}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda s: s["ambient"].update(f=2), "ambient.f"),
        (lambda s: s["ambient"].update(f=True), "ambient.f"),
        (lambda s: s["immersion"].update(preset=["horosphere"]), "immersion.preset"),
        (lambda s: s.update(immersion={
            "components": ["0", 0, "u2"],
            "chart": {"names": ["u1", "u2"], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}),
         "immersion.components[1]"),
        (lambda s: s.update(checks=["soliton", ["soliton"]]), "checks"),
        (lambda s: s["ambient"].update(fiber=["euclidean"]), "ambient.fiber"),
        (lambda s: s.update(immersion={
            "components": ["0", "u1", "u2"],
            "chart": {"names": ["u1", 2], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}),
         "immersion.chart.names"),
    ],
    ids=["f-number", "f-boolean", "preset-list", "component-number", "check-list", "fiber-list", "name-number"],
)
def test_scene_text_fields_must_be_strings(tmp_path, capsys, edit, field):
    # no str() is applied: 2 is not the expression "2", nor true "True"
    scene = horosphere_scene()
    edit(scene)
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    assert f"scene field {field!r}: must be a string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, ambient, field",
    [
        ("hyperplane", {"fiber": "sphere"}, "ambient.fiber"),
        ("sphere", {"fiber": "sphere"}, "ambient.fiber"),
        ("rotational", {"fiber": "sphere"}, "ambient.fiber"),
        ("example5", {"fiber": "sphere"}, "ambient.fiber"),
        ("rotational", {"n": 1}, "ambient.n"),
        ("example5", {"n": 1}, "ambient.n"),
    ],
    ids=["hyperplane-fiber", "sphere-fiber", "rotational-fiber", "example5-fiber",
         "rotational-n1", "example5-n1"],
)
def test_preset_demands_on_the_ambient_name_its_field(tmp_path, capsys, preset, ambient, field):
    scene = horosphere_scene()
    scene["ambient"].update(ambient)
    scene["immersion"] = {"preset": preset, "params": {"theta": 0.5} if preset == "rotational" else {}}
    scene["grid"] = {}
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    assert f"scene field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "immersion, message",
    [
        ({"preset": "horosphere"}, "horosphere needs t0"),
        ({"preset": "horosphere", "params": {"t0": 0.0, "pad": 0.1}},
         "unknown parameters ['pad'] for preset 'horosphere'"),
        ({"preset": "sphere", "params": {"pad": "0.1"}}, "pad must be a number, got '0.1'"),
        ({"preset": "slice", "params": {"t0": 0.0, "half_width": "1"}},
         "half_width must be a number, got '1'"),
        ({"preset": "slice", "params": {"t0": "0"}}, "t0 must be a number, got '0'"),
        ({"preset": "rotational"}, "rotational needs theta"),
    ],
    ids=["t0-missing", "pad-unknown", "pad-text", "half-width-text", "t0-text", "theta-missing"],
)
def test_preset_parameter_errors_name_the_parameter(tmp_path, capsys, immersion, message):
    # the message names the parameter, never a Python TypeError of the builder
    scene = horosphere_scene()
    scene["immersion"] = immersion
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert f"scene field 'immersion.params': {message}" in err
    assert "operand" not in err and "argument" not in err


def test_interval_endpoint_beyond_the_float_range_reads_as_infinite(tmp_path, capsys):
    # JSON 1e400 reads as inf, and so does an integer beyond the float range
    scene = horosphere_scene()
    scene["ambient"]["interval"] = [-10**400, 10**400]
    assert main(["analyze", write_scene(tmp_path, scene)]) == 0
    scene["ambient"]["interval"] = [10**400, "inf"]
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    assert "scene field 'ambient': empty interval (inf, inf)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "names, components",
    [
        (["u", "pi"], ["0", "u", "pi"]),
        (["u", "u"], ["0", "u", "u"]),
        (["e", "v"], ["0", "v", "v"]),
        (["u", "sin"], ["0", "u", "u"]),
    ],
    ids=["constant", "repeated", "constant-e", "function"],
)
def test_analyze_chart_names_that_are_not_variables_exit_two(tmp_path, capsys, names, components):
    # a constant name parses as the constant and a repeated name collapses
    # two axes: either left the frame degenerate at the chart center, a
    # misleading message; the scene names the chart names instead
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": components,
        "chart": {"names": names, "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    }
    scene["grid"] = {}
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert "scene field 'immersion.chart.names'" in err
    assert "degenerate" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "names, components, message",
    [
        (["u", "v"], ["u", "v"], "expected 3 components, got 2"),
        (["u", "v", "w"], ["0", "u", "v"], "chart dimension 3 must equal hypersurface dimension 2"),
    ],
    ids=["two-components", "three-chart-names"],
)
def test_analyze_immersion_of_the_wrong_size_exits_two(tmp_path, capsys, names, components, message):
    # at n = 2 an immersion has 3 components over a chart of 2 names
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": components,
        "chart": {"names": names, "lower": [-1.0] * len(names), "upper": [1.0] * len(names)},
    }
    scene["grid"] = {}
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert f"scene field 'immersion': {message}" in err
    assert "Traceback" not in err


def test_sphere_preset_at_n1_is_the_unit_circle(tmp_path):
    # in f = 1 the sphere at n = 1 is the unit circle in the plane, so lambda = sin u
    # over the default grid's u in [-1.2787..., 1.2787...]
    scene = hyperplane_scene(report_path=str(tmp_path / "report.json"))
    scene["ambient"]["n"] = 1
    scene["immersion"] = {"preset": "sphere"}
    scene["grid"] = {}
    scene["checks"] = ["soliton"]
    assert main(["analyze", write_scene(tmp_path, scene)]) == 0
    soliton = json.loads((tmp_path / "report.json").read_text())["soliton"]
    assert soliton["classification"] == "sign_changing"
    assert soliton["lambda_max"] == -soliton["lambda_min"] == pytest.approx(math.sin(1.2787166941), abs=1e-9)


def test_analyze_missing_file_exit_two(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


def test_analyze_domain_error_exit_three(tmp_path, capsys):
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": ["sqrt(u-0.5)", "u", "v"],
        "chart": {"names": ["u", "v"], "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    }
    scene["grid"] = {"samples": {"u": 5, "v": 5}}
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "domain error" in err
    assert "chart point" in err  # location is reported


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_overflow_exit_three(tmp_path, capsys):
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": ["exp(1000*u)", "u", "v"],
        "chart": {"names": ["u", "v"], "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    }
    scene["grid"] = {"samples": {"u": 5, "v": 5}}
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "exp overflows" in err and "chart point" in err


def test_flat_hyperplane_of_size_1e120_exit_zero(tmp_path, capsys):
    # g is finite (entries near 1e240), and the 3 x 3 minor that orients
    # the normal has entries near 1e120: it is scaled before its determinant
    scene = hyperplane_scene()
    scene["ambient"]["n"] = 3
    scene["immersion"] = {
        "components": [
            "1e120*((-0.24)*u+(0.13)*v1+(0.77)*v2)",
            "1e120*((-0.45)*u+(-0.85)*v1+(0.15)*v2)",
            "1e120*((-0.72)*u+(0.50)*v1+(0.05)*v2)",
            "1e120*((0.47)*u+(0.01)*v1+(0.61)*v2)",
        ],
        "chart": {"names": ["u", "v1", "v2"], "lower": [-1, -1, -1], "upper": [1, 1, 1]},
    }
    scene["grid"] = {"samples": {"u": 3, "v1": 3, "v2": 3}}
    assert main(["analyze", write_scene(tmp_path, scene)]) == 0
    assert "verdict=soliton" in capsys.readouterr().out


def test_analyze_degenerate_preset_exit_two(tmp_path, capsys):
    # at t0 = -30 in f = exp(t) the slice's Gram determinant f^4 is below
    # GRAM_DET_LIMIT at the chart center: the probe block of the scene's
    # pass fails, and a failing probe of a preset names its params
    scene = hyperplane_scene()
    scene["ambient"]["f"] = "exp(t)"
    scene["immersion"] = {"preset": "slice", "params": {"t0": -30.0}}
    scene["grid"] = {}
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert "scene field 'immersion.params'" in err and "degenerate at chart point (0.0, 0.0)" in err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda s: s["grid"].update(samples={"u": 2}), "grid.samples"),
        (lambda s: s.update(checks=["soliton", "nonsense"]), "checks"),
    ],
    ids=["grid", "checks"],
)
def test_scene_structure_is_refused_before_the_preset_is_built(tmp_path, capsys, edit, field):
    # the rotational profile solve leaves the domain of cosh at c1 = 1e300
    # (exit 3); a structural fault elsewhere in the scene is refused first
    scene = hyperplane_scene()
    scene["ambient"]["f"] = "cosh(t)"
    scene["immersion"] = {"preset": "rotational", "params": {"theta": 0.5, "c1": 1e300}}
    scene["grid"] = {}
    assert main(["analyze", write_scene(tmp_path, scene)]) == 3
    assert "cosh overflows" in capsys.readouterr().err
    edit(scene)
    assert main(["analyze", write_scene(tmp_path, scene, "edited.json")]) == 2
    err = capsys.readouterr().err
    assert f"scene field {field!r}" in err and "overflows" not in err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda s: s["grid"].update(samples=[5, 5]), "grid.samples"),
        (lambda s: s["immersion"].update(preset="missing"), "immersion.preset"),
        (lambda s: s.update(checks=["nonsense"]), "checks"),
        (lambda s: s["ambient"].update(n=3) or s.update(output={"mesh": "mesh.obj"}), "output.mesh"),
    ],
    ids=["grid", "preset", "checks", "mesh"],
)
def test_scene_structure_is_refused_before_the_warping_function_is_read(tmp_path, capsys, edit, field):
    scene = hyperplane_scene()
    scene["ambient"]["f"] = "2x"
    edit(scene)
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert f"scene field {field!r}" in err and "ambient.f" not in err


def test_scene_fields_are_refused_before_the_probe_runs(tmp_path, capsys):
    # the probe block runs in the scene's one pass, after validation: a
    # grid that names variables the chart lacks is refused first, although
    # exp(1000 u) overflows at the chart center
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": ["exp(1000*u)", "u", "v"],
        "chart": {"names": ["u", "v"], "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    }
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert "scene field 'grid.samples'" in err and "exp overflows" not in err


@pytest.mark.parametrize(
    "components, samples, message, named",
    [
        # the frame degenerates at u = 0.5, a grid point the construction
        # probe misses
        (["0", "(u-0.5)^3", "v"], {"u": 19, "v": 3}, "degenerate", "(0.5000000000000001, -0.9)"),
        # the frame overflows to inf at every point, the chart center first
        (["0", "u*1e200*1e200", "v"], {"u": 5, "v": 5}, "not finite", "{'u': 0.0, 'v': 0.0}"),
        # a finite frame whose Gram matrix overflows gives NaN geometry,
        # caught at the first grid point
        (["0", "1e200*u", "v"], {"u": 5, "v": 5}, "not finite", "{'u': -0.9, 'v': -0.9}"),
    ],
    ids=["degenerate", "not-finite", "gram-overflow"],
)
def test_analyze_point_errors_exit_three(tmp_path, capsys, components, samples, message, named):
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": components,
        "chart": {"names": ["u", "v"], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    }
    scene["grid"] = {"samples": samples}
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 3
    captured = capsys.readouterr()
    assert message in captured.err and named in captured.err and "chart point" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_gram_overflow_at_n3_exit_three(tmp_path, capsys):
    # at n = 3 the soliton residual takes its eigenvalues from LAPACK, which
    # refuses a matrix that is not finite: the Gram matrix that overflows
    # still gives NaN geometry, caught at the first grid point as at n = 2
    scene = hyperplane_scene()
    scene["ambient"]["n"] = 3
    scene["immersion"] = {
        "components": ["0", "1e200*u", "v1", "v2"],
        "chart": {"names": ["u", "v1", "v2"], "lower": [-1.0] * 3, "upper": [1.0] * 3},
    }
    scene["grid"] = {"samples": {"u": 3, "v1": 3, "v2": 3}}
    assert main(["analyze", write_scene(tmp_path, scene)]) == 3
    captured = capsys.readouterr()
    assert "not finite" in captured.err and "{'u': -0.9, 'v1': -0.9, 'v2': -0.9}" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_structural_gradient_not_finite_exit_three(tmp_path, capsys):
    # the third derivatives of 1e-250 sin(1e120 u) overflow while the
    # geometry of order 2 stays finite: structural names the grid point
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": ["0.5+1e-250*sin(1e120*u)", "u", "v"],
        "chart": {"names": ["u", "v"], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    }
    scene["grid"] = {"samples": {"u": 5, "v": 5}}
    scene["checks"] = ["soliton", "structural"]
    assert main(["analyze", write_scene(tmp_path, scene)]) == 3
    err = capsys.readouterr().err
    assert "gradient of Lap h not finite" in err and "{'u': -0.9, 'v': -0.9}" in err
    scene["checks"] = ["soliton"]
    assert main(["analyze", write_scene(tmp_path, scene, "soliton.json")]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_theorem5_fit_refuses_a_vanishing_warping(tmp_path, capsys):
    # f = (t - t1)^2 is positive on the 1024 construction probes but
    # vanishes at t1, the second of the 64 theorem5 probes; the fit of c
    # must name it before dividing by f
    window = (-3.84, 3.84)  # probe window of the whole real line
    t1 = float(np.linspace(*window, 64)[1])
    scene = hyperplane_scene()
    scene["ambient"]["f"] = f"(t-({t1!r}))^2"
    scene["immersion"] = {
        "components": ["0.5", "u", "v"],
        "chart": {"names": ["u", "v"], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    }
    scene["grid"] = {"samples": {"u": 3, "v": 3}}
    scene["checks"] = ["theorem5"]
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 3
    assert f"warping function vanishes at t={t1!r}" in capsys.readouterr().err


def test_domain_error_names_the_grid_point(tmp_path, capsys):
    # the construction probe stays inside the domain; the scene grid does not
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": ["sqrt(u-0.05)", "u", "v"],
        "chart": {"names": ["u", "v"], "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    }
    scene["grid"] = {"samples": {"u": 5, "v": 5}, "margins": {"u": 0.02, "v": 0.02}}
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 3
    assert "{'u': 0.02, 'v': 0.02}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "components, index, named",
    [
        # sqrt(0.95-u) is defined on the construction probe (u <= 0.9) but
        # not at u = 0.98, the last grid row; grid point 20 is its first
        (["sqrt(0.95-u)", "u", "v"], 20, "{'u': 0.98, 'v': 0.02}"),
        # the second component first fails at grid point 20, the third
        # already at grid point 4 (v = 0.98): point 4 is named
        (["u", "sqrt(0.95-u)", "sqrt(0.95-v)"], 4, "{'u': 0.02, 'v': 0.98}"),
    ],
    ids=["one-component", "across-components"],
)
def test_domain_error_names_the_first_failing_grid_point(
    tmp_path, capsys, components, index, named
):
    scene = hyperplane_scene()
    scene["immersion"] = {
        "components": components,
        "chart": {"names": ["u", "v"], "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    }
    scene["grid"] = {"samples": {"u": 5, "v": 5}, "margins": {"u": 0.02, "v": 0.02}}
    loaded = validate_scene(scene)
    with pytest.raises(DomainError) as err:
        grid_geometry(loaded.immersion, loaded.grid)
    assert err.value.index == index
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 3
    assert named in capsys.readouterr().err


def test_analyze_oversized_grid_exit_two(tmp_path, capsys):
    scene = hyperplane_scene()
    scene["grid"] = {"samples": {"u": 1000, "v1": 1000}}
    path = write_scene(tmp_path, scene)
    started = time.perf_counter()
    assert main(["analyze", path]) == 2
    assert time.perf_counter() - started < 1.0
    assert "grid.samples" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--mesh", "unused.obj"]])
def test_rotational_oversized_samples_exit_two(extra, capsys):
    samples = "100000" if not extra else "200"
    started = time.perf_counter()
    assert main(["rotational", "--theta", "0.5", "--samples", samples, *extra]) == 2
    assert time.perf_counter() - started < 1.0
    assert "MAX_GRID_POINTS" in capsys.readouterr().err


def test_warping_probe_failure_names_t(tmp_path, capsys):
    # f is undefined only for |t - 0.05| < 0.02: the 17 profile probes
    # pass and the 1024-point positivity probe of the ambient fails, a bad
    # input in both commands, named by its flag or its scene field
    gap = "2+sqrt((t-0.05)^2-0.0004)"
    argv = ["rotational", "--theta", "0.6", "--f", gap, "--u0", "-1", "--u1", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--f" in err and "t=" in err
    scene = hyperplane_scene()
    scene["ambient"]["f"] = gap
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "ambient.f" in err and "t=" in err


@pytest.mark.parametrize(
    "flags, t",
    [
        # sqrt(t+0.75) is undefined at t = -0.8, the first of the 17 profile
        # probes; on [-0.75, inf] the probe over the interval, which runs
        # first, passes
        (["--f", "sqrt(t+0.75)", "--t-min=-0.75", "--u0", "-1", "--u1", "1"], "t=-0.8"),
        # every probe misses the pole t = -1.08 = alpha(-1.35), the first
        # sample of the profile residuals
        (["--f", "(t+1.08)^-2"], "t=-1.08"),
    ],
    ids=["profile-probe", "profile-residuals"],
)
def test_profile_probe_failure_names_t(capsys, flags, t):
    assert main(["rotational", "--theta", "0.6", *flags]) == 3
    assert t in capsys.readouterr().err


@pytest.mark.parametrize(
    "check, t",
    [
        # the 11th of the 64 probe heights of theorem5's fit of c
        ("theorem5", "-2.6209523809523807"),
        # the 11th of the 200 probe heights of a space-form check
        ("spaceform c=0", "-3.454070351758794"),
    ],
    ids=["theorem5", "spaceform"],
)
def test_space_form_probe_failure_names_t(tmp_path, capsys, check, t):
    # abs has no derivative at its kink, which lies at that probe height
    # only: the positivity probe reads values alone and the horosphere's
    # grid is at t = 0
    scene = hyperplane_scene()
    scene["ambient"]["f"] = f"2 + sqrt(abs(t - ({t})))"
    scene["immersion"] = {"preset": "horosphere", "params": {"t0": 0}}
    scene["checks"] = ["soliton", check]
    del scene["grid"]
    assert main(["analyze", write_scene(tmp_path, scene)]) == 3
    assert f"t={t}: abs is not differentiable" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f", ["1", "t*0+1"])
def test_interval_wider_than_a_float_names_ambient(tmp_path, capsys, f):
    # a width that overflows would leave every probe of f at nan heights: refused
    # as the interval's fault, as an empty interval is, whatever f is
    scene = hyperplane_scene()
    scene["ambient"].update(interval=[-1e308, 1e308], f=f)
    scene["checks"] = ["theorem5", "spaceform c=0"]
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert err == "scene error: scene field 'ambient': width of interval (-1e+308, 1e+308) overflows a float\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "immersion, field",
    [
        ({"components": ["0.5", "u", "v"],
          "chart": {"names": ["u", "v"], "lower": [-1e308, -1], "upper": [1e308, 1]}}, "immersion.chart"),
        ({"preset": "hyperplane", "params": {"half_width": 1e308}}, "immersion.params"),
    ],
    ids=["chart", "preset"],
)
def test_chart_range_wider_than_a_float_names_its_field(tmp_path, capsys, immersion, field):
    scene = hyperplane_scene()
    scene["immersion"] = immersion
    del scene["grid"]
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scene error: scene field {field!r}: width of chart range for 'u' overflows a float")


@pytest.mark.parametrize(
    "f, message",
    [("exp(-300*t)", "underflows to 0 at t="), ("t-10", "is not positive at t=")],
    ids=["underflowing-f", "negative-f"],
)
def test_non_positive_warping_names_the_scene_field(tmp_path, capsys, f, message):
    # an f that is not positive names ambient.f, as an undefined f does,
    # and an underflow is not called negative
    scene = hyperplane_scene()
    scene["ambient"].update(interval=[0, "inf"], f=f)
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "scene field 'ambient.f'" in err and message in err
    assert ("not positive" in err) == (f == "t-10")


def test_analyze_non_finite_literal_exit_two(tmp_path, capsys):
    scene = hyperplane_scene()
    scene["ambient"]["f"] = "1e400"
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    assert "ambient.f" in capsys.readouterr().err


def test_analyze_deeply_nested_warping_exit_two(tmp_path, capsys):
    scene = hyperplane_scene()
    scene["ambient"]["f"] = "(" * 2000 + "1" + ")" * 2000
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "ambient.f" in err and "MAX_EXPRESSION_DEPTH" in err


@pytest.mark.parametrize(
    "f",
    ["(" * 2000 + "exp(t)" + ")" * 2000, "+".join(["exp(t)"] * 2000)],
    ids=["nested", "flat-chain"],
)
def test_rotational_deep_warping_exit_two(f, capsys):
    assert main(["rotational", "--theta", "0.5", "--f", f]) == 2
    assert "MAX_EXPRESSION_DEPTH" in capsys.readouterr().err


def test_analyze_boolean_n_exit_two(tmp_path, capsys):
    scene = hyperplane_scene()
    scene["ambient"]["n"] = True
    scene["immersion"] = {
        "components": ["0.5", "u"],
        "chart": {"names": ["u"], "lower": [-1.0], "upper": [1.0]},
    }
    scene["grid"] = {"samples": {"u": 5}}
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    assert "ambient.n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "immersion",
    [
        {"preset": "rotational", "params": {"theta": 0.5, "c1": True}},
        {"preset": "slice", "params": {"t0": True}},
    ],
    ids=["rotational-c1", "slice-t0"],
)
def test_analyze_boolean_preset_param_exit_two(tmp_path, capsys, immersion):
    # JSON true is not the number 1: a boolean preset parameter is refused
    scene = hyperplane_scene()
    scene["immersion"] = immersion
    scene["grid"] = {}
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    assert "immersion.params" in capsys.readouterr().err


@pytest.mark.parametrize(
    "immersion, field",
    [
        ('{"preset": "slice", "params": {"t0": 0.0, "half_width": 1e400}}', "immersion.params"),
        ('{"preset": "sphere", "params": {"pad": -1e400}}', "immersion.params"),
        (
            '{"components": ["0.5", "u", "v"], "chart": {"names": ["u", "v"], '
            '"lower": [-1, -1], "upper": [1e400, 1]}}',
            "immersion.chart.upper",
        ),
    ],
    ids=["slice-half-width", "sphere-pad", "chart-upper"],
)
def test_analyze_infinite_chart_bound_exit_two(tmp_path, capsys, immersion, field):
    # JSON 1e400 reads as inf: the chart box refuses it, naming the field,
    # before a chart point is computed from it (inf - inf is NaN)
    scene = hyperplane_scene()
    scene["immersion"] = "IMMERSION"
    scene["grid"] = {}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene).replace('"IMMERSION"', immersion))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"scene field {field!r}" in err and "must be finite" in err and "nan" not in err


def test_analyze_boolean_interval_and_chart_bounds_exit_two(tmp_path, capsys):
    # JSON false and true are not the numbers 0 and 1, as interval
    # endpoints or as chart bounds
    scene = hyperplane_scene()
    scene["ambient"]["interval"] = [False, True]
    scene["immersion"] = {
        "components": ["0.5", "u", "v"],
        "chart": {"names": ["u", "v"], "lower": [False, False], "upper": [True, True]},
    }
    scene["grid"] = {}
    assert main(["analyze", write_scene(tmp_path, scene)]) == 2
    assert "scene field 'ambient.interval'" in capsys.readouterr().err
    scene["ambient"]["interval"] = [0, 1]
    assert main(["analyze", write_scene(tmp_path, scene, "chart.json")]) == 2
    assert "scene field 'immersion.chart.lower'" in capsys.readouterr().err
    scene["immersion"]["chart"].update(lower=[0, 0], upper=[1, 1])
    assert main(["analyze", write_scene(tmp_path, scene, "numbers.json")]) == 0


@pytest.mark.parametrize("n", [9, 150])
def test_analyze_fiber_dimension_above_eight_exit_two(tmp_path, capsys, n):
    # 3^9 > MAX_GRID_POINTS: no grid of 3 samples per axis fits
    scene = hyperplane_scene()
    scene["ambient"]["n"] = n
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    assert "ambient.n" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["long-integer", "not-utf8"])
def test_analyze_unreadable_scene_text_exit_two(tmp_path, capsys, case):
    # json refuses an integer of more than 4,300 digits with a ValueError
    # (where the interpreter has that limit; otherwise n itself is
    # refused), and reading bytes that are not UTF-8 raises another
    text = json.dumps(hyperplane_scene()).replace('"n": 2', '"n": ' + "1" * 5000)
    path = tmp_path / "scene.json"
    path.write_bytes(text.encode() if case == "long-integer" else b'{"n": "\xff"}')
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err or "ambient.n" in err


def test_analyze_scene_file_above_the_size_bound_exit_two(tmp_path, capsys):
    # a valid scene padded with whitespace to the bound runs; one byte
    # more is refused before it is parsed, naming the file
    bound = scene_module.MAX_SCENE_BYTES
    assert bound == 2**20
    text = json.dumps(hyperplane_scene())
    path = tmp_path / "scene.json"
    path.write_text(text + " " * (bound - len(text)))
    assert main(["analyze", str(path)]) == 0
    path.write_text(text + " " * (bound + 1 - len(text)))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"scene file {path} exceeds MAX_SCENE_BYTES = {bound} bytes" in err


def test_vanishing_sigma_exit_three(tmp_path, capsys):
    # beta = (u + 1)/2 - 0.23 vanishes at u = -0.54, one of the 16 values
    # of u at which the classification samples sigma: a numeric error
    # naming u, from a scene and from the rotational command alike
    scene = hyperplane_scene()
    scene["immersion"] = {
        "preset": "rotational",
        "params": {"theta": 0.5, "c2": -0.23, "u0": -1, "u1": 1},
    }
    scene["grid"] = {"samples": {"u": 4, "v1": 3}}
    scene["checks"] = ["rotational-classification"]
    assert main(["analyze", write_scene(tmp_path, scene)]) == 3
    argv = ["--theta", "0.5", "--f", "1", "--c2", "-0.23", "--u0", "-1", "--u1", "1"]
    assert main(["rotational", *argv, "--samples", "9"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["domain error: sigma vanishes at u=-0.54"] * 2


@pytest.mark.parametrize(
    "f, t_min, params, code, message",
    [
        # the probes pass and a point of the 9 x 9 classification grid is singular
        ("exp(t)", -math.inf, {"theta": 0.5, "c1": 12.69}, 3, "chart metric at t=13.859134295108992"),
        # a probe of the immersion fails: the immersion is at fault
        ("exp(t)", -math.inf, {"theta": 0.5, "c1": 20.0}, 2, "chart metric at t=18.960769515458672"),
        # f fails the probe over the interval, which runs before the probe
        # along the profile, where f fails too: bad input, naming f
        ("sqrt(t+0.75)", -math.inf, {"theta": 0.6, "u0": -1.0, "u1": 1.0}, 2,
         "warping function at t=-3.84: sqrt of negative value"),
        # f passes the probe over [-0.75, inf] and fails the first probe
        # along the profile, alpha(-1) = -0.8: a failing point
        ("sqrt(t+0.75)", -0.75, {"theta": 0.6, "u0": -1.0, "u1": 1.0}, 3, "warping function at t=-0.8: "),
        # log is undefined for t <= 0, on the interval and along the profile
        ("log(t)", -math.inf, {"theta": 0.5}, 2, "warping function at t=-3.84: log of non-positive value"),
    ],
    ids=["point", "probe", "f-interval", "f-profile", "f-log"],
)
def test_rotational_scene_and_command_share_exit_codes(tmp_path, capsys, f, t_min, params, code, message):
    scene = hyperplane_scene()
    scene["ambient"]["f"] = f
    scene["ambient"]["interval"] = [t_min if math.isfinite(t_min) else "-inf", "inf"]
    scene["immersion"] = {"preset": "rotational", "params": params}
    scene["checks"] = ["rotational-classification"]
    assert main(["analyze", write_scene(tmp_path, scene)]) == code
    flags = [f"--{name}={value}" for name, value in params.items()]
    assert main(["rotational", "--f", f, f"--t-min={t_min}", *flags, "--samples", "9"]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(message in line for line in err)
    if code == 3:
        assert err[0] == err[1] and err[0].startswith("domain error: ")
    elif f != "exp(t)":  # f is named by its scene field and by its flag
        assert "'ambient.f'" in err[0] and err[1].startswith("error: --f: ")


@pytest.mark.parametrize("output", ["report", "mesh", "--report", "--mesh"])
def test_unwritable_output_exit_two(tmp_path, capsys, output):
    path = str(tmp_path / "missing" / "out")
    if output.startswith("--"):
        argv = ["rotational", "--theta", "0.5", output, path]
    else:
        scene = hyperplane_scene()
        scene["output"] = {output: path}
        argv = ["analyze", write_scene(tmp_path, scene)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


def test_structural_near_the_chart_edge_exit_zero(tmp_path, capsys):
    # grid points 2e-4 from the chart faces: the structural check reads
    # the grid points alone, so the scene runs and passes
    scene = {
        "ambient": {"interval": ["-inf", "inf"], "f": "exp(t)", "fiber": "euclidean", "n": 2},
        "immersion": {"preset": "horosphere", "params": {"t0": 0.0}},
        "grid": {"samples": {"u1": 5, "u2": 5}, "margins": {"u1": 1e-4, "u2": 1e-4}},
        "checks": ["soliton", "structural"],
        "output": {"report": str(tmp_path / "report.json")},
    }
    assert main(["analyze", write_scene(tmp_path, scene)]) == 0
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert checks[1]["name"] == "structural" and checks[1]["status"] == "pass"
    assert checks[1]["sup_error"] < 1e-12


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["spaceforms", "--samples", "-3"], "--samples"),
        (["spaceforms", "--samples", "0"], "--samples"),
        (["spaceforms", "--samples", "1000000000000"], "--samples must be at most MAX_GRID_POINTS"),
        (["rotational", "--theta", "0.5", "--samples", "0"], "--samples"),
        (["rotational", "--theta", "0.5", "--samples", "-1"], "--samples"),
        (["rotational", "--theta", "0.5", "--u0=-inf"], "--u0"),
        (["rotational", "--theta", "0.5", "--u1", "inf"], "--u1"),
        (["rotational", "--theta", "0.5", "--u1", "nan"], "--u1"),
        (["rotational", "--theta", "0.5", "--c1", "inf"], "--c1"),
        (["rotational", "--theta", "0.5", "--c2", "nan"], "--c2"),
        (["rotational", "--theta", "nan"], "--theta"),
        (["rotational", "--theta", "0.5", "--n", "9"], "--n"),
        (["rotational", "--theta", "0.5", "--n", "1"], "--n must lie in [2, 8]"),
        (["rotational", "--theta", "0.5", "--n", "100000"], "--n"),
        (["rotational", "--theta", "0.5", "--t-min", "1", "--t-max", "0"], "--t-min"),
        (["rotational", "--theta", "0.5", "--t-min", "1", "--t-max", "1"], "--t-min"),
        (["rotational", "--theta", "0.5", "--t-max", "nan"], "--t-max"),
        (["rotational", "--theta", "0.5", "--f", "u+2"], "--f: unknown identifier 'u'"),
        (["rotational", "--theta", "0.5", "--f", "2x"], "--f"),
        (["rotational", "--theta", "0.5", "--f", "exp(t)+²"], "--f"),
        (["rotational", "--theta", "0.5", "--t-min=-1e308", "--t-max=1e308"],
         "error: the width from --t-min to --t-max overflows a float"),
        (["rotational", "--theta", "0.5", "--u0=-1e308", "--u1=1e308"],
         "error: the width from --u0 to --u1 overflows a float"),
    ],
)
def test_out_of_range_flags_exit_two(argv, flag, capsys, monkeypatch):
    # refused before any profile work, with a message naming the flag
    import warpgeo.rotational as rotational

    def no_profile_work(*args, **kwargs):
        raise AssertionError("profile work started")

    monkeypatch.setattr(rotational, "_detect_exponential", no_profile_work)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "Traceback" not in captured.err
    assert "passed" not in captured.out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "extra, message",
    [
        (["--f", "t", "--t-min", "0"], "profile integrand not resolved"),
        (["--f", "0*t"], "underflows to 0"),
    ],
    ids=["vanishing-f", "zero-f"],
)
def test_exponential_probe_of_a_vanishing_warping_is_silent(extra, message, capsys):
    # the probe of (log f)' divides by f = 0 without a numpy warning
    assert main(["rotational", "--theta", "0.5", *extra]) == 2
    err = capsys.readouterr().err
    assert message in err and "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "f, message",
    [("0*t", "underflows to 0 at t=-3.84"), ("t-10", "is not positive at t=-3.84")],
    ids=["zero-f", "negative-f"],
)
def test_non_positive_warping_names_the_flag(f, message, capsys):
    assert main(["rotational", "--theta", "0.5", "--f", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --f: warping function") and message in err


def test_rotational_classified(tmp_path, capsys):
    report = str(tmp_path / "rot.json")
    mesh = str(tmp_path / "rot.obj")
    code = main(
        [
            "rotational",
            "--theta",
            "0.70710678118654752",
            "--f",
            "exp(t)",
            "--n",
            "2",
            "--mesh",
            mesh,
            "--report",
            report,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ClassifiedSoliton" in out
    doc = json.loads(open(report).read())
    assert doc["result"]["classified"] is True
    assert doc["warnings"]  # ambient-chart mesh warning

    lines = open(mesh).read().splitlines()
    vertices = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(vertices) == 33 * 33
    assert len(faces) == 2 * 32 * 32


def test_rotational_any_theta(capsys):
    assert main(["rotational", "--theta", "0.5"]) == 0
    assert "ClassifiedSoliton" in capsys.readouterr().out


def test_rotational_failing_warping(tmp_path):
    code = main(
        [
            "rotational",
            "--theta",
            "0.5",
            "--f",
            "cosh(t)",
            "--u0",
            "-1.0",
            "--u1",
            "1.0",
        ]
    )
    assert code == 1


def test_rotational_theta_bounds_exit_two(capsys):
    assert main(["rotational", "--theta", "1.0"]) == 2
    assert main(["rotational", "--theta", "0.0"]) == 2
    assert main(["rotational", "--theta", "0.5", "--u0", "2.0", "--u1", "1.0"]) == 2


def test_rotational_mesh_needs_n2(tmp_path):
    mesh = str(tmp_path / "bad.obj")
    code = main(["rotational", "--theta", "0.5", "--n", "3", "--mesh", mesh])
    assert code == 2


def test_obj_layout_and_determinism():
    imm = rotational_soliton_immersion()
    u_values = np.linspace(-1.0, 1.0, 4)
    v_values = np.linspace(0.5, 5.5, 3)
    verts = surface_vertices(imm, u_values, v_values)
    lines = obj_lines(verts)
    assert lines[:1] == [
        f"v {float(verts[0, 0, 0])!r} {float(verts[0, 0, 1])!r} {float(verts[0, 0, 2])!r}"
    ]
    # row-major vertices then two triangles per quad with the lower-left diagonal
    assert lines[12] == "f 1 4 5"
    assert lines[13] == "f 1 5 2"
    assert obj_lines(verts) == lines


def test_scene_mesh_output(tmp_path):
    mesh_path = str(tmp_path / "scene.obj")
    scene = hyperplane_scene()
    scene["ambient"]["f"] = "exp(t)"
    scene["immersion"] = {"preset": "example5"}
    scene["grid"] = {"samples": {"u": 4, "v1": 4}}
    scene["checks"] = ["soliton"]
    scene["output"] = {"mesh": mesh_path, "report": str(tmp_path / "r.json")}
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 0
    doc = json.loads(open(tmp_path / "r.json").read())
    assert any("ambient-chart" in w for w in doc["warnings"])
    assert open(mesh_path).read().startswith("v ")


def test_obj_rejects_higher_dimension():
    from warpgeo.rotational import RotationalProfile

    from oracles import build_rotational

    prof = RotationalProfile(theta=0.5, f="exp(t)", n=3, u_range=(-1.0, 1.0))
    imm = build_rotational(prof)
    with pytest.raises(MeshUnsupported):
        surface_vertices(imm, [0.0, 0.5], [1.0, 2.0])


def fresh_interpreter(code, *args):
    """Standard output of ``code`` run in a new interpreter that imports this warpgeo."""
    src = os.path.dirname(os.path.dirname(warpgeo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout


def test_cli_import_leaves_scipy_out():
    code = "import sys, warpgeo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh_interpreter(code).strip() == "[]"


def test_cli_import_loads_nothing_beyond_argparse_json_typing():
    # no numpy and no expression parser (the commands that need them load
    # them), no dataclasses (they generate code at import) and no other library
    code = (
        "import json, sys; import argparse, typing; before = set(sys.modules); "
        "import warpgeo.cli; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    extra = json.loads(fresh_interpreter(code))
    assert [m for m in extra if m != "__future__"] == [
        "warpgeo", "warpgeo.catalogue", "warpgeo.cli", "warpgeo.errors"
    ]


SCENE = "<scene>"  # stands for the path of a horosphere scene


@pytest.mark.parametrize("argv, absent", [
    (["presets"], ["warpgeo.expr", "numpy"]),
    (["analyze", SCENE], ["warpgeo.rotational", "warpgeo.objmesh", "numpy.polynomial"]),
    (["rotational", "--theta", "0.5", "--n", "2", "--samples", "5"], ["numpy.polynomial"]),
])
def test_a_command_loads_only_what_it_runs(tmp_path, argv, absent):
    # one command in a fresh interpreter, then the modules it must not have loaded
    argv = [write_scene(tmp_path, horosphere_scene()) if arg == SCENE else arg for arg in argv]
    code = (
        "import contextlib, io, json, sys; from warpgeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    code = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))"
    )
    assert json.loads(fresh_interpreter(code, json.dumps(argv), json.dumps(absent))) == [0, []]


# One interpreter runs the steps in order and records after each whether
# numpy is loaded; a module stays loaded, so the first True names the step
# that loaded it.
COLD_STEPS = """
import contextlib, io, json, sys
steps = []
import warpgeo
steps.append(["import warpgeo", None, "", "numpy" in sys.modules])
import warpgeo.cli
steps.append(["import warpgeo.cli", None, "", "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = warpgeo.cli.main(argv)
        except SystemExit as exc:  # argparse's exits
            code = exc.code
    steps.append([" ".join(argv), code, err.getvalue(), "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_refused_and_listing_commands_load_no_numpy(tmp_path):
    mesh = str(tmp_path / "x.obj")
    calls = [
        (["presets"], 0, ""),
        (["--version"], 0, ""),
        (["--help"], 0, ""),
        (["rotational", "--help"], 0, ""),
        (["bogus"], 2, "invalid choice"),
        (["spaceforms", "--samples", "0"], 2, "error: --samples must lie in [1, inf], got 0\n"),
        (["rotational", "--theta", "2"], 2, "error: --theta must lie in (0.0, 1.0), got 2.0\n"),
        (["rotational", "--theta", "0.5", "--n", "3", "--mesh", mesh], 2,
         "error: mesh export needs n = 2, got n = 3\n"),
        (["rotational", "--theta", "0.5", "--samples", "101", "--mesh", mesh], 2,
         "error: a 101 x 101 mesh exceeds MAX_GRID_POINTS = 10000\n"),
    ]
    steps = json.loads(fresh_interpreter(COLD_STEPS, json.dumps([argv for argv, _, _ in calls])))
    assert [step for step in steps if step[3]] == []  # no step loads numpy
    for (argv, code, message), (_, exit_code, err, _) in zip(calls, steps[2:], strict=True):
        assert exit_code == code and message in err, (argv, exit_code, err)
    assert not (tmp_path / "x.obj").exists()


def test_spaceforms_loads_no_scene_intrinsic_or_rotational():
    code = (
        "import contextlib, io, sys; from warpgeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    code = main(['spaceforms'])\n"
        "print(code, sorted(m for m in ('warpgeo.scene', 'warpgeo.intrinsic', 'warpgeo.rotational')"
        " if m in sys.modules))"
    )
    assert fresh_interpreter(code).split() == ["0", "[]"]


def test_rotational_loads_no_scene(tmp_path):
    # its report and mesh come from `report`, which loads no numpy, and `objmesh`
    code = (
        "import contextlib, io, sys; import warpgeo.report; from warpgeo.cli import main\n"
        "numpy = 'numpy' in sys.modules\n"
        "argv = ['rotational', '--theta', '0.5', '--samples', '9', '--n', '2', '--mesh', *sys.argv[1:]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    code = main(argv)\n"
        "print(code, numpy, 'warpgeo.scene' in sys.modules)"
    )
    report = tmp_path / "x.json"
    assert fresh_interpreter(code, str(tmp_path / "x.obj"), "--report", str(report)).split() == ["0", "False", "False"]
    assert json.loads(report.read_text())["schema_version"] == 1
