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
from warpgeo.scene import validate_scene
from warpgeo.objmesh import obj_lines, surface_vertices
from warpgeo.catalogue import rotational_soliton_immersion


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
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "exp overflows" in err and "chart point" in err


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
    # pass and the 1024-point positivity probe of the ambient fails
    gap = "2+sqrt((t-0.05)^2-0.0004)"
    argv = ["rotational", "--theta", "0.6", "--f", gap, "--u0", "-1", "--u1", "1"]
    assert main(argv) == 3
    assert "t=" in capsys.readouterr().err
    scene = hyperplane_scene()
    scene["ambient"]["f"] = gap
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "ambient.f" in err and "t=" in err


def test_profile_probe_failure_names_t(capsys):
    # sqrt(t+0.75) is undefined at t = -0.8, the first of the 17 profile probes
    argv = ["rotational", "--theta", "0.6", "--f", "sqrt(t+0.75)", "--u0", "-1", "--u1", "1"]
    assert main(argv) == 3
    assert "t=-0.8" in capsys.readouterr().err


def test_underflowing_warping_is_not_called_negative(tmp_path, capsys):
    scene = hyperplane_scene()
    scene["ambient"].update(interval=[0, "inf"], f="exp(-300*t)")
    path = write_scene(tmp_path, scene)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "'ambient'" in err and "underflows to 0 at t=" in err
    assert "not positive" not in err


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
        (["rotational", "--theta", "0.5", "--samples", "0"], "--samples"),
        (["rotational", "--theta", "0.5", "--samples", "-1"], "--samples"),
        (["rotational", "--theta", "0.5", "--u0=-inf"], "--u0"),
        (["rotational", "--theta", "0.5", "--u1", "inf"], "--u1"),
        (["rotational", "--theta", "0.5", "--u1", "nan"], "--u1"),
        (["rotational", "--theta", "0.5", "--c1", "inf"], "--c1"),
        (["rotational", "--theta", "0.5", "--c2", "nan"], "--c2"),
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
    from warpgeo.rotational import RotationalProfile, build_rotational

    prof = RotationalProfile(theta=0.5, f="exp(t)", n=3, u_range=(-1.0, 1.0))
    imm = build_rotational(prof)
    with pytest.raises(MeshUnsupported):
        surface_vertices(imm, [0.0, 0.5], [1.0, 2.0])


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(warpgeo.__file__))
    code = "import sys, warpgeo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
