import copy
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from warpgeo import ambient as ambient_module
from warpgeo import rotational
from warpgeo import scene as scene_module
from warpgeo.ambient import WarpedProduct
from warpgeo.errors import SceneError
from warpgeo.hypersurface import MAX_GRID_POINTS, Immersion
from warpgeo.intrinsic import grid_geometry
from warpgeo.scene import report_to_json, run_scene, validate_scene


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
    assert scene.checks[0][2] == 0.0
    with pytest.raises(SceneError):
        validate_scene(hyperplane_scene(checks=["spaceform c=abc"]))


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


@pytest.mark.parametrize("structural", [False, True])
def test_run_scene_evaluates_jets_once_per_grid_point(monkeypatch, structural):
    # one batched call each, covering every grid point exactly once; the
    # ambient evaluates f once per batch (in metric_jets), and otherwise
    # only once on the 64 probe heights of theorem5 (its fit of c and the
    # residuals of check_space_form share that jet).  Only structural
    # makes its one pass of order 3, over the grid points alone, and
    # takes d2D from the warping triple without evaluating f again
    checks = ["lemma1", "soliton", "theorem1", "theorem3", "theorem4a", "theorem4b", "theorem5"]
    scene = validate_scene(example5_scene(checks + ["structural"] * structural))
    calls = {"component_jets": [], "metric_jets": []}
    ambient_jets = []
    eval_jet2 = ambient_module.eval_jet2

    def counted_eval(expr, bindings, active=()):
        ambient_jets.append((expr is scene.ambient.f, np.size(bindings["t"])))
        return eval_jet2(expr, bindings, active)

    monkeypatch.setattr(ambient_module, "eval_jet2", counted_eval)
    component_jets = Immersion.component_jets

    def counted_component_jets(self, points, order=2):
        calls["component_jets"].append((len(points), order))
        return component_jets(self, points, order)

    metric_jets = WarpedProduct.metric_jets

    def counted_metric_jets(self, q):
        calls["metric_jets"].append(len(q.t))
        return metric_jets(self, q)

    monkeypatch.setattr(Immersion, "component_jets", counted_component_jets)
    monkeypatch.setattr(WarpedProduct, "metric_jets", counted_metric_jets)
    report, _ = run_scene(scene)
    statuses = {check["name"]: check["status"] for check in report["checks"]}
    assert statuses["soliton"] == statuses.get("structural", "pass") == "pass"
    N = len(scene.grid)
    orders = [(N, 3)] if structural else [(N, 2)]
    assert calls == {"component_jets": orders, "metric_jets": [N]}
    assert ambient_jets == [(True, N), (True, 64)]


def test_rotational_profile_is_evaluated_once_per_batch(monkeypatch):
    # the fiber block evaluates beta and the jet of f at alpha(u) once per
    # batch, for all n fiber coordinates; the classification takes sigma,
    # its exact derivative and the slopes f'/f from one jet of f and one
    # beta over 16 values of u, then one batch for its grid
    scene = validate_scene(example5_scene(["soliton"]))
    betas, f_jets = [], []

    def beta(u):
        betas.append(np.size(u))
        return scene.profile.beta(u)

    curve = dataclasses.replace(scene.profile, beta=beta)
    eval_jet2 = rotational.eval_jet2

    def counted_eval(expr, bindings, active=(), order=2):
        if expr is curve.profile.f:
            f_jets.append(np.size(bindings["t"]))
        return eval_jet2(expr, bindings, active, order)

    monkeypatch.setattr(rotational, "eval_jet2", counted_eval)
    imm = rotational.assemble_rotational(curve, scene.ambient)
    betas.clear()
    f_jets.clear()
    grid_geometry(imm, scene.grid)
    assert betas == f_jets == [len(scene.grid)]
    betas.clear()
    f_jets.clear()
    grid = rotational.classification_grid(curve.profile)
    report = rotational.classify_rotational(curve, imm, grid)
    assert report.classified
    assert betas == f_jets == [16, len(grid)]


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
