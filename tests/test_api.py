"""The public surface: every exported name resolves, and the README example runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import warpgeo
from warpgeo import jets


def test_every_exported_name_resolves():
    for module in (warpgeo, jets):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_names_and_submodules_resolve_after_a_bare_import():
    # in a new interpreter: here the test session has loaded every module
    code = (
        "import json, sys, warpgeo; loaded = sorted(m for m in sys.modules if m.startswith('warpgeo.')); "
        "print(json.dumps([loaded, warpgeo.WarpedProduct.__module__, warpgeo.soliton.SOLITON_TOL, "
        "sorted(set(warpgeo.__all__) - set(dir(warpgeo))), 'numpy' in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(warpgeo.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded, module, tol, undirected, numpy_loaded = json.loads(out.stdout)
    assert (loaded, module, undirected, numpy_loaded) == ([], "warpgeo.ambient", [], True)
    assert tol == warpgeo.soliton.SOLITON_TOL


def test_presets_build_through_the_package_loader():
    # in a new interpreter: the catalogue loads no numpy, and a build reads the engine
    # modules as attributes of the package, which imports them on first access
    code = (
        "import json, sys, warpgeo; import warpgeo.catalogue as catalogue; numpy = 'numpy' in sys.modules; "
        "loader, seen = warpgeo.__getattr__, []; "
        "warpgeo.__getattr__ = lambda name: seen.append(name) or loader(name); "
        "imm = catalogue.rotational_soliton_immersion(); "
        "print(json.dumps([numpy, type(imm).__module__, sorted(seen)]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(warpgeo.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    numpy_loaded, module, seen = json.loads(out.stdout)
    assert (numpy_loaded, module) == (False, "warpgeo.hypersurface")
    assert {"ambient", "rotational"} <= set(seen)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'MAX_GRID_POINTS'"):
        warpgeo.MAX_GRID_POINTS
    assert not hasattr(warpgeo, "nonexistent")


def test_scene_keeps_report_to_json():
    # the benchmark encodes its reports through warpgeo.scene, which does not use the name itself
    import warpgeo.report
    import warpgeo.scene

    assert warpgeo.scene.report_to_json is warpgeo.report.report_to_json


def test_star_imports_succeed():
    for module in ("warpgeo", "warpgeo.jets"):
        namespace = {}
        exec(f"from {module} import *", namespace)
        assert set(__import__(module, fromlist=["__all__"]).__all__) <= set(namespace)


def test_readme_library_example_prints_its_comment(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected == [
        "Verdict.SOLITON SolitonClass.TRIVIAL 0.0"
    ]
