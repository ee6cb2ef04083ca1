"""The public surface: every exported name resolves, and the README example runs."""

from pathlib import Path

import warpgeo
from warpgeo import jets


def test_every_exported_name_resolves():
    for module in (warpgeo, jets):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


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
