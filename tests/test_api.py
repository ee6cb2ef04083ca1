"""The public surface: every exported name resolves."""

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
