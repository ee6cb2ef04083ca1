"""Numerical geometry of soliton hypersurfaces in warped products.

The package represents warped-product ambient spaces I x_f M^n, computes
the extrinsic and intrinsic geometry of immersed hypersurfaces with
exact order-2 derivative jets, verifies the gradient soliton condition
with the height function as potential, and constructs the rotational
constant-angle solitons of exponentially warped spaces.

``import warpgeo`` loads no submodule, so no numpy: a public name, or a
submodule ``warpgeo.<module>``, is imported on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "ambient": "AmbientPoint Fiber SpaceFormCheck WarpedProduct space_form_models",
    "errors": "DegenerateImmersion DomainError ExprSyntaxError MeshUnsupported OutsideChart PointError "
              "QuadratureFailure SceneError SigmaZero SingularMetric UnknownIdentifier WarpGeoError",
    "expr": "Expression parse unparse variables_in",
    "hypersurface": "ChartBox Immersion",
    "intrinsic": "PointGeometry grid_geometry",
    "jets": "Jet2 eval_jet2",
    "rotational": "ProfileCurve RotationalProfile solve_profile verify_classification",
    "soliton": "SolitonClass SolitonReport Verdict check_report soliton_report",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "catalogue", "cli", "objmesh", "report", "scene"}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
