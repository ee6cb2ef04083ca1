"""Numerical geometry of soliton hypersurfaces in warped products.

The package represents warped-product ambient spaces I x_f M^n, computes
the extrinsic and intrinsic geometry of immersed hypersurfaces with
exact order-2 derivative jets, verifies the gradient soliton condition
with the height function as potential, and constructs the rotational
constant-angle solitons of exponentially warped spaces.
"""

__version__ = "0.1.0"

from .ambient import AmbientPoint, Fiber, SpaceFormCheck, WarpedProduct, space_form_models
from .errors import (
    DegenerateImmersion,
    DomainError,
    ExprSyntaxError,
    MeshUnsupported,
    OutsideChart,
    PointError,
    QuadratureFailure,
    SceneError,
    SigmaZero,
    SingularMetric,
    UnknownIdentifier,
    WarpGeoError,
)
from .expr import Expression, parse, unparse, variables_in
from .hypersurface import ChartBox, Immersion
from .intrinsic import PointGeometry, grid_geometry
from .jets import Jet2, eval_jet2
from .rotational import ProfileCurve, RotationalProfile, solve_profile, verify_classification
from .soliton import (
    SolitonClass,
    SolitonReport,
    Verdict,
    hypotheses_report,
    soliton_report,
    structural_report,
)

__all__ = [
    "__version__",
    "AmbientPoint",
    "ChartBox",
    "DegenerateImmersion",
    "DomainError",
    "Expression",
    "ExprSyntaxError",
    "Fiber",
    "Immersion",
    "Jet2",
    "MeshUnsupported",
    "OutsideChart",
    "PointError",
    "PointGeometry",
    "ProfileCurve",
    "QuadratureFailure",
    "RotationalProfile",
    "SceneError",
    "SigmaZero",
    "SingularMetric",
    "SolitonClass",
    "SolitonReport",
    "SpaceFormCheck",
    "UnknownIdentifier",
    "Verdict",
    "WarpGeoError",
    "WarpedProduct",
    "eval_jet2",
    "grid_geometry",
    "hypotheses_report",
    "parse",
    "soliton_report",
    "solve_profile",
    "space_form_models",
    "structural_report",
    "unparse",
    "variables_in",
    "verify_classification",
]
