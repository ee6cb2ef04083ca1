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
    BoundaryTooClose,
    DegenerateImmersion,
    DomainError,
    ExprSyntaxError,
    GridTooCoarse,
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
from .hypersurface import (
    ChartBox,
    Immersion,
    ShapeData,
    Tag,
    flip_orientation,
    mean_curvature,
    shape_data,
)
from .intrinsic import (
    PointGeometry,
    curvature_package,
    grid_geometry,
    point_geometry,
)
from .jets import Jet2, eval_jet2, eval_value
from .rotational import (
    ProfileCurve,
    RotationalProfile,
    build_rotational,
    solve_profile,
    sphere_chart,
    verify_classification,
    weingarten_closed_form,
)
from .soliton import (
    SolitonClass,
    SolitonReport,
    Verdict,
    check_hypotheses,
    hessian_height,
    hessian_height_paths,
    soliton_lambda,
    soliton_residual,
    structural_identity,
)

__all__ = [
    "__version__",
    "AmbientPoint",
    "BoundaryTooClose",
    "ChartBox",
    "DegenerateImmersion",
    "DomainError",
    "Expression",
    "ExprSyntaxError",
    "Fiber",
    "GridTooCoarse",
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
    "ShapeData",
    "SigmaZero",
    "SingularMetric",
    "SolitonClass",
    "SolitonReport",
    "SpaceFormCheck",
    "Tag",
    "UnknownIdentifier",
    "Verdict",
    "WarpGeoError",
    "WarpedProduct",
    "build_rotational",
    "check_hypotheses",
    "curvature_package",
    "eval_jet2",
    "eval_value",
    "flip_orientation",
    "grid_geometry",
    "hessian_height",
    "hessian_height_paths",
    "mean_curvature",
    "parse",
    "point_geometry",
    "shape_data",
    "soliton_lambda",
    "soliton_residual",
    "solve_profile",
    "space_form_models",
    "sphere_chart",
    "structural_identity",
    "unparse",
    "variables_in",
    "verify_classification",
    "weingarten_closed_form",
]
