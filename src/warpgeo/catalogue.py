"""Catalogue of named immersions: the presets of scenes and the CLI.

``PRESETS`` imports without numpy or the expression parser (``warpgeo
presets`` and the CLI's ``rotational`` defaults read it): the builders read
the engine modules as ``warpgeo.ambient``, ``warpgeo.expr``,
``warpgeo.hypersurface`` and ``warpgeo.rotational``, which the package
imports on first access (PEP 562).
"""

from __future__ import annotations

import math

import warpgeo

from .errors import DomainError, SceneError, WarpGeoError, _number

ROOT2_OVER_2 = math.sqrt(2.0) / 2.0


def slice_immersion(ambient, t0, half_width=1.0):
    """The level set t = t0, charted by the fiber coordinates."""
    lo, hi = ambient.interval
    if not lo < t0 < hi:
        raise ValueError(f"t0={t0!r} outside the ambient interval")
    names = tuple(f"u{i}" for i in range(1, ambient.n + 1))
    if ambient.fiber is warpgeo.ambient.Fiber.SPHERE:
        lower = [0.2] * (ambient.n - 1) + [0.1]
        upper = [math.pi - 0.2] * (ambient.n - 1) + [2.0 * math.pi - 0.1]
    else:
        lower = [-half_width] * ambient.n
        upper = [half_width] * ambient.n
    chart = warpgeo.hypersurface.ChartBox(names, tuple(lower), tuple(upper))
    return warpgeo.hypersurface.Immersion(ambient, chart, [t0, *map(warpgeo.expr.Var, names)])


def hyperplane_immersion(ambient, half_width=1.0):
    """The hyperplane x1 = 0, with the base coordinate as chart u."""
    if ambient.fiber is not warpgeo.ambient.Fiber.EUCLIDEAN:
        raise ValueError("hyperplane preset needs a Euclidean fiber")
    names = ("u",) + tuple(f"v{j}" for j in range(1, ambient.n))
    lower = (-half_width,) * ambient.n
    upper = (half_width,) * ambient.n
    chart = warpgeo.hypersurface.ChartBox(names, lower, upper)
    u, *fiber = map(warpgeo.expr.Var, names)
    return warpgeo.hypersurface.Immersion(ambient, chart, [u, 0.0, *fiber])


def sphere_immersion(ambient, pad=0.15):
    """Unit sphere about the origin in a Euclidean-fiber ambient.

    Charted by a latitude u from the axis (height = sin u) and nested
    sphere angles; the chart center makes the orientation rule pick the
    outward normal.
    """
    if ambient.fiber is not warpgeo.ambient.Fiber.EUCLIDEAN:
        raise ValueError("sphere preset needs a Euclidean fiber")
    n = ambient.n
    names = ("u",) + tuple(f"v{j}" for j in range(1, n))
    lower = [-math.pi / 2 + pad]
    upper = [math.pi / 2 - pad]
    for j in range(1, n - 1):
        lower.append(0.2)
        upper.append(math.pi - 0.2)
    if n >= 2:
        lower.append(-math.pi + 0.1)
        upper.append(math.pi - 0.1)
    chart = warpgeo.hypersurface.ChartBox(tuple(names), tuple(lower), tuple(upper))
    expr, u = warpgeo.expr, warpgeo.expr.Var("u")
    components = [expr.Call("sin", u)]
    if n == 1:
        components.append(expr.Call("cos", u))
    else:
        for x_expr in warpgeo.rotational.sphere_chart_expressions(n):
            components.append(expr.BinOp("*", expr.Call("cos", u), x_expr))
    return warpgeo.hypersurface.Immersion(ambient, chart, components)


def rotational_soliton_immersion(theta=ROOT2_OVER_2, n=2, u_range=(-1.5, 1.5)):
    """The constant-angle rotational soliton in the exponential warping."""
    ambient = warpgeo.ambient.WarpedProduct((-math.inf, math.inf), "exp(t)", warpgeo.ambient.Fiber.EUCLIDEAN, n)
    return _rotational(ambient, theta, 0.0, 0.0, *u_range)[0]


def _rotational(ambient, theta, c1, c2, u0, u1):
    """The rotational preset's surface against ``ambient``, and its solved profile."""
    rotational = warpgeo.rotational
    prof = rotational.RotationalProfile(theta=theta, f=ambient.f, n=ambient.n, c1=c1, c2=c2, u_range=(u0, u1))
    curve = rotational.solve_profile(prof)
    return rotational.assemble_rotational(curve, ambient), curve


REQUIRED = None  # the default of a parameter a preset cannot do without
_SLICE = {"t0": REQUIRED, "half_width": 1.0}
_ROTATIONAL = {"theta": REQUIRED, "c1": 0.0, "c2": 0.0, "u0": -1.5, "u1": 1.5}

# The presets of scenes: name -> (builder, {param: default or REQUIRED},
# description).  Every parameter is a finite number (errors._number).
PRESETS = {
    "slice": (slice_immersion, _SLICE, "level set t = t0 charted by the fiber"),
    "horosphere": (slice_immersion, _SLICE, "slice t = t0, a horosphere when f = exp(t)"),
    "hyperplane": (hyperplane_immersion, {"half_width": 1.0}, "hyperplane x1 = 0, Euclidean fiber"),
    "sphere": (sphere_immersion, {"pad": 0.15}, "unit sphere about the origin, outward normal"),
    "rotational": (_rotational, _ROTATIONAL, "constant-angle rotational surface"),
    "example5": (_rotational, {**_ROTATIONAL, "theta": ROOT2_OVER_2}, "the soliton of f = exp(t)"),
}


def build_preset(name, ambient, params):
    """``(immersion, curve_or_None)`` of preset ``name`` against a scene ambient.

    A rotational preset solves its profile once and returns the solved
    :class:`ProfileCurve` too, so the classification check reuses both.
    """
    if name not in PRESETS:
        raise SceneError(f"unknown preset {name!r}", field="immersion.preset")
    builder, defaults, _ = PRESETS[name]
    # demands on the ambient name its field (the builders check again for library callers)
    if builder is not slice_immersion and ambient.fiber is not warpgeo.ambient.Fiber.EUCLIDEAN:
        raise SceneError(f"{name} preset needs a Euclidean fiber", field="ambient.fiber")
    if builder is _rotational and ambient.n < 2:
        raise SceneError("rotational hypersurfaces need n >= 2", field="ambient.n")
    unknown = set(params) - set(defaults)
    if unknown:
        raise SceneError(f"unknown parameters {sorted(unknown)} for preset {name!r}", "immersion.params")
    values = {}
    for key, default in defaults.items():
        if key not in params and default is REQUIRED:
            raise SceneError(f"{name} needs {key}", field="immersion.params")
        values[key] = _number(params.get(key, default), "immersion.params", key)
    try:
        built = builder(ambient, **values)
    except DomainError:
        raise  # surfaces as a numeric error, not a validation error
    except (ValueError, WarpGeoError) as exc:
        raise SceneError(str(exc), field="immersion.params") from None
    return built if builder is _rotational else (built, None)
