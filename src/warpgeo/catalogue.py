"""Catalogue of named immersions used by the CLI and the test suite."""

from __future__ import annotations

import math

from .ambient import Fiber, WarpedProduct
from .errors import DomainError, SceneError, WarpGeoError
from .expr import BinOp, Call, Num, Var, literal, parse
from .hypersurface import ChartBox, Immersion, Tag
from .jets import eval_jet2
from .rotational import (
    RotationalProfile,
    assemble_rotational,
    build_rotational,
    solve_profile,
    sphere_chart_expressions,
)

ROOT2_OVER_2 = math.sqrt(2.0) / 2.0


def euclidean_ambient(n):
    return WarpedProduct((-math.inf, math.inf), "1", Fiber.EUCLIDEAN, n)


def hyperbolic_ambient(n):
    return WarpedProduct((-math.inf, math.inf), "exp(t)", Fiber.EUCLIDEAN, n)


def spherical_cap_ambient(n):
    return WarpedProduct((0.0, math.pi), "sin(t)", Fiber.SPHERE, n)


def slice_immersion(ambient, t0, tag=Tag.SLICE, half_width=1.0):
    """The level set t = t0, charted by the fiber coordinates."""
    lo, hi = ambient.interval
    if not lo < t0 < hi:
        raise ValueError(f"t0={t0!r} outside the ambient interval")
    names = tuple(f"u{i}" for i in range(1, ambient.n + 1))
    if ambient.fiber is Fiber.SPHERE:
        lower = [0.2] * (ambient.n - 1) + [0.1]
        upper = [math.pi - 0.2] * (ambient.n - 1) + [2.0 * math.pi - 0.1]
    else:
        lower = [-half_width] * ambient.n
        upper = [half_width] * ambient.n
    chart = ChartBox(names, tuple(lower), tuple(upper))
    components = [literal(t0)] + [Var(name) for name in names]
    return Immersion(ambient, chart, components, tag=tag)


def horosphere_immersion(t0=0.0, n=2, half_width=1.0):
    """Slice of the exponentially warped space (flat, totally umbilical)."""
    return slice_immersion(
        hyperbolic_ambient(n), t0, tag=Tag.HOROSPHERE, half_width=half_width
    )


def hyperplane_immersion(ambient, half_width=1.0):
    """The hyperplane x1 = 0, with the base coordinate as chart u."""
    if ambient.fiber is not Fiber.EUCLIDEAN:
        raise ValueError("hyperplane preset needs a Euclidean fiber")
    names = ("u",) + tuple(f"v{j}" for j in range(1, ambient.n))
    lower = (-half_width,) * ambient.n
    upper = (half_width,) * ambient.n
    chart = ChartBox(names, lower, upper)
    components = [Var("u"), Num(0.0)] + [Var(f"v{j}") for j in range(1, ambient.n)]
    return Immersion(ambient, chart, components, tag=Tag.HYPERPLANE)


def sphere_immersion(ambient, pad=0.15):
    """Unit sphere about the origin in a Euclidean-fiber ambient.

    Charted by a latitude u from the axis (height = sin u) and nested
    sphere angles; the chart center makes the orientation rule pick the
    outward normal.
    """
    if ambient.fiber is not Fiber.EUCLIDEAN:
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
    chart = ChartBox(tuple(names), tuple(lower), tuple(upper))
    u = Var("u")
    components = [Call("sin", u)]
    if n == 1:
        components.append(Call("cos", u))
    else:
        for x_expr in sphere_chart_expressions(n):
            components.append(BinOp("*", Call("cos", u), x_expr))
    return Immersion(ambient, chart, components, tag=Tag.SPHERE_IN_EUCLIDEAN)


def rotational_soliton_immersion(theta=ROOT2_OVER_2, n=2, u_range=(-1.5, 1.5)):
    """The constant-angle rotational soliton in the exponential warping."""
    prof = RotationalProfile(theta=theta, f="exp(t)", n=n, u_range=tuple(u_range))
    return build_rotational(prof)


def standard_catalogue():
    """Named immersions exercising every verified construction."""
    return [
        ("slice-spherical", slice_immersion(spherical_cap_ambient(2), math.pi / 2)),
        ("horosphere", horosphere_immersion(t0=0.0, n=2)),
        ("hyperplane", hyperplane_immersion(euclidean_ambient(2))),
        ("sphere2", sphere_immersion(euclidean_ambient(2))),
        ("sphere3", sphere_immersion(euclidean_ambient(3))),
        ("rotational-soliton", rotational_soliton_immersion()),
    ]


def perturbed_immersion(imm, rng, amplitude=0.004):
    """Jitter every component by a smooth bump expression.

    The bump is amplitude * sin(a u_1 + b) * cos(c u_2 + d) in the first
    chart variables, with coefficients drawn from ``rng``; amplitudes
    are kept small so the perturbed map stays an immersion inside the
    ambient chart.
    """
    names = imm.chart.names
    components = []
    for comp in imm.components:
        a, b, c, d = (float(x) for x in rng.uniform(0.5, 2.0, size=4))
        bump_src = f"{amplitude!r}*sin({a!r}*{names[0]}+{b!r})"
        if len(names) > 1:
            bump_src += f"*cos({c!r}*{names[1]}+{d!r})"
        bump = parse(bump_src)

        def component(values, active, base=comp, bump_expr=bump):
            return base.jet(values, active) + eval_jet2(bump_expr, values, active)

        components.append(component)
    return Immersion(imm.ambient, imm.chart, components, tag=Tag.CUSTOM)


PRESET_BUILDERS = {
    "slice": lambda ambient, **kw: slice_immersion(ambient, **kw),
    "horosphere": lambda ambient, **kw: slice_immersion(
        ambient, tag=Tag.HOROSPHERE, **kw
    ),
    "hyperplane": lambda ambient, **kw: hyperplane_immersion(ambient, **kw),
    "sphere": lambda ambient, **kw: sphere_immersion(ambient, **kw),
}

PRESET_DESCRIPTIONS = {
    "slice": "level set t = t0 charted by the fiber (params: t0, half_width)",
    "horosphere": "slice tagged as a horosphere (params: t0, half_width)",
    "hyperplane": "hyperplane x1 = 0 in a Euclidean-fiber ambient (params: half_width)",
    "sphere": "unit sphere about the origin, outward normal (params: pad)",
    "rotational": "constant-angle rotational surface (params: theta, c1, c2, u0, u1)",
    "example5": "rotational soliton preset, theta = sqrt(2)/2 in f = exp(t)",
}


def build_preset(name, ambient, params):
    """Build a preset immersion against a scene ambient.

    Returns ``(immersion, curve_or_None)``; rotational presets solve
    their profile once, assemble the surface against ``ambient`` and
    return the solved :class:`ProfileCurve`, so the classification check
    reuses both.
    """
    params = dict(params or {})
    if name in PRESET_BUILDERS:
        try:
            return PRESET_BUILDERS[name](ambient, **params), None
        except TypeError as exc:
            raise SceneError(str(exc), field="immersion.params") from None
        except ValueError as exc:
            raise SceneError(str(exc), field="immersion.params") from None
    if name in ("rotational", "example5"):
        if ambient.fiber is not Fiber.EUCLIDEAN:
            raise SceneError(
                "rotational presets need a Euclidean fiber", field="ambient.fiber"
            )
        defaults = {"c1": 0.0, "c2": 0.0, "u0": -1.5, "u1": 1.5}
        if name == "example5":
            defaults["theta"] = ROOT2_OVER_2
        unknown = set(params) - {"theta", "c1", "c2", "u0", "u1"}
        if unknown:
            raise SceneError(
                f"unknown rotational parameters {sorted(unknown)}",
                field="immersion.params",
            )
        merged = {**defaults, **params}
        if "theta" not in merged:
            raise SceneError("rotational preset needs theta", field="immersion.params")
        try:
            prof = RotationalProfile(
                theta=float(merged["theta"]),
                f=ambient.f,
                n=ambient.n,
                c1=float(merged["c1"]),
                c2=float(merged["c2"]),
                u_range=(float(merged["u0"]), float(merged["u1"])),
            )
            curve = solve_profile(prof)
            imm = assemble_rotational(curve, ambient)
        except DomainError:
            raise  # surfaces as a numeric error, not a validation error
        except (ValueError, WarpGeoError) as exc:
            raise SceneError(str(exc), field="immersion.params") from None
        return imm, curve
    raise SceneError(f"unknown preset {name!r}", field="immersion.preset")
