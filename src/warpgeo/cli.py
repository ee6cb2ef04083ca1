"""Command-line front end.

Commands::

    warpgeo spaceforms                 verify the five constant-curvature models
    warpgeo analyze <scene.json>       run scene checks, write a JSON report
    warpgeo rotational [flags]         build and classify a rotational surface
    warpgeo presets                    list catalogue presets

Exit codes, by one rule for every command (``main``): 0 all checks
passed, 1 a check failed, 2 scene or usage error (a bad scene field or
flag, a failing probe of the immersion, an unwritable output), 3 numeric
error at a point of the pass (the message carries the chart location).

Importing this module loads neither numpy nor the expression parser: each
command imports the engine modules it needs after its own refusals, so
``presets``, ``--help``, ``--version``, a usage error and an out-of-range
flag load neither, and a refused ``rotational --mesh`` loads no numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import __version__
from .catalogue import PRESETS, REQUIRED
from .errors import MAX_DIMENSION, MAX_GRID_POINTS, PointError, SceneError, WarpGeoError, _number

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


# The numeric flags refused before any work: flag -> (integer, lo, hi) of
# errors._number, the rule of scene numbers; () reads a finite number.
FLAG_RANGES = {"theta": (False, 0.0, 1.0), "n": (True, 2, MAX_DIMENSION), "samples": (True, 1),
               "u0": (), "u1": (), "c1": (), "c2": ()}


def _check_flags(args):
    """Refuse (ValueError) the first flag of the command out of its range."""
    flags = vars(args)
    for name in filter(flags.__contains__, FLAG_RANGES):  # the flags of this command
        _number(flags[name], None, f"--{name}", *FLAG_RANGES[name])
    for lo, hi in (("u0", "u1"), ("t_min", "t_max")):  # the bounds of a range
        a, b = flags.get(lo, 0.0), flags.get(hi, 1.0)
        if not a < b:
            raise ValueError(f"--{lo} must be less than --{hi}".replace("_", "-"))
        if math.isinf(b - a) and math.isfinite(a + b):  # a + b is inf or nan at an infinite bound
            raise ValueError(f"the width from --{lo} to --{hi} overflows a float".replace("_", "-"))


def _cmd_spaceforms(args):
    if args.samples > MAX_GRID_POINTS:
        raise ValueError(f"--samples must be at most MAX_GRID_POINTS = {MAX_GRID_POINTS}, "
                         f"got {args.samples}")
    import numpy as np

    from .ambient import space_form_models
    from .expr import unparse

    rows = []
    for name, model, c, window in space_form_models():
        probes = np.linspace(window[0], window[1], args.samples)
        rows.append((name, model, c, model.check_space_form(c, probes)))
    header = f"{'model':<18}{'f(t)':<10}{'k':>3}{'c':>5}  {'ratio residual':>16}{'second residual':>17}  status"
    print(header)
    print("-" * len(header))
    for name, model, c, result in rows:
        status = "pass" if result.passed else "FAIL"
        print(
            f"{name:<18}{unparse(model.f):<10}{model.k:>3.0f}{c:>5.0f}  "
            f"{result.ratio_residual:>16.3e}{result.second_residual:>17.3e}  {status}"
        )
    passed = sum(1 for *_, r in rows if r.passed)
    print(f"\n{passed}/{len(rows)} models passed")
    return EXIT_OK if passed == len(rows) else EXIT_CHECK_FAILED


def _cmd_analyze(args):
    from .report import write_report
    from .scene import load_scene, run_scene

    scene = load_scene(args.scene)
    report, all_passed = run_scene(scene)
    for entry in report["checks"]:
        line = f"{entry['name']:<28}{entry['status']:<16}"
        if "sup_error" in entry:
            line += f"sup_error={entry['sup_error']:.3e}"
        print(line)
    if report["soliton"]:
        block = report["soliton"]
        print(
            f"soliton: verdict={block['verdict']} classification={block['classification']} "
            f"lambda in [{block['lambda_min']:.6g}, {block['lambda_max']:.6g}]"
        )
    if scene.report_path:
        write_report(scene.report_path, report)
        print(f"report written to {scene.report_path}")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _cmd_rotational(args):
    from .expr import parse

    flags = {name: getattr(args, name) for name in ("theta", "f", "n", "c1", "c2")}
    try:  # f in t alone, as a scene's ambient.f, before any probe evaluates it
        f = parse(args.f, variables={"t"})
    except WarpGeoError as exc:
        raise ValueError(f"--f: {exc}") from None
    if args.mesh and args.n != 2:
        raise ValueError(f"mesh export needs n = 2, got n = {args.n}")
    if args.mesh and args.samples**2 > MAX_GRID_POINTS:
        raise ValueError(f"a {args.samples} x {args.samples} mesh exceeds "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    from .objmesh import surface_vertices, write_obj
    from .rotational import RotationalProfile, verify_classification
    from .report import MESH_WARNING, document, write_report

    prof = RotationalProfile(**{**flags, "f": f}, u_range=(args.u0, args.u1))

    started = time.perf_counter()
    result = verify_classification(prof, (args.t_min, args.t_max), u_count=args.samples)
    warnings = []
    if args.mesh:
        chart = result.immersion.chart
        u_values = chart.axis_points("u", args.samples, 0.0)
        v_values = chart.axis_points("v1", args.samples, 0.02)
        write_obj(args.mesh, surface_vertices(result.immersion, u_values, v_values))
        warnings.append(MESH_WARNING)
        print(f"mesh written to {args.mesh}")

    verdict = "ClassifiedSoliton" if result.classified else "NotClassified"
    print(f"{verdict}")
    print(f"  sigma constancy      {result.sigma_constancy:.3e}")
    print(f"  balance residual     {result.balance_residual:.3e}")
    print(f"  soliton residual     {result.soliton.residual_sup:.3e}")
    print(f"  log-slope variation  {result.logf_slope_variation:.3e}")

    if args.report:
        fields = {"rotational": {**flags, "u_range": [args.u0, args.u1]}, "result": result.to_dict()}
        write_report(args.report, document(fields, warnings, started))
        print(f"report written to {args.report}")
    return EXIT_OK if result.classified else EXIT_CHECK_FAILED


def _cmd_presets(args):
    width = max(len(name) for name in PRESETS)
    for name, (_, params, description) in sorted(PRESETS.items()):
        listed = ", ".join(f"{k}={'required' if v is REQUIRED else repr(v)}" for k, v in params.items())
        print(f"{name:<{width + 2}}{description} (params: {listed})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="warpgeo",
        description=(
            "verify soliton structure of hypersurfaces immersed in warped products"
        ),
    )
    parser.add_argument("--version", action="version", version=f"warpgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sf = sub.add_parser("spaceforms", help="verify the five constant-curvature models")
    p_sf.add_argument("--samples", type=int, default=200)
    p_sf.set_defaults(func=_cmd_spaceforms)

    p_an = sub.add_parser("analyze", help="run the checks requested by a scene file")
    p_an.add_argument("scene", help="path to a scene JSON file")
    p_an.set_defaults(func=_cmd_analyze)

    p_rot = sub.add_parser("rotational", help="build and classify a rotational surface")
    p_rot.add_argument("--f", default="exp(t)")
    p_rot.add_argument("--n", type=int, default=2)
    for name, default in PRESETS["rotational"][1].items():  # theta, c1, c2, u0, u1
        p_rot.add_argument(f"--{name}", type=float, default=default, required=default is REQUIRED)
    p_rot.add_argument("--samples", type=int, default=33)
    p_rot.add_argument("--t-min", type=float, default=-math.inf)
    p_rot.add_argument("--t-max", type=float, default=math.inf)
    p_rot.add_argument("--mesh", default=None, help="write an OBJ mesh (n = 2 only)")
    p_rot.add_argument("--report", default=None, help="write a JSON report")
    p_rot.set_defaults(func=_cmd_rotational)

    p_pre = sub.add_parser("presets", help="list catalogue presets")
    p_pre.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None):
    """Run one command, its flags checked first, and map a refusal to its exit code.

    The one rule of every command: a SceneError is exit 2; a PointError
    is exit 3, unless it is a failing probe of the immersion
    (``PointError.immersion_fault``), exit 2; any other ValueError,
    WarpGeoError or OSError (an unwritable output) is exit 2.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ValueError, WarpGeoError, OSError) as exc:
        code, prefix = EXIT_USAGE, "scene error" if isinstance(exc, SceneError) else "error"
        if isinstance(exc, PointError) and not exc.immersion_fault:
            code, prefix = EXIT_DOMAIN, "domain error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
