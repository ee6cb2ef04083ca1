"""Command-line front end.

Commands::

    warpgeo spaceforms                 verify the five constant-curvature models
    warpgeo analyze <scene.json>       run scene checks, write a JSON report
    warpgeo rotational [flags]         build and classify a rotational surface
    warpgeo presets                    list catalogue presets

Exit codes: 0 all checks passed, 1 a check failed, 2 scene or usage
error, 3 numeric domain error (message carries the chart location).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__
from .ambient import space_form_models
from .catalogue import PRESET_DESCRIPTIONS
from .errors import DomainError, MeshUnsupported, PointError, SceneError, WarpGeoError
from .expr import unparse
from .hypersurface import MAX_GRID_POINTS
from .objmesh import surface_vertices, write_obj
from .rotational import RotationalProfile, verify_classification
from .scene import (
    MESH_WARNING,
    SCHEMA_VERSION,
    load_scene,
    report_to_json,
    run_scene,
    write_report,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _flag_error(args):
    """The usage error of the first flag of a command out of its range, or None."""
    flags = vars(args)
    if "theta" in flags and not 0.0 < args.theta < 1.0:
        return f"--theta must lie strictly in (0, 1), got {args.theta!r}"
    if flags.get("samples", 1) < 1:
        return f"--samples must be at least 1, got {args.samples!r}"
    for name in ("u0", "u1", "c1", "c2"):
        if not math.isfinite(flags.get(name, 0.0)):
            return f"--{name} must be finite, got {flags[name]!r}"
    if flags.get("u0", 0.0) >= flags.get("u1", 1.0):
        return "--u0 must be less than --u1"


def _cmd_spaceforms(args):
    rows = []
    all_passed = True
    for name, model, c, window in space_form_models():
        probes = np.linspace(window[0], window[1], args.samples)
        result = model.check_space_form(c, probes)
        rows.append((name, model, c, result))
        all_passed = all_passed and result.passed
    header = f"{'model':<18}{'f(t)':<10}{'k':>3}{'c':>5}  {'ratio residual':>16}{'second residual':>17}  status"
    print(header)
    print("-" * len(header))
    for name, model, c, result in rows:
        status = "pass" if result.passed else "FAIL"
        print(
            f"{name:<18}{unparse(model.f):<10}{model.k:>3.0f}{c:>5.0f}  "
            f"{result.ratio_residual:>16.3e}{result.second_residual:>17.3e}  {status}"
        )
    print(f"\n{sum(1 for *_, r in rows if r.passed)}/{len(rows)} models passed")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _cmd_analyze(args):
    try:
        scene = load_scene(args.scene)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PointError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        report, all_passed = run_scene(scene)
    except PointError as exc:  # a domain error, or a degenerate or singular point
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MeshUnsupported as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_USAGE

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
    flags = {name: getattr(args, name) for name in ("theta", "f", "n", "c1", "c2")}
    try:
        prof = RotationalProfile(**flags, u_range=(args.u0, args.u1))
    except (ValueError, WarpGeoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.mesh and prof.n != 2:
        print(f"error: mesh export needs n = 2, got n = {prof.n}", file=sys.stderr)
        return EXIT_USAGE
    if args.mesh and args.samples**2 > MAX_GRID_POINTS:
        print(
            f"error: a {args.samples} x {args.samples} mesh exceeds "
            f"MAX_GRID_POINTS = {MAX_GRID_POINTS}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    lo, hi = args.t_min, args.t_max
    interval = (-math.inf if lo is None else lo, math.inf if hi is None else hi)
    started = time.perf_counter()
    try:
        result = verify_classification(prof, interval=interval, u_count=args.samples)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, WarpGeoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    warnings = []
    if args.mesh:
        chart = result.immersion.chart
        u_values = chart.axis_points("u", args.samples, 0.0)
        v_values = chart.axis_points("v1", args.samples, 0.02)
        try:
            write_obj(args.mesh, surface_vertices(result.immersion, u_values, v_values))
        except MeshUnsupported as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        warnings.append(MESH_WARNING)
        print(f"mesh written to {args.mesh}")

    verdict = "ClassifiedSoliton" if result.classified else "NotClassified"
    print(f"{verdict}")
    print(f"  sigma constancy      {result.sigma_constancy:.3e}")
    print(f"  balance residual     {result.balance_residual:.3e}")
    print(f"  soliton residual     {result.soliton.residual_sup:.3e}")
    print(f"  log-slope variation  {result.logf_slope_variation:.3e}")

    if args.report:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "rotational": {**flags, "u_range": [args.u0, args.u1]},
            "result": result.to_dict(),
            "warnings": warnings,
            "timing_seconds": time.perf_counter() - started,
        }
        with open(args.report, "w") as handle:
            handle.write(report_to_json(doc))
        print(f"report written to {args.report}")
    return EXIT_OK if result.classified else EXIT_CHECK_FAILED


def _cmd_presets(args):
    width = max(len(name) for name in PRESET_DESCRIPTIONS)
    for name, description in sorted(PRESET_DESCRIPTIONS.items()):
        print(f"{name:<{width + 2}}{description}")
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
    p_rot.add_argument("--theta", type=float, required=True)
    p_rot.add_argument("--f", default="exp(t)")
    p_rot.add_argument("--n", type=int, default=2)
    p_rot.add_argument("--c1", type=float, default=0.0)
    p_rot.add_argument("--c2", type=float, default=0.0)
    p_rot.add_argument("--u0", type=float, default=-1.5)
    p_rot.add_argument("--u1", type=float, default=1.5)
    p_rot.add_argument("--samples", type=int, default=33)
    p_rot.add_argument("--t-min", type=float, default=None)
    p_rot.add_argument("--t-max", type=float, default=None)
    p_rot.add_argument("--mesh", default=None, help="write an OBJ mesh (n = 2 only)")
    p_rot.add_argument("--report", default=None, help="write a JSON report")
    p_rot.set_defaults(func=_cmd_rotational)

    p_pre = sub.add_parser("presets", help="list catalogue presets")
    p_pre.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None):
    """Run one command; flags out of range are refused (exit 2) before any work."""
    args = build_parser().parse_args(argv)
    error = _flag_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
