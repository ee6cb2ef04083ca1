"""Inputs of the benchmark workloads, generated from the seed.

The program sees only what this module builds: scene dictionaries for
``scene-mix`` and ``dense-grid`` and argv lists for ``cli-cold``.  Only
the bumped horosphere of ``scene-mix`` depends on the seed; every other
input is fixed, so its expected outcome is pinned in ``expected.py``.
"""

from __future__ import annotations

import math

import numpy as np

ALL_CHECKS = [
    "lemma1",
    "soliton",
    "structural",
    "theorem1",
    "theorem3",
    "theorem4a",
    "theorem4b",
    "theorem5",
    "rotational-classification",
    "spaceform c=-1",
]

# Seconds one round of each workload takes at the seed commit, at the
# reference speed of measure.SpeedScale.  A run does
# ceil(seconds / ROUND_S) rounds: the same work on every commit, so the
# percentiles of a heterogeneous mix stay comparable between commits.
ROUND_S = {"scene-mix": 4.4, "dense-grid": 6.8, "cli-cold": 5.5}


def _ambient(f="exp(t)", n=2, fiber="euclidean", interval=("-inf", "inf")):
    return {"interval": list(interval), "f": f, "fiber": fiber, "n": n}


def _scene(ambient, immersion, names, count, checks):
    return {
        "schema_version": 1,
        "ambient": ambient,
        "immersion": immersion,
        "grid": {"samples": {name: count for name in names}},
        "checks": list(checks),
        "output": {},
    }


def _bump(rng):
    a, b, c, d = (float(x) for x in rng.uniform(0.5, 2.0, size=4))
    return f"0.004*sin({a!r}*u1+{b!r})*cos({c!r}*u2+{d!r})"


def scene_mix(seed, smoke=False):
    """The six scenes run round-robin, as (name, scene dict) pairs.

    Many checks share one grid, so the reuse of per-point geometry
    across checks dominates the cost.
    """
    rng = np.random.default_rng(seed)
    small = 3 if smoke else None
    bumped = {
        "components": [f"0+{_bump(rng)}", f"u1+{_bump(rng)}", f"u2+{_bump(rng)}"],
        "chart": {"names": ["u1", "u2"], "lower": [-1, -1], "upper": [1, 1]},
    }
    return [
        ("example5", _scene(
            _ambient(), {"preset": "example5"}, ("u", "v1"), small or 9, ALL_CHECKS)),
        ("horosphere", _scene(
            _ambient(), {"preset": "horosphere", "params": {"t0": 0.0}},
            ("u1", "u2"), small or 7,
            ["lemma1", "soliton", "structural", "theorem1", "theorem3",
             "theorem4a", "spaceform c=-1"])),
        ("sphere3", _scene(
            _ambient(f="1", n=3), {"preset": "sphere"}, ("u", "v1", "v2"),
            small or 5, ["lemma1", "soliton", "structural", "theorem4b", "theorem5"])),
        ("spherical-cap", _scene(
            _ambient(f="sin(t)", fiber="sphere", interval=(0, math.pi)),
            {"preset": "slice", "params": {"t0": 1.0}}, ("u1", "u2"), small or 7,
            ["soliton", "theorem1", "theorem3", "theorem5", "spaceform c=1"])),
        ("rotational-cosh", _scene(
            _ambient(f="cosh(t)"), {"preset": "rotational", "params": {"theta": 0.5}},
            ("u", "v1"), small or 7, ["soliton", "rotational-classification"])),
        ("bumped-horosphere", _scene(
            _ambient(), bumped, ("u1", "u2"), small or 7,
            ["lemma1", "soliton", "theorem4a"])),
    ]


def dense_grid(seed, smoke=False):
    """One soliton check on large grids: expression components, then
    callable profile components.  Each point is computed once."""
    del seed  # fixed inputs; the seed is accepted for a uniform interface
    return [
        ("dense-sphere3", _scene(
            _ambient(f="1", n=3), {"preset": "sphere"}, ("u", "v1", "v2"),
            4 if smoke else 11, ["soliton"])),
        ("dense-example5", _scene(
            _ambient(), {"preset": "example5"}, ("u", "v1"),
            5 if smoke else 33, ["soliton"])),
    ]


def cli_analyze_scene(report_path, smoke=False):
    scene = _scene(
        _ambient(), {"preset": "horosphere", "params": {"t0": 0.0}},
        ("u1", "u2"), 3 if smoke else 5, ["lemma1", "soliton", "theorem1"])
    scene["output"] = {"report": report_path}
    return scene


def cli_commands(workdir, smoke=False):
    """The CLI calls of ``cli-cold``, in the order they cycle.

    ``workdir`` (a Path) holds the scene file and every file the calls
    write.  ``points`` counts the chart points a call evaluates: the
    classification grid of ``rotational`` is samples x 9, or
    samples x 5 x 9 for n = 3.
    """
    samples = 5 if smoke else 9
    rot = ["rotational", "--theta", "0.5", "--samples", str(samples)]
    n2 = {"report": workdir / "n2.json", "mesh": workdir / "n2.obj"}
    return [
        {"name": "presets", "argv": ["presets"], "points": 0, "outputs": {}},
        {"name": "spaceforms", "argv": ["spaceforms"], "points": 0, "outputs": {}},
        {"name": "analyze", "argv": ["analyze", str(workdir / "scene.json")],
         "points": 9 if smoke else 25, "outputs": {"report": workdir / "report.json"}},
        {"name": "rotational-n2",
         "argv": rot + ["--n", "2", "--mesh", str(n2["mesh"]), "--report", str(n2["report"])],
         "points": samples * 9, "outputs": n2, "samples": samples},
        {"name": "rotational-n3-mesh",
         "argv": rot + ["--n", "3", "--mesh", str(workdir / "n3.obj")],
         "points": samples * 5 * 9, "outputs": {}},
    ]


WORKLOADS = ("scene-mix", "dense-grid", "cli-cold")
