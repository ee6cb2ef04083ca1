"""Counted calls: the Python calls into warpgeo that one ``validate_scene``,
one ``run_scene`` and one ``verify_classification`` make, bounded by a
committed table.

A run makes the same calls on every repeat, in one process or in two, so
its count measures fixed cost where a timing cannot resolve a few percent
(counts as a stable proxy for time: Nethercote and Seward, PLDI 2007).
Lower a bound whenever its count falls; raise one only with a CHANGES.md
line that names the call added and the gain that pays for it.

A call is a ``call`` event of ``sys.setprofile`` whose frame's module is
warpgeo or one of its modules; a generator's resumes count too.  Only
Python calls are bounded: ``c_call`` events fire only for the numpy
callables that are builtins, and which those are depends on the numpy
version installed, not on warpgeo.  The table was taken on CPython 3.11.
The counts of 3.10 have not been measured; where they differ, the table
holds the larger.  Later versions that inline comprehensions (3.12 on)
count fewer calls.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from warpgeo.expr import parse
from warpgeo.rotational import RotationalProfile, verify_classification
from warpgeo.scene import run_scene, validate_scene

GOLDEN = Path(__file__).parent / "golden"

# golden scene: (validate_scene, run_scene) calls; bumped-horosphere for seed 1
BOUNDS = {
    "example5": (319, 633),
    "horosphere": (150, 385),
    "sphere3": (159, 567),
    "spherical-cap": (148, 332),
    "rotational-cosh": (343, 531),
    "bumped-horosphere-seed1": (649, 520),
    "dense-sphere3": (159, 364),
    "dense-example5": (317, 343),
}
# verify_classification with the arguments of the golden rotational-n2 call
VERIFY_BOUND = 628


def counted(fn, *args):
    """(the Python calls into warpgeo that ``fn(*args)`` makes, its result)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").partition(".")[0] == "warpgeo":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return calls, result


@pytest.mark.parametrize("name", BOUNDS)
def test_scene_calls_stay_within_the_table(name):
    data = json.loads((GOLDEN / f"{name}.scene.json").read_text())
    run_scene(validate_scene(data))  # warm-up: lazy imports and memos are paid once per process
    counts = []
    for _ in range(2):
        validate_calls, scene = counted(validate_scene, data)
        run_calls, _ = counted(run_scene, scene)
        counts.append((validate_calls, run_calls))
    assert counts[0] == counts[1]  # a count is deterministic
    bound = BOUNDS[name]
    assert counts[0][0] <= bound[0] and counts[0][1] <= bound[1], (counts[0], bound)


def test_verify_classification_calls_stay_within_the_table():
    # warpgeo rotational --theta 0.5 --samples 9 --n 2
    prof = RotationalProfile(theta=0.5, f=parse("exp(t)"), n=2, u_range=(-1.5, 1.5))
    args = (prof, (-math.inf, math.inf), 9)
    verify_classification(*args)  # warm-up
    counts = [counted(verify_classification, *args)[0] for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0] <= VERIFY_BOUND, counts[0]
