"""Two warpgeo trees in one process, timed operation by operation in turn.

Usage (from the repository root):

    python3 tools/interleaved_ab.py --parent PARENT/src --change CHANGE/src \
        [--rounds 30] [--seed 1] [--workload scene-mix] [--out BENCH.json]

Each tree's ``warpgeo`` package is imported from its ``src`` directory and
kept as its own set of modules; ``sys.modules`` is switched to a tree's set
before each of its calls, so the two never share a module.  The scenes are
those of the ``scene-mix`` and ``dense-grid`` workloads of
``bench/workloads.py`` for ``--seed``, or of the one named by ``--workload``.  Every round runs each scene once on
each tree, and which tree goes first alternates from one scene to the next
and from one round to the next, so that neither side always runs on a warm
or a cold heap.  An operation is ``validate_scene`` (``setup_s``), then
``run_scene`` (``run_s``, with the minor page faults it takes, from
``getrusage``), then ``report_to_json`` (``op_s`` is run_s plus that).  The
reports of the two trees are compared with ``timing_seconds`` removed.

Two arms run interleaved in the same rounds: ``a_b`` (parent against change)
and ``a_a`` (the parent against a second import of itself), whose ratios
show how far two identical trees lean apart.  Ratios are change over parent.

Outside the timed rounds, the script records for each tree the tracemalloc
peak of one ``run_scene`` per scene, after a warm-up run (as
``tests/test_scene.py`` takes it), and the median minor page faults per
``run_scene`` in a fresh process that imports that tree alone and runs one
workload's scenes in turn, as a benchmark run does (``--faults-of``, the
mode in which the script runs itself for that).
"""

from __future__ import annotations

import argparse
import copy
import importlib
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("ambient", "catalogue", "cli", "errors", "expr", "hypersurface", "intrinsic", "jets",
           "objmesh", "report", "rotational", "scene", "soliton")
SIDES = ("parent", "change")
FAULT_ROUNDS, FAULT_WARMUP = 40, 5


def load_tree(src):
    """The modules of the ``warpgeo`` package under ``src``, imported afresh."""
    for name in [m for m in sys.modules if m == "warpgeo" or m.startswith("warpgeo.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        for name in MODULES:
            importlib.import_module(f"warpgeo.{name}")
    finally:
        sys.path.remove(str(src))
    modules = {m: sys.modules.pop(m) for m in list(sys.modules) if m == "warpgeo" or m.startswith("warpgeo.")}
    if not Path(modules["warpgeo"].__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"warpgeo was not imported from {src}")
    return modules


def activate(modules):
    sys.modules.update(modules)
    return modules["warpgeo.scene"]


def workload_scenes(seed):
    """{workload: [(scene name, scene dict)]} of the scene-mix and dense-grid workloads."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {"scene-mix": workloads.scene_mix(seed), "dense-grid": workloads.dense_grid(seed)}


def operation(modules, data):
    """One operation on a fresh copy of ``data``: its figures and its report without timing."""
    scene_mod = activate(modules)
    data = copy.deepcopy(data)
    start = time.perf_counter()
    scene = scene_mod.validate_scene(data)
    ready = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    report, _ = scene_mod.run_scene(scene)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    ran = time.perf_counter()
    scene_mod.report_to_json(report)
    done = time.perf_counter()
    report.pop("timing_seconds")
    sample = {"setup_s": ready - start, "run_s": ran - ready, "op_s": done - ready, "minflt": faults,
              "points": len(scene.grid)}
    return sample, scene_mod.report_to_json(report)


def tracemalloc_peak(modules, data):
    """Bytes above the start at the peak of one run_scene, after a warm-up run."""
    scene_mod = activate(modules)
    scene = scene_mod.validate_scene(copy.deepcopy(data))
    scene_mod.run_scene(scene)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scene_mod.run_scene(scene)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def single_tree_faults(src, seed, workload):
    """Median minor page faults per run_scene of each scene of ``workload``, its scenes run
    in turn in this process with ``src``'s tree alone; the first rounds warm up."""
    tree, scenes = load_tree(src), workload_scenes(seed)[workload]
    faults = {name: [] for name, _ in scenes}
    for _ in range(FAULT_WARMUP + FAULT_ROUNDS):
        for name, data in scenes:
            faults[name].append(operation(tree, data)[0]["minflt"])
    return {name: statistics.median(counts[FAULT_WARMUP:]) for name, counts in faults.items()}


def fresh_process_faults(src, seed, workload):
    command = [sys.executable, __file__, "--faults-of", str(src), "--workload", workload, "--seed", str(seed)]
    return json.loads(subprocess.run(command, capture_output=True, text=True, check=True).stdout)


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q[0], "median": q[1], "q3": q[2]}


def ratio_summary(parent, change):
    """Per-round ratios change/parent: their median and quartiles, the rounds the change
    was faster in, and the spread of the parent's own values (IQR over median)."""
    ratios = [c / p for p, c in zip(parent, change)]
    spread = quartiles(parent)
    return {"ratio_median": round(statistics.median(ratios), 4),
            "ratio_quartiles": {k: round(v, 4) for k, v in quartiles(ratios).items()},
            "change_faster_in": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
            "parent_iqr_over_median": round((spread["q3"] - spread["q1"]) / spread["median"], 4)}


def workload_figures(samples):
    """End-to-end figures of one tree over one workload's operations, as the benchmark defines
    them (op_s.p90 stands in for its tail percentile)."""
    ops = sorted(s["op_s"] for s in samples)
    setups = {}
    for s in samples:
        setups.setdefault(s["scene"], []).append(s["setup_s"])
    return {"setup_s": statistics.fmean(statistics.median(v) for v in setups.values()),
            "op_s.p50": statistics.median(ops),
            "op_s.p90": ops[int(0.9 * (len(ops) - 1))],
            "points_per_s": sum(s["points"] for s in samples) / sum(s["run_s"] for s in samples)}


def arm_summary(rounds, scenes):
    """Figures of one arm; ``rounds`` holds per round, per scene, the (parent, change) samples."""
    def series(name, key):
        return {side: [r[name][k][key] for r in rounds] for k, side in enumerate(SIDES)}

    out = {"workloads": {}, "scenes": {}}
    for workload, pairs in scenes.items():
        names = [name for name, _ in pairs]
        total = {side: [sum(r[name][k]["run_s"] for name in names) for r in rounds] for k, side in enumerate(SIDES)}
        figures = {side: workload_figures([dict(r[name][k], scene=name) for r in rounds for name in names])
                   for k, side in enumerate(SIDES)}
        out["workloads"][workload] = {
            "sum_run_scene_s": ratio_summary(total["parent"], total["change"]),
            "end_to_end": {metric: {**{side: figures[side][metric] for side in SIDES},
                                    "ratio": round(figures["change"][metric] / figures["parent"][metric], 4)}
                           for metric in figures["parent"]},
        }
        for name in names:
            runs, setups, faults = series(name, "run_s"), series(name, "setup_s"), series(name, "minflt")
            out["scenes"][name] = {
                "run_scene_s": ratio_summary(runs["parent"], runs["change"]),
                "validate_scene_s": ratio_summary(setups["parent"], setups["change"]),
                "run_scene_median_s": {side: statistics.median(v) for side, v in runs.items()},
                "minflt_per_run_scene": {side: quartiles(v) for side, v in faults.items()},
            }
    return out


def compare(args):
    trees = {"parent": load_tree(args.parent), "change": load_tree(args.change),
             "parent_again": load_tree(args.parent)}
    arms = {"a_b": ("parent", "change"), "a_a": ("parent", "parent_again")}
    scenes = workload_scenes(args.seed)
    if args.workload:
        scenes = {args.workload: scenes[args.workload]}
    flat = [(name, data) for pairs in scenes.values() for name, data in pairs]
    for tree in trees.values():  # a first run of each scene loads what later runs reuse
        for _name, data in flat:
            operation(tree, data)

    rounds = {arm: [] for arm in arms}
    differing = {arm: set() for arm in arms}
    for r in range(args.rounds):
        for arm, sides in arms.items():
            record = {}
            for k, (name, data) in enumerate(flat):
                results = {}
                for side in (0, 1) if (r + k) % 2 == 0 else (1, 0):
                    results[side] = operation(trees[sides[side]], data)
                record[name] = (results[0][0], results[1][0])
                if results[0][1] != results[1][1]:
                    differing[arm].add(name)
            rounds[arm].append(record)

    sources = {"parent": args.parent, "change": args.change}
    return {
        "command": f"python3 tools/interleaved_ab.py --parent P/src --change C/src --rounds {args.rounds} "
                   f"--seed {args.seed}" + (f" --workload {args.workload}" if args.workload else ""),
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "ratios": "change over parent; per-round ratios of the summed run_scene seconds of a workload "
                  "(sum_run_scene_s) or of one scene's (run_scene_s); end_to_end figures over all operations "
                  "of a workload",
        **{arm: {**arm_summary(rounds[arm], scenes), "reports_differing": sorted(differing[arm])} for arm in arms},
        "tracemalloc_peak_bytes": {side: {name: tracemalloc_peak(trees[side], data) for name, data in flat}
                                   for side in SIDES},
        "fresh_process_minflt_per_run_scene": {
            side: {workload: fresh_process_faults(sources[side], args.seed, workload) for workload in scenes}
            for side in SIDES},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="src directory of the parent tree")
    parser.add_argument("--change", type=Path, help="src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--faults-of", type=Path, help="count the faults of this src directory's tree alone")
    parser.add_argument("--workload", choices=("scene-mix", "dense-grid"),
                        help="time this workload alone (both by default); with --faults-of, dense-grid by default")
    args = parser.parse_args(argv)
    if args.faults_of:
        print(json.dumps(single_tree_faults(args.faults_of, args.seed, args.workload or "dense-grid")))
        return
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    text = json.dumps(compare(args), indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
