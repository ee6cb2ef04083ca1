"""warpgeo benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload scene-mix --seed 1 --seconds 23 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, and
``--trace 1`` the per-layer metrics of a separate traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything else the run
records (environment, samples, failures, spans) goes to
``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Pinned before numpy loads, here and in every child process.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import measure  # noqa: E402  (these load numpy)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PER_ROUND = 3  # validate_scene calls of each scene per round, for setup_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sets the work of a run: the rounds the seed commit does in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and two rounds, to test the benchmark itself")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def environment(args, rounds, inputs):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs": inputs,
    }


def workload_inputs(args, workdir):
    """(operations, input records, scenes whose set-up is timed).

    Operations are (name, scene dict) pairs, or CLI command dicts for
    cli-cold, whose analyze scene is written to ``workdir``.
    """
    if args.workload == "cli-cold":
        scene = workloads.cli_analyze_scene(str(workdir / "report.json"), args.smoke)
        (workdir / "scene.json").write_text(json.dumps(scene, indent=2))
        commands = workloads.cli_commands(workdir, args.smoke)
        records = [{k: c[k] for k in ("name", "argv", "points")} for c in commands]
        return commands, records, [("cli-horosphere", scene)]
    build = workloads.scene_mix if args.workload == "scene-mix" else workloads.dense_grid
    scenes = build(args.seed, smoke=args.smoke)
    return scenes, scene_records(scenes), scenes


def warm_up(setup_scenes):
    """Lazy imports and first-call set-up, before anything is timed."""
    import warpgeo.scene as scene_mod

    for _name, data in setup_scenes:
        scene_mod.validate_scene(copy.deepcopy(data))


def scene_records(scenes):
    return [
        {"name": name, "grid": data["grid"]["samples"],
         "points": math.prod(data["grid"]["samples"].values())}
        for name, data in scenes
    ]


def end_to_end(samples, setup, imports, children):
    """The end-to-end metrics of BENCHMARK.json, at reference speed, and
    the same figures unscaled.

    Operation samples carry a speed ``factor``; ``imports`` holds
    (raw seconds, factor) pairs, and ``setup`` such pairs per scene.
    ``setup_s`` is the mean over scenes of each scene's median.
    """
    def figures(scaled):
        def k(factor):
            return factor if scaled else 1.0

        op_s = [s["op_s"] * k(s["factor"]) for s in samples]
        busy = sum(s.get("run_s", s["op_s"]) * k(s["factor"]) for s in samples)
        value, pct, count = measure.tail(op_s)
        return {
            "setup_s": (statistics.fmean(
                statistics.median(t * k(f) for t, f in pairs) for pairs in setup.values()), "s"),
            "import_s": (statistics.median(t * k(f) for t, f in imports), "s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "op_s.tail": (value, "s"),
            "points_per_s": (sum(s["points"] for s in samples) / busy, "1/s"),
            "peak_rss_mb": (measure.peak_rss_mb(children), "MB"),
        }, {"percentile": pct, "samples": count}

    metrics, tail_info = figures(scaled=True)
    raw, _ = figures(scaled=False)
    factors = [s["factor"] for s in samples]
    return metrics, {
        "tail": tail_info,
        "unscaled": {k: v for k, (v, _u) in raw.items()},
        "speed_factor": {"median": statistics.median(factors),
                         "min": min(factors), "max": max(factors)},
        "samples": samples,
        "setup": setup,
        "imports": imports,
    }


def untraced(args, env, ledger, workdir):
    import warpgeo.scene as scene_mod

    rounds = measure.rounds_for(args.seconds, workloads.ROUND_S[args.workload], args.smoke)
    cli = args.workload == "cli-cold"
    ops, inputs, setup_scenes = workload_inputs(args, workdir)
    warm_up(setup_scenes)
    samples, imports = [], []
    setup = {name: [] for name, _data in setup_scenes}

    with measure.SpeedScale() as scale:

        def in_child(fn, *fn_args):
            with scale.idle():
                return fn(*fn_args)

        def import_probe():
            token = scale.start()
            seconds = in_child(measure.import_seconds, env)
            imports.append((seconds, scale.stop(token)[1]))

        # Set-up and import probes are spread over the run, so that they
        # sample the machine at different moments.
        import_probe()
        for _ in range(rounds):
            for name, data in setup_scenes:
                for _ in range(SETUP_PER_ROUND):
                    fresh = copy.deepcopy(data)
                    token = scale.start()
                    scene_mod.validate_scene(fresh)
                    setup[name].append(scale.stop(token))
            for op in ops:
                if cli:
                    sample = measure.cli_op(
                        op, ledger, lambda *a: in_child(measure.cli_subprocess, *a), env, scale)
                else:
                    sample = measure.scene_op(*op, ledger, scale)
                if sample is not None:
                    samples.append(sample)
            import_probe()
    if not samples:
        raise SystemExit(f"error: every operation failed: {ledger.failures[:3]}")
    for sample in samples:
        sample["factor"] = scale.factor(sample.pop("window"))
    setup = {name: [(t, scale.factor(w)) for t, w in pairs] for name, pairs in setup.items()}
    imports = [(t, scale.factor(w)) for t, w in imports]
    metrics, extra = end_to_end(samples, setup, imports, cli)
    return metrics, extra, environment(args, rounds, inputs)


def traced(args, env, ledger, workdir):
    import_ms = measure.import_profile_ms(
        env, 1 if args.smoke else 3, tracing.IMPORT_MODULES.values())
    ops, inputs, setup_scenes = workload_inputs(args, workdir)
    warm_up(setup_scenes)
    if args.workload == "cli-cold":
        ops = [(c["name"], lambda c=c: measure.cli_op(c, ledger, measure.cli_inprocess, env))
               for c in ops]
    else:
        ops = [(name, lambda n=name, d=data: measure.scene_op(n, d, ledger))
               for name, data in ops]

    def timed_pass(tracer=None):
        """Seconds of one pass over ``ops``, at reference speed."""
        timings = []
        with measure.SpeedScale() as scale:
            for name, op in ops:
                with tracer.operation(name) if tracer else contextlib.nullcontext():
                    token = scale.start()
                    op()
                    timings.append(scale.stop(token))
        return sum(seconds * scale.factor(window) for seconds, window in timings)

    plain_s = timed_pass()
    tracer = tracing.Tracer()
    origin = time.perf_counter()
    with tracer.installed():
        traced_s = timed_pass(tracer)
        tracing.run_probe(tracer, workdir)
    table = tracing.SpanTable(tracer)
    metrics = tracing.layer_metrics(table, import_ms)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    spans_path = workdir.parent / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path, origin)
    extra = {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "missing_targets": tracer.missing,
        "raised_per_layer": tracing.raised_counts(table),
        "calls_in_run_scene": tracing.call_counts(table),
    }
    return metrics, extra, environment(args, 1, inputs)


def report(args, metrics, extra, env_record, ledger, results):
    print("# environment " + json.dumps(env_record, sort_keys=True))
    unscaled = extra.get("unscaled", {})
    for name, (value, unit) in metrics.items():
        raw = f"   unscaled {unscaled[name]:.6g}" if name in unscaled else ""
        print(f"{name:<46}{value:>16.6g} {unit}{raw}")
    if "tail" in extra:
        kind = "CLI process" if args.workload == "cli-cold" else "run_scene + report_to_json"
        factor = extra["speed_factor"]
        print(f"# op_s is the time of one {kind}; op_s.tail is "
              f"p{extra['tail']['percentile']:.1f} of {extra['tail']['samples']} operations")
        print(f"# times are at reference speed: speed factor median {factor['median']:.4f}, "
              f"range {factor['min']:.4f} to {factor['max']:.4f}")
    else:
        counts = extra["calls_in_run_scene"]
        for label, row in counts.items():
            calls = row["calls"].get("hypersurface.Immersion.component_jets", 0)
            print(f"# {label}: {calls} component_jets calls in run_scene over "
                  f"{row['points']} points ({calls / max(row['points'], 1):.1f} per point)")
        print(f"# {extra['spans']} spans written to {extra['spans_file']}; "
              f"raised per layer {extra['raised_per_layer']}")
        if extra["missing_targets"]:
            print(f"# not found, so not traced: {extra['missing_targets']}")
    ratio = ledger.failed / ledger.attempted
    print(f"{'failed_ratio':<46}{ratio:>16.6g} ratio ({ledger.failed} of {ledger.attempted})")
    for failure in ledger.failures[:20]:
        print(f"# wrong: {failure['operation']}: {'; '.join(failure['problems'])}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    doc = {
        "environment": env_record,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ratio": ratio,
        "failures": ledger.failures,
        **extra,
    }
    (results / f"{tag}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": doc["metrics"],
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "warpgeo" / "__init__.py").is_file():
        print(f"error: warpgeo sources not found under {ROOT / 'src'}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so that the calibration
    # kernel runs on the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import warpgeo.cli  # noqa: F401  loads every warpgeo module before tracing

    env = measure.subprocess_env(ROOT)
    results = measure.results_dir(ROOT)
    workdir = results / f"work-{args.workload}"
    workdir.mkdir(exist_ok=True)
    ledger = measure.Ledger()
    run = traced if args.trace else untraced
    metrics, extra, env_record = run(args, env, ledger, workdir)
    report(args, metrics, extra, env_record, ledger, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
