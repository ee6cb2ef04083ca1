"""Operations of the workloads, their correctness ledger, the speed
scale of the machine, and statistics.

Scene operations call the program through module attributes at call
time, so the wrappers that ``tracing.py`` installs see them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from expected import canonical, cli_problems, scene_problems

CLI_TIMEOUT_S = 150
# Calibration-kernel seconds that define the reference machine speed.
REFERENCE_KERNEL_S = 0.002
_KERNEL_MATRIX = np.arange(3600.0).reshape(60, 60) / 3600.0 + 60.0 * np.eye(60)
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import warpgeo.cli; "
    "print(repr(time.perf_counter() - t))"
)


class Ledger:
    """Counts operations and the wrong ones, and pins first outputs.

    The first output of each input is the reference its repeats must
    reproduce exactly.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._reference = {}

    def record(self, key, problems, output=None):
        self.attempted += 1
        if output is not None and self._reference.setdefault(key, output) != output:
            problems = problems + [f"{key}: output differs from its first run"]
        if problems:
            self.failures.append({"operation": key, "problems": problems})

    @property
    def failed(self):
        return len(self.failures)


def scene_op(name, data, ledger, scale=None):
    """validate_scene, run_scene, report_to_json on a fresh copy of ``data``.

    Returns the sample dict, or None when the operation raised.  The
    operation's time is that of run_scene and report_to_json.
    """
    import warpgeo.scene as scene_mod

    scale = scale or _Unscaled()
    data = copy.deepcopy(data)
    try:
        scene = scene_mod.validate_scene(data)
        token = scale.start()
        report, _ = scene_mod.run_scene(scene)
        run_s, _ = scale.stop(token)
        text = scene_mod.report_to_json(report)
        op_s, window = scale.stop(token)
    except Exception as exc:  # an operation that raises counts as wrong
        ledger.record(name, [f"{name}: raised {type(exc).__name__}: {exc}"])
        return None
    ledger.record(name, scene_problems(name, json.loads(text)), canonical(text))
    return {
        "name": name,
        "run_s": run_s,
        "op_s": op_s,
        "window": window,
        "points": len(scene.grid),
    }


class _Unscaled:
    """The SpeedScale interface with a plain clock."""

    def start(self):
        return time.perf_counter()

    def stop(self, token):
        end = time.perf_counter()
        return end - token, (token, end)


def subprocess_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_subprocess(argv, env):
    """One ``python -m warpgeo.cli`` process: (exit code, stdout, stderr)."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "warpgeo.cli", *argv],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {CLI_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


def cli_inprocess(argv, env=None):
    """``warpgeo.cli.main(argv)`` in this process, output captured."""
    import warpgeo.cli as cli_mod

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_mod.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
        except Exception:  # what the interpreter does with an uncaught error
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def cli_op(command, ledger, runner, env, scale=None):
    """Run one CLI call, check its exit code and outputs; returns samples."""
    scale = scale or _Unscaled()
    name = command["name"]
    for path in command["outputs"].values():
        path.unlink(missing_ok=True)
    token = scale.start()
    code, stdout, stderr = runner(command["argv"], env)
    wall, window = scale.stop(token)
    files = {k: p.read_text() for k, p in command["outputs"].items() if p.exists()}
    try:
        problems = cli_problems(name, code, stdout, stderr, files, command.get("samples"))
    except (KeyError, ValueError) as exc:  # a missing or malformed output file
        problems = [f"{name}: output unreadable ({type(exc).__name__}: {exc})"]
    output = None
    if "report" in files:
        output = canonical(files["report"]) + files.get("mesh", "")
    ledger.record(name, problems, output)
    return {"name": name, "op_s": wall, "window": window, "points": command["points"]}


def calibration_kernel():
    """Seconds taken by a fixed mix of interpreter loop and small LAPACK
    solves, the kind of work warpgeo spends its time on (about 1 ms)."""
    rhs = _KERNEL_MATRIX[:, 0].copy()
    t0 = time.perf_counter()
    total = 0.0
    for i in range(16_000):
        total += i * 0.5
    for _ in range(16):
        np.linalg.solve(_KERNEL_MATRIX, rhs)
    return time.perf_counter() - t0


class SpeedScale:
    """Scales operation times to the reference machine speed.

    A shared machine changes speed by tens of percent over seconds to
    minutes, for every process alike, so raw times of the same work
    spread far more between runs than any bound could allow.  The
    calibration kernel is sampled at each operation's start and stop
    and, from a SIGALRM timer, every ``TICK_S`` while this process runs,
    on the one CPU the run and its children are pinned to.  An
    operation's factor is REFERENCE_KERNEL_S over the mean kernel time
    of the samples within ``WINDOW_S`` of it.  ``now()`` is a clock that
    stops while the kernel runs, so operations are timed without it.
    """

    TICK_S = 0.2
    WINDOW_S = 0.5

    def __enter__(self):
        self._paused = 0.0
        self._samples = []  # (perf_counter at the sample, kernel seconds)
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)

    def _sample(self, *_signal):
        t0 = time.perf_counter()
        kernel = calibration_kernel()
        t1 = time.perf_counter()
        self._samples.append((0.5 * (t0 + t1), kernel))
        self._paused += t1 - t0

    def now(self):
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def idle(self):
        """No samples while a child process has the pinned CPU: they
        would compete with it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def start(self):
        self._sample()
        return time.perf_counter(), self.now()

    def stop(self, token):
        """(seconds since ``start`` without the kernel, window) of an
        operation; the window goes to ``factor`` once the run is over."""
        end, now = time.perf_counter(), self.now()
        self._sample()
        return now - token[1], (token[0], end)

    def factor(self, window):
        lo, hi = window[0] - self.WINDOW_S, window[1] + self.WINDOW_S
        kernels = [k for t, k in self._samples if lo <= t <= hi]
        return REFERENCE_KERNEL_S / statistics.fmean(kernels)


def import_seconds(env):
    """Seconds of ``import warpgeo.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def import_profile_ms(env, repeats, modules):
    """Median cumulative ``-X importtime`` milliseconds per module.

    A module the import no longer loads reads 0.
    """
    per_module = {m: [] for m in modules}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import warpgeo.cli"],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
        for module in modules:
            per_module[module].append(seen.get(module, 0.0))
    return {m: statistics.median(v) for m, v in per_module.items()}


def tail(values):
    """(value, percentile, count): the highest percentile that has at
    least ten samples beyond it, or the maximum when that percentile
    would not lie above the median (fewer than 21 samples)."""
    ordered = sorted(values)
    count = len(ordered)
    rank = count - 10 if count > 20 else count
    return ordered[rank - 1], 100.0 * rank / count, count


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def rounds_for(seconds, round_s, smoke):
    """Rounds of a run; two at least, so every input is run twice."""
    return 2 if smoke else max(2, math.ceil(seconds / round_s))


def results_dir(root):
    path = Path(root) / "bench" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path
