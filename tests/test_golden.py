"""The canonical reports of the benchmark scenes and of one rotational CLI
call, pinned bit for bit.

``tests/golden/`` holds each distinct scene of the benchmark workloads
(``<name>.scene.json``: the five fixed scenes of scene-mix, its bumped
horosphere for seeds 1 to 10 and the two dense-grid scenes) next to its
report without ``timing_seconds`` (``<name>.report.json``); the exit
code, stdout and report of ``warpgeo rotational`` (``rotational-n2.json``)
with its mesh (``rotational-n2.obj``); and the platform they were
recorded on (``platform.json``).  numpy picks its SIMD loops by CPU, and
they may round differently, so on another platform only the outcomes
(statuses, verdicts, classifications and the exit code) are compared.

A change that moves a value re-records the goldens and lists the moves
in CHANGES.md::

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from warpgeo import cli
from warpgeo.scene import report_to_json, run_scene, validate_scene

GOLDEN = Path(__file__).parent / "golden"
SCENES = sorted(path.name[: -len(".scene.json")] for path in GOLDEN.glob("*.scene.json"))
ROTATIONAL = "rotational-n2"
ROTATIONAL_ARGV = ["rotational", "--theta", "0.5", "--samples", "9", "--n", "2"]


def fingerprint():
    """numpy's version, the machine, the C library and the SIMD targets numpy dispatches to."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "simd": [name for name in umath.__cpu_baseline__ + umath.__cpu_dispatch__
                 if features.get(name)],
    }


def scene_output(name):
    """{file name: text} of a scene: its report without timing."""
    data = json.loads((GOLDEN / f"{name}.scene.json").read_text())
    report, _ = run_scene(validate_scene(data))
    report.pop("timing_seconds")
    return {f"{name}.report.json": report_to_json(report)}


def rotational_output():
    """{file name: text} of the rotational CLI call: its outcome and its mesh."""
    with tempfile.TemporaryDirectory() as tmp:
        mesh, report = Path(tmp, "n2.obj"), Path(tmp, "n2.json")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(ROTATIONAL_ARGV + ["--mesh", str(mesh), "--report", str(report)])
        doc = json.loads(report.read_text())
        doc.pop("timing_seconds")
        outcome = {
            "exit_code": code,
            "stdout": stdout.getvalue().replace(tmp, "<dir>"),
            "stderr": stderr.getvalue().replace(tmp, "<dir>"),
            "report": doc,
        }
        return {f"{ROTATIONAL}.json": json.dumps(outcome, indent=2) + "\n",
                f"{ROTATIONAL}.obj": mesh.read_text()}


def output(case):
    return rotational_output() if case == ROTATIONAL else scene_output(case)


def outcome(file_name, text):
    """What must agree on every platform: statuses, verdicts, classifications,
    the exit code and the mesh's shape."""
    if file_name.endswith(".obj"):
        return [line for line in text.splitlines() if not line.startswith("v ")]
    doc = json.loads(text)
    if file_name.startswith(ROTATIONAL):
        result = doc["report"]["result"]
        return doc["exit_code"], result["classified"], result["soliton"]["verdict"]
    soliton = doc["soliton"] or {}
    return ([(check["name"], check["status"]) for check in doc["checks"]],
            soliton.get("verdict"), soliton.get("classification"))


def moves(golden, got, path=""):
    """(path, golden value, new value) of every leaf that differs."""
    if isinstance(golden, dict) and isinstance(got, dict) and golden.keys() == got.keys():
        for key in golden:
            yield from moves(golden[key], got[key], f"{path}.{key}")
    elif isinstance(golden, list) and isinstance(got, list) and len(golden) == len(got):
        for i, (a, b) in enumerate(zip(golden, got)):
            yield from moves(a, b, f"{path}[{i}]")
    elif json.dumps(golden) != json.dumps(got):
        yield path, golden, got


def describe(file_name, golden, got):
    """Each moved value with its relative change, then the moved worst points."""
    if file_name.endswith(".obj"):
        pairs = [(f"line {i + 1}", a, b) for i, (a, b) in
                 enumerate(zip(golden.splitlines(), got.splitlines())) if a != b]
    else:
        pairs = list(moves(json.loads(golden), json.loads(got)))
    lines = []
    for path, a, b in pairs:
        scale = max(abs(a), abs(b)) if all(isinstance(x, float) for x in (a, b)) else 0.0
        change = f" (relative change {abs(b - a) / scale:.2e})" if scale else ""
        lines.append(f"  {file_name}{path}: {a!r} -> {b!r}{change}")
    worst = sorted({path.split(".point")[0] for path, _, _ in pairs if ".worst.point" in path})
    lines += [f"  worst point moved: {file_name}{path}" for path in worst]
    return "\n".join(lines) or f"  {file_name}: texts differ"


@pytest.mark.parametrize("case", SCENES + [ROTATIONAL])
def test_reports_equal_their_goldens(case):
    recorded = json.loads((GOLDEN / "platform.json").read_text())
    bitwise = recorded == fingerprint()
    for file_name, text in output(case).items():
        golden = (GOLDEN / file_name).read_text()
        if bitwise:
            assert text == golden, f"moved from tests/golden:\n{describe(file_name, golden, text)}"
        else:
            assert outcome(file_name, text) == outcome(file_name, golden), file_name


def test_the_goldens_cover_every_benchmark_scene():
    assert len(SCENES) == 17
    for name in SCENES:
        assert (GOLDEN / f"{name}.report.json").exists()


def record():
    """Re-record every golden output and the platform, printing what moved."""
    for case in SCENES + [ROTATIONAL]:
        for file_name, text in output(case).items():
            path = GOLDEN / file_name
            if path.exists() and path.read_text() != text:
                print(describe(file_name, path.read_text(), text))
            path.write_text(text)
    (GOLDEN / "platform.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")


if __name__ == "__main__":
    record()
