"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import expected  # noqa: E402
import measure  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_and_no_failures(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    ratio = next(line for line in lines if line.startswith("failed_ratio"))
    assert float(ratio.split()[1]) == 0.0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    proc = run_bench(tmp_path, "--workload", "scene-mix", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checker_flags_a_wrong_report():
    report = {
        "checks": [
            {"name": "lemma1", "status": "pass", "sup_error": 1e-3},
            {"name": "soliton", "status": "fail", "sup_error": 0.1},
        ],
        "soliton": {"verdict": "soliton", "classification": "trivial"},
    }
    problems = expected.scene_problems("bumped-horosphere", report)
    assert any("outside tier" in p for p in problems)
    assert any("verdict" in p for p in problems)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 43))
    assert measure.tail(values) == (32, 100.0 * 32 / 42, 42)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
