"""Expected outcome of every benchmark operation.

Rows were pinned from a run of the seed commit and agree with the
assertions of the test suite and the README (cited per row).  An
operation is wrong when a status, verdict, classification or exit code
differs from its row, when a passing residual is outside its tolerance
tier, or when a repeat of the same input gives a different report
(``timing_seconds`` aside).
"""

from __future__ import annotations

import json

# Tolerance tiers of the README: jet-exact residuals 1e-7, anything with
# finite differences 1e-4, space-form residuals 1e-10.  Inequality
# checks pass with a margin of at least -1e-9.
TIER = {
    "lemma1": 1e-7,
    "soliton": 1e-7,
    "theorem3": 1e-7,
    "structural": 1e-4,
    "rotational-classification": 1e-4,
    "spaceform": 1e-10,
}
MARGIN_SLACK = 1e-9

# Per-check status, soliton verdict and classification; None is "not
# asserted".  Grid size does not change any row, so the smoke sizes
# share them.
SCENES = {
    # tests/test_scene.py::test_rotational_classification_pass (steady,
    # rotational-classification pass); theorem3 needs a minimal immersion.
    "example5": {
        "checks": {
            "lemma1": "pass", "soliton": "pass", "structural": "pass",
            "theorem1": "fail", "theorem3": "not_applicable", "theorem4a": "fail",
            "theorem4b": "fail", "theorem5": "fail",
            "rotational-classification": "pass", "spaceform c=-1.0": "pass",
        },
        "verdict": "soliton", "classification": "steady",
    },
    # test_soliton.py: horosphere trivial, theorem1 fails in both
    # orientations; test_acceptance.py criterion 1: exp(t) is c = -1.
    "horosphere": {
        "checks": {
            "lemma1": "pass", "soliton": "pass", "structural": "pass",
            "theorem1": "fail", "theorem3": "not_applicable", "theorem4a": "fail",
            "spaceform c=-1.0": "pass",
        },
        "verdict": "soliton", "classification": "trivial",
    },
    # test_soliton.py: sphere3 shrinking; test_scene.py: structural passes
    # on the sphere preset.
    "sphere3": {
        "checks": {
            "lemma1": "pass", "soliton": "pass", "structural": "pass",
            "theorem4b": "fail", "theorem5": "pass",
        },
        "verdict": "soliton", "classification": "shrinking",
    },
    # test_soliton.py: theorem1 and theorem5 pass on the spherical slice,
    # classification trivial; sin(t) over a sphere fiber is c = 1.
    "spherical-cap": {
        "checks": {
            "soliton": "pass", "theorem1": "pass", "theorem3": "not_applicable",
            "theorem5": "pass", "spaceform c=1.0": "pass",
        },
        "verdict": "soliton", "classification": "trivial",
    },
    # test_acceptance.py criterion 6: cosh(t) is not classified.
    "rotational-cosh": {
        "checks": {"soliton": "fail", "rotational-classification": "fail"},
        "verdict": "not_soliton", "classification": "sign_changing",
    },
    # Seeded: only seed-independent facts.  lemma1 holds for every
    # immersion (criterion 2); the bumps break the soliton equation.
    "bumped-horosphere": {
        "checks": {"lemma1": "pass", "soliton": "fail"},
        "verdict": "not_soliton", "classification": None,
    },
    "dense-sphere3": {
        "checks": {"soliton": "pass"},
        "verdict": "soliton", "classification": "shrinking",
    },
    "dense-example5": {
        "checks": {"soliton": "pass"},
        "verdict": "soliton", "classification": "steady",
    },
    # The scene of ``warpgeo analyze`` in cli-cold: theorem1 fails, so the
    # exit code is 1 (test_cli.py::test_analyze_check_failure_exit_one).
    "cli-horosphere": {
        "checks": {"lemma1": "pass", "soliton": "pass", "theorem1": "fail"},
        "verdict": "soliton", "classification": "trivial",
    },
}

# Exit codes of the cli-cold calls (README: 0 pass, 1 check failed,
# 2 usage error).  rotational-n3-mesh: tests/test_cli.py::
# test_rotational_mesh_needs_n2.
CLI_EXIT = {
    "presets": 0,
    "spaceforms": 0,
    "analyze": 1,
    "rotational-n2": 0,
    "rotational-n3-mesh": 2,
}
PRESETS = ("example5", "horosphere", "hyperplane", "rotational", "slice", "sphere")


def scene_problems(name, report):
    """Ways a scene report departs from its row of ``SCENES``."""
    row = SCENES[name]
    problems = []
    by_name = {entry["name"]: entry for entry in report["checks"]}
    for check, status in row["checks"].items():
        entry = by_name.get(check)
        if entry is None:
            problems.append(f"{check}: missing from the report")
            continue
        if entry["status"] != status:
            problems.append(f"{check}: status {entry['status']}, expected {status}")
        if entry["status"] == "pass":
            problems.extend(_tier_problems(check, entry))
    block = report.get("soliton") or {}
    for key in ("verdict", "classification"):
        if row[key] is not None and block.get(key) != row[key]:
            problems.append(f"soliton {key} {block.get(key)}, expected {row[key]}")
    return problems


def _tier_problems(check, entry):
    kind = check.split()[0]
    sup = entry.get("sup_error")
    if kind in TIER and (sup is None or not sup < TIER[kind]):
        return [f"{check}: passing residual {sup!r} outside tier {TIER[kind]}"]
    margin = entry.get("extras", {}).get("worst_margin")
    if margin is not None and not margin >= -MARGIN_SLACK:
        return [f"{check}: passing margin {margin!r} below {-MARGIN_SLACK}"]
    return []


def rotational_problems(doc):
    """Ways a ``warpgeo rotational --report`` document is wrong."""
    result = doc["result"]
    problems = []
    if result["classified"] is not True:
        problems.append("rotational: not classified")
    for key, tier in (
        ("balance_residual", TIER["soliton"]),
        ("logf_slope_variation", TIER["soliton"]),
        ("sigma_constancy", TIER["structural"]),
    ):
        if not result[key] < tier:
            problems.append(f"rotational {key} {result[key]!r} outside tier {tier}")
    if not result["soliton"]["residual_sup"] < TIER["soliton"]:
        problems.append("rotational soliton residual outside tier")
    return problems


def mesh_problems(text, samples):
    vertices = sum(1 for line in text.splitlines() if line.startswith("v "))
    faces = sum(1 for line in text.splitlines() if line.startswith("f "))
    if (vertices, faces) != (samples * samples, 2 * (samples - 1) ** 2):
        return [f"mesh has {vertices} vertices and {faces} faces for {samples} samples"]
    return []


def cli_problems(name, code, stdout, stderr, files, samples):
    """Ways one CLI call's exit code and outputs are wrong.

    ``files`` maps the names of the files the call wrote to their text.
    """
    expected = CLI_EXIT[name]
    if code != expected:
        return [f"{name}: exit code {code}, expected {expected}: {stderr.strip()[-200:]}"]
    if name == "presets":
        missing = [p for p in PRESETS if not any(
            line.split()[:1] == [p] for line in stdout.splitlines())]
        return [f"presets: {missing} not listed"] if missing else []
    if name == "spaceforms":
        return [] if "5/5 models passed" in stdout else ["spaceforms: not 5/5 passed"]
    if name == "analyze":
        return scene_problems("cli-horosphere", json.loads(files["report"]))
    if name == "rotational-n2":
        return (rotational_problems(json.loads(files["report"]))
                + mesh_problems(files["mesh"], samples))
    if "mesh export needs n = 2" not in stderr:
        return [f"{name}: stderr does not name the mesh restriction"]
    return []


def canonical(report_text):
    """Report text without ``timing_seconds``, for the determinism check."""
    doc = json.loads(report_text)
    doc.pop("timing_seconds", None)
    return json.dumps(doc, sort_keys=True)
