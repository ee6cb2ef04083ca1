"""The JSON report of ``analyze`` and ``rotational``: one envelope and one encoding.
It loads neither numpy nor the engine, so ``warpgeo rotational`` need not load ``scene``."""

from __future__ import annotations

import json
import time

from . import __version__

SCHEMA_VERSION = 1
MESH_WARNING = (
    "mesh coordinates are ambient-chart coordinates, not an isometric "
    "embedding; do not read distances from the render"
)


def document(fields, warnings, started):
    """The report of ``fields``, timed from ``perf_counter`` reading ``started``."""
    return {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **fields,
            "warnings": warnings, "timing_seconds": time.perf_counter() - started}


def report_to_json(report):
    return json.dumps(report, indent=2) + "\n"


def write_report(path, report):
    with open(path, "w") as handle:
        handle.write(report_to_json(report))
