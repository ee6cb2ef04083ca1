"""Spans around the calls into each warpgeo module, and the per-layer
metrics derived from them.

The traced run wraps the public functions and methods listed in
``TARGETS`` from outside the program: a wrapper replaces the function in
every ``warpgeo`` module that holds it, so calls made through
``from .x import f`` names are seen too.  Each call records a span
(name, start, end, parent span, operation id, weight) in flat arrays,
which keeps hundreds of thousands of spans small in memory; they are
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
import time
from array import array

import numpy as np

PARSE = "expr.parse"
EVAL_JET2 = "jets.eval_jet2"
EVAL_VALUE = "jets.eval_value"
CONSTRUCT = "ambient.WarpedProduct.__init__"
METRIC_JETS = "ambient.WarpedProduct.metric_jets"
CHRISTOFFELS = "ambient.WarpedProduct.christoffels"
CURVATURE = "ambient.WarpedProduct.curvature"
CHECK_SPACE_FORM = "ambient.WarpedProduct.check_space_form"
IMMERSION_BUILD = "hypersurface.Immersion.__init__"
COMPONENT_JETS = "hypersurface.Immersion.component_jets"
SHAPE_DATA = "hypersurface.shape_data"
INDUCED_CHRISTOFFELS = "hypersurface.induced_christoffels"
CURVATURE_PACKAGE = "intrinsic.curvature_package"
RUN_SCENE = "scene.run_scene"


def _grid_size(_imm, grid, *_rest, **_kw):
    return len(grid)


def _profile_branch(curve):
    return "quad" if curve.exponential_rate is None else "exp"


# (layer, module, attribute, weight of a call, variant of a call's result)
TARGETS = [
    ("expr", "warpgeo.expr", "parse", None, None),
    ("jets", "warpgeo.jets", "eval_jet2", None, None),
    ("jets", "warpgeo.jets", "eval_value", None, None),
    ("ambient", "warpgeo.ambient", "WarpedProduct.__init__", None, None),
    ("ambient", "warpgeo.ambient", "WarpedProduct.metric", None, None),
    ("ambient", "warpgeo.ambient", "WarpedProduct.metric_jets", None, None),
    ("ambient", "warpgeo.ambient", "WarpedProduct.christoffels", None, None),
    ("ambient", "warpgeo.ambient", "WarpedProduct.curvature", None, None),
    ("ambient", "warpgeo.ambient", "WarpedProduct.warping_jet", None, None),
    ("ambient", "warpgeo.ambient", "WarpedProduct.check_space_form", None, None),
    ("hypersurface", "warpgeo.hypersurface", "Immersion.__init__", None, None),
    ("hypersurface", "warpgeo.hypersurface", "Immersion.component_jets", None, None),
    ("hypersurface", "warpgeo.hypersurface", "shape_data", None, None),
    ("hypersurface", "warpgeo.hypersurface", "induced_christoffels", None, None),
    ("intrinsic", "warpgeo.intrinsic", "curvature_package", None, None),
    ("soliton", "warpgeo.soliton", "soliton_residual", _grid_size, None),
    ("soliton", "warpgeo.soliton", "check_hypotheses", _grid_size, None),
    ("soliton", "warpgeo.soliton", "structural_identity", _grid_size, None),
    ("rotational", "warpgeo.rotational", "solve_profile", None, _profile_branch),
    ("rotational", "warpgeo.rotational", "verify_classification", None, None),
    ("catalogue", "warpgeo.catalogue", "build_preset", None, None),
    ("scene", "warpgeo.scene", "validate_scene", None, None),
    ("scene", "warpgeo.scene", "run_scene", lambda scene: len(scene.grid), None),
    ("scene", "warpgeo.scene", "report_to_json", None, None),
    ("objmesh", "warpgeo.objmesh", "surface_vertices", None, None),
    ("objmesh", "warpgeo.objmesh", "write_obj", None, None),
    ("cli", "warpgeo.cli", "main", None, None),
]
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))
CALL_COUNTED = ("metric", "metric_jets", "christoffels", "curvature", "warping_jet")
IMPORT_MODULES = {
    "warpgeo_cli": "warpgeo.cli",
    "scipy_integrate": "scipy.integrate",
    "scipy_linalg": "scipy.linalg",
    "numpy": "numpy",
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.weight = array("d")
        self.raised = array("b")
        self.ops = []
        self._op = -1
        self._stack = [-1]
        self._restore = []
        self.missing = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def operation(self, label):
        """Spans recorded inside belong to operation ``label``."""
        self.ops.append(label)
        self._op = len(self.ops) - 1
        try:
            yield
        finally:
            self._op = -1

    def wrap(self, name, fn, weight=None, variant=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self._op)
            self.weight.append(weight(*args, **kwargs) if weight else 1.0)
            self.raised.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = time.perf_counter()
                self.start[i] = t0
                self._stack.pop()
            if variant is not None:
                self.name[i] = self._id(f"{name}.{variant(result)}")
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "warpgeo"]
        for layer, module_name, attr, weight, variant in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{layer}.{attr}")
                continue
            wrapper = self.wrap(f"{layer}.{attr}", original, weight, variant)
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))
        try:
            yield self
        finally:
            for holder, key, original in reversed(self._restore):
                setattr(holder, key, original)
            self._restore.clear()

    def columns(self):
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "weight": np.array(self.weight),
            "raised": np.array(self.raised, dtype=bool),
        }

    def write(self, path, origin):
        """Write every span as compressed numpy columns, times in integer
        nanoseconds after ``origin``; ``name`` and ``op`` index ``names``
        and ``ops``, and ``parent`` is a span index or -1."""
        cols = self.columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            ops=np.array(self.ops),
            name=cols["name"],
            parent=cols["parent"],
            op=cols["op"],
            start_ns=((cols["start"] - origin) * 1e9).astype(np.int64),
            end_ns=((cols["end"] - origin) * 1e9).astype(np.int64),
            weight=cols["weight"],
            raised=cols["raised"],
        )


class SpanTable:
    """Column view of a tracer's spans with self times and ancestry."""

    def __init__(self, tracer, probe_prefix="probe:"):
        cols = tracer.columns()
        self.names = tracer.names
        self.ops = tracer.ops
        self.op = cols["op"]
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.weight = cols["weight"]
        self.raised = cols["raised"]
        self.dur = cols["end"] - cols["start"]
        count = len(self.dur)
        has_parent = self.parent >= 0
        self.child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=count)
        self.children = np.bincount(self.parent[has_parent], minlength=count)
        self.self_time = self.dur - self.child_time
        probe_ops = np.array([label.startswith(probe_prefix) for label in tracer.ops] + [False])
        self.in_probe = probe_ops[cols["op"]]  # op -1 (outside operations) maps to False
        self.parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)
        # The run_scene span each span descends from, or -1.
        run_id = self.ids(RUN_SCENE)[0] if RUN_SCENE in self.names else -2
        roots = []
        for i, (nid, parent) in enumerate(zip(self.name.tolist(), self.parent.tolist())):
            # parents precede children
            roots.append(i if nid == run_id else roots[parent] if parent >= 0 else -1)
        self.run_root = np.array(roots, dtype=np.int64)

    def ids(self, *names):
        return [self.names.index(n) for n in names if n in self.names]

    def select(self, name, extra=None, probe_only=False):
        """Spans named ``name`` from the workload's operations, or from
        the probe when the operations made none (or ``probe_only``)."""
        mask = np.isin(self.name, self.ids(name))
        if extra is not None:
            mask &= extra
        ops = mask & ~self.in_probe
        if ops.any() and not probe_only:
            return ops
        return mask & self.in_probe

    def mean(self, name, scale, extra=None, probe_only=False, value=None):
        mask = self.select(name, extra, probe_only)
        values = (self.dur if value is None else value)[mask]
        return float(values.mean()) * scale if len(values) else 0.0

    def per_weight(self, name, scale):
        mask = self.select(name)
        total = self.weight[mask].sum()
        return float(self.dur[mask].sum() / total) * scale if total else 0.0

    def parent_in(self, *names):
        return np.isin(self.parent_name, self.ids(*names))


def layer_metrics(t, import_ms):
    """Every per-layer metric of a SpanTable as {name: (value, unit)}."""
    shape_child = np.isin(t.name, t.ids(SHAPE_DATA)) & (t.parent >= 0)
    shape_child_time = np.bincount(
        t.parent[shape_child], weights=t.dur[shape_child], minlength=len(t.dur))
    metrics = {
        "expr.parse_us": (t.mean(PARSE, 1e6), "us"),
        "jets.eval_jet2_us": (t.mean(
            EVAL_JET2, 1e6, extra=t.parent_in(COMPONENT_JETS, METRIC_JETS)), "us"),
        "jets.eval_value_us": (t.mean(EVAL_VALUE, 1e6, extra=t.parent_in(CONSTRUCT)), "us"),
        "ambient.construct_ms": (t.mean(CONSTRUCT, 1e3), "ms"),
        "ambient.metric_jets_us": (t.mean(METRIC_JETS, 1e6), "us"),
        "ambient.christoffels_us": (t.mean(CHRISTOFFELS, 1e6), "us"),
        "ambient.curvature_us": (t.mean(CURVATURE, 1e6), "us"),
        "ambient.check_space_form_ms": (t.mean(CHECK_SPACE_FORM, 1e3), "ms"),
        "hypersurface.immersion_build_ms": (t.mean(IMMERSION_BUILD, 1e3), "ms"),
        "hypersurface.shape_data_us": (t.mean(SHAPE_DATA, 1e6, extra=t.children > 0), "us"),
        "hypersurface.induced_christoffels_us": (t.mean(INDUCED_CHRISTOFFELS, 1e6), "us"),
        "intrinsic.curvature_package_us": (t.mean(
            CURVATURE_PACKAGE, 1e6, value=t.dur - shape_child_time), "us"),
        "soliton.soliton_residual_us_per_point": (
            t.per_weight("soliton.soliton_residual", 1e6), "us"),
        "soliton.check_hypotheses_us_per_point": (
            t.per_weight("soliton.check_hypotheses", 1e6), "us"),
        "soliton.structural_identity_us_per_point": (
            t.per_weight("soliton.structural_identity", 1e6), "us"),
        "rotational.solve_profile_ms.exp": (t.mean("rotational.solve_profile.exp", 1e3), "ms"),
        "rotational.solve_profile_ms.quad": (t.mean("rotational.solve_profile.quad", 1e3), "ms"),
        "rotational.verify_classification_s": (
            t.mean("rotational.verify_classification", 1.0), "s"),
        "catalogue.build_preset_ms": (t.mean("catalogue.build_preset", 1e3), "ms"),
        "scene.validate_scene_ms": (t.mean("scene.validate_scene", 1e3), "ms"),
        "scene.run_scene_s": (t.mean(RUN_SCENE, 1.0), "s"),
        "scene.report_to_json_ms": (t.mean("scene.report_to_json", 1e3), "ms"),
        # Fixed 33 x 33 input of the probe, whatever the workload meshes.
        "objmesh.surface_vertices_ms": (
            t.mean("objmesh.surface_vertices", 1e3, probe_only=True), "ms"),
        "objmesh.write_obj_ms": (t.mean("objmesh.write_obj", 1e3, probe_only=True), "ms"),
    }
    points = float(t.weight[np.isin(t.name, t.ids(RUN_SCENE)) & ~t.in_probe].sum())
    in_runs = (t.run_root >= 0) & ~t.in_probe
    for method in CALL_COUNTED:
        calls = np.count_nonzero(in_runs & np.isin(t.name, t.ids(f"ambient.WarpedProduct.{method}")))
        metrics[f"ambient.{method}.calls_per_point"] = (calls / points if points else 0.0, "count")
    calls = np.count_nonzero(in_runs & np.isin(t.name, t.ids(COMPONENT_JETS)))
    metrics["hypersurface.component_jets.calls_per_point"] = (
        calls / points if points else 0.0, "count")
    layer_of = np.array([n.split(".")[0] for n in t.names] + [""])
    for layer in LAYERS:
        mask = layer_of[t.name] == layer
        ops = mask & ~t.in_probe
        mask = ops if ops.any() else mask & t.in_probe
        metrics[f"{layer}.self_s"] = (float(t.self_time[mask].sum()), "s")
    for key, module in IMPORT_MODULES.items():
        metrics[f"cli.import_ms.{key}"] = (import_ms[module], "ms")
    return metrics


def call_counts(t):
    """Calls per span name inside each run_scene, keyed by operation."""
    out = {}
    for root in np.flatnonzero(np.isin(t.name, t.ids(RUN_SCENE)) & ~t.in_probe):
        inside = t.run_root == root
        names, counts = np.unique(t.name[inside], return_counts=True)
        label = t.ops[t.op[root]]
        out[label] = {
            "points": int(t.weight[root]),
            "calls": {t.names[n]: int(c) for n, c in zip(names, counts)},
        }
    return out


def raised_counts(t):
    """Spans that ended in an exception, per layer."""
    counts = {layer: 0 for layer in LAYERS}
    for nid in t.name[t.raised]:
        counts[t.names[nid].split(".")[0]] += 1
    return counts


def run_probe(tracer, workdir):
    """Fixed small calls into the layers the workload may not reach.

    Timing and self-time metrics fall back to these spans when the
    workload's own operations made none; the objmesh metrics always use
    the probe's 33 x 33 mesh of the example5 surface.
    """
    from warpgeo import ambient, catalogue, cli, objmesh, rotational
    from warpgeo import scene as scene_mod

    with tracer.operation("probe:objmesh"):
        imm = catalogue.rotational_soliton_immersion()
        u = imm.chart.axis_points("u", 33, 0.02)
        v = imm.chart.axis_points("v1", 33, 0.02)
        objmesh.write_obj(str(workdir / "probe.obj"), objmesh.surface_vertices(imm, u, v))
    with tracer.operation("probe:spaceforms"):
        for _name, model, c, window in ambient.space_form_models():
            model.check_space_form(c, np.linspace(window[0], window[1], 200))
    with tracer.operation("probe:rotational"):
        for f in ("exp(t)", "cosh(t)"):
            rotational.solve_profile(rotational.RotationalProfile(theta=0.5, f=f, n=2))
        rotational.verify_classification(
            rotational.RotationalProfile(theta=0.5, f="exp(t)", n=2, u_range=(-1.5, 1.5)),
            u_count=9)
    with tracer.operation("probe:scene"):
        scene = scene_mod.validate_scene({
            "ambient": {"interval": ["-inf", "inf"], "f": "exp(t)", "fiber": "euclidean", "n": 2},
            "immersion": {"preset": "horosphere", "params": {"t0": 0.0}},
            "grid": {"samples": {"u1": 5, "u2": 5}},
            "checks": ["lemma1", "soliton", "structural", "theorem1"],
        })
        scene_mod.report_to_json(scene_mod.run_scene(scene)[0])
    with tracer.operation("probe:cli"), contextlib.redirect_stdout(io.StringIO()):
        cli.main(["presets"])
