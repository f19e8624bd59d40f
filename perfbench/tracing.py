"""Span tracing of hemoflow's public functions, grouped into layers.

A :class:`Tracer` replaces every binding of the mapped functions in all
loaded ``hemoflow.*`` modules with a wrapper that records a span (name,
layer, start, end, parent, operation id). Binding-level patching means a
stage that moves to another module stays traced as long as it still calls
the public function. Spans stay in memory until :meth:`Tracer.dump`.

Work counts are computed from the call arguments and results (array
shapes, file sizes), never measured inside the program, and are labelled
as computed in the output.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

# layer -> (home module, public function names)
LAYERS = {
    "rheology.fit": ("rheology", ("fit_for_hct", "fit_power_law",
                                  "interpolate_hct", "newtonian_equivalent")),
    "mesh.generate": ("mesh", ("generate_pipe_mesh", "generate_box_mesh",
                               "load_mesh")),
    "mesh.geometry": ("mesh", ("tet_volumes", "nodal_volumes",
                               "wall_vertices", "wall_normals",
                               "segment_labels")),
    "flowfields.profile": ("flowfields", ("poiseuille_power_law",
                                          "pulsatile_scale")),
    "flowfields.flow_rate": ("flowfields", ("flow_rate",)),
    "windkessel.simulate": ("windkessel", ("simulate_windkessel",)),
    "mri.synthesize": ("mri", ("synthesize_frame", "synthesize_signal",
                               "sequence_timings")),
    "mri.noise": ("mri", ("add_noise",)),
    "mri.reconstruct": ("mri", ("reconstruct",)),
    "mri.decode": ("mri", ("phase_to_velocity",)),
    "mri.io": ("mri", ("save_kspace", "load_kspace", "save_images",
                       "load_images")),
    "hemodynamics.interpolate": ("hemodynamics", ("interpolate_to_mesh",)),
    "hemodynamics.gradients": ("hemodynamics", ("recover_gradients",)),
    "hemodynamics.biomarkers": ("hemodynamics", ("shear_rate", "viscosity_at",
                                                 "wss", "osi",
                                                 "energy_loss_rate")),
    "hemodynamics.stats": ("hemodynamics", ("segment_stats", "compare_models",
                                            "write_stats_csv",
                                            "write_comparison_csv")),
    "hemodynamics.export": ("hemodynamics", ("export_fields_vtk",)),
    # orchestration plus the CSV, report and manifest writers in cli.py,
    # which are not public: the remainder of these spans
    "cli.self": ("cli", ("main", "run_pipeline")),
}

# layers whose peak traced allocation is recorded (tracemalloc)
ALLOC_LAYERS = ("mri.synthesize", "hemodynamics.gradients")

# computed-count keys turned into rates over the layer's busy time
RATES = {
    "mri.synthesize.qk_pairs_per_s": "mri.synthesize.qk_pairs",
    "hemodynamics.gradients.tet_frames_per_s":
        "hemodynamics.gradients.tet_frames",
    "flowfields.flow_rate.cut_tets_per_s": "flowfields.flow_rate.cut_tets",
    "mesh.generate.tets_per_s": "mesh.generate.tets",
    "windkessel.simulate.steps_per_s": "windkessel.simulate.steps",
}

_ENCODES = 4


def _file_bytes(path) -> int:
    """Size of a JSON sidecar plus its ``.bin`` payload, if present."""
    path = Path(path)
    total = path.stat().st_size if path.exists() else 0
    payload = path.with_suffix(".bin")
    if payload != path and payload.exists():
        total += payload.stat().st_size
    return total


def _synthesis_counts(a, encodes):
    params = a["params"]
    points = a["mesh"].n_tets * a["quadrature"]
    samples = params.acquired_readout * params.matrix[1] * params.matrix[2] \
        * encodes
    return {"mri.synthesize.quadrature_points": points,
            "mri.synthesize.kspace_samples": samples,
            "mri.synthesize.qk_pairs": points * samples}


def _cut_tets(a):
    # same plane nudge as flowfields.flow_rate, so vertices on the plane
    # do not change the count
    mesh, plane = a["mesh"], a["plane"]
    dist = plane.signed_distance(mesh.vertices)
    scale = np.abs(dist).max()
    while np.any(np.abs(dist) < 1e-12 * scale):
        dist = dist - 1e-9 * scale
    signs = dist[mesh.tets]
    cut = np.logical_and(signs.min(axis=1) < 0, signs.max(axis=1) > 0)
    return {"flowfields.flow_rate.cut_tets": int(cut.sum())}


def _io_bytes(direction, kind):
    def count(a, r):
        size = _file_bytes(a["path"])
        return {f"mri.io.bytes_{direction}": size,
                f"mri.io.bytes_{direction}.{kind}": size}
    return count


# function name -> computed work counts from bound arguments and result
COUNTERS = {
    "synthesize_frame": lambda a, r: _synthesis_counts(a, _ENCODES),
    "synthesize_signal": lambda a, r: _synthesis_counts(a, 1),
    "recover_gradients": lambda a, r: {
        "hemodynamics.gradients.tet_frames": a["mesh"].n_tets},
    "flow_rate": lambda a, r: _cut_tets(a),
    "generate_pipe_mesh": lambda a, r: {"mesh.generate.tets": r.n_tets},
    "generate_box_mesh": lambda a, r: {"mesh.generate.tets": r.n_tets},
    "load_mesh": lambda a, r: {"mesh.generate.tets": r.n_tets},
    "simulate_windkessel": lambda a, r: {
        "windkessel.simulate.steps": a["n_cycles"] * a["steps_per_cycle"]},
    "save_kspace": _io_bytes("written", "kspace"),
    "save_images": _io_bytes("written", "images"),
    "load_kspace": _io_bytes("read", "kspace"),
    "load_images": _io_bytes("read", "images"),
    "export_fields_vtk": lambda a, r: {
        "hemodynamics.export.bytes_written": _file_bytes(a["path"])},
}


def _resolve(module_name: str, func_name: str):
    """The hemoflow function named ``func_name``, in its home module first."""
    home = sys.modules.get(f"hemoflow.{module_name}")
    candidates = [home] + [m for n, m in sorted(sys.modules.items())
                           if n.startswith("hemoflow.") and m is not home]
    for module in candidates:
        fn = getattr(module, func_name, None) if module else None
        if inspect.isfunction(fn) and fn.__module__.startswith("hemoflow"):
            return fn
    return None


class Tracer:
    """Records spans around the mapped functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.peaks: dict[int, dict[str, float]] = {}
        self.missing: list[str] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        targets = {}
        for layer, (module_name, names) in LAYERS.items():
            for name in names:
                fn = _resolve(module_name, name)
                if fn is None:
                    self.missing.append(f"{layer}:{name}")
                else:
                    targets[id(fn)] = (layer, fn, self._wrap(layer, fn))
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "hemoflow" and not mod_name.startswith("hemoflow."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, hit[2])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, fn, signature, counter, args, kwargs)
        return traced

    # ------------------------------------------------------------- spans

    def _call(self, layer, fn, signature, counter, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        outermost = not any(self.spans[i]["layer"] == layer
                            for i in self._stack)
        track = outermost and layer in ALLOC_LAYERS
        started = False
        if track:
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
        index = len(self.spans)
        span = {"name": f"{fn.__module__}.{fn.__name__}", "layer": layer,
                "start": time.perf_counter(), "end": None, "parent": parent,
                "op": self.op_id, "outermost": outermost, "error": False}
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span["error"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if track:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                if started:
                    tracemalloc.stop()
                peaks = self.peaks.setdefault(self.op_id, {})
                key = f"{layer}.peak_alloc_mb"
                peaks[key] = max(peaks.get(key, 0.0), peak)
        if counter is not None and outermost:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            op_counts = self.counts.setdefault(self.op_id, {})
            for key, value in counter(bound.arguments, result).items():
                op_counts[key] = op_counts.get(key, 0) + value
        return result

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """The root span of one benchmark operation."""
        self.op_id = op_id
        span = {"name": "operation", "layer": None,
                "start": time.perf_counter(), "end": None, "parent": None,
                "op": op_id, "outermost": True, "error": False}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except Exception:
            span["error"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------- aggregation

    def per_op_layers(self) -> dict[int, dict[str, dict]]:
        """Per operation and layer: calls, self time, busy time, errors."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        ops: dict[int, dict[str, dict]] = {}
        for i, span in enumerate(self.spans):
            layers = ops.setdefault(span["op"], {
                name: {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "errors": 0}
                for name in LAYERS})
            if span["layer"] is None:
                continue
            entry = layers[span["layer"]]
            duration = span["end"] - span["start"]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            entry["errors"] += int(span["error"])
            if span["outermost"]:
                entry["busy_s"] += duration
        return ops

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics as medians over the traced operations."""
        ops = self.per_op_layers()
        ids = sorted(ops)
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            rows = [ops[i][layer] for i in ids]
            metrics[f"{layer}.calls"] = statistics.median(
                r["calls"] for r in rows)
            metrics[f"{layer}.self_s"] = statistics.median(
                r["self_s"] for r in rows)
            metrics[f"{layer}.errors"] = sum(r["errors"] for r in rows)
        count_keys = sorted({k for i in ids for k in self.counts.get(i, {})})
        for key in count_keys:
            metrics[key] = statistics.median(
                self.counts.get(i, {}).get(key, 0) for i in ids)
        for rate, count in RATES.items():
            layer = count.rsplit(".", 1)[0]
            values = [self.counts.get(i, {}).get(count, 0)
                      / ops[i][layer]["busy_s"]
                      for i in ids if ops[i][layer]["busy_s"] > 0]
            metrics[rate] = statistics.median(values) if values else 0.0
        for layer in ALLOC_LAYERS:
            key = f"{layer}.peak_alloc_mb"
            metrics[key] = max((self.peaks.get(i, {}).get(key, 0.0)
                                for i in ids), default=0.0)
        return metrics

    def dump(self, path: Path) -> None:
        """Write every span, relative to the first, as JSON."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = [{"name": s["name"], "layer": s["layer"],
                  "start": s["start"] - origin, "end": s["end"] - origin,
                  "parent": s["parent"], "op": s["op"], "error": s["error"]}
                 for s in self.spans]
        path.write_text(json.dumps({"spans": spans, "computed_counts": {
            str(k): v for k, v in self.counts.items()}}) + "\n")
