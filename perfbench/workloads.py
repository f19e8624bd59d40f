"""The benchmark's workloads: inputs from a seed, one timed operation each,
and the correctness checks on its outputs.

Every workload drives hemoflow through its public API only. ``--seed``
picks one of eight input cases (``seed % 8``); each case has a reference
recorded at the commit that defined the benchmark, so every run is
checked against a reference. A case whose reference is missing is
refused (:class:`MissingReference`), never passed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

# Functions are called through their modules, never through names bound
# here, so the tracer's patched bindings see every call.
from hemoflow import cli, flowfields, mesh, mri, rheology, windkessel
from hemoflow.phantoms import inlet_waveform
from tracing import LAYERS

REFERENCES = Path(__file__).resolve().parent / "references"

# Noise seeds of the eight input cases; CASE_SEEDS[i] % 8 == i, so a seed
# in this table selects itself. 1234 is the config default; 4321 is held
# out for confirming a claimed gain on a seed not used while writing it.
CASE_SEEDS = (1232, 4321, 1234, 1235, 1236, 1237, 1238, 1239)
assert all(seed % len(CASE_SEEDS) == i for i, seed in enumerate(CASE_SEEDS))

STATS_REL_TOL = 1e-3      # stats.csv means; a 1e-6 k-space change moves <5e-4
EXACT_REL_TOL = 1e-9      # outputs that do not depend on the MR chain
GRID_REL_TOL = 1e-6       # synthesized k-space, L2 relative per encode
SKETCH_ROWS = 32
SKETCH_SEED = 20240214


class MissingReference(Exception):
    """The selected input case has no recorded reference."""


def case_of(seed: int) -> int:
    return seed % len(CASE_SEEDS)


def pulsatile_field(cfg, pipe, pl):
    """The run's flow field: power-law profile times the 8-phase waveform."""
    steady = flowfields.poiseuille_power_law(pipe, pl, cfg.pressure_drop)
    peak = np.linalg.norm(steady.values[0], axis=1).max()
    shape = inlet_waveform()
    times = np.arange(cfg.phases) / cfg.phases * cfg.period
    wave = flowfields.FlowWaveform(
        times=times, period=cfg.period,
        values=peak * shape.value_at(times / cfg.period * shape.period))
    return flowfields.pulsatile_scale(steady, wave)


# =========================================================================
# Output checks
# =========================================================================

def _read_reference(path: Path) -> str:
    if not path.is_file():
        raise MissingReference(f"no recorded reference {path.name} in "
                               f"{path.parent}")
    return path.read_text()


def _numbers_close(got, want, tol) -> bool:
    return abs(got - want) <= tol * abs(want)


def compare_stats(text: str, ref_text: str) -> list[str]:
    """Same rows and counts as the reference; means within 1e-3 relative."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ref = list(csv.DictReader(io.StringIO(ref_text)))
    if len(rows) != len(ref):
        return [f"stats.csv has {len(rows)} rows, reference {len(ref)}"]
    errors = []
    for row, want in zip(rows, ref):
        key = (want["segment"], want["frame"], want["param"])
        if (row["segment"], row["frame"], row["param"], row["count"]) \
                != key + (want["count"],):
            errors.append(f"stats row {key} differs in key or count")
        elif (row["mean"] == "") != (want["mean"] == ""):
            errors.append(f"stats row {key} mean presence differs")
        elif want["mean"] and not _numbers_close(
                float(row["mean"]), float(want["mean"]), STATS_REL_TOL):
            errors.append(f"stats mean {key}: {row['mean']} vs "
                          f"{want['mean']}")
    return errors[:5]


def compare_numeric_csv(text: str, ref_text: str, name: str) -> list[str]:
    """Every cell within 1e-9 of the reference, relative to its column."""
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if not rows or rows[0] != ref[0] or len(rows) != len(ref):
        return [f"{name}: header or row count differs from the reference"]
    got = np.array(rows[1:], dtype=float)
    want = np.array(ref[1:], dtype=float)
    scale = np.abs(want).max(axis=0)
    bad = np.abs(got - want) > EXACT_REL_TOL * scale
    if bad.any():
        row, col = np.argwhere(bad)[0]
        return [f"{name}: row {row + 1} column {rows[0][col]} is "
                f"{float(got[row, col])!r}, reference "
                f"{float(want[row, col])!r}"]
    return []


def compare_json_numbers(got, want, name: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{name}: keys differ"]
        return [e for k in want
                for e in compare_json_numbers(got[k], want[k], f"{name}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{name}: length differs"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in compare_json_numbers(g, w, f"{name}[{i}]")]
    if isinstance(want, float):
        return [] if _numbers_close(got, want, EXACT_REL_TOL) \
            else [f"{name}: {got!r} vs {want!r}"]
    return [] if got == want else [f"{name}: {got!r} vs {want!r}"]


def _sketch_matrix(n: int) -> np.ndarray:
    rng = np.random.default_rng(SKETCH_SEED)
    return (rng.standard_normal((SKETCH_ROWS, n))
            + 1j * rng.standard_normal((SKETCH_ROWS, n))) / math.sqrt(2.0)


def grid_fingerprint(grids: dict) -> dict:
    """Norm and Gaussian sketch of each encode grid.

    With unit-variance complex Gaussian rows S, ||S e|| / sqrt(rows)
    estimates ||e|| for any e (Johnson-Lindenstrauss; about 9% spread at
    32 rows), so the L2 distance to a reference grid can be checked
    without storing the grid.
    """
    some = next(iter(grids.values()))
    S = _sketch_matrix(some.size)
    out = {}
    for name, grid in grids.items():
        s = S @ grid.ravel()
        out[name] = {"norm": float(np.linalg.norm(grid)),
                     "sketch": [[float(z.real), float(z.imag)] for z in s]}
    return out


def compare_grids(grids: dict, ref: dict) -> list[str]:
    """Each encode within 1e-6 relative (L2) of the reference grid."""
    if sorted(grids) != sorted(ref):
        return [f"encodes {sorted(grids)} differ from {sorted(ref)}"]
    some = next(iter(grids.values()))
    S = _sketch_matrix(some.size)
    errors = []
    for name, grid in grids.items():
        norm = ref[name]["norm"]
        sketch = np.array([complex(re, im) for re, im in ref[name]["sketch"]])
        distance = max(abs(np.linalg.norm(grid) - norm),
                       np.linalg.norm(S @ grid.ravel() - sketch)
                       / math.sqrt(SKETCH_ROWS))
        if not distance <= GRID_REL_TOL * norm:
            errors.append(f"encode {name}: relative L2 distance "
                          f"{distance / norm:.3g} > {GRID_REL_TOL:g}")
    return errors


# =========================================================================
# Workloads
# =========================================================================

class Workload:
    """One set of inputs and the operation timed on them.

    ``setup`` builds the inputs in ``work`` and returns them; ``run``
    performs one operation into ``out`` and returns its result;
    ``check`` returns failure messages for that result, using ``seen``
    (shared by the operations of one run) to require identical outputs;
    ``record`` writes the references. A traced operation fails if a
    layer of ``expected_layers`` has no calls or one of ``idle_layers``
    has any.
    """

    name = ""
    why = ""
    unit_of_work = ""
    expected_layers: tuple[str, ...] = ()
    idle_layers: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.case = case_of(seed)
        self.refs = REFERENCES / self.name

    def inputs(self) -> dict:
        return {"case": self.case, "noise_seed": CASE_SEEDS[self.case]}

    @staticmethod
    def artifact_bytes(out: Path) -> dict:
        """Bytes the operation wrote, per file suffix."""
        kinds: dict[str, int] = {}
        for path in out.iterdir():
            kind = path.suffix.lstrip(".")
            kinds[kind] = kinds.get(kind, 0) + path.stat().st_size
        return dict(sorted(kinds.items()))


class RunDefault(Workload):
    name = "run_default"
    why = ("hemoflow run on the default config: the command users run; "
           "synthesis dominates and every other layer runs once")
    unit_of_work = "cardiac phases"
    expected_layers = tuple(LAYERS)

    def setup(self, work: Path):
        ini = work / "default.ini"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["init-demo", "--out", str(ini), "--force"])
        cfg = cli.load_config(ini, {("noise", "seed"): CASE_SEEDS[self.case]})
        # One untimed run pays what a fresh process pays once. Loading the
        # config alone takes about 3 ms, too little to compare set-up time
        # across runs on a shared host.
        self.run(cfg, work / "warm-up")
        return cfg

    def run(self, cfg, out: Path):
        return cli.run_pipeline(dataclasses.replace(cfg, output_dir=out))

    def work_done(self, cfg) -> float:
        return cfg.phases

    def check(self, cfg, result, out: Path, seen: dict) -> list[str]:
        outputs = {name: (out / name).read_text()
                   for name in ("stats.csv", "comparison.csv", "flow.csv",
                                "windkessel.csv", "rheology.json")}
        errors = [f"{name} differs from the first operation of this run"
                  for name in ("stats.csv", "comparison.csv")
                  if seen.setdefault(name, outputs[name]) != outputs[name]]
        errors += compare_stats(outputs["stats.csv"], _read_reference(
            self.refs / f"stats_case{self.case}.csv"))
        for name in ("flow.csv", "windkessel.csv"):
            errors += compare_numeric_csv(
                outputs[name], _read_reference(self.refs / name), name)
        errors += compare_json_numbers(
            json.loads(outputs["rheology.json"]),
            json.loads(_read_reference(self.refs / "rheology.json")),
            "rheology.json")
        return errors

    def record(self, cfg, result, out: Path) -> None:
        self.refs.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(out / "stats.csv",
                        self.refs / f"stats_case{self.case}.csv")
        for name in ("flow.csv", "windkessel.csv", "rheology.json"):
            shutil.copyfile(out / name, self.refs / name)


# The resolution-2 pipe has 57,600 tets and 230,400 quadrature points.
# Two readout samples of 56 mm keep the paper's 112 mm readout field of
# view, its gradients and its full 30 x 113 phase/partition plane, so the
# work and memory per readout sample equal the paper-scale acquisition.
SLAB_SEQUENCE = mri.SequenceParams(matrix=(2, 30, 113),
                                   voxel=(0.056, 0.002, 0.002), oversampling=1)


class SynthPaperSlab(Workload):
    name = "synth_paper_slab"
    why = ("one phase of paper-scale k-space synthesis (57,600 tets, 30x113 "
           "plane): the large-table regime a NUFFT targets")
    unit_of_work = "k-space samples"
    expected_layers = ("mri.synthesize",)

    def inputs(self) -> dict:
        return {"case": self.case, "cardiac_phase": self.case}

    def setup(self, work: Path):
        cfg = cli.load_config(None, {("pipe", "resolution"): 2})
        pipe = mesh.generate_pipe_mesh(cfg.pipe_radius, cfg.pipe_length,
                                       resolution=cfg.pipe_resolution)
        field = pulsatile_field(cfg, pipe, rheology.fit_for_hct(cfg.hct))
        return {"mesh": pipe, "field": field, "m0": np.ones(pipe.n_vertices),
                "quadrature": cfg.quadrature}

    def run(self, state, out: Path):
        return mri.synthesize_frame(state["mesh"], state["m0"], state["field"],
                                    SLAB_SEQUENCE, frame=self.case,
                                    quadrature=state["quadrature"])

    def work_done(self, state) -> float:
        params = SLAB_SEQUENCE
        return len(mri.ENCODE_AXES) * params.acquired_readout \
            * params.matrix[1] * params.matrix[2]

    def _reference_path(self) -> Path:
        return self.refs / f"phase{self.case}.json"

    def check(self, state, k, out: Path, seen: dict) -> list[str]:
        ref = json.loads(_read_reference(self._reference_path()))
        return compare_grids(k.signals, ref)

    def record(self, state, k, out: Path) -> None:
        self.refs.mkdir(parents=True, exist_ok=True)
        self._reference_path().write_text(
            json.dumps(grid_fingerprint(k.signals)) + "\n")


class EstimateRes2(Workload):
    name = "estimate_res2"
    why = ("the mesh side of a run on the 57,600-tet pipe: flow step, then "
           "hemoflow estimate; synthesis only in set-up, so it bypasses it")
    unit_of_work = "tet-frames"
    idle_layers = ("mri.synthesize", "mri.noise", "mri.reconstruct")
    expected_layers = tuple(sorted(LAYERS.keys() - set(idle_layers)))

    def setup(self, work: Path):
        acquisition = work / "acquisition"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["synth-mri", "--out", str(acquisition),
                               "--seed", str(CASE_SEEDS[self.case])])
        if status != 0:
            raise RuntimeError(f"synth-mri exited with {status}")
        ini = work / "res2.ini"
        ini.write_text("[pipe]\nresolution = 2\n")
        cfg = cli.load_config(ini)
        pipe = mesh.generate_pipe_mesh(cfg.pipe_radius, cfg.pipe_length,
                                       resolution=cfg.pipe_resolution)
        return {"cfg": cfg, "ini": ini, "mesh": pipe,
                "pl": rheology.fit_for_hct(cfg.hct), "images": acquisition,
                "frames": len(list(acquisition.glob("images_*.json")))}

    def run(self, state, out: Path):
        cfg, pipe = state["cfg"], state["mesh"]
        field = pulsatile_field(cfg, pipe, state["pl"])
        mid = mesh.CutPlane(point=(0.0, 0.0, cfg.pipe_length / 2.0),
                            normal=(0.0, 0.0, 1.0))
        flows = flowfields.flow_rate(field, pipe, mid)
        wave = flowfields.FlowWaveform(times=field.times.copy(),
                                       values=flows * 1e6, period=cfg.period)
        windkessel.simulate_windkessel(cfg.windkessel, wave,
                                       n_cycles=cfg.wk_cycles,
                                       steps_per_cycle=cfg.wk_steps)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["estimate", "--images", str(state["images"]),
                               "--config", str(state["ini"]),
                               "--out", str(out)])
        if status != 0:
            raise RuntimeError(f"hemoflow estimate exited with {status}")
        return flows

    def work_done(self, state) -> float:
        return state["mesh"].n_tets * state["frames"]

    def check(self, state, flows, out: Path, seen: dict) -> list[str]:
        stats = (out / "stats.csv").read_text()
        errors = ["stats.csv differs from the first operation of this run"] \
            if seen.setdefault("stats.csv", stats) != stats else []
        errors += compare_stats(stats, _read_reference(
            self.refs / f"stats_case{self.case}.csv"))
        want = json.loads(_read_reference(self.refs / "flows.json"))
        errors += compare_json_numbers([float(q) for q in flows], want,
                                       "flow rates")
        return errors

    def record(self, state, flows, out: Path) -> None:
        self.refs.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(out / "stats.csv",
                        self.refs / f"stats_case{self.case}.csv")
        (self.refs / "flows.json").write_text(
            json.dumps([float(q) for q in flows]) + "\n")


WORKLOADS = {w.name: w for w in (RunDefault, SynthPaperSlab, EstimateRes2)}
