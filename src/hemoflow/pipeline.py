"""The end-to-end pipeline: configuration, stages and the run manifest.

``run_pipeline`` chains the library stages (rheology fit, mesh, flow
synthesis, windkessel, MR signal synthesis and reconstruction, biomarker
estimation, model comparison, reporting) from one INI config file.
Sequence parameters appear in the config in scanner units (mm, ms, kHz,
mT/m) and are converted to SI internally; the slew rate is given in
T/m/s. Every key has a baked-in default, so an empty config performs
the full pipe-phantom demo.

From the MR stage on, each stage reads the artifacts the stage before
it wrote and writes its own, so the subcommands that run the stages one
by one write the same files as a run, byte for byte.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import HemoflowError, ValidationError
from .flowfields import FlowWaveform, flow_rate, poiseuille_power_law, \
    pulsatile_scale
from .hemodynamics import GradientOperator, SegmentStats, check_coverage, \
    compare_models, export_fields_vtk, frame_biomarkers, interpolate_to_mesh, \
    osi, recover_gradients, segment_stats, viscosity_at, \
    write_comparison_csv, write_stats_csv
from .mesh import CutPlane, generate_pipe_mesh, load_mesh, segment_labels, \
    segment_names, wall_normals
from .mri import SequenceParams, add_noise, load_images, load_kspace, \
    phase_to_velocity, reconstruct, save_images, save_kspace, \
    sequence_timings, synthesize_frame
from .phantoms import MMHG, inlet_waveform
from .report import QUANTITIES, write_report
from .rheology import LITERATURE_NEWTONIAN, PowerLawParams, fit_for_hct, \
    newtonian_equivalent
from .windkessel import WindkesselParams, simulate_windkessel

log = logging.getLogger("hemoflow")

# Effective configuration: every key below has a default, so any subset
# may appear in the file. Unknown sections or keys are rejected by name.
DEFAULTS = {
    "paths": {
        "output_dir": "hemoflow_out",
        "mesh": "",
    },
    "pipe": {
        "radius_m": "0.01",
        "length_m": "0.1",
        "resolution": "0",
    },
    "rheology": {
        "hct": "45",
        "fit1_range": "12, 123",
        "fit2_range": "0, 2800",
    },
    "flow": {
        "pressure_drop_pa": "15.8",
        "cardiac_period_s": "0.937",
        "cardiac_phases": "8",
    },
    "sequence": {
        "venc_m_s": "0.8",
        "matrix": "11, 11, 36",
        "voxel_mm": "3, 3, 3",
        "oversampling": "2",
        "t2_star_ms": "254.0",
        "adc_bandwidth_khz": "64.0",
        "slew_rate_t_m_s": "195.0",
        "max_gradient_mt_m": "30.0",
        "fov_center_mm": "0, 0, 50",
        "quadrature": "4",
    },
    "noise": {
        "sigma_fraction": "0.002",
        "seed": "1234",
    },
    "segments": {
        "cuts_m": "0.025, 0.05, 0.075",
    },
    "windkessel": {
        "proximal_resistance_cgs": "274.0",
        "distal_resistance_cgs": "5675.0",
        "compliance_cgs": "5.08e-4",
        "initial_pressure_mmhg": "80.5",
        "cycles": "10",
        "steps_per_cycle": "1000",
    },
    "comparison": {
        "reference": "power_law",
        "models": "newtonian_fit1, literature_3.5e-03",
    },
}


def _floats(text: str, count: int | None = None) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {text!r} as numbers") from exc
    if count is not None and len(values) != count:
        raise ValidationError(f"expected {count} values, got {text!r}")
    return values


@dataclass
class RunConfig:
    """Parsed and validated pipeline configuration."""

    text: str
    output_dir: Path
    mesh_path: Path | None
    pipe_radius: float
    pipe_length: float
    pipe_resolution: int
    hct: float
    fit1_range: tuple[float, float]
    fit2_range: tuple[float, float]
    pressure_drop: float
    period: float
    phases: int
    sequence: SequenceParams
    quadrature: int
    sigma_fraction: float
    seed: int
    cuts: list[float]
    windkessel: WindkesselParams
    wk_cycles: int
    wk_steps: int
    reference_model: str
    alternative_models: list[str]

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def render_config(values: dict, with_output_dir: bool = True) -> str:
    """INI text of a section -> key -> value mapping."""
    # the artifact location is not part of the pipeline's identity, so
    # the hashed effective config can omit it (with_output_dir=False)
    lines = []
    for section, keys in values.items():
        lines.append(f"[{section}]")
        for key in keys:
            if not with_output_dir and (section, key) == ("paths",
                                                          "output_dir"):
                continue
            lines.append(f"{key} = {keys[key]}")
        lines.append("")
    return "\n".join(lines)


def _check_model_name(name: str) -> None:
    if name in ("power_law", "newtonian_fit1", "newtonian_fit2"):
        return
    if name.startswith("literature_"):
        try:
            mu = float(name[len("literature_"):])
        except ValueError:
            pass
        else:
            if np.isfinite(mu) and mu > 0:
                return
            raise ValidationError(
                f"viscosity model {name!r}: the literature viscosity must "
                "be finite and positive")
    raise ValidationError(
        f"unknown viscosity model {name!r}; use power_law, newtonian_fit1, "
        "newtonian_fit2, or literature_<viscosity in Pa s>")


def load_config(path: str | Path | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Merge a config file over the defaults and validate it strictly."""
    merged = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in merged:
                raise ValidationError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in merged[section]:
                    raise ValidationError(
                        f"unknown config key {key!r} in [{section}]")
                merged[section][key] = value.strip()
    for (section, key), value in (overrides or {}).items():
        merged[section][key] = str(value)

    try:
        return _typed_config(merged)
    except ValueError as exc:
        raise ValidationError(f"invalid config value: {exc}") from exc


def _typed_config(merged: dict) -> RunConfig:
    mesh_value = merged["paths"]["mesh"].strip()
    mesh_path = Path(mesh_value) if mesh_value else None
    if mesh_path is not None and not mesh_path.is_file():
        raise ValidationError(f"mesh file {mesh_path} does not exist")

    seq = merged["sequence"]
    sequence = SequenceParams(
        venc=float(seq["venc_m_s"]),
        matrix=tuple(int(v) for v in _floats(seq["matrix"], 3)),
        voxel=tuple(v * 1e-3 for v in _floats(seq["voxel_mm"], 3)),
        oversampling=int(seq["oversampling"]),
        t2_star=float(seq["t2_star_ms"]) * 1e-3,
        adc_bandwidth=float(seq["adc_bandwidth_khz"]) * 1e3,
        slew_rate=float(seq["slew_rate_t_m_s"]),
        max_gradient=float(seq["max_gradient_mt_m"]) * 1e-3,
        fov_center=tuple(v * 1e-3 for v in _floats(seq["fov_center_mm"], 3)),
    )

    wk = merged["windkessel"]
    wk_params = WindkesselParams(
        proximal_resistance=float(wk["proximal_resistance_cgs"]),
        distal_resistance=float(wk["distal_resistance_cgs"]),
        compliance=float(wk["compliance_cgs"]),
        initial_distal_pressure=float(wk["initial_pressure_mmhg"]) * MMHG,
    )

    reference = merged["comparison"]["reference"].strip()
    alternatives = [m.strip() for m in
                    merged["comparison"]["models"].split(",") if m.strip()]
    for name in [reference, *alternatives]:
        _check_model_name(name)

    cuts = _floats(merged["segments"]["cuts_m"])
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValidationError(f"segment cuts_m {cuts} must increase strictly "
                              "along the axis")
    length = float(merged["pipe"]["length_m"])
    if mesh_path is None and not all(0 < z < length for z in cuts):
        raise ValidationError(f"segment cuts_m {cuts} must lie inside the "
                              f"{length:g} m pipe")

    return RunConfig(
        text=render_config(merged, with_output_dir=False),
        output_dir=Path(merged["paths"]["output_dir"]),
        mesh_path=mesh_path,
        pipe_radius=float(merged["pipe"]["radius_m"]),
        pipe_length=length,
        pipe_resolution=int(merged["pipe"]["resolution"]),
        hct=float(merged["rheology"]["hct"]),
        fit1_range=tuple(_floats(merged["rheology"]["fit1_range"], 2)),
        fit2_range=tuple(_floats(merged["rheology"]["fit2_range"], 2)),
        pressure_drop=float(merged["flow"]["pressure_drop_pa"]),
        period=float(merged["flow"]["cardiac_period_s"]),
        phases=int(merged["flow"]["cardiac_phases"]),
        sequence=sequence,
        quadrature=int(seq["quadrature"]),
        sigma_fraction=float(merged["noise"]["sigma_fraction"]),
        seed=int(merged["noise"]["seed"]),
        cuts=cuts,
        windkessel=wk_params,
        wk_cycles=int(wk["cycles"]),
        wk_steps=int(wk["steps_per_cycle"]),
        reference_model=reference,
        alternative_models=alternatives,
    )


# =========================================================================
# Model matrix
# =========================================================================

def fit_models(cfg: RunConfig) -> dict[str, PowerLawParams]:
    """Power-law fit at the configured hematocrit plus Newtonian fits.

    Every model is a power law; a Newtonian viscosity mu is the curve
    with m = mu and n = 1.
    """
    pl = fit_for_hct(cfg.hct)
    return {
        "power_law": pl,
        "newtonian_fit1": PowerLawParams(
            m=newtonian_equivalent(pl, cfg.fit1_range), n=1.0),
        "newtonian_fit2": PowerLawParams(
            m=newtonian_equivalent(pl, cfg.fit2_range), n=1.0),
    }


def resolve_model(name: str, fitted: dict) -> PowerLawParams:
    """Map a model name to its viscosity curve, given ``fit_models``."""
    _check_model_name(name)
    if name in fitted:
        return fitted[name]
    return PowerLawParams(m=float(name[len("literature_"):]), n=1.0)


def write_rheology_json(cfg: RunConfig, fitted: dict, path: Path) -> None:
    pl = fitted["power_law"]
    log.info("rheology: m=%.4e, n=%.4f, fit1=%.4e, fit2=%.4e Pa s",
             pl.m, pl.n, fitted["newtonian_fit1"].m,
             fitted["newtonian_fit2"].m)
    Path(path).write_text(json.dumps({
        "hct": cfg.hct, "m": pl.m, "n": pl.n,
        "newtonian_fit1": fitted["newtonian_fit1"].m,
        "newtonian_fit2": fitted["newtonian_fit2"].m,
        "fit1_range": list(cfg.fit1_range),
        "fit2_range": list(cfg.fit2_range),
        "literature": LITERATURE_NEWTONIAN}, indent=2, sort_keys=True) + "\n")


# =========================================================================
# Pipeline stages
# =========================================================================

def stage_mesh(cfg: RunConfig):
    if cfg.mesh_path is not None:
        log.info("loading mesh %s", cfg.mesh_path)
        return load_mesh(cfg.mesh_path)
    log.info("generating pipe mesh (R=%g m, L=%g m, resolution %d)",
             cfg.pipe_radius, cfg.pipe_length, cfg.pipe_resolution)
    return generate_pipe_mesh(cfg.pipe_radius, cfg.pipe_length,
                              resolution=cfg.pipe_resolution)


def stage_flow(cfg: RunConfig, mesh, pl: PowerLawParams, out: Path):
    """Pulsatile power-law pipe field sampled at the cardiac phases.

    Writes the mid-pipe flow rate per phase to ``flow.csv``.
    """
    steady = poiseuille_power_law(mesh, pl, cfg.pressure_drop)
    peak_speed = np.linalg.norm(steady.values[0], axis=1).max()
    shape = inlet_waveform()
    frame_times = np.arange(cfg.phases) / cfg.phases * cfg.period
    scaled = FlowWaveform(
        times=frame_times,
        values=peak_speed * shape.value_at(frame_times / cfg.period
                                           * shape.period),
        period=cfg.period)
    field = pulsatile_scale(steady, scaled)
    mid = CutPlane(point=(0.0, 0.0, cfg.pipe_length / 2.0),
                   normal=(0.0, 0.0, 1.0))
    flows = flow_rate(field, mesh, mid)
    log.info("flow: peak velocity %.3f m/s, peak flow %.1f ml/s",
             peak_speed, flows.max() * 1e6)
    with open(out / "flow.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "flow_m3_s", "flow_ml_s"])
        for t, q in zip(field.times, flows):
            writer.writerow([f"{t:.10g}", f"{q:.10g}", f"{q * 1e6:.10g}"])
    return field, flows


def write_windkessel_csv(trace, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "flow_ml_s", "pressure_mmhg",
                         "distal_pressure_mmhg"])
        for t, q, p, pd in zip(trace.times, trace.flow, trace.pressure,
                               trace.distal_pressure):
            writer.writerow([f"{t:.10g}", f"{q:.10g}",
                             f"{p / MMHG:.10g}", f"{pd / MMHG:.10g}"])


def stage_windkessel(cfg: RunConfig, field, flows, out: Path):
    wave = FlowWaveform(times=field.times.copy(), values=flows * 1e6,
                        period=cfg.period)
    trace = simulate_windkessel(cfg.windkessel, wave, n_cycles=cfg.wk_cycles,
                                steps_per_cycle=cfg.wk_steps)
    write_windkessel_csv(trace, out / "windkessel.csv")
    log.info("windkessel: pressure %.1f-%.1f mmHg, mean %.1f mmHg",
             trace.pressure.min() / MMHG, trace.pressure.max() / MMHG,
             trace.mean_pressure() / MMHG)
    return trace


def stage_mri(cfg: RunConfig, mesh, field, out: Path) -> list[Path]:
    """Synthesize and perturb every cardiac phase; writes ``kspace_*``.

    Returns the k-space sidecar paths in phase order.
    """
    m0 = np.ones(mesh.n_vertices)
    timings = sequence_timings(cfg.sequence)
    log.info("sequence: TE %.3f ms, readout gradient %.2f mT/m",
             timings.echo_time * 1e3, timings.readout_gradient * 1e3)
    paths = []
    for frame in range(field.n_frames):
        k = synthesize_frame(mesh, m0, field, cfg.sequence, frame=frame,
                             quadrature=cfg.quadrature)
        paths.append(out / f"kspace_phase{frame:03d}.json")
        save_kspace(add_noise(k, cfg.sigma_fraction, seed=cfg.seed + frame),
                    paths[-1])
        log.info("phase %d/%d synthesized", frame + 1, field.n_frames)
    return paths


def stage_reconstruct(kspace: list[Path], out: Path) -> list[Path]:
    """Images of k-space files as stored; writes ``images_*``.

    Each ``kspace_<x>.json`` becomes ``images_<x>.json`` in ``out``;
    returns those paths. Every file is loaded and checked before any
    image is written, so a bad file leaves no partial output; phases are
    then reconstructed one at a time, so memory holds one phase, not all.
    """
    for path in kspace:
        load_kspace(path)
    paths = []
    for path in kspace:
        paths.append(out / path.name.replace("kspace", "images"))
        save_images(reconstruct(load_kspace(path)), paths[-1])
        log.info("reconstructed %s -> %s", path.name, paths[-1].name)
    return paths


def stage_estimate(cfg: RunConfig, fitted: dict, mesh, images: list[Path],
                   out: Path) -> None:
    """Biomarkers of image files for every model in the comparison matrix.

    Writes ``stats.csv``, then ``fields_systole.vtk`` at the systolic
    frame of the statistics as written.
    """
    decoded = sorted((phase_to_velocity(load_images(path)) for path in images),
                     key=lambda d: d.frame_time)
    times = np.array([d.frame_time for d in decoded])
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValidationError("need at least two distinct cardiac phases")

    planes = [CutPlane(point=(0.0, 0.0, z), normal=(0.0, 0.0, 1.0))
              for z in cfg.cuts]
    labels = segment_labels(mesh, planes)
    names = list(segment_names(len(cfg.cuts) + 1))
    wall_idx, wall_norm = wall_normals(mesh)
    wall_labels = labels[wall_idx]
    operator = GradientOperator(mesh)
    volumes = operator.nodal_volumes

    vertex_speeds = interpolate_to_mesh(decoded, mesh).values
    gradients = recover_gradients(mesh, vertex_speeds, operator)

    models = {name: resolve_model(name, fitted)
              for name in dict.fromkeys([cfg.reference_model,
                                         *cfg.alternative_models])}

    # one pass per frame shares the strain terms among the models; the
    # blocks are then written model by model, frame by frame
    per_frame: dict[str, list] = {name: [] for name in models}
    for G in gradients:
        for name, result in frame_biomarkers(G, wall_idx, wall_norm, volumes,
                                             models).items():
            per_frame[name].append(result)

    blocks: list[SegmentStats] = []
    osis: dict[str, np.ndarray] = {}
    for name, results in per_frame.items():
        for frame, (_, mag, el) in enumerate(results):
            blocks.append(segment_stats(mag, wall_labels, names,
                                        parameter=f"wss:{name}", frame=frame))
            blocks.append(segment_stats(el, labels, names,
                                        parameter=f"el_rate:{name}",
                                        frame=frame))
        osis[name] = osi(np.stack([traction for traction, _, _ in results]),
                         times, cfg.period)
        blocks.append(segment_stats(osis[name], wall_labels, names,
                                    parameter=f"osi:{name}", frame=None))
    write_stats_csv(blocks, out / "stats.csv")

    reference = cfg.reference_model
    _, systolic = read_stats(out / "stats.csv", reference)
    log.info("systolic frame %d (t = %.3f s)", systolic, times[systolic])
    full_traction = np.zeros((mesh.n_vertices, 3))
    traction, mag, el = per_frame[reference][systolic]
    full_traction[wall_idx] = traction
    full_mag = np.zeros(mesh.n_vertices)
    full_mag[wall_idx] = mag
    full_osi = np.zeros(mesh.n_vertices)
    full_osi[wall_idx] = osis[reference]
    export_fields_vtk(mesh, {
        "velocity": vertex_speeds[systolic],
        "wss_vector": full_traction,
        "wss_mag": full_mag,
        "osi": full_osi,
        "el_rate": el,
        "mu_apparent": viscosity_at(models[reference], gradients[systolic]),
    }, out / "fields_systole.vtk")


def read_stats(path: str | Path, reference: str,
               frame: int | None = None) -> tuple[dict, int]:
    """A stats CSV as written, keyed by (param, frame), and its systolic
    frame: ``frame`` if given, else the frame with the highest
    cross-segment mean ``wss:<reference>``."""
    blocks: dict[tuple, SegmentStats] = {}
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read stats file {path}: {exc}") from exc
    for row in rows:
        try:
            at = int(row["frame"]) if row["frame"] else None
            block = blocks.setdefault((row["param"], at), SegmentStats(
                parameter=row["param"], segments=[], counts=[], means=[],
                stds=[], frame=at))
            block.segments.append(row["segment"])
            block.counts.append(int(row["count"]))
            block.means.append(float(row["mean"]) if row["mean"] else None)
            block.stds.append(float(row["std"]) if row["std"] else None)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"{path}: malformed stats row {row!r}: {exc}") from exc
    if not blocks:
        raise ValidationError(f"{path}: no statistics rows found")
    if frame is None:
        wss_means = {at: block.cross_mean
                     for (param, at), block in blocks.items()
                     if param == f"wss:{reference}" and at is not None
                     and block.cross_mean is not None}
        if not wss_means:
            raise ValidationError(
                f"stats contain no per-frame wss:{reference} rows")
        frame = max(wss_means, key=wss_means.get)
    return blocks, frame


def stage_compare(stats: str | Path, reference: str, alternatives: list,
                  out: str | Path, frame: int | None = None) -> list[dict]:
    """Model differences of a stats CSV as written; writes ``out``.

    Per-frame quantities are compared at the systolic frame (see
    ``read_stats``), OSI over the cycle. Returns the rows written.
    """
    blocks, systolic = read_stats(stats, reference, frame)
    rows = []
    for quantity in QUANTITIES:
        at = None if quantity == "osi" else systolic
        ref_key = (f"{quantity}:{reference}", at)
        if ref_key not in blocks:
            raise ValidationError(f"stats lack {ref_key[0]} at frame {at}")
        for alt_name in alternatives:
            alt_key = (f"{quantity}:{alt_name}", at)
            if alt_key not in blocks:
                raise ValidationError(f"stats lack {alt_key[0]} at frame {at}")
            for row in compare_models(blocks[ref_key], blocks[alt_key]):
                row["param"] = quantity
                row["reference_model"] = reference
                row["alternative_model"] = alt_name
                rows.append(row)
    write_comparison_csv(rows, out)
    return rows


def stage_report(stats: str | Path, comparison: str | Path | None,
                 reference: str, out: Path, frame: int | None = None) -> None:
    """``report.md`` and ``report.svg`` from a stats CSV and, if given, a
    comparison CSV, both as written."""
    blocks, systolic = read_stats(stats, reference, frame)
    rows = None
    if comparison is not None:
        try:
            with open(comparison, newline="") as fh:
                raw = list(csv.DictReader(fh))
        except OSError as exc:
            raise ValidationError(
                f"cannot read comparison {comparison}: {exc}") from exc
        numbers = ("reference_mean", "alternative_mean",
                   "absolute_difference", "relative_difference_pct")
        try:
            rows = [{**row, **{key: float(row[key]) if row[key] else None
                               for key in numbers}} for row in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"{comparison}: malformed comparison row: {exc}") from exc
    write_report(blocks, rows, systolic, out)


# =========================================================================
# Manifest
# =========================================================================

def _write_manifest(cfg: RunConfig, out: Path) -> None:
    artifacts = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            artifacts[path.relative_to(out).as_posix()] = {
                "sha256": digest, "bytes": path.stat().st_size}
    manifest = {
        "config_sha256": cfg.config_hash,
        "package": {"name": "hemoflow", "version": __version__},
        "dependencies": {"numpy": np.__version__},
        "seed": cfg.seed,
        "artifacts": artifacts,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# =========================================================================
# Orchestration
# =========================================================================

def run_pipeline(cfg: RunConfig) -> Path:
    """Every stage in sequence; returns the artifact directory."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(cfg.text)

    stage = "rheology"
    try:
        fitted = fit_models(cfg)
        write_rheology_json(cfg, fitted, out / "rheology.json")

        stage = "mesh"
        mesh = stage_mesh(cfg)
        # the estimate interpolates the images to the mesh: refuse a mesh
        # the image grid does not cover before any phase is synthesized
        check_coverage(mesh, cfg.sequence)

        stage = "flow"
        field, flows = stage_flow(cfg, mesh, fitted["power_law"], out)

        stage = "windkessel"
        stage_windkessel(cfg, field, flows, out)

        stage = "mri"
        kspace = stage_mri(cfg, mesh, field, out)

        stage = "reconstruct"
        images = stage_reconstruct(kspace, out)

        stage = "estimate"
        stage_estimate(cfg, fitted, mesh, images, out)

        stage = "compare"
        stage_compare(out / "stats.csv", cfg.reference_model,
                      cfg.alternative_models, out / "comparison.csv")

        stage = "report"
        stage_report(out / "stats.csv", out / "comparison.csv",
                     cfg.reference_model, out)
    except HemoflowError as exc:
        raise type(exc)(f"[stage {stage}] {exc}") from exc

    _write_manifest(cfg, out)
    log.info("pipeline complete: %s", out)
    return out
