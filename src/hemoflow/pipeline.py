"""The end-to-end pipeline: configuration, stages and the run manifest.

``run_pipeline`` chains the library stages (rheology fit, mesh, flow
synthesis, windkessel, MR signal synthesis and reconstruction, biomarker
estimation, model comparison, reporting) from one INI config file.
Sequence parameters appear in the config in scanner units (mm, ms, kHz,
mT/m) and are converted to SI internally; the slew rate is given in
T/m/s. Every key has a baked-in default, so an empty config performs
the full pipe-phantom demo. The table ``_KEYS`` is the one place a key
is declared: its default text, the kind and count of its values, their
bound and check; ``DEFAULTS`` and the reader ``_read_key``, which names
``[section] key`` in every error, both come from it.

From the MR stage on, each stage reads the artifacts the stage before
it wrote and writes its own, so the subcommands that run the stages one
by one write the same files as a run, byte for byte.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import HemoflowError, MeshError, ValidationError
from .flowfields import FlowWaveform, flow_rate, poiseuille_power_law, \
    pulsatile_scale
from .hemodynamics import _COMPARISON_COLUMNS, _DIFFERENCE_COLUMNS, \
    _STATS_COLUMNS, GradientOperator, SegmentStats, _float_cell, \
    _read_table, _write_table, check_coverage, compare_models, \
    export_fields_vtk, frame_biomarkers, interpolate_to_mesh, osi, \
    recover_gradients, segment_stats, write_comparison_csv, write_stats_csv
from .mesh import CutPlane, generate_pipe_mesh, load_mesh, segment_labels, \
    segment_names, wall_normals
from .mri import SequenceParams, _image_sidecar, _tet_rule, add_noise, \
    load_images, load_kspace, phase_to_velocity, reconstruct, save_images, \
    save_kspace, sequence_timings, synthesize_frame
from .phantoms import MMHG, inlet_waveform
from .report import QUANTITIES, write_report
from .rheology import LITERATURE_NEWTONIAN, PowerLawParams, fit_for_hct, \
    newtonian_equivalent
from .windkessel import WindkesselParams, simulate_windkessel

log = logging.getLogger("hemoflow")


def _check_mesh_file(text: str) -> None:
    if text and not Path(text).is_file():
        raise ValidationError(f"mesh file {text} does not exist")


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


class _Key(NamedTuple):
    """One config key: its default text; the kind of its values (a
    ``str`` key holds its whole text or, with ``count=None``, a list of
    names); how many comma-separated values it holds (None: any); the
    bound each must meet; and a ``check`` each must pass."""

    default: str
    kind: type = float
    count: int | None = 1
    above: float | None = None
    minimum: float | None = None
    check: Callable | None = None


# The one declaration of every key. Every key has a default, so any
# subset may appear in the file; unknown sections or keys are refused
# by name.
_KEYS = {
    "paths": {
        "output_dir": _Key("hemoflow_out", str),
        "mesh": _Key("", str, check=_check_mesh_file),
    },
    "pipe": {
        "radius_m": _Key("0.01"),
        "length_m": _Key("0.1"),
        "resolution": _Key("0", int),
    },
    "rheology": {
        "hct": _Key("45"),
        "fit1_range": _Key("12, 123", count=2),
        "fit2_range": _Key("0, 2800", count=2),
    },
    "flow": {
        "pressure_drop_pa": _Key("15.8", above=0.0),
        "cardiac_period_s": _Key("0.937", above=0.0),
        "cardiac_phases": _Key("8", int, minimum=2),
    },
    "sequence": {
        "venc_m_s": _Key("0.8", above=0.0),
        "matrix": _Key("11, 11, 36", int, count=3, minimum=2),
        "voxel_mm": _Key("3, 3, 3", count=3, above=0.0),
        "oversampling": _Key("2", int, minimum=1),
        "t2_star_ms": _Key("254.0", above=0.0),
        "adc_bandwidth_khz": _Key("64.0", above=0.0),
        "slew_rate_t_m_s": _Key("195.0", above=0.0),
        "max_gradient_mt_m": _Key("30.0", above=0.0),
        "fov_center_mm": _Key("0, 0, 50", count=3),
        "quadrature": _Key("4", int, check=_tet_rule),
    },
    "noise": {
        "sigma_fraction": _Key("0.002", minimum=0.0),
        "seed": _Key("1234", int, minimum=0),
    },
    "segments": {
        "cuts_m": _Key("0.025, 0.05, 0.075", count=None),
    },
    "windkessel": {
        "proximal_resistance_cgs": _Key("274.0", minimum=0.0),
        "distal_resistance_cgs": _Key("5675.0", above=0.0),
        "compliance_cgs": _Key("5.08e-4", above=0.0),
        "initial_pressure_mmhg": _Key("80.5"),
        "cycles": _Key("10", int, minimum=1),
        "steps_per_cycle": _Key("1000", int, minimum=4),
    },
    "comparison": {
        "reference": _Key("power_law", str, check=_check_model_name),
        "models": _Key("newtonian_fit1, literature_3.5e-03", str,
                       count=None, check=_check_model_name),
    },
}

DEFAULTS = {section: {key: spec.default for key, spec in keys.items()}
            for section, keys in _KEYS.items()}


def _read_key(section: str, key: str, text: str):
    """``[section] key``'s text as its value, a list unless the key holds
    one value; every error, a check's included, names the key."""
    spec = _KEYS[section][key]
    where = f"[{section}] {key}"
    if spec.kind is str:
        values = [text] if spec.count == 1 else [
            name.strip() for name in text.split(",") if name.strip()]
    else:
        noun = "integer" if spec.kind is int else "number"
        what = f"one {noun}" if spec.count == 1 else \
            f"{spec.count or 'a list of'} {noun}s"
        try:
            values = [spec.kind(part) for part in text.split(",")]
            if spec.count not in (None, len(values)):
                raise ValueError
        except ValueError:
            raise ValidationError(f"{where}: {text!r} is not {what}") from None
        if spec.kind is float and not all(map(math.isfinite, values)):
            raise ValidationError(f"{where}: {text!r} is not finite")
    for value in values:
        if spec.above is not None and not value > spec.above:
            raise ValidationError(f"{where} {value} must be > {spec.above}")
        if spec.minimum is not None and value < spec.minimum:
            raise ValidationError(f"{where} {value} must be >= "
                                  f"{spec.minimum}")
        if spec.check is not None:
            try:
                spec.check(value)
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from None
    return values[0] if spec.count == 1 else values


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

    return _typed_config(merged)


def _check_cuts(cuts: list[float], low: float, high: float) -> None:
    if not all(low < z < high for z in cuts):
        raise ValidationError(f"[segments] cuts_m {cuts} must lie inside "
                              f"the pipe, between z = {low:g} and {high:g} m")


def _typed_config(merged: dict) -> RunConfig:
    """The ``RunConfig`` of the merged key texts, each read by
    ``_read_key``; the cuts must increase and, for a generated pipe, lie
    inside it."""
    # merged holds the table's sections in the table's order
    paths, pipe, rheology, flow, seq, noise, segments, wk, comparison = (
        {key: _read_key(section, key, text) for key, text in keys.items()}
        for section, keys in merged.items())
    cuts = segments["cuts_m"]
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValidationError(f"[segments] cuts_m {cuts} must increase "
                              "strictly along the axis")
    if not paths["mesh"]:
        _check_cuts(cuts, 0.0, pipe["length_m"])

    return RunConfig(
        text=render_config(merged, with_output_dir=False),
        output_dir=Path(paths["output_dir"]),
        mesh_path=Path(paths["mesh"]) if paths["mesh"] else None,
        pipe_radius=pipe["radius_m"],
        pipe_length=pipe["length_m"],
        pipe_resolution=pipe["resolution"],
        hct=rheology["hct"],
        fit1_range=tuple(rheology["fit1_range"]),
        fit2_range=tuple(rheology["fit2_range"]),
        pressure_drop=flow["pressure_drop_pa"],
        period=flow["cardiac_period_s"],
        phases=flow["cardiac_phases"],
        sequence=SequenceParams(
            venc=seq["venc_m_s"],
            matrix=tuple(seq["matrix"]),
            voxel=tuple(v * 1e-3 for v in seq["voxel_mm"]),
            oversampling=seq["oversampling"],
            t2_star=seq["t2_star_ms"] * 1e-3,
            adc_bandwidth=seq["adc_bandwidth_khz"] * 1e3,
            slew_rate=seq["slew_rate_t_m_s"],
            max_gradient=seq["max_gradient_mt_m"] * 1e-3,
            fov_center=tuple(v * 1e-3 for v in seq["fov_center_mm"])),
        quadrature=seq["quadrature"],
        sigma_fraction=noise["sigma_fraction"],
        seed=noise["seed"],
        cuts=cuts,
        windkessel=WindkesselParams(
            proximal_resistance=wk["proximal_resistance_cgs"],
            distal_resistance=wk["distal_resistance_cgs"],
            compliance=wk["compliance_cgs"],
            initial_distal_pressure=wk["initial_pressure_mmhg"] * MMHG),
        wk_cycles=wk["cycles"],
        wk_steps=wk["steps_per_cycle"],
        reference_model=comparison["reference"],
        alternative_models=comparison["models"],
    )


@contextlib.contextmanager
def stage(name: str):
    """Prefix a package error or an OSError raised inside with the stage
    ``name``, keeping its type and so the exit code; every stage function
    is decorated."""
    try:
        yield
    except (HemoflowError, OSError) as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc


# =========================================================================
# Model matrix
# =========================================================================

@stage("rheology")
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

@stage("mesh")
def stage_mesh(cfg: RunConfig, flow: bool = True):
    """The generated pipe, or the loaded mesh checked against the config.

    A mesh file ``load_mesh`` refuses is bad input, and a loaded mesh
    must span the segment cuts. With ``flow`` a loaded mesh must be a
    saved generated pipe, whose geometry the flow stage's analytic
    profile needs, and any mesh must lie inside the image grid it is to
    be synthesized on. ``hemoflow estimate`` makes no flow and takes any
    mesh; its images' grid is checked when it interpolates.
    """
    if cfg.mesh_path is None:
        log.info("generating pipe mesh (R=%g m, L=%g m, resolution %d)",
                 cfg.pipe_radius, cfg.pipe_length, cfg.pipe_resolution)
        mesh = generate_pipe_mesh(cfg.pipe_radius, cfg.pipe_length,
                                  resolution=cfg.pipe_resolution)
    else:
        log.info("loading mesh %s", cfg.mesh_path)
        try:
            mesh = load_mesh(cfg.mesh_path)
        except MeshError as exc:
            raise ValidationError(str(exc)) from exc
        if flow and not mesh.metadata.get("pipe"):
            raise ValidationError(f"mesh {cfg.mesh_path} carries no pipe "
                                  "geometry; the flow stage needs a saved "
                                  "generated pipe mesh")
        # config load checks the cuts only for a generated pipe
        axial = mesh.vertices[:, 2]
        _check_cuts(cfg.cuts, axial.min(), axial.max())
    if flow:
        check_coverage(mesh, cfg.sequence)
    return mesh


@stage("flow")
def stage_flow(cfg: RunConfig, mesh, pl: PowerLawParams, out: Path):
    """Pulsatile power-law pipe field sampled at the cardiac phases.

    Writes the flow rate per phase through the middle of the mesh's pipe
    to ``flow.csv``.
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
    mid = CutPlane(point=(0.0, 0.0, mesh.metadata["pipe"]["length"] / 2.0),
                   normal=(0.0, 0.0, 1.0))
    flows = flow_rate(field, mesh, mid)
    log.info("flow: peak velocity %.3f m/s, peak flow %.1f ml/s",
             peak_speed, flows.max() * 1e6)
    _write_table(out / "flow.csv", ("time_s", "flow_m3_s", "flow_ml_s"),
                 zip(field.times, flows, flows * 1e6))
    return field, flows


def write_windkessel_csv(trace, path: Path) -> None:
    _write_table(path, ("time_s", "flow_ml_s", "pressure_mmhg",
                        "distal_pressure_mmhg"),
                 zip(trace.times, trace.flow, trace.pressure / MMHG,
                     trace.distal_pressure / MMHG))


@stage("windkessel")
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


@stage("mri")
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


@stage("reconstruct")
def stage_reconstruct(kspace: list[Path], out: Path) -> list[Path]:
    """Images of k-space files as stored; writes ``images_*``.

    Each ``kspace_<x>.json`` becomes ``images_<x>.json`` in ``out``;
    returns those paths. Every file is loaded and checked before ``out``
    is made, so a bad file leaves no output; phases are then
    reconstructed one at a time, so memory holds one phase, not all.
    """
    for path in kspace:
        load_kspace(path)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for path in kspace:
        paths.append(out / path.name.replace("kspace", "images"))
        save_images(reconstruct(load_kspace(path)), paths[-1])
        log.info("reconstructed %s -> %s", path.name, paths[-1].name)
    return paths


@stage("estimate")
def stage_estimate(cfg: RunConfig, fitted: dict, mesh, images: list[Path],
                   out: Path) -> None:
    """Biomarkers of image files for every model in the comparison matrix.

    Writes ``stats.csv``, then ``fields_systole.vtk`` at the systolic
    frame of the statistics as written; ``out`` is made only once every
    image is decoded and the biomarkers are computed.

    The images must be distinct phases on one image grid, which their
    sidecars alone show, so they are ordered and checked before any
    payload is read. They pass one at a time, in time order: each phase
    is read, decoded, interpolated to the mesh and released (one decoded
    phase is held at a time), its gradients recovered with one
    ``GradientOperator`` and its WSS and energy-loss statistics made at
    once. Across the phases only every model's wall traction (OSI needs
    the whole cycle) and one phase's vertex velocity and reference-model
    fields (the systolic fields) are kept: a phase's fields replace the
    kept ones when ``systolic_frame``, given the WSS means as
    ``stats.csv`` holds them for the phases so far, picks it, so the
    last kept are those of the frame ``read_stats`` picks.
    """
    phases = sorted(((*_image_sidecar(path), path) for path in images),
                    key=lambda phase: phase[0])
    times = np.array([time for time, _, _ in phases])
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValidationError("need at least two distinct cardiac phases")
    grid = phases[0][1].axis_coordinates()
    if not all(all(map(np.array_equal, grid, params.axis_coordinates()))
               for _, params, _ in phases[1:]):
        raise ValidationError("the images must share one image grid")

    planes = [CutPlane(point=(0.0, 0.0, z), normal=(0.0, 0.0, 1.0))
              for z in cfg.cuts]
    labels = segment_labels(mesh, planes)
    names = list(segment_names(len(cfg.cuts) + 1))
    wall_idx, wall_norm = wall_normals(mesh)
    wall_labels = labels[wall_idx]
    models = {name: resolve_model(name, fitted)
              for name in dict.fromkeys([cfg.reference_model,
                                         *cfg.alternative_models])}
    reference = cfg.reference_model

    # one phase at a time through one operator, so no stack of vertex
    # velocities or gradients is held; the blocks are written model by
    # model, frame by frame, then OSI
    operator = GradientOperator(mesh)
    blocks: dict[str, list[SegmentStats]] = {name: [] for name in models}
    tractions: dict[str, list] = {name: [] for name in models}
    wss_means: dict[int, float] = {}
    for frame, (_, _, path) in enumerate(phases):
        velocity = interpolate_to_mesh(phase_to_velocity(load_images(path)),
                                       mesh)
        results = frame_biomarkers(
            recover_gradients(mesh, velocity, operator), wall_idx, wall_norm,
            operator.nodal_volumes, models)
        for name, (traction, mag, el, mu) in results.items():
            blocks[name] += (
                segment_stats(mag, wall_labels, names,
                              parameter=f"wss:{name}", frame=frame),
                segment_stats(el, labels, names,
                              parameter=f"el_rate:{name}", frame=frame))
            tractions[name].append(traction)
        # this frame's wss block of the reference model
        mean = _written_cross_mean(blocks[reference][-2])
        if mean is not None:
            wss_means[frame] = mean
            if systolic_frame(wss_means, reference) == frame:
                at_systole = (velocity, *results[reference])
        # the fields not kept are released before the next phase
        del results, mag, el, mu
    del operator
    systolic = systolic_frame(wss_means, reference)

    ordered: list[SegmentStats] = []
    osis: dict[str, np.ndarray] = {}
    for name in models:
        osis[name] = osi(np.stack(tractions[name]), times, cfg.period)
        ordered += blocks[name]
        ordered.append(segment_stats(osis[name], wall_labels, names,
                                     parameter=f"osi:{name}", frame=None))
    out.mkdir(parents=True, exist_ok=True)
    write_stats_csv(ordered, out / "stats.csv")

    log.info("systolic frame %d (t = %.3f s)", systolic, times[systolic])
    velocity, traction, mag, el, mu = at_systole
    full_traction = np.zeros((mesh.n_vertices, 3))
    full_traction[wall_idx] = traction
    full_mag = np.zeros(mesh.n_vertices)
    full_mag[wall_idx] = mag
    full_osi = np.zeros(mesh.n_vertices)
    full_osi[wall_idx] = osis[reference]
    export_fields_vtk(mesh, {
        "velocity": velocity,
        "wss_vector": full_traction,
        "wss_mag": full_mag,
        "osi": full_osi,
        "el_rate": el,
        "mu_apparent": mu,
    }, out / "fields_systole.vtk")


def _written_cross_mean(block: SegmentStats) -> float | None:
    """``block.cross_mean`` of its segment means as ``write_stats_csv``
    writes them, so as ``read_stats`` reads them back."""
    return replace(block, means=[
        None if m is None else float(_float_cell(m))
        for m in block.means]).cross_mean


def systolic_frame(wss_means: dict[int, float], reference: str) -> int:
    """The systolic frame of the cross-segment mean ``wss:<reference>``
    keyed by frame: the frame of the highest mean, the first in the
    mapping's order of equal ones."""
    if not wss_means:
        raise ValidationError(
            f"stats contain no per-frame wss:{reference} rows")
    return max(wss_means, key=wss_means.get)


def _number(path: str | Path, row: dict, column: str, kind=float):
    """``row[column]`` as ``kind``, None if blank; ``path`` names the
    table in the error."""
    text = row[column]
    try:
        return kind(text) if text else None
    except ValueError:
        raise ValidationError(f"{path}: {column} {text!r} is not "
                              "a number") from None


def read_stats(path: str | Path, reference: str,
               frame: int | None = None) -> tuple[dict, int]:
    """A stats CSV as written, keyed by (param, frame), and its systolic
    frame: ``frame`` if given, else the frame with the highest
    cross-segment mean ``wss:<reference>``."""
    blocks: dict[tuple, SegmentStats] = {}
    for row in _read_table(path, _STATS_COLUMNS):
        at = _number(path, row, "frame", int)
        block = blocks.setdefault((row["param"], at), SegmentStats(
            parameter=row["param"], segments=[], counts=[], means=[],
            stds=[], frame=at))
        block.segments.append(row["segment"])
        block.counts.append(_number(path, row, "count", int))
        block.means.append(_number(path, row, "mean"))
        block.stds.append(_number(path, row, "std"))
    if not blocks:
        raise ValidationError(f"{path}: no statistics rows found")
    if frame is None:
        frame = systolic_frame({
            at: block.cross_mean for (param, at), block in blocks.items()
            if param == f"wss:{reference}" and at is not None
            and block.cross_mean is not None}, reference)
    elif not any(at == frame for _, at in blocks):
        raise ValidationError(f"{path}: no rows at frame {frame}")
    return blocks, frame


@stage("compare")
def stage_compare(stats: str | Path, reference: str, alternatives: list,
                  out: str | Path, frame: int | None = None) -> list[dict]:
    """Model differences of a stats CSV as written; writes ``out``.

    Per-frame quantities are compared at the systolic frame (see
    ``read_stats``), OSI over the cycle; an alternative named twice is
    compared once, in first-seen order. Returns the rows written.
    """
    blocks, systolic = read_stats(stats, reference, frame)
    rows = []
    for quantity in QUANTITIES:
        at = None if quantity == "osi" else systolic
        ref_key = (f"{quantity}:{reference}", at)
        if ref_key not in blocks:
            raise ValidationError(f"stats lack {ref_key[0]} at frame {at}")
        for alt_name in dict.fromkeys(alternatives):
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


@stage("report")
def stage_report(stats: str | Path, comparison: str | Path | None,
                 reference: str, out: Path, frame: int | None = None) -> None:
    """``report.md`` and ``report.svg`` in ``out`` from a stats CSV and, if
    given, a comparison CSV, both as written; ``out`` is made once both
    are read."""
    blocks, systolic = read_stats(stats, reference, frame)
    rows = None
    if comparison is not None:
        rows = [{**row, **{key: _number(comparison, row, key)
                           for key in _DIFFERENCE_COLUMNS}}
                for row in _read_table(comparison, _COMPARISON_COLUMNS)]
    out.mkdir(parents=True, exist_ok=True)
    write_report(blocks, rows, systolic, out)


# =========================================================================
# Manifest
# =========================================================================

# the files of a run besides its per-phase k-space and images
_RUN_FILES = ("config.ini", "rheology.json", "flow.csv", "windkessel.csv",
              "stats.csv", "fields_systole.vtk", "comparison.csv",
              "report.md", "report.svg")


def _write_manifest(cfg: RunConfig, out: Path, written: list[Path]) -> None:
    """``manifest.json`` hashing ``written``, the files this run wrote;
    any other file in ``out``, such as an earlier run's, is named in a
    warning and left out."""
    artifacts = {path.relative_to(out).as_posix(): {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "bytes": path.stat().st_size} for path in written}
    others = sorted(name for name in (path.relative_to(out).as_posix()
                                      for path in out.rglob("*")
                                      if path.is_file())
                    if name not in artifacts and name != "manifest.json")
    if others:
        log.warning("%s holds %d file(s) this run did not write, left out "
                    "of the manifest: %s", out, len(others),
                    ", ".join(others))
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
    fitted = fit_models(cfg)
    mesh = stage_mesh(cfg)
    # bad input is refused by now: only an accepted run makes files
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(cfg.text)
    write_rheology_json(cfg, fitted, out / "rheology.json")
    field, flows = stage_flow(cfg, mesh, fitted["power_law"], out)
    stage_windkessel(cfg, field, flows, out)
    kspace = stage_mri(cfg, mesh, field, out)
    images = stage_reconstruct(kspace, out)
    stage_estimate(cfg, fitted, mesh, images, out)
    stage_compare(out / "stats.csv", cfg.reference_model,
                  cfg.alternative_models, out / "comparison.csv")
    stage_report(out / "stats.csv", out / "comparison.csv",
                 cfg.reference_model, out)
    # each k-space and image sidecar has its .bin payload beside it
    _write_manifest(cfg, out, [out / name for name in _RUN_FILES] + [
        path.with_suffix(suffix) for path in kspace + images
        for suffix in (".json", ".bin")])
    log.info("pipeline complete: %s", out)
    return out
