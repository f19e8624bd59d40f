"""Command-line interface: argument parsing and one handler per subcommand.

Each subcommand runs one or more stages of :mod:`hemoflow.pipeline`, which
write the same artifacts as ``hemoflow run``; the rendering lives in
:mod:`hemoflow.report`. ``load_config`` and ``run_pipeline`` are
re-exported here for callers of the earlier API.

Exit codes: 0 success, 2 invalid input or config, 3 numerical failure.
Every command's error names the stage that failed (``pipeline.stage``),
and a config error names its ``[section] key``; each stage makes its
output directory only after its input is accepted, so refused input
writes nothing.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import HemoflowError, ValidationError
from .phantoms import MMHG, REFERENCE_OUTLET, demo_outlet_flow
from .pipeline import DEFAULTS, RunConfig, fit_models, load_config, \
    render_config, run_pipeline, stage_compare, stage_estimate, stage_flow, \
    stage_mesh, stage_mri, stage_reconstruct, stage_report, \
    write_rheology_json, write_windkessel_csv
from .windkessel import simulate_windkessel

__all__ = ["main", "load_config", "run_pipeline"]

# =========================================================================
# Subcommands
# =========================================================================

def _config_from_args(args) -> RunConfig:
    overrides = {}
    if getattr(args, "out", None):
        overrides[("paths", "output_dir")] = args.out
    if getattr(args, "seed", None) is not None:
        overrides[("noise", "seed")] = args.seed
    if getattr(args, "hct", None) is not None:
        overrides[("rheology", "hct")] = args.hct
    return load_config(getattr(args, "config", None), overrides)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    out = run_pipeline(cfg)
    print(out)
    return 0


def cmd_init_demo(args) -> int:
    path = Path(args.out)
    if path.exists() and not args.force:
        raise ValidationError(f"{path} exists; pass --force to overwrite")
    path.write_text(render_config(DEFAULTS))
    print(path)
    return 0


def cmd_fit_rheology(args) -> int:
    cfg = _config_from_args(args)
    fitted = fit_models(cfg)
    pl = fitted["power_law"]
    print(f"hct = {cfg.hct:g}")
    print(f"m = {pl.m:.6g} Pa s^n")
    print(f"n = {pl.n:.6g}")
    lo1, hi1 = cfg.fit1_range
    lo2, hi2 = cfg.fit2_range
    print(f"newtonian_fit1 ({lo1:g}-{hi1:g} 1/s) = "
          f"{fitted['newtonian_fit1'].m:.6g} Pa s")
    print(f"newtonian_fit2 ({lo2:g}-{hi2:g} 1/s) = "
          f"{fitted['newtonian_fit2'].m:.6g} Pa s")
    if args.params_out:
        write_rheology_json(cfg, fitted, Path(args.params_out))
    return 0


def cmd_windkessel(args) -> int:
    cfg = _config_from_args(args)
    wave = demo_outlet_flow()
    params = REFERENCE_OUTLET if args.demo_flow else cfg.windkessel
    trace = simulate_windkessel(params, wave, n_cycles=cfg.wk_cycles,
                                steps_per_cycle=cfg.wk_steps)
    print(f"cycles = {cfg.wk_cycles}, steps/cycle = {cfg.wk_steps}")
    print(f"mean pressure = {trace.mean_pressure() / MMHG:.2f} mmHg")
    print(f"pressure range = {trace.pressure.min() / MMHG:.2f} to "
          f"{trace.pressure.max() / MMHG:.2f} mmHg")
    if args.trace_out:
        write_windkessel_csv(trace, Path(args.trace_out))
    return 0


def cmd_synth_mri(args) -> int:
    cfg = _config_from_args(args)
    pl = fit_models(cfg)["power_law"]
    mesh = stage_mesh(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    field, _ = stage_flow(cfg, mesh, pl, cfg.output_dir)
    stage_reconstruct(stage_mri(cfg, mesh, field, cfg.output_dir),
                      cfg.output_dir)
    print(cfg.output_dir)
    return 0


def _sidecars(source: str, kind: str) -> list[Path]:
    source = Path(source)
    files = sorted(source.glob(f"{kind}_*.json")) if source.is_dir() \
        else [source]
    if not files:
        raise ValidationError(f"no {kind}_*.json files in {source}")
    return files


def cmd_reconstruct(args) -> int:
    files = _sidecars(args.kspace, "kspace")
    out = Path(args.out)
    stage_reconstruct(files, out)
    print(out)
    return 0


def cmd_estimate(args) -> int:
    cfg = _config_from_args(args)
    files = _sidecars(args.images, "images")
    fitted = fit_models(cfg)
    out = cfg.output_dir
    stage_estimate(cfg, fitted, stage_mesh(cfg, flow=False), files, out)
    stage_compare(out / "stats.csv", cfg.reference_model,
                  cfg.alternative_models, out / "comparison.csv")
    print(out)
    return 0


def cmd_compare(args) -> int:
    rows = stage_compare(args.stats, args.reference, args.alternative,
                         args.out, args.frame)
    for row in rows:
        relative = row["relative_difference_pct"]
        print(f"{row['param']:8s} {row['segment']:12s} "
              f"{row['alternative_model']:24s} "
              f"{'n/a' if relative is None else f'{relative:+8.2f}%'}")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    stage_report(args.stats, args.comparison, args.reference, out, args.frame)
    print(out)
    return 0


# =========================================================================
# Entry point
# =========================================================================

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemoflow",
        description="Synthetic 4D Flow MRI and viscosity-dependent "
                    "hemodynamic biomarker pipeline.")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="log stage progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full pipeline from a config file")
    run.add_argument("--config", help="INI config (defaults if omitted)")
    run.add_argument("--out", help="artifact directory override")
    run.add_argument("--seed", type=int, help="noise seed override")
    run.set_defaults(func=cmd_run)

    demo = sub.add_parser("init-demo", help="write the demo config file")
    demo.add_argument("--out", default="hemoflow-demo.ini")
    demo.add_argument("--force", action="store_true")
    demo.set_defaults(func=cmd_init_demo)

    fit = sub.add_parser("fit-rheology",
                         help="fit a power law at a hematocrit")
    fit.add_argument("--hct", type=float, default=None)
    fit.add_argument("--config")
    fit.add_argument("--params-out", help="write the fit as JSON")
    fit.set_defaults(func=cmd_fit_rheology)

    wk = sub.add_parser("windkessel", help="outlet pressure from flow")
    wk.add_argument("--config")
    wk.add_argument("--trace-out", help="write the pressure trace CSV")
    wk.add_argument("--demo-flow", action="store_true",
                    help="reference outlet parameters and demo flow")
    wk.set_defaults(func=cmd_windkessel)

    synth = sub.add_parser("synth-mri",
                           help="synthesize k-space for every phase")
    synth.add_argument("--config")
    synth.add_argument("--out", help="artifact directory override")
    synth.add_argument("--seed", type=int)
    synth.set_defaults(func=cmd_synth_mri)

    recon = sub.add_parser("reconstruct",
                           help="reconstruct images from k-space files")
    recon.add_argument("--kspace", required=True,
                       help="kspace sidecar file or directory")
    recon.add_argument("--out", required=True)
    recon.set_defaults(func=cmd_reconstruct)

    est = sub.add_parser("estimate",
                         help="biomarkers and stats from images")
    est.add_argument("--images", required=True,
                     help="images sidecar file or directory")
    est.add_argument("--config")
    est.add_argument("--out", help="artifact directory override")
    est.set_defaults(func=cmd_estimate)

    cmp_cmd = sub.add_parser("compare",
                             help="difference table between two models")
    cmp_cmd.add_argument("--stats", required=True)
    cmp_cmd.add_argument("--reference", default="power_law")
    cmp_cmd.add_argument("--alternative", action="append", required=True)
    cmp_cmd.add_argument("--frame", type=int, default=None,
                         help="systolic frame (default: auto)")
    cmp_cmd.add_argument("--out", default="comparison.csv")
    cmp_cmd.set_defaults(func=cmd_compare)

    rep = sub.add_parser("report", help="render stats into tables and SVG")
    rep.add_argument("--stats", required=True)
    rep.add_argument("--comparison")
    rep.add_argument("--reference", default="power_law")
    rep.add_argument("--frame", type=int, default=None)
    rep.add_argument("--out", default="report")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except HemoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
