"""End-to-end tests for the command-line pipeline."""

import csv
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemoflow.cli import load_config, main
from hemoflow.errors import ValidationError
from hemoflow.mesh import generate_box_mesh, generate_pipe_mesh, \
    load_mesh, save_mesh
from hemoflow.mri import load_kspace, sequence_timings
from hemoflow.pipeline import DEFAULTS, render_config
from test_mesh import MALFORMED, malformed_pipe
from test_vtk_text import assert_mesh_sections, decode_binary_vtk

FAST_CONFIG = """\
[flow]
cardiac_phases = 4

[noise]
seed = 77
"""

# the default grid spans z = -4 to 101 mm; a 120 mm pipe leaves it
LONG_PIPE = """\
[pipe]
length_m = 0.12
[segments]
cuts_m = 0.03, 0.06, 0.09
[flow]
cardiac_phases = 2
"""


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """One fast pipeline run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("demo")
    config = root / "demo.ini"
    config.write_text(FAST_CONFIG)
    out = root / "run1"
    rc = main(["run", "--config", str(config), "--out", str(out)])
    assert rc == 0, "demo pipeline run failed"
    return config, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# =========================================================================
# Full pipeline
# =========================================================================

def test_run_emits_every_artifact_class(demo):
    _, out = demo
    for name in ("config.ini", "rheology.json", "flow.csv",
                 "windkessel.csv", "kspace_phase000.json",
                 "kspace_phase000.bin", "images_phase000.json",
                 "fields_systole.vtk", "stats.csv", "comparison.csv",
                 "report.md", "report.svg", "manifest.json"):
        assert (out / name).is_file(), f"missing artifact {name}"


def test_manifest_covers_artifacts_with_hashes(demo):
    _, out = demo
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["package"]["name"] == "hemoflow"
    assert len(manifest["config_sha256"]) == 64
    artifacts = manifest["artifacts"]
    assert "stats.csv" in artifacts and "manifest.json" not in artifacts
    recorded = artifacts["stats.csv"]["sha256"]
    actual = hashlib.sha256((out / "stats.csv").read_bytes()).hexdigest()
    assert recorded == actual, "manifest hash does not match file content"


def test_stats_cover_all_models_frames_and_segments(demo):
    _, out = demo
    rows = read_rows(out / "stats.csv")
    segments = {"AAo", "AArch", "pDAo", "dDAo"}
    assert {r["segment"] for r in rows} == segments
    params = {r["param"] for r in rows}
    for model in ("power_law", "newtonian_fit1", "literature_3.5e-03"):
        for quantity in ("wss", "el_rate", "osi"):
            assert f"{quantity}:{model}" in params
    wss_pl = [r for r in rows if r["param"] == "wss:power_law"]
    assert len(wss_pl) == 4 * 4, "4 segments x 4 cardiac phases expected"
    osi_rows = [r for r in rows if r["param"].startswith("osi")]
    assert all(r["frame"] == "" for r in osi_rows), "OSI is a cycle quantity"
    assert all(r["mean"] != "" for r in rows), "no segment may come out empty"


def test_run_is_deterministic_for_fixed_seed(demo, tmp_path):
    config, out1 = demo
    out2 = tmp_path / "run2"
    rc = main(["run", "--config", str(config), "--out", str(out2)])
    assert rc == 0
    for name in ("stats.csv", "comparison.csv", "kspace_phase000.bin",
                 "windkessel.csv", "manifest.json"):
        first = (out1 / name).read_bytes()
        second = (out2 / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


def test_manifest_lists_only_this_runs_files(demo, tmp_path, caplog):
    # a 2-phase run into the directory of a 4-phase run: phases 2 and 3
    # of the earlier run stay on disk, but this run did not write them
    _, first = demo
    out = tmp_path / "reused"
    shutil.copytree(first, out)
    two = tmp_path / "two.ini"
    two.write_text(FAST_CONFIG.replace("cardiac_phases = 4",
                                       "cardiac_phases = 2"))
    assert main(["run", "--config", str(two), "--out", str(out)]) == 0
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    fresh = tmp_path / "fresh"
    assert main(["run", "--config", str(two), "--out", str(fresh)]) == 0
    assert (out / "manifest.json").read_bytes() == \
        (fresh / "manifest.json").read_bytes()
    assert len(artifacts) == 17 and "kspace_phase002.bin" not in artifacts
    stale = [f"{kind}_phase{phase:03d}.{suffix}" for kind in
             ("images", "kspace") for phase in (2, 3)
             for suffix in ("bin", "json")]
    warnings = [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"]
    assert len(warnings) == 1 and all(name in warnings[0] for name in stale)


def test_different_seed_changes_kspace(demo, tmp_path):
    config, out1 = demo
    out2 = tmp_path / "run_other_seed"
    rc = main(["run", "--config", str(config), "--out", str(out2),
               "--seed", "91"])
    assert rc == 0
    assert (out1 / "kspace_phase000.bin").read_bytes() != \
        (out2 / "kspace_phase000.bin").read_bytes()


# =========================================================================
# Stage subcommands
# =========================================================================

def test_fit_rheology_prints_known_fits(capsys):
    rc = main(["fit-rheology", "--hct", "45"])
    assert rc == 0
    printed = capsys.readouterr().out
    values = {}
    for line in printed.splitlines():
        key, _, rest = line.partition("=")
        values[key.split("(")[0].strip()] = float(rest.split()[0])
    assert values["m"] == pytest.approx(2.42e-2, rel=1e-6)
    assert values["n"] == pytest.approx(0.72, rel=1e-6)
    assert values["newtonian_fit1"] == pytest.approx(7.71e-3, rel=0.05)
    assert values["newtonian_fit2"] == pytest.approx(3.52e-3, rel=0.05)


def test_windkessel_reference_outlet(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    rc = main(["windkessel", "--demo-flow", "--trace-out", str(trace)])
    assert rc == 0
    printed = capsys.readouterr().out
    mean_line = next(l for l in printed.splitlines()
                     if l.startswith("mean pressure"))
    mean = float(mean_line.split("=")[1].split()[0])
    assert 85.0 < mean < 100.0, f"mean outlet pressure {mean} mmHg"
    rows = read_rows(trace)
    assert len(rows) == 1001, "10 cycles x 1000 steps, final cycle inclusive"
    assert set(rows[0]) == {"time_s", "flow_ml_s", "pressure_mmhg",
                            "distal_pressure_mmhg"}


def test_compare_identical_models_is_all_zero(demo, tmp_path):
    _, out = demo
    table = tmp_path / "self.csv"
    rc = main(["compare", "--stats", str(out / "stats.csv"),
               "--reference", "power_law", "--alternative", "power_law",
               "--out", str(table)])
    assert rc == 0
    rows = read_rows(table)
    assert rows, "comparison table came out empty"
    for row in rows:
        assert float(row["absolute_difference"]) == 0.0
        assert float(row["relative_difference_pct"]) == 0.0


def test_compare_reports_newtonian_sign_per_segment(demo, tmp_path):
    _, out = demo
    table = tmp_path / "cmp.csv"
    rc = main(["compare", "--stats", str(out / "stats.csv"),
               "--reference", "power_law",
               "--alternative", "literature_3.5e-03",
               "--out", str(table)])
    assert rc == 0
    rows = [r for r in read_rows(table) if r["param"] == "wss"]
    assert len(rows) == 5, "4 segments plus the cross-segment row"
    # 3.5e-3 Pa s sits far below the power-law viscosity at these rates
    assert all(float(r["relative_difference_pct"]) < 0.0 for r in rows)


def test_compare_matches_the_run_comparison(demo, tmp_path):
    config, out = demo
    cfg = load_config(config)
    table = tmp_path / "again.csv"
    args = ["compare", "--stats", str(out / "stats.csv"),
            "--reference", cfg.reference_model, "--out", str(table)]
    for model in cfg.alternative_models:
        args += ["--alternative", model]
    assert main(args) == 0

    assert table.read_bytes() == (out / "comparison.csv").read_bytes()


def test_a_model_named_twice_is_compared_once(demo, tmp_path):
    # [comparison] models and compare's --alternative take each model
    # once: naming one twice repeats no comparison row
    _, run = demo
    outs = {}
    for name, models in (("once", "newtonian_fit1"),
                         ("twice", "newtonian_fit1, newtonian_fit1")):
        config = tmp_path / f"{name}.ini"
        config.write_text(f"[comparison]\nmodels = {models}\n")
        outs[name] = tmp_path / name
        assert main(["estimate", "--images", str(run), "--config",
                     str(config), "--out", str(outs[name])]) == 0
    for artifact in ("stats.csv", "comparison.csv"):
        assert (outs["twice"] / artifact).read_bytes() == \
            (outs["once"] / artifact).read_bytes(), artifact
    table = tmp_path / "twice.csv"
    assert main(["compare", "--stats", str(outs["once"] / "stats.csv"),
                 "--alternative", "newtonian_fit1",
                 "--alternative", "newtonian_fit1", "--out", str(table)]) == 0
    assert table.read_bytes() == (outs["once"] / "comparison.csv").read_bytes()


def test_subcommand_chain_reproduces_run_byte_for_byte(tmp_path):
    """synth-mri -> reconstruct -> estimate -> compare -> report, each on
    the files the step before wrote, gives the files of one run."""
    config = tmp_path / "two.ini"
    config.write_text("[flow]\ncardiac_phases = 2\n[noise]\nseed = 5\n")
    cfg = load_config(config)
    run = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(run)]) == 0

    synth, recon, est = (tmp_path / name for name in
                         ("synth", "recon", "estimate"))
    table, report = tmp_path / "comparison.csv", tmp_path / "report"
    models = [arg for model in cfg.alternative_models
              for arg in ("--alternative", model)]
    for argv in (
            ["synth-mri", "--config", str(config), "--out", str(synth)],
            ["reconstruct", "--kspace", str(synth), "--out", str(recon)],
            ["estimate", "--images", str(recon), "--config", str(config),
             "--out", str(est)],
            ["compare", "--stats", str(est / "stats.csv"), "--reference",
             cfg.reference_model, *models, "--out", str(table)],
            ["report", "--stats", str(est / "stats.csv"), "--comparison",
             str(table), "--reference", cfg.reference_model,
             "--out", str(report)]):
        assert main(argv) == 0, f"{argv[0]} failed"

    pairs = [(synth / "flow.csv", "flow.csv"),
             (est / "fields_systole.vtk", "fields_systole.vtk"),
             (est / "stats.csv", "stats.csv"),
             (est / "comparison.csv", "comparison.csv"),
             (table, "comparison.csv"),
             (report / "report.md", "report.md"),
             (report / "report.svg", "report.svg")]
    for kind, source in (("kspace", synth), ("images", synth),
                         ("images", recon)):
        files = sorted(source.glob(f"{kind}_phase*"))
        assert len(files) == 4, f"{kind} files missing from {source.name}"
        pairs += [(path, path.name) for path in files]
    for path, name in pairs:
        assert path.read_bytes() == (run / name).read_bytes(), \
            f"{path.relative_to(tmp_path)} differs from the run's {name}"
    assert {row["param"] for row in read_rows(table)} == \
        {"wss", "osi", "el_rate"}


def test_reconstruct_rejects_unknown_sidecar_key(demo, tmp_path, capsys):
    _, out = demo
    source = tmp_path / "kspace"
    source.mkdir()
    sidecar = json.loads((out / "kspace_phase000.json").read_text())
    sidecar["params"]["bogus"] = 1
    (source / "kspace_phase000.json").write_text(json.dumps(sidecar))
    (source / "kspace_phase000.bin").write_bytes(
        (out / "kspace_phase000.bin").read_bytes())
    rc = main(["reconstruct", "--kspace", str(source),
               "--out", str(tmp_path / "images")])
    assert rc == 2
    assert "kspace_phase000.json" in capsys.readouterr().err


def test_non_finite_payload_exits_2(demo, tmp_path, capsys):
    # a bad later phase must stop the stage before it writes the images
    # of the phases that load cleanly
    config, out = demo
    for phase in ("000", "003"):
        for kind, command in (("kspace", ["reconstruct", "--kspace"]),
                              ("images", ["estimate", "--config",
                                          str(config), "--images"])):
            source = tmp_path / f"{kind}{phase}"
            source.mkdir()
            for path in out.glob(f"{kind}_phase*"):
                shutil.copyfile(path, source / path.name)
            with open(source / f"{kind}_phase{phase}.bin", "r+b") as fh:
                fh.write(np.complex64(complex(np.nan, 0.0)).tobytes())
            target = tmp_path / f"from_{kind}{phase}"
            rc = main(command + [str(source), "--out", str(target)])
            assert rc == 2, f"a NaN in {kind}_phase{phase}.bin was accepted"
            assert f"{kind}_phase{phase}.json" in capsys.readouterr().err
            assert not target.exists(), \
                f"a NaN in {kind}_phase{phase}.bin: nothing may be written"


def test_report_renders_tables_and_svg(demo, tmp_path):
    _, out = demo
    report_dir = tmp_path / "report"
    rc = main(["report", "--stats", str(out / "stats.csv"),
               "--comparison", str(out / "comparison.csv"),
               "--out", str(report_dir)])
    assert rc == 0
    text = (report_dir / "report.md").read_text()
    for quantity in ("wss", "osi", "el_rate"):
        assert f"## {quantity}" in text
    leading = sum(1 for line in text.splitlines()
                  if line.startswith("| AAo |"))
    assert leading == 3, "one 4-segment summary table per quantity"
    assert "Model differences" in text
    svg = (report_dir / "report.svg").read_text()
    assert svg.startswith("<svg") and "<rect" in svg


def test_malformed_stage_inputs_exit_2(demo, tmp_path, capsys):
    # a stats or comparison CSV handed to compare or report is outside
    # input: a bad number exits 2 naming the file, never a traceback
    _, out = demo
    for name in ("stats.csv", "comparison.csv"):
        lines = (out / name).read_text().splitlines()
        cells = lines[1].split(",")
        cells[5] = "oops"
        lines[1] = ",".join(cells)
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
    stats, table = out / "stats.csv", tmp_path / "comparison.csv"
    for argv in (["compare", "--stats", str(tmp_path / "stats.csv"),
                  "--alternative", "newtonian_fit1",
                  "--out", str(tmp_path / "again.csv")],
                 ["report", "--stats", str(stats), "--comparison",
                  str(table), "--out", str(tmp_path / "report")]):
        assert main(argv) == 2, f"{argv[0]} accepted a malformed CSV"
        assert "oops" in capsys.readouterr().err


def drop_column(source, column, target):
    rows = read_rows(source)
    with open(target, "w", newline="") as fh:
        writer = csv.DictWriter(fh, [c for c in rows[0] if c != column],
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def test_stage_input_without_a_column_exits_2(demo, tmp_path, capsys):
    # a table lacking a column is rejected by name, never a KeyError
    _, out = demo
    stats, table = tmp_path / "stats.csv", tmp_path / "comparison.csv"
    drop_column(out / "stats.csv", "count", stats)
    drop_column(out / "comparison.csv", "alternative_model", table)
    for argv, path, column in (
            (["compare", "--stats", str(stats), "--alternative",
              "newtonian_fit1", "--out", str(tmp_path / "again.csv")],
             stats, "count"),
            (["report", "--stats", str(stats), "--out",
              str(tmp_path / "report")], stats, "count"),
            (["report", "--stats", str(out / "stats.csv"), "--comparison",
              str(table), "--out", str(tmp_path / "report")],
             table, "alternative_model")):
        assert main(argv) == 2, f"{argv[0]} accepted {path.name} " \
            f"without {column}"
        err = capsys.readouterr().err
        assert str(path) in err and repr(column) in err


def test_a_frame_without_rows_exits_2(demo, tmp_path, capsys):
    # compare and report agree: a --frame the stats do not hold is bad
    # input, not a report that silently drops its per-frame tables
    _, out = demo
    stats = str(out / "stats.csv")
    for argv in (["compare", "--stats", stats, "--alternative",
                  "newtonian_fit1", "--frame", "99",
                  "--out", str(tmp_path / "again.csv")],
                 ["report", "--stats", stats, "--frame", "99",
                  "--out", str(tmp_path / "report")]):
        assert main(argv) == 2, f"{argv[0]} accepted --frame 99"
        err = capsys.readouterr().err
        assert stats in err and "frame 99" in err
    assert not (tmp_path / "report" / "report.md").exists()


# =========================================================================
# Config validation and exit codes
# =========================================================================

def test_unknown_config_key_is_named(tmp_path, capsys):
    # a misspelt key, and two keys that were removed because nothing read
    # them: each must be rejected by name, never silently ignored
    config = tmp_path / "bad.ini"
    for section, key, value in (("noise", "sigmafraction", "0.1"),
                                ("rheology", "shear_floor", "0.1"),
                                ("rheology", "literature_pa_s", "3.0e-3"),
                                ("sequence", "time_spacing_ms", "32.0")):
        config.write_text(f"[{section}]\n{key} = {value}\n")
        rc = main(["run", "--config", str(config), "--out",
                   str(tmp_path / "out")])
        assert rc == 2, f"[{section}] {key} was accepted"
        message = capsys.readouterr().err
        assert key in message, "error must name the unknown key"


def test_unknown_config_section_is_named(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[noize]\nseed = 1\n")
    rc = main(["run", "--config", str(config), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert "noize" in capsys.readouterr().err


def test_missing_mesh_file_fails_validation(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[paths]\nmesh = /no/such/mesh.vtk\n")
    rc = main(["run", "--config", str(config), "--out",
               str(tmp_path / "out")])
    assert rc == 2


def test_unknown_model_name_fails_validation(tmp_path, capsys):
    # a literature viscosity that is not finite and positive is rejected
    # at config load, before any phase is synthesized
    config = tmp_path / "bad.ini"
    out = tmp_path / "out"
    for name in ("casson", "literature_-1e-3", "literature_0",
                 "literature_nan", "literature_inf"):
        config.write_text("[flow]\ncardiac_phases = 2\n"
                          f"[comparison]\nmodels = {name}\n")
        rc = main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 2, f"model {name} was accepted"
        assert name in capsys.readouterr().err
        assert not list(out.glob("kspace_*")), \
            f"model {name} was rejected only after synthesis"


def test_bad_segment_cuts_fail_at_config_load(tmp_path, capsys):
    # equal cuts leave an empty segment and a cut past the 0.1 m pipe
    # leaves the last one empty: both are config errors, found before
    # any phase is synthesized
    config = tmp_path / "bad.ini"
    out = tmp_path / "out"
    for cuts in ("0.025, 0.05, 0.05", "0.025, 0.05, 0.2"):
        config.write_text("[flow]\ncardiac_phases = 2\n"
                          f"[segments]\ncuts_m = {cuts}\n")
        rc = main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 2, f"cuts {cuts} were accepted"
        assert "cuts_m" in capsys.readouterr().err
        assert not list(out.glob("kspace_*")), \
            f"cuts {cuts} were rejected only after synthesis"


def test_unsupported_quadrature_fails_at_config_load(tmp_path, capsys):
    # the rule is checked against the synthesis rule table when the
    # config loads, so no stage writes anything
    config = tmp_path / "bad.ini"
    config.write_text("[flow]\ncardiac_phases = 2\n"
                      "[sequence]\nquadrature = 7\n")
    for command in ("run", "synth-mri"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out",
                     str(out)]) == 2, f"{command} accepted quadrature 7"
        err = capsys.readouterr().err
        assert "quadrature 7" in err and "[4, 11]" in err
        assert not out.exists(), f"{command} wrote before the check"


def save_pipe(length, path):
    save_mesh(generate_pipe_mesh(0.01, length, resolution=0), path)


def test_loaded_pipe_sets_the_flow_plane(tmp_path):
    # the flow plane sits in the middle of the loaded pipe, not of the
    # [pipe] length_m it was not generated from: a saved 0.05 m pipe
    # gives the generated 0.05 m pipe's artifacts
    save_pipe(0.05, tmp_path / "short.vtk")
    common = ("[flow]\ncardiac_phases = 2\n"
              "[segments]\ncuts_m = 0.0125, 0.025, 0.0375\n")
    runs = {"generated": "[pipe]\nlength_m = 0.05\n",
            "loaded": f"[paths]\nmesh = {tmp_path / 'short.vtk'}\n"}
    for name, extra in runs.items():
        config = tmp_path / f"{name}.ini"
        config.write_text(common + extra)
        assert main(["run", "--config", str(config), "--out",
                     str(tmp_path / name)]) == 0, f"{name} run failed"
    for artifact in ("flow.csv", "stats.csv", "comparison.csv",
                     "fields_systole.vtk"):
        assert (tmp_path / "generated" / artifact).read_bytes() == \
            (tmp_path / "loaded" / artifact).read_bytes(), artifact


def test_loaded_mesh_cuts_fail_before_synthesis(tmp_path, capsys):
    # a cut past the end of a loaded 0.08 m pipe is found at stage mesh,
    # not after every phase is synthesized
    save_pipe(0.08, tmp_path / "pipe.vtk")
    config = tmp_path / "bad.ini"
    config.write_text(f"[paths]\nmesh = {tmp_path / 'pipe.vtk'}\n"
                      "[flow]\ncardiac_phases = 2\n"
                      "[segments]\ncuts_m = 0.02, 0.05, 0.09\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[stage mesh]" in err and "cuts_m" in err
    assert not out.exists(), "files written before the check"


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_mesh_file_exits_2_at_stage_mesh(tmp_path, capsys, case):
    # a mesh file load_mesh refuses is bad input, named with its stage
    # and path, and nothing is written
    mesh = tmp_path / "bad.vtk"
    malformed_pipe(mesh, case)
    config = tmp_path / "bad.ini"
    config.write_text(f"[paths]\nmesh = {mesh}\n[flow]\ncardiac_phases = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[stage mesh]" in err and str(mesh) in err
    assert not out.exists(), "files written before the mesh was accepted"


def test_mesh_without_pipe_geometry_exits_2_before_synthesis(demo, tmp_path,
                                                          capsys):
    # a saved box spans the cuts and the image grid but carries no pipe
    # geometry for the flow stage: run and synth-mri refuse it as bad
    # input at stage mesh; estimate makes no flow and takes it
    box = generate_box_mesh((0.01, 0.01, 0.08), (2, 2, 8),
                            center=(0.0, 0.0, 0.05))
    save_mesh(box, tmp_path / "box.vtk")
    config = tmp_path / "box.ini"
    config.write_text(f"[paths]\nmesh = {tmp_path / 'box.vtk'}\n"
                      "[flow]\ncardiac_phases = 2\n")
    for command in ("run", "synth-mri"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out",
                     str(out)]) == 2, f"{command} accepted the box"
        assert "no pipe geometry" in capsys.readouterr().err
        assert not out.exists(), f"{command} wrote before the check"
    _, images = demo
    assert main(["estimate", "--images", str(images), "--config",
                 str(config), "--out", str(tmp_path / "estimate")]) == 0


def test_fields_systole_decodes_with_numpy_alone(demo):
    # the run's field file is the generated pipe, then the six fields of
    # stage estimate, each a block of finite big-endian doubles; it loads
    # as that pipe
    _, run = demo
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=0)
    data = (run / "fields_systole.vtk").read_bytes()
    sections = decode_binary_vtk(data)
    assert_mesh_sections(sections, pipe)
    fields = {name: sections[name] for name in list(sections)[5:]}
    assert list(fields) == ["velocity", "wss_vector", "wss_mag", "osi",
                            "el_rate", "mu_apparent"]
    for name, values in fields.items():
        width = (3,) if name in ("velocity", "wss_vector") else ()
        assert values.shape == (pipe.n_vertices, *width), name
        assert np.isfinite(values).all(), name
    assert (fields["wss_mag"] > 0).any() and (fields["mu_apparent"] > 0).all()
    loaded = load_mesh(run / "fields_systole.vtk")
    assert np.array_equal(loaded.vertices, pipe.vertices)
    assert np.array_equal(loaded.tets, pipe.tets)


def test_out_of_range_hematocrit_exits_2(tmp_path, capsys):
    # the base curves span 20-70 % hematocrit: a target outside them is
    # bad input (exit 2), not a numerical failure (exit 3)
    config = tmp_path / "bad.ini"
    config.write_text("[rheology]\nhct = 80\n")
    for argv in (["run", "--config", str(config), "--out",
                  str(tmp_path / "out")],
                 ["fit-rheology", "--hct", "80"]):
        assert main(argv) == 2, f"{argv[0]} did not exit 2"
        assert "hematocrit 80" in capsys.readouterr().err


def test_infeasible_sequence_exits_3(tmp_path, capsys):
    config = tmp_path / "hot.ini"
    config.write_text("[sequence]\nadc_bandwidth_khz = 2000\n"
                      "[flow]\ncardiac_phases = 2\n")
    rc = main(["run", "--config", str(config), "--out",
               str(tmp_path / "out")])
    assert rc == 3
    assert "[stage mri]" in capsys.readouterr().err


def test_mesh_outside_the_image_grid_exits_2_before_synthesis(tmp_path,
                                                              capsys):
    config = tmp_path / "long.ini"
    config.write_text(LONG_PIPE)
    for command in ("run", "synth-mri"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out",
                     str(out)]) == 2, f"{command} accepted the long pipe"
        err = capsys.readouterr().err
        assert "exceeds the voxel grid" in err and "[stage mesh]" in err
        assert not out.exists(), f"{command} wrote before the check"


def copy_phases(run, kind, phases, target):
    """The ``kind`` sidecars and payloads of ``phases`` of a run, copied
    into the new directory ``target``."""
    target.mkdir()
    for phase in phases:
        for path in run.glob(f"{kind}_phase{phase:03d}.*"):
            shutil.copyfile(path, target / path.name)
    return str(target)


def nan_kspace(run, target):
    source = copy_phases(run, "kspace", range(4), target)
    with open(target / "kspace_phase003.bin", "r+b") as fh:
        fh.write(np.complex64(complex(np.nan, 0.0)).tobytes())
    return source


def config_file(tmp_path, text):
    path = tmp_path / "case.ini"
    path.write_text(text)
    return str(path)


HOT_SEQUENCE = "[sequence]\nadc_bandwidth_khz = 2000\n" \
    "[flow]\ncardiac_phases = 2\n"
HCT_80 = "[rheology]\nhct = 80\n[flow]\ncardiac_phases = 2\n"

# command, refused input -> (exit code, failing stage, arguments before
# --out, built from the demo run and a scratch directory); no stage is a
# config error, named by its key
REFUSED_INPUT = {
    ("synth-mri", "long pipe"): (2, "mesh", lambda run, tmp: [
        "--config", config_file(tmp, LONG_PIPE)]),
    ("synth-mri", "hct 80"): (2, None, lambda run, tmp: [
        "--config", config_file(tmp, HCT_80)]),
    ("estimate", "hct 80"): (2, None, lambda run, tmp: [
        "--images", str(run), "--config", config_file(tmp, HCT_80)]),
    ("estimate", "long pipe"): (2, "estimate", lambda run, tmp: [
        "--images", str(run), "--config", config_file(tmp, LONG_PIPE)]),
    ("estimate", "one phase"): (2, "estimate", lambda run, tmp: [
        "--images", copy_phases(run, "images", [0], tmp / "one")]),
    ("reconstruct", "NaN k-space"): (2, "reconstruct", lambda run, tmp: [
        "--kspace", nan_kspace(run, tmp / "nan")]),
    ("report", "missing stats"): (2, "report", lambda run, tmp: [
        "--stats", str(tmp / "nosuch.csv")]),
    ("synth-mri", "infeasible sequence"): (3, "mri", lambda run, tmp: [
        "--config", config_file(tmp, HOT_SEQUENCE)]),
    ("compare", "missing output directory"): (2, "compare", lambda run, tmp: [
        "--stats", str(run / "stats.csv"), "--alternative", "newtonian_fit1"]),
}


@pytest.mark.parametrize("command, case", list(REFUSED_INPUT),
                         ids=[" / ".join(key) for key in REFUSED_INPUT])
def test_refused_input_names_one_stage_and_writes_nothing(
        demo, tmp_path, capsys, command, case):
    # every command labels a failure with its stage, once, and a config
    # error with its key alone; bad input (exit 2) leaves no output
    # directory, while a numerical failure (exit 3) keeps what the stages
    # before it wrote
    code, stage, arguments = REFUSED_INPUT[command, case]
    _, run = demo
    out = tmp_path / "out"
    # compare writes one file, here into the directory that must not appear
    target = out / "comparison.csv" if command == "compare" else out
    argv = [command, *arguments(run, tmp_path), "--out", str(target)]
    assert main(argv) == code, f"{command} on {case}: wrong exit code"
    err = capsys.readouterr().err
    if stage is None:
        assert "[stage " not in err and "[rheology] hct" in err, err
    else:
        assert err.count("[stage ") == 1 and f"[stage {stage}] " in err, err
    if code == 2:
        assert not out.exists(), f"{command} on {case} made {out.name}"
    else:
        assert (out / "flow.csv").is_file(), "pre-failure artifacts remain"


def with_param(key, value):
    """A sidecar edit that sets one of its sequence parameters."""
    return lambda sidecar: {**sidecar,
                            "params": {**sidecar["params"], key: value}}


# a bad entry in the sidecar of phase 1 of 4 -> (command, container,
# the edited sidecar)
BAD_SIDECARS = {
    "encodes empty": ("reconstruct", "kspace",
                      lambda sidecar: {**sidecar, "encodes": []}),
    "encodes a number": ("reconstruct", "kspace",
                         lambda sidecar: {**sidecar, "encodes": 3}),
    "a list": ("reconstruct", "kspace", lambda sidecar: [1, 2]),
    "frame_time a string": ("estimate", "images",
                            lambda sidecar: {**sidecar, "frame_time": "abc"}),
    "frame_time NaN": ("estimate", "images",
                       lambda sidecar: {**sidecar, "frame_time": np.nan}),
    "matrix 11.0": ("reconstruct", "kspace",
                    with_param("matrix", [11.0, 11, 36])),
    "voxel NaN": ("reconstruct", "kspace",
                  with_param("voxel", [np.nan, 0.003, 0.003])),
    "fov_center inf": ("reconstruct", "kspace",
                       with_param("fov_center", [0.0, 0.0, np.inf])),
}


@pytest.mark.parametrize("case", list(BAD_SIDECARS))
def test_bad_sidecar_entry_exits_2_naming_the_file(demo, tmp_path, capsys,
                                                   case):
    command, kind, edit = BAD_SIDECARS[case]
    config, run = demo
    source = tmp_path / kind
    copy_phases(run, kind, range(4), source)
    sidecar = source / f"{kind}_phase001.json"
    sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    out = tmp_path / "out"
    argv = [command, f"--{kind}", str(source), "--out", str(out)]
    if command == "estimate":
        argv += ["--config", str(config)]
    assert main(argv) == 2, f"{command} took a sidecar with {case}"
    err = capsys.readouterr().err
    assert f"[stage {command}] {sidecar}: " in err, err
    assert not out.exists(), f"{command} made {out.name}"


def test_kspace_naming_no_encode_exits_2_and_writes_nothing(demo, tmp_path,
                                                            capsys):
    # an empty payload is the size that no encode implies, so only the
    # sidecar step can refuse it, before any image is written
    _, run = demo
    source = tmp_path / "kspace"
    copy_phases(run, "kspace", range(4), source)
    sidecar = source / "kspace_phase000.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                   "encodes": []}))
    sidecar.with_suffix(".bin").write_bytes(b"")
    out = tmp_path / "out"
    assert main(["reconstruct", "--kspace", str(source), "--out",
                 str(out)]) == 2
    assert f"[stage reconstruct] {sidecar}: encodes [] name no encode" \
        in capsys.readouterr().err
    assert not out.exists(), "reconstruct made its output directory"


def add_entries(sidecar_path, after, **entries):
    """Put ``entries`` into a sidecar right after its entry ``after``."""
    sidecar, written = json.loads(sidecar_path.read_text()), {}
    for key, value in sidecar.items():
        written[key] = value
        if key == after:
            written.update(entries)
    sidecar_path.write_text(json.dumps(written, indent=2) + "\n")


def test_sidecars_of_the_earlier_format_give_the_same_images_and_stats(
        demo, tmp_path):
    # earlier versions also wrote each grid's shape, and k-space its
    # sample times; both follow from the sequence parameters, are
    # ignored, and the chain's bytes hold
    config, run = demo
    kspace, recon = tmp_path / "kspace", tmp_path / "recon"
    copy_phases(run, "kspace", range(4), kspace)
    for path in kspace.glob("*.json"):
        params = load_kspace(path).params
        add_entries(path, "encodes", dims=[params.acquired_readout,
                                           *params.matrix[1:]])
        add_entries(path, "params", sample_times=sequence_timings(
            params).sample_times.tolist())
    assert main(["reconstruct", "--kspace", str(kspace), "--out",
                 str(recon)]) == 0
    for path in recon.glob("*.json"):
        add_entries(path, "encodes",
                    dims=json.loads(path.read_text())["params"]["matrix"])
    out = tmp_path / "estimate"
    assert main(["estimate", "--images", str(recon), "--config", str(config),
                 "--out", str(out)]) == 0
    assert len(list(recon.glob("*.bin"))) == 4
    for path in recon.glob("*.bin"):
        assert path.read_bytes() == (run / path.name).read_bytes(), path.name
    for name in ("stats.csv", "fields_systole.vtk"):
        assert (out / name).read_bytes() == (run / name).read_bytes(), name


def test_estimate_refuses_images_on_two_grids(tmp_path, capsys):
    # phase 0 of a 2-phase acquisition beside phase 1 of one whose field
    # of view is moved 1 mm along the pipe: both grids cover the pipe,
    # but the phases must share one grid
    two = config_file(tmp_path, "[flow]\ncardiac_phases = 2\n")
    moved = tmp_path / "moved.ini"
    moved.write_text("[flow]\ncardiac_phases = 2\n"
                     "[sequence]\nfov_center_mm = 0, 0, 51\n")
    for config, out in ((two, "synth"), (str(moved), "moved")):
        assert main(["synth-mri", "--config", config, "--out",
                     str(tmp_path / out)]) == 0
    images = tmp_path / "mixed"
    copy_phases(tmp_path / "synth", "images", [0], images)
    for path in (tmp_path / "moved").glob("images_phase001.*"):
        shutil.copyfile(path, images / path.name)
    out = tmp_path / "estimate"
    assert main(["estimate", "--images", str(images), "--config", two,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[stage estimate] " in err and "one image grid" in err, err
    assert not out.exists()


def assert_estimate_refuses_unread(monkeypatch, capsys, images, config, out,
                                  message):
    """``hemoflow estimate`` exits 2 with ``[stage estimate] message``
    before it reads any image payload, and makes no ``out``."""
    reads = []
    monkeypatch.setattr("hemoflow.pipeline.load_images",
                        lambda path: reads.append(path))
    assert main(["estimate", "--images", str(images), "--config", config,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"[stage estimate] {message}" in err, err
    assert reads == [], "estimate read images it then refused"
    assert not out.exists()


def test_estimate_refuses_a_period_its_frames_span_before_reading_images(
        demo, tmp_path, capsys, monkeypatch):
    # the demo's 4 frames span 0.703 s of its 0.937 s period; against a
    # 0.4 s period they span more than one, which the sidecars' frame
    # times show before any payload is read
    _, run = demo
    assert_estimate_refuses_unread(
        monkeypatch, capsys, run,
        config_file(tmp_path, "[flow]\ncardiac_period_s = 0.4\n"),
        tmp_path / "out", "frames must span less than one period")


def test_estimate_refuses_a_period_its_frame_times_contradict(
        demo, tmp_path, capsys, monkeypatch):
    # the demo's 4 frames lie at k/4 of its 0.937 s period. A 1.5 s
    # period leaves them within one period, but stage flow puts 4 phases
    # of it elsewhere, and OSI would read the cycle wrong without a word;
    # a subset of the phases shows no period and is estimated
    _, run = demo
    config = config_file(tmp_path, FAST_CONFIG.replace(
        "[flow]\n", "[flow]\ncardiac_period_s = 1.5\n"))
    assert_estimate_refuses_unread(
        monkeypatch, capsys, run, config, tmp_path / "out",
        "the 4 frame times are not those of a 1.5 s period "
        "([flow] cardiac_period_s)")
    monkeypatch.undo()
    subset = copy_phases(run, "images", range(3), tmp_path / "subset")
    assert main(["estimate", "--images", subset, "--config", config,
                 "--out", str(tmp_path / "subset_out")]) == 0


def test_estimate_refuses_an_uncovered_mesh_before_reading_images(
        demo, tmp_path, capsys, monkeypatch):
    # the trilinear weights are built from the sidecars' grid before the
    # first phase is read, and building them checks coverage
    _, run = demo
    assert_estimate_refuses_unread(
        monkeypatch, capsys, run, config_file(tmp_path, LONG_PIPE),
        tmp_path / "out", "mesh extent [0, 0.12] exceeds the voxel grid")


FLOAT_KEYS = [
    ("pipe", "radius_m"), ("pipe", "length_m"), ("rheology", "hct"),
    ("rheology", "fit1_range"), ("rheology", "fit2_range"),
    ("flow", "pressure_drop_pa"), ("flow", "cardiac_period_s"),
    *(("sequence", key) for key in (
        "venc_m_s", "matrix", "voxel_mm", "t2_star_ms", "adc_bandwidth_khz",
        "slew_rate_t_m_s", "max_gradient_mt_m", "fov_center_mm")),
    ("noise", "sigma_fraction"), ("segments", "cuts_m"),
    *(("windkessel", key) for key in (
        "proximal_resistance_cgs", "distal_resistance_cgs",
        "compliance_cgs", "initial_pressure_mmhg")),
]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS,
                         ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_config_number_exits_2_naming_the_key(
        tmp_path, capsys, section, key, bad):
    # the last value of a list key is the bad one
    values = DEFAULTS[section][key].split(",")
    values[-1] = bad
    config = config_file(tmp_path, f"[{section}]\n{key} = "
                         f"{', '.join(v.strip() for v in values)}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 2
    assert f"[{section}] {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_config_integers_and_seed_are_refused_by_key(tmp_path, capsys):
    # a seed below 0, from the file or --seed, a fractional phase count,
    # one phase, no windkessel cycle, fewer than 4 RK4 steps per cycle
    # and a hematocrit of NaN from --hct are config errors, each named by
    # its key and found before anything is written
    out = tmp_path / "out"
    for argv, text, named in (
            (["run"], "[noise]\nseed = -1\n", "[noise] seed"),
            (["synth-mri", "--seed", "-1"], "", "[noise] seed"),
            (["run"], "[flow]\ncardiac_phases = 2.5\n",
             "[flow] cardiac_phases"),
            (["run"], "[flow]\ncardiac_phases = 1\n",
             "[flow] cardiac_phases"),
            (["synth-mri"], "[flow]\ncardiac_phases = 0\n",
             "[flow] cardiac_phases"),
            (["run"], "[windkessel]\ncycles = 0\n", "[windkessel] cycles"),
            (["run"], "[windkessel]\nsteps_per_cycle = 3\n",
             "[windkessel] steps_per_cycle"),
            (["fit-rheology", "--hct", "nan"], "", "[rheology] hct")):
        argv += ["--config", config_file(tmp_path, text)]
        if argv[0] != "fit-rheology":
            argv += ["--out", str(out)]
        assert main(argv) == 2, f"{argv} was accepted"
        assert named in capsys.readouterr().err
        assert not out.exists()


OUT_OF_RANGE = [("flow", "pressure_drop_pa", "-1"),
                ("flow", "cardiac_period_s", "-0.5"),
                ("noise", "sigma_fraction", "-0.1"),
                ("sequence", "matrix", "11.5, 11, 36"),
                ("sequence", "venc_m_s", "-1"),
                ("sequence", "t2_star_ms", "0"),
                ("sequence", "adc_bandwidth_khz", "-64"),
                ("sequence", "slew_rate_t_m_s", "0"),
                ("sequence", "max_gradient_mt_m", "-30"),
                ("sequence", "oversampling", "0"),
                ("sequence", "matrix", "11, 1, 36"),
                ("sequence", "voxel_mm", "3, 0, 3"),
                ("windkessel", "proximal_resistance_cgs", "-1"),
                ("windkessel", "distal_resistance_cgs", "0"),
                ("windkessel", "compliance_cgs", "-5.08e-4")]


def case_ids(cases):
    """``section.key`` per case; a key that comes again adds its value."""
    ids = []
    for section, key, value in cases:
        name = f"{section}.{key}"
        ids.append(f"{name}={value.replace(' ', '')}" if name in ids else name)
    return ids


@pytest.mark.parametrize("command", ["run", "synth-mri"])
@pytest.mark.parametrize("section, key, value", OUT_OF_RANGE,
                         ids=case_ids(OUT_OF_RANGE))
def test_out_of_range_config_values_are_refused_at_load(
        tmp_path, capsys, command, section, key, value):
    # a stage would refuse these only after earlier stages wrote files
    # (or, for a fractional matrix entry, truncate it silently); the
    # acquisition and windkessel parameters refuse them too, but without
    # naming the key
    config = config_file(tmp_path, f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not out.exists()


# refused by a rule table, the model names, a rule across values, the
# file system or the bound of a key whose stage refuses it too
LOAD_REFUSALS = [("sequence", "quadrature", "7"),
                 ("comparison", "models", "casson"),
                 ("comparison", "reference", "literature_0"),
                 ("segments", "cuts_m", "0.05, 0.025"),
                 ("segments", "cuts_m", "0.025, 0.05, 0.2"),
                 ("paths", "mesh", "/no/such.vtk"),
                 ("pipe", "radius_m", "-1"),
                 ("pipe", "length_m", "0"),
                 ("pipe", "resolution", "9"),
                 ("pipe", "resolution", "-1"),
                 ("rheology", "hct", "10"),
                 ("rheology", "fit1_range", "123, 12"),
                 ("rheology", "fit2_range", "-5, 10")]


@pytest.mark.parametrize("section, key, value", LOAD_REFUSALS,
                         ids=case_ids(LOAD_REFUSALS))
def test_every_refusal_at_config_load_names_its_key(
        tmp_path, capsys, section, key, value):
    config = config_file(tmp_path, f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 2
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not out.exists()


def test_partial_outputs_retained_on_stage_failure(tmp_path):
    config = tmp_path / "hot.ini"
    config.write_text("[sequence]\nadc_bandwidth_khz = 2000\n"
                      "[flow]\ncardiac_phases = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert (out / "flow.csv").is_file(), "pre-failure artifacts must remain"


def test_init_demo_writes_loadable_config(tmp_path):
    target = tmp_path / "demo.ini"
    assert main(["init-demo", "--out", str(target)]) == 0
    cfg = load_config(target)
    assert cfg.hct == 45.0
    assert cfg.sequence.matrix == (11, 11, 36)
    assert main(["init-demo", "--out", str(target)]) == 2  # refuses overwrite
    assert main(["init-demo", "--out", str(target), "--force"]) == 0


def test_config_defaults_match_rendered_demo(tmp_path):
    target = tmp_path / "demo.ini"
    main(["init-demo", "--out", str(target)])
    assert load_config(target).text == load_config(None).text


# The stage that reads each section's keys; a changed key that a run
# refuses must be refused there.
SECTION_STAGES = {"pipe": "mesh", "rheology": "rheology", "flow": "flow",
                  "sequence": "mri", "noise": "mri", "segments": "estimate",
                  "windkessel": "windkessel", "comparison": "compare"}
# keys that name a rule or a model: another accepted name
SWAPPED_VALUES = {("sequence", "quadrature"): "11",
                  ("comparison", "reference"): "newtonian_fit1",
                  ("comparison", "models"): "newtonian_fit2"}
TWO_PHASES = {"flow": {"cardiac_phases": "2"}}
# [paths] is left out: output_dir only names the directory, which --out
# overrides, and mesh needs a mesh file (test_loaded_pipe_sets_the_flow_plane
# and the CI console-script step run saved meshes)
LIVE_KEYS = [(section, key) for section, keys in DEFAULTS.items()
             if section != "paths" for key in keys]


def perturbed(section, key, text):
    """Another accepted value: a name swapped, each integer of the value
    plus 1, each other number plus 10%."""
    if (section, key) in SWAPPED_VALUES:
        return SWAPPED_VALUES[section, key]
    parts = [part.strip() for part in text.split(",")]
    return ", ".join(str(int(part) + 1) if part.isdigit()
                     else repr(float(part) * 1.1) for part in parts)


def run_artifacts(out):
    return {path.name: path.read_bytes() for path in out.iterdir()
            if path.name not in ("config.ini", "manifest.json")}


@pytest.fixture(scope="module")
def two_phase_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_phase")
    (root / "two.ini").write_text(render_config(TWO_PHASES))
    assert main(["run", "--config", str(root / "two.ini"),
                 "--out", str(root / "run")]) == 0
    return run_artifacts(root / "run")


@pytest.mark.parametrize("section, key", LIVE_KEYS,
                         ids=[f"{s}.{k}" for s, k in LIVE_KEYS])
def test_every_config_key_changes_the_run_or_is_refused(
        two_phase_artifacts, tmp_path, capsys, section, key):
    # a key that nothing reads would leave every artifact as it was
    values = {name: dict(keys) for name, keys in TWO_PHASES.items()}
    text = values.get(section, {}).get(key, DEFAULTS[section][key])
    values.setdefault(section, {})[key] = perturbed(section, key, text)
    (tmp_path / "changed.ini").write_text(render_config(values))
    out = tmp_path / "run"
    code = main(["run", "--config", str(tmp_path / "changed.ini"),
                 "--out", str(out)])
    if code == 2:
        err = capsys.readouterr().err
        assert f"[stage {SECTION_STAGES[section]}] " in err, err
    else:
        assert code == 0
        assert run_artifacts(out) != two_phase_artifacts, \
            f"[{section}] {key} = {values[section][key]} changed no artifact"


def number(low, high):
    return st.floats(low, high).map(repr)


def triple(values):
    return st.lists(values, min_size=3, max_size=3).map(
        lambda v: ", ".join(map(repr, v)))


MODEL_NAMES = st.one_of(
    st.sampled_from(["power_law", "newtonian_fit1", "newtonian_fit2"]),
    st.floats(1e-4, 1e-1).map(lambda mu: f"literature_{mu!r}"))

CONFIG_VALUES = st.fixed_dictionaries({
    ("pipe", "radius_m"): number(1e-3, 0.05),
    ("pipe", "length_m"): number(0.01, 0.5),
    ("pipe", "resolution"): st.integers(0, 3).map(str),
    ("rheology", "hct"): number(20.0, 70.0),
    ("flow", "pressure_drop_pa"): number(0.1, 100.0),
    ("flow", "cardiac_period_s"): number(0.3, 2.0),
    ("flow", "cardiac_phases"): st.integers(2, 40).map(str),
    ("sequence", "venc_m_s"): number(0.1, 5.0),
    ("sequence", "matrix"): triple(st.integers(2, 128)),
    ("sequence", "voxel_mm"): triple(st.floats(0.5, 5.0)),
    ("sequence", "fov_center_mm"): triple(st.floats(-100.0, 100.0)),
    ("sequence", "quadrature"): st.sampled_from(["4", "11"]),
    ("noise", "sigma_fraction"): number(0.0, 0.1),
    ("noise", "seed"): st.integers(0, 2**31 - 1).map(str),
    ("windkessel", "compliance_cgs"): number(1e-5, 1e-2),
    ("comparison", "reference"): MODEL_NAMES,
    ("comparison", "models"): st.lists(MODEL_NAMES, min_size=1,
                                       max_size=3).map(", ".join),
}).flatmap(lambda values: st.lists(
    st.integers(1, 99), min_size=1, max_size=5, unique=True).map(
    # cuts increase strictly inside the generated pipe
    lambda ks: {**values, ("segments", "cuts_m"): ", ".join(
        repr(k / 100 * float(values[("pipe", "length_m")]))
        for k in sorted(ks))}))


@settings(max_examples=50, deadline=None)
@given(overrides=CONFIG_VALUES)
def test_config_survives_render_and_load(overrides):
    """A config's rendered text loads back to the same config."""
    cfg = load_config(overrides=overrides)
    sections = {}
    for (section, key), value in overrides.items():
        sections.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.ini"
        path.write_text(render_config(sections))
        assert load_config(path) == cfg
        path.write_text(cfg.text)
        assert load_config(path) == cfg


def test_load_config_rejects_bad_values(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[pipe]\nradius_m = wide\n")
    with pytest.raises(ValidationError):
        load_config(config)
