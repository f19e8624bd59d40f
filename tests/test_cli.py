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
from hemoflow.pipeline import render_config

FAST_CONFIG = """\
[flow]
cardiac_phases = 4

[noise]
seed = 77
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
            assert not list(target.glob("*")), \
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
    ("sequence", "quadrature"): st.sampled_from(["1", "4", "11"]),
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
