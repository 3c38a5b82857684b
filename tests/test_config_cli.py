"""Tests for the run-config parser, experiment persistence and the CLI."""

import copy
import json
import shutil

import numpy as np
import pytest

from hydrostat import experiments
from hydrostat.cli import main
from hydrostat.config import parse_config, with_overrides
from hydrostat.decomposition import prepare_initial_parts, run_decomposition
from hydrostat.diagnostics import DiagnosticsSeries
from hydrostat.errors import ConfigError
from hydrostat.experiments import (exp_stability, load_manifest,
                                   manifest_core_bytes, reconstruct_verdicts,
                                   run_experiment)
from hydrostat.io import write_snapshot

SMALL_ENERGY = """
[grid]
nx = 16
ny = 16
nz = 16
[time]
dt = 2e-3
t_end = 0.02
[initial_data]
kind = analytic
expression_u = 0
expression_v = cos(2*pi*x)
epsilon = 0
[experiment]
kind = energy_identity
[output]
directory = {out}
seed = 5
"""

SMALL_LEMMAS = """
[grid]
nx = 8
ny = 8
nz = 8
[experiment]
kind = lemma_suite
moser_count = 20
ladyzhenskaya_count = 2
[output]
directory = {out}
seed = 5
"""

SMALL_DECOMP = """
[grid]
nx = 16
ny = 16
nz = 16
[time]
dt = 2e-3
t_end = 0.01
[experiment]
kind = decomposition
[output]
directory = {out}
seed = 5
"""

SMALL_STABILITY = """
[grid]
nx = 16
ny = 16
nz = 16
[time]
dt = 2e-3
t_end = 0.01
[experiment]
kind = stability
[output]
directory = {out}
seed = 5
"""

SMALL_MOLLIFICATION = """
[grid]
nx = 16
ny = 16
nz = 16
[time]
dt = 2e-3
t_end = 0.004
[experiment]
kind = mollification
epsilons = 0.2, 0.1, 0.05
sample_count = 1
[output]
directory = {out}
seed = 5
"""

SMALL_BY_KIND = {
    "energy_identity": SMALL_ENERGY,
    "decomposition": SMALL_DECOMP,
    "stability": SMALL_STABILITY,
    "mollification": SMALL_MOLLIFICATION,
    "lemma_suite": SMALL_LEMMAS,
}


@pytest.fixture(scope="module")
def decomp_run(tmp_path_factory):
    """One small decomposition run directory, copied by tests that alter it."""
    out = tmp_path_factory.mktemp("decomp") / "run"
    run_experiment(parse_config(text=SMALL_DECOMP.format(out=out)))
    return out


class TestConfigParsing:
    def test_defaults_fill_missing_sections(self):
        cfg = parse_config(text="[experiment]\nkind = lemma_suite\n")
        assert cfg.grid_nx == 32 and cfg.h == 0.5
        assert cfg.experiment == "lemma_suite"

    def test_hash_stable_under_reordering(self):
        a = parse_config(text="[grid]\nnx = 16\nny = 16\nnz = 16\n")
        b = parse_config(text="[grid]\nnz = 16\nnx = 16\nny = 16\n")
        assert a.config_hash == b.config_hash

    def test_hash_sensitive_to_values(self):
        a = parse_config(text="[physics]\nf0 = 0.0\n")
        b = parse_config(text="[physics]\nf0 = 1.0\n")
        assert a.config_hash != b.config_hash

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(text="[grid]\nresolution = 32\n")
        with pytest.raises(ConfigError):
            parse_config(text="[mystery]\nx = 1\n")

    def test_module_invariants_checked_at_load(self):
        with pytest.raises(ConfigError):
            parse_config(text="[grid]\nnx = 12\nny = 16\nnz = 7\n")
        with pytest.raises(ConfigError):
            parse_config(text="[initial_data]\neta = 0.9\n")   # > h
        with pytest.raises(ConfigError):
            parse_config(text="[time]\ndt = -1e-3\n")

    def test_mollification_needs_a_ladder(self):
        with pytest.raises(ConfigError):
            parse_config(text="[experiment]\nkind = mollification\nepsilons = 0.2\n")

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("HYDROSTAT_THREADS", "3")
        cfg = parse_config(text="[experiment]\nkind = lemma_suite\n")
        assert cfg.threads == 3

    def test_overrides(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nkind = lemma_suite\n")
        cfg = with_overrides(path, out=tmp_path / "o", seed=99, threads=2)
        assert cfg.seed == 99 and cfg.threads == 2
        assert cfg.directory == str(tmp_path / "o")


class TestRunPersistence:
    def test_manifest_and_files(self, tmp_path):
        cfg = parse_config(text=SMALL_ENERGY.format(out=tmp_path / "run"))
        report, manifest = run_experiment(cfg)
        assert (tmp_path / "run" / "manifest.json").exists()
        names = {entry["name"] for entry in manifest["files"]}
        assert {"series.csv", "series_half.csv"} <= names
        assert manifest["config_hash"] == cfg.config_hash
        assert report.all_pass

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(text=SMALL_DECOMP.format(out=tmp_path / "a"))
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        csv_a = (tmp_path / "a" / "series.csv").read_bytes()
        csv_b = (tmp_path / "b" / "series.csv").read_bytes()
        assert csv_a == csv_b
        core_a = manifest_core_bytes(load_manifest(tmp_path / "a"))
        core_b = manifest_core_bytes(load_manifest(tmp_path / "b"))
        assert core_a == core_b

    def test_report_reconstructs_verdicts(self, tmp_path):
        cfg = parse_config(text=SMALL_ENERGY.format(out=tmp_path / "run"))
        _, manifest = run_experiment(cfg)
        rebuilt = reconstruct_verdicts(manifest, tmp_path / "run")
        assert rebuilt == manifest["verdicts"]

    def test_lemma_verdicts_recomputed_from_stored_metrics(self, tmp_path):
        cfg = parse_config(text=SMALL_LEMMAS.format(out=tmp_path / "run"))
        _, manifest = run_experiment(cfg)
        assert reconstruct_verdicts(manifest, tmp_path / "run") == manifest["verdicts"]
        for name in ("max_ratio1_coarse", "max_ratio2_coarse",
                     "max_ratio1_fine", "max_ratio2_fine"):
            broken = copy.deepcopy(manifest)
            broken["metrics"][name] = float("nan")
            assert not reconstruct_verdicts(broken, tmp_path / "run")["ratios_finite"], name
        stale = copy.deepcopy(manifest)
        stale["verdicts"]["exponent_inequality"] = False
        assert reconstruct_verdicts(stale, tmp_path / "run")["exponent_inequality"] is True

    def test_zero_data_energy_residual_exactly_zero(self, tmp_path):
        text = SMALL_ENERGY.format(out=tmp_path / "zero").replace(
            "expression_v = cos(2*pi*x)", "expression_v = 0")
        report, _ = run_experiment(parse_config(text=text))
        assert report.metrics["residual"] == 0.0
        assert report.all_pass

    def test_snapshot_output_optional(self, tmp_path):
        text = SMALL_DECOMP.format(out=tmp_path / "snap") + "snapshots = true\n"
        cfg = parse_config(text=text)
        _, manifest = run_experiment(cfg)
        assert (tmp_path / "snap" / "initial.hsf").exists()
        assert any(e["name"] == "initial.hsf" for e in manifest["files"])

    def test_snapshot_reuses_the_runners_initial_data(self, tmp_path, monkeypatch):
        text = SMALL_DECOMP.format(out=tmp_path / "snap") + "snapshots = true\n"
        cfg = parse_config(text=text)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return prepare_initial_parts(*args, **kwargs)

        monkeypatch.setattr(experiments, "prepare_initial_parts", counted)
        run_experiment(cfg)
        assert len(calls) == 1
        vbar0, step0 = prepare_initial_parts(cfg.make_grid(), cfg.initial_data)
        write_snapshot(tmp_path / "expected.hsf", vbar0 + step0)
        assert ((tmp_path / "snap" / "initial.hsf").read_bytes()
                == (tmp_path / "expected.hsf").read_bytes())


class TestReport:
    @pytest.mark.parametrize("kind", sorted(SMALL_BY_KIND))
    def test_round_trip_every_kind(self, tmp_path, kind):
        cfg = parse_config(text=SMALL_BY_KIND[kind].format(out=tmp_path / "run"))
        assert cfg.experiment == kind
        _, manifest = run_experiment(cfg)
        assert manifest["verdicts"]
        assert reconstruct_verdicts(manifest, tmp_path / "run") == manifest["verdicts"]

    def test_nan_difference_fails_difference_bounded(self, tmp_path):
        cfg = parse_config(text=SMALL_STABILITY.format(out=tmp_path / "run"))
        _, manifest = run_experiment(cfg)
        assert manifest["verdicts"]["difference_bounded"]
        path = tmp_path / "run" / "differences.json"
        record = json.loads(path.read_text())
        record["diff_sigma"][2] = float("nan")
        path.write_text(json.dumps(record))
        assert reconstruct_verdicts(manifest, tmp_path / "run")["difference_bounded"] is False

    def test_large_recon_residual_fails_reconstruction(self, tmp_path, decomp_run):
        run_dir = shutil.copytree(decomp_run, tmp_path / "run")
        manifest = load_manifest(run_dir)
        assert manifest["verdicts"]["reconstruction_ok"]
        path = run_dir / "series.csv"
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index("recon_residual")
        row = lines[3].split(",")
        row[col] = "2e-08"
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert reconstruct_verdicts(manifest, run_dir)["reconstruction_ok"] is False

    def test_stability_base_columns_match_the_split_run(self, tmp_path):
        """Both experiments advance the base data in the same lockstep loop."""
        cfg = parse_config(text=SMALL_STABILITY.format(out=tmp_path / "run"))
        stab = DiagnosticsSeries.from_csv(exp_stability(cfg).files["series.csv"].decode())
        vbar0, step0 = prepare_initial_parts(cfg.make_grid(), cfg.initial_data)
        split = run_decomposition(vbar0, step0, cfg.physics(), cfg.step_control(),
                                  cfg.t_end).series
        assert stab.length == split.length == 6
        for name in ("t", "l2", "l4", "linf_V", "dz_vbar_l2"):
            np.testing.assert_array_equal(stab.array(name), split.array(name), err_msg=name)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nkind = lemma_suite\n")
        assert main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[grid]\nnx = 3\n")
        assert main(["validate", str(path)]) == 2

    def test_missing_file_is_config_error(self):
        assert main(["validate", "/nonexistent/config.ini"]) == 2

    def test_run_and_report_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(SMALL_ENERGY.format(out=tmp_path / "run"))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS energy_residual_ok" in out
        assert main(["report", str(tmp_path / "run")]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_accepts_config_flag_form(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(SMALL_ENERGY.format(out=tmp_path / "flagged"))
        assert main(["run", "--config", str(path)]) == 0
        capsys.readouterr()

    def test_run_without_config_is_config_error(self, capsys):
        assert main(["run"]) == 2

    def test_run_with_invalid_config_exits_two(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[grid]\nnx = 6\n")
        assert main(["run", str(path)]) == 2

    def test_failing_verdict_exits_one(self, tmp_path):
        """A reversed mollification ladder cannot be Cauchy-decreasing."""
        text = f"""
[grid]
nx = 16
ny = 16
nz = 16
[time]
dt = 2e-3
t_end = 0.004
[experiment]
kind = mollification
epsilons = 0.05, 0.1, 0.2
sample_count = 1
[output]
directory = {tmp_path / 'rev'}
seed = 5
"""
        path = tmp_path / "c.ini"
        path.write_text(text)
        assert main(["run", str(path)]) == 1
        assert main(["report", str(tmp_path / "rev")]) == 1

    def test_report_on_empty_directory(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", [
        "",
        DiagnosticsSeries().to_csv(),
        "t,l2\n0.0,1.0\n0.002\n",
        "t,l2\n0.0,one\n",
    ], ids=["empty", "header-only", "ragged", "non-numeric"])
    def test_report_on_malformed_series_exits_two(self, tmp_path, decomp_run,
                                                   text, capsys):
        run_dir = shutil.copytree(decomp_run, tmp_path / "run")
        (run_dir / "series.csv").write_text(text)
        assert main(["report", str(run_dir)]) == 2
        assert "report error" in capsys.readouterr().err

    def test_report_on_malformed_record_exits_two(self, tmp_path, capsys):
        _, manifest = run_experiment(parse_config(
            text=SMALL_MOLLIFICATION.format(out=tmp_path / "run")))
        path = tmp_path / "run" / "distances.json"
        record = json.loads(path.read_text())
        record["pairwise_distances"][0] = None
        path.write_text(json.dumps(record))
        assert main(["report", str(tmp_path / "run")]) == 2
        assert "report error" in capsys.readouterr().err
