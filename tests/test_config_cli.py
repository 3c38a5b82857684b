"""Tests for the run-config parser, experiment persistence and the CLI."""

import configparser
import copy
import dataclasses
import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from hydrostat import decomposition, experiments
from hydrostat.cli import main
from hydrostat.config import _SCHEMA, parse_config, with_overrides
from hydrostat.decomposition import prepare_initial_parts, run_decomposition
from hydrostat.diagnostics import DiagnosticsSeries
from hydrostat.errors import ConfigError, DataError
from hydrostat.experiments import (exp_stability, load_manifest,
                                   manifest_core_bytes, reconstruct_verdicts,
                                   run_experiment)
from hydrostat.io import write_snapshot
from hydrostat.solver import _step_count
from tooling import fresh_python

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
def small_run(tmp_path_factory):
    """``small_run(kind)``: that kind's small run directory, made once per module.

    Tests that alter a run work on a copy.
    """
    made = {}

    def get(kind):
        if kind not in made:
            made[kind] = tmp_path_factory.mktemp(kind) / "run"
            run_experiment(parse_config(text=SMALL_BY_KIND[kind].format(out=made[kind])))
        return made[kind]
    return get


@pytest.fixture(scope="module")
def decomp_run(small_run):
    return small_run("decomposition")


def _forge(manifest, run_dir, name, payload):
    """Write ``payload`` as ``name`` and its sha256 into ``manifest``, as a consistent forgery would."""
    (run_dir / name).write_bytes(payload)
    for entry in manifest["files"]:
        if entry["name"] == name:
            entry["sha256"] = hashlib.sha256(payload).hexdigest()


def _rewrite_record(run_dir, name, record):
    """Forge a JSON record and save the manifest with its new sha256."""
    manifest = load_manifest(run_dir)
    _forge(manifest, run_dir, name, json.dumps(record).encode())
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


DEFAULT_CANONICAL = """\
experiment.epsilons = 0.2, 0.1, 0.05
experiment.eta_perturbation = 0.25
experiment.kind = energy_identity
experiment.ladyzhenskaya_count = 200
experiment.moser_count = 10000
experiment.moser_kmax = 40
experiment.sample_count = 4
experiment.sigma_perturbation = 0.01
grid.h = 0.5
grid.nx = 32
grid.ny = 32
grid.nz = 64
initial_data.a = 1.0, 0.0
initial_data.delta = 1.0
initial_data.epsilon = 0.1
initial_data.eta = 0.25
initial_data.expression_u = 0
initial_data.expression_v = 0
initial_data.kind = cusp_step
initial_data.sigma = 0.2, 0.0
initial_data.snapshot =\x20
output.seed = 1234
output.snapshots = false
physics.f0 = 0.0
time.cfl_target = 0.5
time.dt = 5e-4
time.t_end = 0.1
"""

DEFAULT_FIELDS = dict(
    grid_nx=32, grid_ny=32, grid_nz=64, h=0.5, f0=0.0,
    dt=5e-4, t_end=0.1, cfl_target=0.5,
    initial_data=dict(kind="cusp_step", a=(1.0, 0.0), delta=1.0, eta=0.25,
                      sigma=(0.2, 0.0), epsilon=0.1, expression_u="0",
                      expression_v="0", snapshot=""),
    experiment="energy_identity", sigma_perturbation=0.01, eta_perturbation=0.25,
    epsilons=(0.2, 0.1, 0.05), moser_count=10000, moser_kmax=40,
    ladyzhenskaya_count=200, sample_count=4,
    directory="runs/out", seed=1234, threads=1, snapshots=False,
    canonical=DEFAULT_CANONICAL)


def field_types(fields):
    """Type of every field, nested one level for the initial data."""
    return {k: field_types(v) if isinstance(v, dict) else type(v)
            for k, v in fields.items()}


class TestConfigParsing:
    def test_empty_config_is_the_defaults(self, monkeypatch):
        monkeypatch.delenv("HYDROSTAT_THREADS", raising=False)
        cfg = parse_config(text="")
        assert cfg.canonical == DEFAULT_CANONICAL
        fields = dataclasses.asdict(cfg)
        assert fields == DEFAULT_FIELDS
        assert field_types(fields) == field_types(DEFAULT_FIELDS)

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

    def test_bounds_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[bounds\]"):
            parse_config(text="[bounds]\nc0 = 1.0\n")

    def test_readme_config_block_parses_and_covers_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(text=block)
        # the block shows the defaults, but for a decomposition run
        assert set(cfg.canonical.splitlines()) - set(DEFAULT_CANONICAL.splitlines()) == {
            "experiment.kind = decomposition", "initial_data.expression_v = cos(2*pi*x)"}
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        parser.read_string(block)
        listed = {(s, k) for s in parser.sections() for k in parser.options(s)}
        assert listed == {(s, k) for s in _SCHEMA for k in _SCHEMA[s]}

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
        original = (tmp_path / "run" / "ratios.json").read_bytes()
        for lattice in ("coarse", "fine"):
            for i in (0, 1):
                record = json.loads(original)
                record["samples"][-1][lattice][i] = float("nan")
                _forge(manifest, tmp_path / "run", "ratios.json", json.dumps(record).encode())
                verdicts = reconstruct_verdicts(manifest, tmp_path / "run")
                assert not verdicts["ratios_finite"], (lattice, i)
        _forge(manifest, tmp_path / "run", "ratios.json", original)
        stale = copy.deepcopy(manifest)
        stale["verdicts"]["exponent_inequality"] = False
        assert reconstruct_verdicts(stale, tmp_path / "run")["exponent_inequality"] is True

    def test_mollification_bytes_independent_of_threads_and_out(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(SMALL_MOLLIFICATION.format(out=tmp_path / "unused"))
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            run_experiment(with_overrides(path, out=out, threads=threads))
            runs.append(out)
        a, b = runs
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert (manifest_core_bytes(load_manifest(a))
                == manifest_core_bytes(load_manifest(b)))

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

    def test_snapshot_is_the_prepared_initial_data(self, tmp_path):
        """``initial.hsf`` is v0 = vbar0 + V0 from ``prepare_initial_parts``,
        which ``run_experiment`` calls itself, for a kind that steps the
        data and for one that never builds it."""
        for kind in ("decomposition", "lemma_suite"):
            text = SMALL_BY_KIND[kind].format(out=tmp_path / kind) + "snapshots = true\n"
            cfg = parse_config(text=text)
            run_experiment(cfg)
            vbar0, step0 = prepare_initial_parts(cfg.make_grid(), cfg.initial_data)
            write_snapshot(tmp_path / "expected.hsf", vbar0 + step0)
            assert ((tmp_path / kind / "initial.hsf").read_bytes()
                    == (tmp_path / "expected.hsf").read_bytes()), kind

    @pytest.mark.parametrize("snapshots", ["false", "true"])
    @pytest.mark.parametrize("kind", sorted(SMALL_BY_KIND))
    def test_one_set_up_per_run(self, tmp_path, monkeypatch, kind, snapshots):
        """A run resolves its initial data once (``experiments._set_up``), a
        lemma suite only to write ``initial.hsf``; stability mollifies its data
        and its perturbation with one multiplier, three ``_bump_transform``s.
        A stepped run that mollifies one set of parts writes ``initial.hsf``
        from them, and a mollification run from its member at the config's
        epsilon: snapshots add no ``_bump_transform`` call."""
        calls = {"prepare": 0, "bump": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiments, "prepare_initial_parts",
                            counted("prepare", experiments.prepare_initial_parts))
        monkeypatch.setattr(decomposition, "_bump_transform",
                            counted("bump", decomposition._bump_transform))
        text = SMALL_BY_KIND[kind].format(out=tmp_path / "run") + f"snapshots = {snapshots}\n"
        run_experiment(parse_config(text=text))
        assert calls["prepare"] == (kind != "lemma_suite" or snapshots == "true")
        bumps = {"decomposition": 3, "stability": 3, "energy_identity": 0,
                 "lemma_suite": 3 if snapshots == "true" else 0, "mollification": 9}
        assert calls["bump"] == bumps[kind]


class TestReport:
    @pytest.mark.parametrize("kind", sorted(SMALL_BY_KIND))
    def test_round_trip_every_kind(self, tmp_path, kind):
        cfg = parse_config(text=SMALL_BY_KIND[kind].format(out=tmp_path / "run"))
        assert cfg.experiment == kind
        _, manifest = run_experiment(cfg)
        assert manifest["verdicts"]
        assert reconstruct_verdicts(manifest, tmp_path / "run") == manifest["verdicts"]
        blank = dict(manifest, metrics={})
        assert reconstruct_verdicts(blank, tmp_path / "run") == manifest["verdicts"]

    def test_nan_difference_fails_difference_bounded(self, tmp_path):
        cfg = parse_config(text=SMALL_STABILITY.format(out=tmp_path / "run"))
        _, manifest = run_experiment(cfg)
        assert manifest["verdicts"]["difference_bounded"]
        record = json.loads((tmp_path / "run" / "differences.json").read_text())
        record["diff_sigma"][2] = float("nan")
        _forge(manifest, tmp_path / "run", "differences.json", json.dumps(record).encode())
        assert reconstruct_verdicts(manifest, tmp_path / "run")["difference_bounded"] is False

    def test_forged_ratio_sample_fails_drift(self, tmp_path, capsys):
        """A ratios.json forged consistently, sha256 included, is judged on its samples."""
        run_dir = tmp_path / "run"
        path = tmp_path / "c.ini"
        path.write_text(SMALL_LEMMAS.format(out=run_dir))
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
        record = json.loads((run_dir / "ratios.json").read_text())
        record["samples"][0]["fine"][0] = 1.5 * max(record["max_coarse"][0],
                                                    record["max_fine"][0])
        _rewrite_record(run_dir, "ratios.json", record)
        assert main(["report", str(run_dir)]) == 1
        assert "FAIL ratio_drift_ok" in capsys.readouterr().out

    def test_forged_moser_record_fails_zero_violations(self, tmp_path, small_run, capsys):
        run_dir = shutil.copytree(small_run("lemma_suite"), tmp_path / "run")
        record = json.loads((run_dir / "moser.json").read_text())
        record["violations"] = 1
        _rewrite_record(run_dir, "moser.json", record)
        assert main(["report", str(run_dir)]) == 1
        assert "FAIL moser_zero_violations" in capsys.readouterr().out

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
        _forge(manifest, run_dir, "series.csv", ("\n".join(lines) + "\n").encode())
        assert reconstruct_verdicts(manifest, run_dir)["reconstruction_ok"] is False

    def test_stability_base_columns_match_the_split_run(self, tmp_path):
        """Stability's series is the split run's, to the byte."""
        cfg = parse_config(text=SMALL_STABILITY.format(out=tmp_path / "run"))
        stab = exp_stability(cfg).files["series.csv"]
        vbar0, step0 = prepare_initial_parts(cfg.make_grid(), cfg.initial_data)
        _, split = run_decomposition(vbar0, step0, cfg.physics(), cfg.step_control(),
                                     cfg.t_end)
        assert split.length == 6
        assert stab == split.to_csv().encode()


class TestCli:
    @pytest.mark.parametrize("expression", [
        "sin(",
        "().__class__.__base__.__subclasses__()",
        "__import__('os').getcwd()",
        "x.real",
        "sin(x, y)",
        "cos(x=y)",
        "[x][0]",
        "x if y else z",
        "x // 2",
        "1j * x",
        "sin",
        "1e999",
        pytest.param("9" * 400, id="huge-int"),
        pytest.param("-" * 10000 + "x", id="deep-unary"),
    ])
    def test_validate_rejects_bad_expression(self, tmp_path, expression, capsys):
        path = tmp_path / "c.ini"
        path.write_text(SMALL_ENERGY.format(out=tmp_path / "run").replace(
            "expression_v = cos(2*pi*x)", f"expression_v = {expression}"))
        assert main(["validate", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("expression", ["z ** -1", "1/x", "exp(1e3*x)", "10.0**400"])
    def test_expression_whose_samples_are_not_finite_fails_the_run(self, tmp_path,
                                                                    expression, capsys):
        """``validate`` accepts it; ``run`` exits 1 naming it, and no numpy
        warning escapes (the suite turns them into errors)."""
        path = tmp_path / "c.ini"
        path.write_text(re.sub(r"(n[xyz]) = 16", r"\1 = 8", SMALL_ENERGY.format(
            out=tmp_path / "run")).replace("expression_u = 0", f"expression_u = {expression}"))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"run failed: expression {expression!r}: ")

    def test_validate_refuses_a_grid_beyond_physical_memory(self, tmp_path):
        """4096^3 tables need about 1.4 TB.  ``validate`` builds none: in a
        child capped at 1 GiB of address space with one BLAS thread it exits
        2 naming [grid], where building them would raise MemoryError."""
        path = tmp_path / "big.ini"
        path.write_text("[grid]\nnx = 4096\nny = 4096\nnz = 4096\n")
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                  "from hydrostat.cli import main\n"
                  "sys.exit(main(['validate', sys.argv[1]]))\n")
        result = fresh_python(["-c", script, str(path)], timeout=120,
                              env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("config error: [grid] 4096x4096x4096: ")

    def test_report_rejects_file_that_fails_its_digest(self, tmp_path, decomp_run,
                                                      capsys):
        run_dir = shutil.copytree(decomp_run, tmp_path / "run")
        assert main(["report", str(run_dir)]) == 0
        capsys.readouterr()
        path = run_dir / "series.csv"
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index("recon_residual")
        row = lines[3].split(",")
        row[col] = "2e-08"
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "report error" in err and "series.csv" in err

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_report_refuses_names_outside_the_run(self, tmp_path, decomp_run, where,
                                                  capsys):
        """A listed file outside the run directory is refused, digest or not."""
        run_dir = shutil.copytree(decomp_run, tmp_path / "run")
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"not a run artifact\n")
        name = "../outside.txt" if where == "parent" else str(outside)
        manifest = load_manifest(run_dir)
        manifest["files"].append({"name": name, "sha256": hashlib.sha256(
            outside.read_bytes()).hexdigest()})
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "report error" in err and "not a bare file name" in err
        with pytest.raises(DataError):
            reconstruct_verdicts(manifest, run_dir)

    def test_report_reads_each_file_once(self, tmp_path, small_run, monkeypatch, capsys):
        """The digest is checked on the bytes the judge gets."""
        run_dir = shutil.copytree(small_run("stability"), tmp_path / "run")
        reads = []
        read_bytes = Path.read_bytes

        def counting(path):
            reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        assert main(["report", str(run_dir)]) == 0
        listed = [entry["name"] for entry in load_manifest(run_dir)["files"]]
        assert sorted(reads) == sorted(listed)

    @pytest.mark.parametrize("section, line", [
        ("initial_data", "epsilon = nan"),
        ("experiment", "epsilons = nan, 0.1"),
        ("time", "cfl_target = nan"),
        ("physics", "f0 = nan"),
        ("experiment", "sigma_perturbation = inf"),
        ("initial_data", "delta = inf"),
    ])
    def test_validate_rejects_non_finite_float(self, tmp_path, section, line, capsys):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{line}\n")
        assert main(["validate", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["0", "-1", "-1e-300"])
    def test_validate_rejects_a_cfl_target_that_is_not_positive(self, tmp_path, target,
                                                                 capsys):
        """Every step would warn that its CFL exceeds such a target."""
        path = tmp_path / "c.ini"
        path.write_text(f"[time]\ncfl_target = {target}\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: [time] cfl_target=")

    def test_validate_rejects_bad_threads_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HYDROSTAT_THREADS", "two")
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nkind = lemma_suite\n")
        assert main(["validate", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nkind = lemma_suite\n")
        assert main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", sorted(SMALL_BY_KIND))
    def test_validate_prints_the_planned_step_count(self, tmp_path, kind, capsys):
        """Every stepped kind shows its steps at dt; the lemma suite takes none."""
        path = tmp_path / "c.ini"
        path.write_text(SMALL_BY_KIND[kind].format(out=tmp_path / "run"))
        assert main(["validate", str(path)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith(f"ok: experiment={kind} hash=")
        steps = {"energy_identity": 10, "decomposition": 5, "stability": 5,
                 "mollification": 2}.get(kind)
        assert line.endswith(f" steps={steps}") if steps else "steps=" not in line

    def test_validate_shows_a_runaway_step_count(self, tmp_path, capsys):
        """t_end = 4e15 at dt = 1e-3 fits an index, but the series of the
        4e18 steps it plans cannot fit in memory: refused, naming them."""
        path = tmp_path / "c.ini"
        path.write_text(SMALL_DECOMP.format(out=tmp_path / "run")
                        .replace("t_end = 0.01", "t_end = 4e15").replace("2e-3", "1e-3"))
        assert main(["validate", str(path)]) == 2
        steps = _step_count(0.0, 4e15, 1e-3)
        assert 4e18 <= steps < 4.001e18
        assert f"[time] {steps} steps of dt=0.001: their series rows need" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_step_count_beyond_an_index_exits_two(self, tmp_path, command, capsys):
        """Refused by name, not an OverflowError: t_end / dt = 1e303 steps,
        and 1.4e19 steps at the dt / 2 that energy_identity also runs."""
        path = tmp_path / "c.ini"
        for t_end, named in (("1e300", "t_end=1e+300 and dt=0.001"),
                             ("7e15", "t_end=7000000000000000.0 and dt=0.0005")):
            path.write_text("[grid]\nnx = 8\nny = 8\nnz = 8\n"
                            f"[time]\ndt = 1e-3\nt_end = {t_end}\n"
                            f"[output]\ndirectory = {tmp_path / 'run'}\n")
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: [time] {named}")
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("fault", ["missing-snapshot", "directory-snapshot",
                                       "output-is-a-file"])
    def test_run_file_system_fault_exits_one(self, tmp_path, fault, capsys):
        """Configs that ``validate`` accepts, whose run meets a file-system
        fault: it fails with "run failed", naming the path, and exit 1."""
        out = tmp_path / "run"
        text = re.sub(r"(n[xyz]) = 16", r"\1 = 8", SMALL_DECOMP.format(out=out))
        if fault == "output-is-a-file":
            out.write_bytes(b"")
            named = out
        else:
            named = tmp_path / "absent.hsf" if fault == "missing-snapshot" else tmp_path
            text += f"[initial_data]\nkind = snapshot\nsnapshot = {named}\n"
        path = tmp_path / "c.ini"
        path.write_text(text)
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and str(named) in err

    def test_data_that_overflow_their_transform_fail_the_run(self, tmp_path, capsys):
        """a = 1e308, -1e308 are finite, so ``validate`` accepts them; their
        transform overflows, and ``run`` fails with a DataError, not a
        numpy warning."""
        path = tmp_path / "c.ini"
        path.write_text(re.sub(r"(n[xyz]) = 16", r"\1 = 8",
                               SMALL_DECOMP.format(out=tmp_path / "run"))
                        + "[initial_data]\nkind = cusp_step\na = 1e308, -1e308\n")
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "run failed: physical field overflows its spectral transform")

    def test_stability_weight_that_overflows_fails_the_run(self, tmp_path, capsys):
        """a = 1e308, -1e308 with delta = 7 transform and step, but the squared
        norms in the stability weight m_hat overflow: the run fails with a
        DataError, not a numpy warning."""
        path = tmp_path / "c.ini"
        path.write_text(re.sub(r"(n[xyz]) = 16", r"\1 = 8",
                               SMALL_STABILITY.format(out=tmp_path / "run"))
                        + "[initial_data]\nkind = cusp_step\na = 1e308, -1e308\ndelta = 7\n")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("run failed: the envelope weight m_hat overflows")

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

    def test_report_on_malformed_record_exits_two(self, tmp_path, small_run, capsys):
        """Each record is re-hashed, so the judge itself meets the malformed value."""
        cases = [
            ("mollification", "distances.json",
             lambda r: dict(r, pairwise_distances=[None] + r["pairwise_distances"][1:])),
            ("stability", "differences.json",
             lambda r: {k: v for k, v in r.items() if k != "m_hat"}),
            ("stability", "differences.json", lambda r: dict(r, m_hat=r["m_hat"][:-1])),
        ]
        for i, (kind, name, forge) in enumerate(cases):
            run_dir = shutil.copytree(small_run(kind), tmp_path / str(i))
            _rewrite_record(run_dir, name, forge(json.loads((run_dir / name).read_text())))
            assert main(["report", str(run_dir)]) == 2, (kind, name)
            assert "report error" in capsys.readouterr().err

    def test_report_ignores_edited_manifest_metrics(self, tmp_path, small_run, capsys):
        """Manifest metrics are output only: editing them changes no verdict."""
        for kind, key, value in (("lemma_suite", "moser_violations", 1.0),
                                 ("stability", "envelope_c", float("nan"))):
            run_dir = shutil.copytree(small_run(kind), tmp_path / kind)
            manifest = load_manifest(run_dir)
            manifest["metrics"][key] = value
            (run_dir / "manifest.json").write_text(json.dumps(manifest))
            assert main(["report", str(run_dir)]) == 0, kind
            out = capsys.readouterr().out
            assert out.count("PASS ") == len(manifest["verdicts"]), kind
            assert "FAIL" not in out and "NOTE" not in out, kind
