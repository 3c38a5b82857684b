"""Named desk-scale experiments with reproducible persistence.

Every experiment writes, into its run directory, the fixed-schema CSV
diagnostics stream(s), experiment-specific JSON records, and a manifest
holding the config hash, produced-file digests, scalar metrics and
pass/fail verdicts.  Identical config + seed reproduce the CSV bytes and
the manifest's deterministic core exactly; wall-clock timestamps live
outside that core.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .decomposition import (InitialDataSpec, lockstep, make_cusp_step_data,
                            mollify, prepare_initial_parts, run_decomposition)
from .diagnostics import DiagnosticsSeries, integrate_series
from .errors import ConfigError, DataError
from .estimates import (fit_sup_envelope_c0, ladyzhenskaya_ratio,
                        moser_bound_check, norms, random_instance,
                        saturated_instance)
from .io import write_snapshot
from .solver import _plan_steps, integrate, make_state, step
from .spectral import (PhysicalField, SpectralField, dealias, derivative,
                       field_from_function, grad_h_norm_sq, grad_norm_sq,
                       l2_norm, linf_norm, refine, to_spectral)

ENERGY_RESIDUAL_TOL = 1e-7
ENERGY_SHRINK_MIN = 6.0
RECONSTRUCTION_TOL = 1e-8
STABILITY_RATIO_RANGE = (1.5, 2.5)
LADYZHENSKAYA_DRIFT_TOL = 0.10
CONSTANT_CASE_TOL = 1e-12


@dataclass
class ExperimentReport:
    kind: str
    metrics: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)      # name -> bytes
    initial: SpectralField | None = None           # v0, when the runner built it

    @property
    def all_pass(self):
        return all(self.verdicts.values())


# ---------------------------------------------------------------------------
# individual experiments
# ---------------------------------------------------------------------------

def exp_energy_identity(cfg: RunConfig) -> ExperimentReport:
    """Energy-identity residual of a smooth-data run, and its dt-convergence."""
    grid = cfg.make_grid()
    params = cfg.physics()
    vbar0, step0 = prepare_initial_parts(grid, cfg.initial_data)
    v0 = vbar0 + step0

    report = ExperimentReport("energy_identity", initial=v0)
    for label, dt in (("series", cfg.dt), ("series_half", cfg.dt / 2.0)):
        state = make_state(v0, 0.0, params)
        _, series = integrate(state, cfg.step_control(dt), cfg.t_end)
        report.files[f"{label}.csv"] = series.to_csv().encode()
    return _judged(report, cfg)


def exp_decomposition(cfg: RunConfig) -> ExperimentReport:
    """Split run: reconstruction residual, part regularity and the sup-norm fit."""
    grid = cfg.make_grid()
    vbar0, step0 = prepare_initial_parts(grid, cfg.initial_data)
    ser = run_decomposition(vbar0, step0, cfg.physics(), cfg.step_control(),
                            cfg.t_end).series
    report = ExperimentReport("decomposition", initial=vbar0 + step0)
    report.files["series.csv"] = ser.to_csv().encode()
    report.metrics["dz_vbar_dissipation"] = float(ser.array("dz_vbar_dissipation")[-1])
    return _judged(report, cfg)


def _perturbation_field(cfg: RunConfig, grid, amplitude):
    pert_spec = InitialDataSpec(kind="cusp_step", a=(0.0, 0.0), delta=1.0,
                                eta=cfg.eta_perturbation,
                                sigma=(amplitude, 0.0),
                                epsilon=cfg.initial_data.epsilon)
    _, bump = make_cusp_step_data(grid, pert_spec)
    return mollify(bump, pert_spec.epsilon)


def exp_stability(cfg: RunConfig) -> ExperimentReport:
    """Perturbation growth against the Gronwall-type envelope.

    Two perturbed trajectories (sizes sigma_p and sigma_p / 2) advance
    inside the split run's lockstep loop, whose X-part norms supply the
    envelope weight, so differences are sampled at identical times.
    """
    grid = cfg.make_grid()
    params = cfg.physics()
    ctl = cfg.step_control()
    vbar0, step0 = prepare_initial_parts(grid, cfg.initial_data)
    delta_full = _perturbation_field(cfg, grid, cfg.sigma_perturbation)
    v0 = vbar0 + step0
    st_b = make_state(v0 + delta_full, 0.0, params)
    st_c = make_state(v0 + delta_full * 0.5, 0.0, params)

    ser = DiagnosticsSeries()
    diff_b, diff_c = [], []
    for dt, split in lockstep(vbar0, step0, params, ctl, cfg.t_end):
        if dt:                                  # dt = 0.0 only at t = 0
            st_b = step(st_b, ctl, dt=dt)
            st_c = step(st_c, ctl, dt=dt)
        v = split.driver
        diff_b.append(l2_norm(v.v - st_b.v))
        diff_c.append(l2_norm(v.v - st_c.v))
        rec = norms(v.v, t=v.t)
        dzbar = derivative(split.vbar.v, "z")
        ser.add_row(t=v.t, l2=rec.l2, grad_l2=rec.grad_l2, l4=rec.l4,
                    l6=rec.l6, linf_V=linf_norm(split.V.v),
                    dz_vbar_l2=l2_norm(dzbar),
                    grad_l2_vbar=np.sqrt(grad_norm_sq(split.vbar.v)),
                    grad_h_dz_vbar_sq=grad_h_norm_sq(dzbar))

    d0_b = diff_b[0]
    m_hat = ((1.0 + ser.array("dz_vbar_l2") ** 2)
             * (1.0 + ser.array("grad_l2_vbar") ** 2
                + ser.array("grad_h_dz_vbar_sq")))
    m_int = integrate_series(ser.array("t"), m_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        demands = np.log(np.asarray(diff_b) / max(d0_b, 1e-300)) / m_int
    demands = demands[1:][np.isfinite(demands[1:])]

    report = ExperimentReport("stability", initial=v0)
    report.files["series.csv"] = ser.to_csv().encode()
    report.files["differences.json"] = _json_bytes({
        "t": ser.columns["t"],
        "diff_sigma": diff_b,
        "diff_sigma_half": diff_c,
        "normalizer_sigma": d0_b,
        "normalizer_sigma_half": diff_c[0]})
    report.metrics["envelope_c"] = float(np.max(demands)) if demands.size else 0.0
    return _judged(report, cfg)


def exp_mollification_convergence(cfg: RunConfig) -> ExperimentReport:
    """Cauchy behavior of the trajectory as the mollification radius halves."""
    if len(cfg.epsilons) < 2:
        raise ConfigError("mollification needs at least two epsilon values")
    grid = cfg.make_grid()
    params = cfg.physics()
    ctl = cfg.step_control()
    n_steps = len(_plan_steps(0.0, cfg.t_end, ctl.dt))
    k = min(cfg.sample_count, n_steps)
    sample_steps = sorted({max(1, round(i * n_steps / k)) for i in range(1, k + 1)})

    def _one(eps):
        spec = replace(cfg.initial_data, epsilon=eps)
        vbar0, step0 = prepare_initial_parts(grid, spec)
        state = make_state(vbar0 + step0, 0.0, params)
        captured = {0: state.v}
        _, series = integrate(state, ctl, cfg.t_end,
                              hooks=(_capture_hook(captured, sample_steps),))
        return captured, series

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(_one, cfg.epsilons))
    else:
        results = [_one(e) for e in cfg.epsilons]

    report = ExperimentReport("mollification")
    distances = [float(max(l2_norm(cap_a[s] - cap_b[s]) for s in cap_a))
                 for (cap_a, _), (cap_b, _) in zip(results, results[1:])]
    for i, (_, series) in enumerate(results):
        report.files[f"series_eps{i}.csv"] = series.to_csv().encode()
    report.files["distances.json"] = _json_bytes({
        "epsilons": list(cfg.epsilons), "pairwise_distances": distances})
    return _judged(report, cfg)


def _capture_hook(captured, sample_steps):
    counter = {"i": 0}

    def hook(state, series):
        counter["i"] += 1
        if counter["i"] in sample_steps:
            captured[counter["i"]] = state.v
    return hook


def _exponent_inequality_holds(kmax=60):
    """Closed form of the exponent count: 4*2^k - (k+3) >= 3k+1 for k = 1..kmax."""
    return all(4 * 2 ** k - (k + 3) >= 3 * k + 1 for k in range(1, kmax + 1))


def _random_scalar_field(rng, grid):
    vals = rng.standard_normal((1,) + grid.physical_shape)
    f = dealias(to_spectral(PhysicalField(grid, vals)))
    shaping = np.exp(-grid.k2 / (2.0 * (4.0 * np.pi) ** 2))
    f = f.with_coeffs(f.coeffs * shaping)
    norm = l2_norm(f)
    return f * (1.0 / norm) if norm > 0 else f


def exp_lemma_suite(cfg: RunConfig) -> ExperimentReport:
    """Iteration-lemma ensemble plus the layer-inequality ratio ensemble."""
    rng = np.random.default_rng(cfg.seed)
    report = ExperimentReport("lemma_suite")

    violations = 0
    tightness = 0.0       # closest approach A_k / a_k over the ensemble
    for _ in range(cfg.moser_count):
        inst = random_instance(rng, cfg.moser_kmax)
        verdict = moser_bound_check(inst)
        if not verdict.ok:
            violations += 1
        margin = float(np.max(inst.log_terms - verdict.log_certified))
        tightness = max(tightness, np.exp(min(margin, 0.0)))
    sat = moser_bound_check(saturated_instance(2.0, 0.1, cfg.moser_kmax))
    a1_gap = abs(sat.log_certified[0] - (np.log(2.0) + 2.0 * np.log(0.1)))

    coarse = cfg.make_grid()
    fine = cfg.make_grid(nz=2 * cfg.grid_nz)
    max_coarse = [0.0, 0.0]
    max_fine = [0.0, 0.0]
    ratios = []
    for _ in range(cfg.ladyzhenskaya_count):
        triple = [_random_scalar_field(rng, coarse) for _ in range(3)]
        rc = ladyzhenskaya_ratio(*triple)
        rf = ladyzhenskaya_ratio(*(refine(f, fine) for f in triple))
        ratios.append({"coarse": [rc.ratio1, rc.ratio2],
                       "fine": [rf.ratio1, rf.ratio2]})
        max_coarse = [max(max_coarse[0], rc.ratio1), max(max_coarse[1], rc.ratio2)]
        max_fine = [max(max_fine[0], rf.ratio1), max(max_fine[1], rf.ratio2)]
    drift1 = abs(max_fine[0] - max_coarse[0]) / max(max_coarse[0], 1e-300)
    drift2 = abs(max_fine[1] - max_coarse[1]) / max(max_coarse[1], 1e-300)

    ones = field_from_function(coarse, lambda X, Y, Z: 1.0 + 0 * X)
    const_case = ladyzhenskaya_ratio(ones, ones, ones)

    report.metrics.update(
        moser_count=float(cfg.moser_count),
        moser_violations=float(violations),
        moser_max_tightness=float(tightness),
        a1_identity_gap=float(a1_gap),
        max_ratio1_coarse=max_coarse[0], max_ratio2_coarse=max_coarse[1],
        max_ratio1_fine=max_fine[0], max_ratio2_fine=max_fine[1],
        ratio1_drift=float(drift1), ratio2_drift=float(drift2),
        constant_case_ratio1=const_case.ratio1,
        constant_case_ratio2=const_case.ratio2)
    report.files["ratios.json"] = _json_bytes(
        {"samples": ratios, "max_coarse": max_coarse, "max_fine": max_fine})
    report = _judged(report, cfg)
    report.metrics["report_hash"] = _metrics_hash(report.metrics)
    return report


_RUNNERS = {
    "energy_identity": exp_energy_identity,
    "decomposition": exp_decomposition,
    "stability": exp_stability,
    "mollification": exp_mollification_convergence,
    "lemma_suite": exp_lemma_suite,
}


# ---------------------------------------------------------------------------
# judges: metrics and verdicts from the persisted files
# ---------------------------------------------------------------------------
#
# One pure judge per kind, ``judge(files, metrics, h) -> (derived, verdicts)``,
# serves both ``run`` (on the bytes it is about to write) and ``report`` (on
# the bytes read back).  Values are re-derived from the CSV/JSON files; the
# stored metrics are read only where their inputs are not persisted.  The
# ``.17g`` CSV text and JSON float repr round-trip bit-exactly, so both
# callers reach the same values.

def _artifact(files, name):
    if name not in files:
        raise DataError(f"run has no {name}")
    return files[name]


def _series(files, name):
    return DiagnosticsSeries.from_csv(_artifact(files, name).decode())


def _judge_energy_identity(files, metrics, h):
    res = float(np.max(_series(files, "series.csv").array("energy_residual")))
    res_half = float(np.max(_series(files, "series_half.csv").array("energy_residual")))
    shrink = res / max(res_half, 1e-300)
    derived = dict(residual=res, residual_half=res_half, shrink=shrink,
                   convergence_order=float(np.log2(max(shrink, 1e-300))))
    return derived, {
        "energy_residual_ok": res <= ENERGY_RESIDUAL_TOL,
        "energy_shrink_ok": (res <= 1e-12) or (shrink >= ENERGY_SHRINK_MIN)}


def _judge_decomposition(files, metrics, h):
    ser = _series(files, "series.csv")
    linf_V = ser.array("linf_V")
    recon = float(np.nanmax(ser.array("recon_residual")))
    linf_V0 = float(linf_V[0])
    v0_l4 = float(ser.array("l4")[0])
    c0 = fit_sup_envelope_c0(ser.array("t"), linf_V, linf_V0, v0_l4)
    derived = dict(max_recon_residual=recon, sup_linf_V=float(np.max(linf_V)),
                   linf_V0=linf_V0, v0_l4=v0_l4,
                   sup_dz_vbar_l2=float(np.max(ser.array("dz_vbar_l2"))),
                   fitted_c0=float(c0))
    return derived, {
        "reconstruction_ok": recon <= RECONSTRUCTION_TOL,
        "linf_V_bounded": bool(np.all(np.isfinite(linf_V))),
        "fitted_c0_finite": bool(np.isfinite(c0))}


def _judge_stability(files, metrics, h):
    record = json.loads(_artifact(files, "differences.json"))
    diff_b = np.asarray(record["diff_sigma"])
    diff_c = np.asarray(record["diff_sigma_half"])
    ratio = float(diff_b[-1] / max(diff_c[-1], 1e-300))
    lo, hi = STABILITY_RATIO_RANGE
    derived = dict(
        final_diff_sigma=float(diff_b[-1]),
        final_diff_sigma_half=float(diff_c[-1]),
        final_ratio=ratio,
        normalized_final_growth=float(diff_b[-1] / max(record["normalizer_sigma"], 1e-300)))
    return derived, {
        "perturbation_ratio_ok": lo <= ratio <= hi,
        "difference_bounded": bool(np.all(np.isfinite(diff_b))
                                   and np.all(np.isfinite(diff_c))),
        "envelope_finite": bool(np.isfinite(metrics["envelope_c"]))}


def _judge_mollification(files, metrics, h):
    d = json.loads(_artifact(files, "distances.json"))["pairwise_distances"]
    derived = {f"distance_{i}": float(x) for i, x in enumerate(d)}
    derived["n_pairs"] = float(len(d))
    return derived, {
        "cauchy_decrease": all(d[i] > d[i + 1] for i in range(len(d) - 1)),
        "distances_finite": all(np.isfinite(d))}


def _judge_lemma_suite(files, metrics, h):
    maxima = [metrics[f"max_ratio{i}_{lattice}"]
              for i in (1, 2) for lattice in ("coarse", "fine")]
    expected = np.sqrt(2.0 * h)          # the constant field's exact ratio
    return {}, {
        "moser_zero_violations": metrics["moser_violations"] == 0,
        "a1_identity": bool(metrics["a1_identity_gap"] <= 1e-12),
        "exponent_inequality": _exponent_inequality_holds(),
        "ratios_finite": bool(np.all(np.isfinite(maxima))),
        "ratio_drift_ok": bool(metrics["ratio1_drift"] <= LADYZHENSKAYA_DRIFT_TOL
                               and metrics["ratio2_drift"] <= LADYZHENSKAYA_DRIFT_TOL),
        "constant_case_ok": bool(
            abs(metrics["constant_case_ratio1"] - expected) <= CONSTANT_CASE_TOL
            and abs(metrics["constant_case_ratio2"] - expected) <= CONSTANT_CASE_TOL)}


_JUDGES = {
    "energy_identity": _judge_energy_identity,
    "decomposition": _judge_decomposition,
    "stability": _judge_stability,
    "mollification": _judge_mollification,
    "lemma_suite": _judge_lemma_suite,
}


def _judged(report, cfg):
    """Add the judge's derived metrics and verdicts to a runner's report."""
    derived, report.verdicts = _JUDGES[report.kind](report.files, report.metrics, cfg.h)
    report.metrics.update(derived)
    return report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _json_bytes(payload) -> bytes:
    def native(obj):
        if isinstance(obj, np.generic):
            return obj.item()
        raise TypeError(f"not JSON serializable: {type(obj)}")
    return (json.dumps(payload, sort_keys=True, indent=2, default=native)
            + "\n").encode()


def _metrics_hash(metrics) -> str:
    clean = {k: v for k, v in metrics.items() if k != "report_hash"}
    return hashlib.sha256(_json_bytes(clean)).hexdigest()


def manifest_core(manifest: dict) -> dict:
    """The deterministic part of a manifest (timestamps removed)."""
    return {k: manifest[k] for k in sorted(manifest)
            if k not in ("started_at", "finished_at")}


def manifest_core_bytes(manifest: dict) -> bytes:
    return _json_bytes(manifest_core(manifest))


def run_experiment(cfg: RunConfig, out_dir=None):
    """Run the configured experiment; persist CSVs, JSON records, manifest.

    Returns ``(report, manifest)``.
    """
    if cfg.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {cfg.experiment!r}")
    out = Path(out_dir if out_dir is not None else cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    report = _RUNNERS[cfg.experiment](cfg)

    if cfg.snapshots:
        v0 = report.initial
        if v0 is None:
            vbar0, step0 = prepare_initial_parts(cfg.make_grid(), cfg.initial_data)
            v0 = vbar0 + step0
        write_snapshot(out / "initial.hsf", v0)
        report.files["initial.hsf"] = (out / "initial.hsf").read_bytes()

    finished = time.time()
    file_entries = []
    for name in sorted(report.files):
        payload = report.files[name]
        (out / name).write_bytes(payload)
        file_entries.append({"name": name,
                             "sha256": hashlib.sha256(payload).hexdigest()})
    manifest = {
        "format": "hydrostat-run/1",
        "version": __version__,
        "experiment": cfg.experiment,
        "config_hash": cfg.config_hash,
        "config": cfg.canonical,
        "seed": cfg.seed,
        "files": file_entries,
        "metrics": report.metrics,
        "verdicts": report.verdicts,
        "started_at": started,
        "finished_at": finished,
    }
    (out / "manifest.json").write_bytes(_json_bytes(manifest))
    return report, manifest


def load_manifest(run_dir) -> dict:
    path = Path(run_dir) / "manifest.json"
    if not path.exists():
        raise ConfigError(f"no manifest found in {run_dir}")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# verdict reconstruction from persisted artifacts
# ---------------------------------------------------------------------------

def reconstruct_verdicts(manifest: dict, run_dir) -> dict:
    """Recompute every verdict from the persisted files, with the run's judge."""
    judge = _JUDGES.get(manifest["experiment"])
    if judge is None:
        raise ConfigError(f"unknown experiment kind {manifest['experiment']!r}")
    files = {}
    for entry in manifest["files"]:
        path = Path(run_dir) / entry["name"]
        if not path.exists():
            raise ConfigError(f"missing file {entry['name']} in {run_dir}")
        files[entry["name"]] = path.read_bytes()
    config = dict(line.partition(" = ")[::2] for line in manifest["config"].splitlines())
    return judge(files, manifest["metrics"], float(config["grid.h"]))[1]
