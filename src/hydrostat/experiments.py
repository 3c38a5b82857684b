"""Named desk-scale experiments with reproducible persistence.

Every experiment writes, into its run directory, the fixed-schema CSV
diagnostics stream(s), experiment-specific JSON records, and a manifest
holding the config hash, produced-file digests, scalar metrics and
pass/fail verdicts.  Identical config + seed reproduce the CSV bytes and
the manifest's deterministic core exactly; wall-clock timestamps live
outside that core.  A run resolves its initial data once, before its
first step (``_set_up``; a snapshot's digest is of the bytes parsed): every
member, perturbation and ``initial.hsf`` is mollified from that one read,
``initial.hsf`` as its runner's (or ladder member's) parts (``_mollified``).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .decomposition import (_mollify_parts, _step_part, prepare_initial_parts,
                            run_decomposition)
from .diagnostics import DiagnosticsSeries, integrate_series
from .errors import ConfigError, DataError
from .estimates import (_MOSER_BATCH, _nested_ratios, fit_sup_envelope_c0,
                        ladyzhenskaya_ratio, moser_batch_check, moser_bound_check,
                        random_instance, saturated_instance)
from .io import _snapshot_bytes
from .solver import integrate, make_state, step
from .spectral import (PhysicalField, _band_l2, dealias, field_from_function,
                       l2_norm, to_spectral)
from .spectral import linf_norm  # noqa: F401  -- a name the benchmark's tracer rebinds

ENERGY_RESIDUAL_TOL = 1e-7
ENERGY_SHRINK_MIN = 6.0
RECONSTRUCTION_TOL = 1e-8
STABILITY_RATIO_RANGE = (1.5, 2.5)
LADYZHENSKAYA_DRIFT_TOL = 0.10
CONSTANT_CASE_TOL = 1e-12
SATURATED_M0_DELTA0 = (2.0, 0.1)     # the saturated Moser instance: a1 = M0 delta0^2


@dataclass
class ExperimentReport:
    kind: str
    metrics: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)      # name -> bytes
    inputs: list = field(default_factory=list)     # {"name", "sha256"} per file read

    @property
    def all_pass(self):
        return all(self.verdicts.values())


# ---------------------------------------------------------------------------
# individual experiments
# ---------------------------------------------------------------------------

def _set_up(cfg: RunConfig, report: ExperimentReport):
    """Un-mollified (v0bar, V0); records a snapshot's digest, of the bytes parsed."""
    spec = replace(cfg.initial_data, epsilon=0.0)
    return prepare_initial_parts(cfg.make_grid(), spec, report.inputs)


def _mollified(cfg: RunConfig, report: ExperimentReport, parts, epsilon=None):
    """``parts`` mollified at ``epsilon`` (None: the config's) by one multiplier;
    at the config's, any ``initial.hsf`` is written from the first two of them."""
    own = cfg.initial_data.epsilon
    parts = _mollify_parts(parts, own if epsilon is None else epsilon)
    if cfg.snapshots and epsilon in (None, own):
        report.files["initial.hsf"] = _snapshot_bytes(parts[0] + parts[1])
    return parts


def exp_energy_identity(cfg: RunConfig) -> ExperimentReport:
    """Energy-identity residual of a smooth-data run, and its dt-convergence."""
    report = ExperimentReport("energy_identity")
    vbar0, step0 = _mollified(cfg, report, _set_up(cfg, report))
    state = make_state(vbar0 + step0, 0.0, cfg.physics())
    for label, dt in (("series", cfg.dt), ("series_half", cfg.dt / 2.0)):
        _, series = integrate(state, cfg.step_control(dt), cfg.t_end)
        report.files[f"{label}.csv"] = series.to_csv().encode()
    return _judged(report, cfg)


def exp_decomposition(cfg: RunConfig) -> ExperimentReport:
    """Split run: reconstruction residual, part regularity and the sup-norm fit."""
    report = ExperimentReport("decomposition")
    vbar0, step0 = _mollified(cfg, report, _set_up(cfg, report))
    _, ser = run_decomposition(vbar0, step0, cfg.physics(), cfg.step_control(),
                               cfg.t_end)
    report.files["series.csv"] = ser.to_csv().encode()
    report.metrics["dz_vbar_dissipation"] = float(ser.array("dz_vbar_dissipation")[-1])
    return _judged(report, cfg)


def exp_stability(cfg: RunConfig) -> ExperimentReport:
    """Perturbation growth against the Gronwall-type envelope.

    The split run of ``exp_decomposition``, whose ``series.csv`` it writes,
    with two perturbed trajectories (sizes sigma_p and sigma_p / 2) stepped
    by its hook, so differences are sampled at identical times.
    ``differences.json`` also holds the envelope weight
    m_hat(t) = (1 + ||dz vbar||^2)(1 + ||grad vbar||^2 + ||grad_H dz vbar||^2)
    from the X part's series at those times.
    """
    params = cfg.physics()
    ctl = cfg.step_control()
    report = ExperimentReport("stability")
    data = _set_up(cfg, report)
    chi = _step_part(data[0].grid, cfg.eta_perturbation, (cfg.sigma_perturbation, 0.0))
    vbar0, step0, delta_full = _mollified(cfg, report, data + (chi,))
    v0 = vbar0 + step0
    members = {"diff_sigma": make_state(v0 + delta_full, 0.0, params),
               "diff_sigma_half": make_state(v0 + delta_full * 0.5, 0.0, params)}
    diffs = {name: [] for name in members}

    def perturbed(dt, split):
        for name, diff in diffs.items():
            if dt:                              # dt = 0.0 only at t = 0
                members[name] = step(members[name], ctl, dt=dt)
            diff.append(_band_l2(split.driver.v - members[name].v))

    _, ser = run_decomposition(vbar0, step0, params, ctl, cfg.t_end,
                               hooks=(perturbed,))
    with np.errstate(over="ignore"):
        m_hat = ((1.0 + ser.array("dz_vbar_l2") ** 2)
                 * (1.0 + ser.array("grad_vbar_l2") ** 2 + ser.array("grad_h_dz_vbar_sq")))
    if not np.all(np.isfinite(m_hat)):
        raise DataError("the envelope weight m_hat overflows: the data are too large")
    report.files["series.csv"] = ser.to_csv().encode()
    report.files["differences.json"] = _json_bytes({
        "t": ser.columns["t"], "m_hat": m_hat.tolist(), **diffs,
        "normalizer_sigma": diffs["diff_sigma"][0],
        "normalizer_sigma_half": diffs["diff_sigma_half"][0]})
    return _judged(report, cfg)


def exp_mollification_convergence(cfg: RunConfig) -> ExperimentReport:
    """Cauchy behavior of the trajectory as the mollification radius halves."""
    params = cfg.physics()
    ctl = cfg.step_control()
    report = ExperimentReport("mollification")
    parts = _set_up(cfg, report)
    if cfg.snapshots and cfg.initial_data.epsilon not in cfg.epsilons:
        _mollified(cfg, report, parts)     # else a member writes initial.hsf
    n_steps = cfg.planned_steps
    k = min(cfg.sample_count, n_steps)
    sampled = {0} | {max(1, round(i * n_steps / k)) for i in range(1, k + 1)}

    def _one(eps):
        vbar0, step0 = _mollified(cfg, report, parts, eps)
        captured, steps = [], count()

        def capture(dt, state):             # v at t = 0 and at the sampled steps
            if next(steps) in sampled:
                captured.append(state.v)

        _, series = integrate(make_state(vbar0 + step0, 0.0, params), ctl, cfg.t_end,
                              hooks=(capture,))
        return captured, series

    from concurrent.futures import ThreadPoolExecutor   # its only user; ~5 ms to import

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        results = list(pool.map(_one, cfg.epsilons))

    distances = [float(max(_band_l2(a - b) for a, b in zip(cap_a, cap_b)))
                 for (cap_a, _), (cap_b, _) in zip(results, results[1:])]
    for i, (_, series) in enumerate(results):
        report.files[f"series_eps{i}.csv"] = series.to_csv().encode()
    report.files["distances.json"] = _json_bytes({
        "epsilons": list(cfg.epsilons), "pairwise_distances": distances})
    return _judged(report, cfg)


def _exponent_inequality_holds(kmax=60):
    """Closed form of the exponent count: 4*2^k - (k+3) >= 3k+1 for k = 1..kmax."""
    return all(4 * 2 ** k - (k + 3) >= 3 * k + 1 for k in range(1, kmax + 1))


def _random_scalar_field(rng, grid, shaping):
    """A dealiased white-noise field times ``shaping``, at unit L2 norm."""
    vals = rng.standard_normal((1,) + grid.physical_shape)
    f = dealias(to_spectral(PhysicalField(grid, vals)))
    f = f.with_coeffs(f.coeffs * shaping)
    norm = l2_norm(f)
    return f * (1.0 / norm) if norm > 0 else f


def exp_lemma_suite(cfg: RunConfig) -> ExperimentReport:
    """Iteration-lemma ensemble plus the layer-inequality ratio ensemble.

    Each random triple gives its ratios on the grid ("coarse") and with nz
    doubled ("fine") from one stream (``estimates._nested_ratios``).
    """
    rng = np.random.default_rng(cfg.seed)
    report = ExperimentReport("lemma_suite")
    if cfg.snapshots:
        _mollified(cfg, report, _set_up(cfg, report))

    violations, tightness = 0, 0.0      # tightness: closest approach A_k / a_k
    for start in range(0, cfg.moser_count, _MOSER_BATCH):
        batch = random_instance(rng, cfg.moser_kmax, min(_MOSER_BATCH, cfg.moser_count - start))
        bad, closest = moser_batch_check(batch)
        violations, tightness = violations + bad, max(tightness, closest)
    sat = moser_bound_check(saturated_instance(*SATURATED_M0_DELTA0, cfg.moser_kmax))
    report.files["moser.json"] = _json_bytes({
        "count": cfg.moser_count, "violations": violations,
        "max_tightness": float(tightness),
        "saturated_log_a1": float(sat.log_certified[0])})

    coarse = cfg.make_grid()
    fine = cfg.make_grid(nz=2 * cfg.grid_nz)
    shaping = np.exp(-coarse.k2 / (2.0 * (4.0 * np.pi) ** 2))
    ratios = []
    for _ in range(cfg.ladyzhenskaya_count):
        triple = [_random_scalar_field(rng, coarse, shaping) for _ in range(3)]
        rc, rf = _nested_ratios(triple, fine)
        ratios.append({"coarse": [rc.ratio1, rc.ratio2],
                       "fine": [rf.ratio1, rf.ratio2]})

    ones = field_from_function(coarse, lambda X, Y, Z: 1.0 + 0 * X)
    const_case = ladyzhenskaya_ratio(ones, ones, ones)

    maxima = _ratio_maxima(ratios)
    report.files["ratios.json"] = _json_bytes(
        {"samples": ratios, "max_coarse": maxima["coarse"], "max_fine": maxima["fine"],
         "constant_case": [const_case.ratio1, const_case.ratio2]})
    return _judged(report, cfg)


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
# One pure judge per kind, ``judge(files, h) -> (derived, verdicts)``, serves
# both ``run`` (on the bytes it is about to write) and ``report`` (on the
# bytes read back, each checked against its sha256).  Every verdict and
# derived metric comes from the CSV/JSON files and the grid's h alone; the
# manifest's metrics are output, never input.  The ``.17g`` CSV text and
# JSON float repr round-trip bit-exactly, so both callers reach the same
# values.

def _artifact(files, name):
    if name not in files:
        raise DataError(f"run has no {name}")
    return files[name]


def _series(files, name):
    return DiagnosticsSeries.from_csv(_artifact(files, name).decode())


def _judge_energy_identity(files, h):
    res = float(np.max(_series(files, "series.csv").array("energy_residual")))
    res_half = float(np.max(_series(files, "series_half.csv").array("energy_residual")))
    shrink = res / max(res_half, 1e-300)
    derived = dict(residual=res, residual_half=res_half, shrink=shrink,
                   convergence_order=float(np.log2(max(shrink, 1e-300))))
    return derived, {
        "energy_residual_ok": res <= ENERGY_RESIDUAL_TOL,
        "energy_shrink_ok": (res <= 1e-12) or (shrink >= ENERGY_SHRINK_MIN)}


def _judge_decomposition(files, h):
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


def _judge_stability(files, h):
    record = json.loads(_artifact(files, "differences.json"))
    diff_b = np.asarray(record["diff_sigma"])
    diff_c = np.asarray(record["diff_sigma_half"])
    d0_b = max(record["normalizer_sigma"], 1e-300)
    ratio = float(diff_b[-1] / max(diff_c[-1], 1e-300))
    # Smallest c with ||delta(t)|| <= ||delta(0)|| exp(c int_0^t m_hat).
    m_int = integrate_series(record["t"], record["m_hat"])
    with np.errstate(divide="ignore", invalid="ignore"):
        demands = np.log(diff_b / d0_b) / m_int
    demands = demands[1:][np.isfinite(demands[1:])]
    envelope_c = float(np.max(demands)) if demands.size else 0.0
    lo, hi = STABILITY_RATIO_RANGE
    derived = dict(
        envelope_c=envelope_c,
        final_diff_sigma=float(diff_b[-1]),
        final_diff_sigma_half=float(diff_c[-1]),
        final_ratio=ratio,
        normalized_final_growth=float(diff_b[-1] / d0_b))
    return derived, {
        "perturbation_ratio_ok": lo <= ratio <= hi,
        "difference_bounded": bool(np.all(np.isfinite(diff_b))
                                   and np.all(np.isfinite(diff_c))),
        "envelope_finite": bool(np.isfinite(envelope_c))}


def _judge_mollification(files, h):
    d = json.loads(_artifact(files, "distances.json"))["pairwise_distances"]
    derived = {f"distance_{i}": float(x) for i, x in enumerate(d)}
    derived["n_pairs"] = float(len(d))
    return derived, {
        "cauchy_decrease": all(d[i] > d[i + 1] for i in range(len(d) - 1)),
        "distances_finite": all(np.isfinite(d))}


def _ratio_maxima(samples):
    """Running max, from 0.0, of each ratio over the samples, per lattice."""
    maxima = {"coarse": [0.0, 0.0], "fine": [0.0, 0.0]}
    for sample in samples:
        for lattice in maxima:
            maxima[lattice] = list(map(max, maxima[lattice], sample[lattice]))
    return maxima


def _judge_lemma_suite(files, h):
    moser = json.loads(_artifact(files, "moser.json"))
    ratios = json.loads(_artifact(files, "ratios.json"))
    samples = ratios["samples"]
    const1, const2 = ratios["constant_case"]
    m0, delta0 = SATURATED_M0_DELTA0
    a1_gap = abs(moser["saturated_log_a1"] - (np.log(m0) + 2.0 * np.log(delta0)))
    derived = dict(moser_count=float(moser["count"]),
                   moser_violations=float(moser["violations"]),
                   moser_max_tightness=float(moser["max_tightness"]),
                   a1_identity_gap=float(a1_gap),
                   constant_case_ratio1=float(const1),
                   constant_case_ratio2=float(const2))
    maxima = _ratio_maxima(samples)
    derived.update({f"max_ratio{i + 1}_{lattice}": top[i]
                    for lattice, top in maxima.items() for i in (0, 1)})
    for i in (0, 1):
        coarse, fine = maxima["coarse"][i], maxima["fine"][i]
        derived[f"ratio{i + 1}_drift"] = float(abs(fine - coarse) / max(coarse, 1e-300))
    expected = np.sqrt(2.0 * h)          # the constant field's exact ratio
    return derived, {
        "moser_zero_violations": moser["violations"] == 0,
        "a1_identity": bool(a1_gap <= 1e-12),
        "exponent_inequality": _exponent_inequality_holds(),
        "ratios_finite": bool(np.all(np.isfinite(
            [s[lattice] for s in samples for lattice in ("coarse", "fine")]))),
        "ratio_drift_ok": bool(derived["ratio1_drift"] <= LADYZHENSKAYA_DRIFT_TOL
                               and derived["ratio2_drift"] <= LADYZHENSKAYA_DRIFT_TOL),
        "constant_case_ok": bool(abs(const1 - expected) <= CONSTANT_CASE_TOL
                                 and abs(const2 - expected) <= CONSTANT_CASE_TOL)}


_JUDGES = {
    "energy_identity": _judge_energy_identity,
    "decomposition": _judge_decomposition,
    "stability": _judge_stability,
    "mollification": _judge_mollification,
    "lemma_suite": _judge_lemma_suite,
}


def _judged(report, cfg):
    """Add the judge's derived metrics and verdicts to a runner's report."""
    derived, report.verdicts = _JUDGES[report.kind](report.files, cfg.h)
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
    finished = time.time()
    file_entries = []
    for name, payload in sorted(report.files.items()):
        (out / name).write_bytes(payload)
        file_entries.append({"name": name, "sha256": hashlib.sha256(payload).hexdigest()})
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
    if report.inputs:           # a run that read a snapshot names its bytes
        manifest["inputs"] = report.inputs
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
    """Recompute every verdict from the persisted files, with the run's judge.

    Each file the manifest lists must be a bare file name inside
    ``run_dir``.  It is read once, and the bytes read are checked against
    its sha256 before the judge gets them.
    """
    judge = _JUDGES.get(manifest["experiment"])
    if judge is None:
        raise ConfigError(f"unknown experiment kind {manifest['experiment']!r}")
    files = {}
    for entry in manifest["files"]:
        name = entry["name"]
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise DataError(f"manifest file name {name!r} is not a bare file name")
        path = Path(run_dir) / name
        if not path.exists():
            raise ConfigError(f"missing file {name} in {run_dir}")
        payload = path.read_bytes()
        if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
            raise DataError(f"{name} does not match its sha256 in the manifest")
        files[name] = payload
    config = dict(line.partition(" = ")[::2] for line in manifest["config"].splitlines())
    return judge(files, float(config["grid.h"]))[1]
