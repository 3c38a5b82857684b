"""Acceptance suite: one test per criterion, at the stated desk scale.

Grid 32 x 32 x 64 (h = 0.5), dt = 5e-4, t_end = 0.1 unless a criterion
says otherwise.  Each test prints a single PASS/FAIL line (visible with
``pytest -s`` or in the captured output) and asserts the criterion at its
stated tolerance.
"""

import time

import numpy as np
import pytest

from hydrostat.config import parse_config
from hydrostat.decomposition import (InitialDataSpec, prepare_initial_parts,
                                     run_decomposition)
from hydrostat.estimates import (fit_sup_envelope_c0, moser_batch_check, moser_bound_check,
                                 random_instance, saturated_instance)
from hydrostat.experiments import (exp_lemma_suite, exp_mollification_convergence,
                                   exp_stability, load_manifest,
                                   manifest_core_bytes, run_experiment)
from hydrostat.hydrostatics import boundary_trace_norm, recover_w
from hydrostat.solver import (PhysicsParams, StepControl, integrate,
                              make_state)
from hydrostat.spectral import (EVEN, Grid, derivative, div_h,
                                field_from_function, l2_norm, to_physical)

H = 0.5
DT = 5e-4
T_END = 0.1
A = 1.0

CUSP_SPEC = InitialDataSpec(kind="cusp_step", a=(1.0, 0.0), delta=1.0,
                            eta=0.25, sigma=(0.2, 0.0), epsilon=0.1)


def _line(num, name, ok, detail):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def grid():
    return Grid.make(32, 32, 64, H)


@pytest.fixture(scope="module")
def decay_run(grid):
    """Shared decay-data run at the canonical dt, with wall-clock timing."""
    v0 = field_from_function(grid, lambda X, Y, Z: (0 * X, A * np.cos(2 * np.pi * X)),
                             symmetry=EVEN)
    state = make_state(v0, 0.0, PhysicsParams(0.0))
    start = time.monotonic()
    final, series = integrate(state, StepControl(dt=DT), T_END)
    elapsed = time.monotonic() - start
    return final, series, elapsed


@pytest.fixture(scope="module")
def decomposition_runs():
    """Series of the split runs of the cusp+step data at nz = 32 and nz = 64."""
    out = {}
    for nz in (32, 64):
        g = Grid.make(32, 32, nz, H)
        vbar0, step0 = prepare_initial_parts(g, CUSP_SPEC)
        out[nz] = run_decomposition(vbar0, step0, PhysicsParams(1.0),
                                    StepControl(dt=DT), T_END)[1]
    return out


def test_01_exact_decay(grid, decay_run):
    """Pure-shear data follows the closed-form heat decay."""
    final, _, elapsed = decay_run
    X, _, _ = grid.mesh()
    exact = A * np.exp(-4 * np.pi ** 2 * T_END) * np.cos(2 * np.pi * X)
    vals = to_physical(final.v).values
    rel = max(np.max(np.abs(vals[1] - exact)), np.max(np.abs(vals[0]))) / np.max(np.abs(exact))
    ok = rel <= 1e-7 and elapsed < 60.0
    _line(1, "exact decay", ok, f"rel_err={rel:.3e}, runtime={elapsed:.1f}s")
    assert rel <= 1e-7
    assert elapsed < 60.0


def test_02_rotation_decay(grid):
    """Coriolis rotation on a decaying vertical mode, checked every step."""
    f0 = 1.0
    kap2 = (np.pi / H) ** 2
    v0 = field_from_function(grid, lambda X, Y, Z: (A * np.cos(np.pi * Z / H), 0 * X),
                             symmetry=EVEN)
    _, _, Z = grid.mesh()
    profile = np.cos(np.pi * Z / H)
    worst = 0.0

    def compare(dt, state):
        nonlocal worst
        amp = A * np.exp(-kap2 * state.t)
        vals = to_physical(state.v).values
        err = max(np.max(np.abs(vals[0] - amp * np.cos(f0 * state.t) * profile)),
                  np.max(np.abs(vals[1] + amp * np.sin(f0 * state.t) * profile)))
        worst = max(worst, err / amp)

    state = make_state(v0, 0.0, PhysicsParams(f0))
    integrate(state, StepControl(dt=DT), T_END, hooks=(compare,))
    ok = worst <= 1e-6
    _line(2, "rotation-decay", ok, f"max_rel_err={worst:.3e}")
    assert worst <= 1e-6


def test_03_discrete_energy_identity(grid, decay_run):
    """Residual small at dt = 5e-4 and shrinking by >= 6x per halving."""
    _, series, _ = decay_run
    res = float(np.max(series.array("energy_residual")))
    v0 = field_from_function(grid, lambda X, Y, Z: (0 * X, A * np.cos(2 * np.pi * X)),
                             symmetry=EVEN)
    state = make_state(v0, 0.0, PhysicsParams(0.0))
    _, series_half = integrate(state, StepControl(dt=DT / 2), T_END)
    res_half = float(np.max(series_half.array("energy_residual")))
    shrink = res / max(res_half, 1e-300)
    ok = res <= 1e-7 and shrink >= 6.0
    _line(3, "energy identity", ok, f"residual={res:.3e}, shrink={shrink:.1f}x")
    assert res <= 1e-7
    assert shrink >= 6.0


def test_04_divergence_and_w_reconstruction(grid):
    """dz w + div_h v vanishes spectrally and w vanishes on both walls,
    checked after every step of a nonlinear run.

    The data mixes horizontal and vertical structure so that div_h v,
    w and every nonlinear term are genuinely active.
    """
    v0 = field_from_function(
        grid,
        lambda X, Y, Z: (0.5 * np.sin(2 * np.pi * X) * np.cos(np.pi * Z / H)
                         + 0.2 * np.cos(2 * np.pi * Y),
                         0.4 * np.cos(2 * np.pi * X)
                         + 0.3 * np.sin(2 * np.pi * Y) * np.cos(2 * np.pi * Z / H)),
        symmetry=EVEN)
    state = make_state(v0, 0.0, PhysicsParams(1.0))
    worst_div = 0.0
    worst_wall = 0.0

    def check(dt, state):
        nonlocal worst_div, worst_wall
        w = recover_w(state.v)
        s = div_h(state.v)
        residual = l2_norm(derivative(w, "z") + s) / max(l2_norm(s), 1e-300)
        worst_div = max(worst_div, residual)
        worst_wall = max(worst_wall, boundary_trace_norm(w))

    integrate(state, StepControl(dt=DT), T_END, hooks=(check,))
    ok = worst_div <= 1e-12 and worst_wall <= 1e-10
    _line(4, "w reconstruction", ok,
          f"div_residual={worst_div:.3e}, wall_trace={worst_wall:.3e}")
    assert worst_div <= 1e-12
    assert worst_wall <= 1e-10


def test_05_decomposition_reconstruction(decomposition_runs):
    """v equals vbar + V throughout the cusp+step run."""
    series = decomposition_runs[64]
    recon = float(np.nanmax(series.array("recon_residual")))
    ok = recon <= 1e-8
    _line(5, "reconstruction identity", ok, f"max_residual={recon:.3e}")
    assert recon <= 1e-8


def test_06_sup_norm_envelope_fit(decomposition_runs):
    """sup_t ||V||_inf finite and its envelope constant grid-stable."""
    fits = {}
    sup_v = {}
    for nz, ser in decomposition_runs.items():
        linf_V = ser.array("linf_V")
        sup_v[nz] = float(np.max(linf_V))
        fits[nz] = fit_sup_envelope_c0(ser.array("t"), linf_V,
                                       float(linf_V[0]), float(ser.array("l4")[0]))
    drift = abs(fits[64] - fits[32]) / fits[32]
    finite = all(np.isfinite(v) for v in sup_v.values())
    ok = finite and drift <= 0.20
    _line(6, "sup-norm envelope", ok,
          f"sup_V={sup_v[64]:.4f}, c0_32={fits[32]:.3e}, c0_64={fits[64]:.3e}, "
          f"drift={drift:.2%}")
    assert finite
    assert drift <= 0.20


def test_07_iteration_lemma_suite():
    """10,000 randomized hypothesis-satisfying instances, zero violations."""
    rng = np.random.default_rng(20240817)
    violations, _ = moser_batch_check(random_instance(rng, 40, 10_000))
    sat = moser_bound_check(saturated_instance(2.0, 0.1, 40))
    a1_gap = abs(sat.log_certified[0] - (np.log(2.0) + 2 * np.log(0.1)))
    ok = violations == 0 and a1_gap <= 1e-12
    _line(7, "iteration lemma", ok, f"violations={violations}, a1_gap={a1_gap:.1e}")
    assert violations == 0
    assert a1_gap <= 1e-12


def test_08_layer_inequality_ensemble(tmp_path):
    """200 random band-limited triples: finite max ratio, <= 10% drift
    between nz = 32 and nz = 64, and the exact constant-field value."""
    cfg = parse_config(text=f"""
[grid]
nx = 32
ny = 32
nz = 32
[experiment]
kind = lemma_suite
moser_count = 1
ladyzhenskaya_count = 200
[output]
directory = {tmp_path / 'lemma'}
seed = 424242
""")
    report = exp_lemma_suite(cfg)
    m = report.metrics
    ok = (report.verdicts["ratios_finite"] and report.verdicts["ratio_drift_ok"]
          and report.verdicts["constant_case_ok"])
    _line(8, "layer inequality", ok,
          f"max_ratio={m['max_ratio1_fine']:.3f}, drift={m['ratio1_drift']:.2%}, "
          f"const_case={m['constant_case_ratio1']:.15f}")
    assert report.verdicts["ratios_finite"]
    assert report.verdicts["ratio_drift_ok"]
    assert report.verdicts["constant_case_ok"]


def test_09_stability_proxy(tmp_path):
    """Perturbations of sizes sigma and sigma/2 separate linearly."""
    cfg = parse_config(text=f"""
[grid]
nx = 32
ny = 32
nz = 64
[time]
dt = 5e-4
t_end = 0.1
[experiment]
kind = stability
sigma_perturbation = 0.01
eta_perturbation = 0.25
[output]
directory = {tmp_path / 'stab'}
seed = 11
""")
    report = exp_stability(cfg)
    ratio = report.metrics["final_ratio"]
    ok = (1.5 <= ratio <= 2.5) and report.verdicts["difference_bounded"]
    _line(9, "stability proxy", ok,
          f"final_ratio={ratio:.3f}, envelope_c={report.metrics['envelope_c']:.3f}")
    assert 1.5 <= ratio <= 2.5
    assert report.verdicts["difference_bounded"]


def test_10_mollification_cauchy(tmp_path):
    """Halving the mollification radius gives strictly closer trajectories."""
    cfg = parse_config(text=f"""
[grid]
nx = 32
ny = 32
nz = 64
[time]
dt = 5e-4
t_end = 0.1
[experiment]
kind = mollification
epsilons = 0.2, 0.1, 0.05
sample_count = 4
[output]
directory = {tmp_path / 'moll'}
seed = 11
threads = 3
""")
    report = exp_mollification_convergence(cfg)
    d = [report.metrics["distance_0"], report.metrics["distance_1"]]
    ok = report.verdicts["cauchy_decrease"]
    _line(10, "mollification ladder", ok, f"distances={d[0]:.3e} > {d[1]:.3e}")
    assert report.verdicts["cauchy_decrease"]


def test_11_determinism(tmp_path):
    """Identical config + seed reproduce CSV bytes and the manifest core."""
    cfg = parse_config(text=f"""
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
directory = {tmp_path / 'det'}
seed = 99
""")
    run_experiment(cfg, out_dir=tmp_path / "det_a")
    run_experiment(cfg, out_dir=tmp_path / "det_b")
    csv_same = ((tmp_path / "det_a" / "series.csv").read_bytes()
                == (tmp_path / "det_b" / "series.csv").read_bytes())
    core_same = (manifest_core_bytes(load_manifest(tmp_path / "det_a"))
                 == manifest_core_bytes(load_manifest(tmp_path / "det_b")))
    ok = csv_same and core_same
    _line(11, "determinism", ok, f"csv_identical={csv_same}, manifest_core={core_same}")
    assert csv_same
    assert core_same
