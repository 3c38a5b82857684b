"""The three workloads: inputs made from a seed, one round each, output checks.

A round is one fixed piece of work run the way ``hydrostat run`` runs it
in a fresh process: the package is imported anew (so its module-level
caches start empty), the config text is parsed, and the run goes to its
end with its artifacts on disk.  Set-up ends where the first time step
(or the first lemma instance) starts; the marker that notes that moment is
the only name the untraced run rebinds.

Every check is computed here from the artifacts, from a property the
method must have or from a closed form, never from a stored output.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field

MODULES = ("spectral", "hydrostatics", "solver", "decomposition", "estimates",
           "diagnostics", "experiments", "config")

RECONSTRUCTION_TOL = 1e-8
CONSTANT_CASE_TOL = 1e-12
A1_TOL = 1e-12
# Stepper share of the energy-identity gap, relative to E(0).  The
# integrating-factor RK3 keeps the energy law only to O(dt^3); at
# dt = 5e-4 the gap on the smooth data stays below 5e-6.
STEPPER_ENERGY_TOL = 5e-5
# Safety factor on the a-posteriori Simpson error estimate.
QUADRATURE_SAFETY = 10.0


def fresh_import():
    """Import the package as a new process would, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "hydrostat" or m.startswith("hydrostat.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"hydrostat.{m}") for m in MODULES}
    return type("Program", (), mods)


class SetupDone(Exception):
    """Stops a set-up-only round where its first time step would start."""


class FirstCall:
    """Pass-through wrapper noting when ``fn`` is first entered.

    With ``stop``, the first call raises ``SetupDone`` instead, which ends
    the round right after its set-up.
    """

    def __init__(self, fn, stop):
        self.fn = fn
        self.stop = stop
        self.started = None
        self.returned = 0

    def __call__(self, *args, **kwargs):
        if self.started is None:
            self.started = time.perf_counter()
            if self.stop:
                raise SetupDone
        out = self.fn(*args, **kwargs)
        self.returned += 1
        return out


@dataclass
class Round:
    setup_s: float
    wall_s: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)   # wrong outputs


def _num(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# split-32: the decomposition experiment at the acceptance scale
# ---------------------------------------------------------------------------

SPLIT_STEPS = 10
SPLIT_DT = 5e-4
SPLIT_VERDICTS = 3


def split_inputs(seed):
    """Cusp + step data a|z|^delta + sigma chi_(-eta, eta), eps = 0.1, f0 = 1."""
    rng = random.Random(seed)
    return {
        "a": (rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3)),
        "delta": rng.uniform(0.75, 1.25),
        "eta": rng.uniform(0.2, 0.3),
        "sigma": (rng.uniform(0.15, 0.25), rng.uniform(-0.05, 0.05)),
    }


def split_config(seed, out_dir):
    p = split_inputs(seed)
    return f"""
[grid]
nx = 32
ny = 32
nz = 64
h = 0.5
[physics]
f0 = 1.0
[time]
dt = {_num(SPLIT_DT)}
t_end = {_num(SPLIT_STEPS * SPLIT_DT)}
[initial_data]
kind = cusp_step
a = {_num(p['a'][0])}, {_num(p['a'][1])}
delta = {_num(p['delta'])}
eta = {_num(p['eta'])}
sigma = {_num(p['sigma'][0])}, {_num(p['sigma'][1])}
epsilon = 0.1
[experiment]
kind = decomposition
[output]
directory = {out_dir}
seed = {seed}
threads = 1
"""


# ---------------------------------------------------------------------------
# smooth-64: the nonlinear stepper alone, transform-bound
# ---------------------------------------------------------------------------

SMOOTH_STEPS = 4
SMOOTH_DT = 5e-4


def smooth_inputs(seed):
    """Low-mode analytic data with x, y and z dependence in both components.

    The baroclinic parts are horizontally divergent, so w, advection and
    the pressure all stay active; f0 != 0 keeps the Coriolis term on.
    """
    rng = random.Random(seed)
    amp = [rng.uniform(0.5, 1.0) for _ in range(4)]
    phase = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(4)]
    u = (f"{_num(amp[0])}*cos(2*pi*x + {_num(phase[0])})*cos(pi*z/h)"
         f" + {_num(amp[1])}*sin(2*pi*y + {_num(phase[1])})")
    v = (f"{_num(amp[2])}*sin(2*pi*y + {_num(phase[2])})*cos(pi*z/h)"
         f" + {_num(amp[3])}*cos(2*pi*(x + y) + {_num(phase[3])})*cos(2*pi*z/h)")
    return {"f0": rng.uniform(0.5, 2.0), "u": u, "v": v}


def smooth_config(seed, out_dir):
    p = smooth_inputs(seed)
    return f"""
[grid]
nx = 64
ny = 64
nz = 128
h = 0.5
[physics]
f0 = {_num(p['f0'])}
[time]
dt = {_num(SMOOTH_DT)}
t_end = {_num(SMOOTH_STEPS * SMOOTH_DT)}
[initial_data]
kind = analytic
epsilon = 0
expression_u = {p['u']}
expression_v = {p['v']}
[experiment]
kind = energy_identity
[output]
directory = {out_dir}
seed = {seed}
threads = 1
"""


# ---------------------------------------------------------------------------
# lemmas: the Moser iteration and Ladyzhenskaya ratio ensembles
# ---------------------------------------------------------------------------

MOSER_COUNT = 1000
LADY_COUNT = 12
LEMMA_VERDICTS = 6


def lemma_inputs(seed):
    rng = random.Random(seed)
    return {"h": rng.uniform(0.3, 0.7),
            "m0": rng.uniform(2.0, 10.0), "delta0": rng.uniform(0.01, 0.9)}


def lemma_config(seed, out_dir):
    p = lemma_inputs(seed)
    return f"""
[grid]
nx = 32
ny = 32
nz = 64
h = {_num(p['h'])}
[experiment]
kind = lemma_suite
moser_count = {MOSER_COUNT}
moser_kmax = 40
ladyzhenskaya_count = {LADY_COUNT}
[output]
directory = {out_dir}
seed = {seed}
threads = 1
"""


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def _call(tracer, name, fn, *args, **kwargs):
    """Call into the program, as a top-level span when tracing."""
    if tracer is not None:
        fn = tracer.wrap(name, fn)
    return fn(*args, **kwargs)


def _prepare(tracer):
    prog = fresh_import()
    if tracer is not None:
        tracer.install(prog)
    return prog


def _experiment_round(config_text, out_dir, tracer, setup_only, marker_module,
                      marker_attr, operations):
    """One ``run_experiment`` round; set-up ends at the marked first call."""
    t0 = time.perf_counter()
    prog = _prepare(tracer)
    cfg = _call(tracer, "config.parse", prog.config.parse_config, text=config_text)
    mod = getattr(prog, marker_module)
    marker = FirstCall(getattr(mod, marker_attr), setup_only)
    setattr(mod, marker_attr, marker)
    try:
        report, _ = _call(tracer, "experiments.run", prog.experiments.run_experiment,
                          cfg, out_dir=out_dir)
    except SetupDone:
        return Round(marker.started - t0, 0.0, 0, 0), None
    except _hydrostat_error() as err:
        return _raised(t0, marker, operations, err), None
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.counters["bytes_written"] += sum(p.stat().st_size for p in out_dir.iterdir())
    return Round(marker.started - t0, t1 - marker.started, operations, 0), report


def _hydrostat_error():
    """The program's error class, from the import the round is using."""
    return sys.modules["hydrostat.errors"].HydrostatError


def _raised(t0, marker, operations, err):
    """A round cut by the program's error: every operation not completed failed."""
    t1 = time.perf_counter()
    start = marker.started or t1
    print(f"round cut short: {type(err).__name__}: {err}", file=sys.stderr)
    return Round(start - t0, t1 - start, operations, operations - marker.returned)


def split_round(seed, out_dir, tracer=None, setup_only=False):
    rnd, report = _experiment_round(split_config(seed, out_dir), out_dir, tracer, setup_only,
                                    "decomposition", "step", SPLIT_STEPS + SPLIT_VERDICTS)
    if report is not None:
        rnd.problems += _count_verdicts(rnd, report.verdicts, SPLIT_VERDICTS)
        rnd.problems += check_series(out_dir / "series.csv", SPLIT_STEPS,
                                     SPLIT_STEPS * SPLIT_DT, reconstruction=True)
    return rnd


def smooth_round(seed, out_dir, tracer=None, setup_only=False):
    config_text = smooth_config(seed, out_dir)
    t0 = time.perf_counter()
    prog = _prepare(tracer)
    cfg = _call(tracer, "config.parse", prog.config.parse_config, text=config_text)
    grid = cfg.make_grid()
    vbar0, v_step0 = prog.decomposition.prepare_initial_parts(grid, cfg.initial_data)
    state = prog.solver.make_state(vbar0 + v_step0, 0.0, cfg.physics())
    marker = FirstCall(prog.solver.step, setup_only)
    prog.solver.step = marker
    try:
        _, series = prog.solver.integrate(state, cfg.step_control(), cfg.t_end)
    except SetupDone:
        return Round(marker.started - t0, 0.0, 0, 0)
    except _hydrostat_error() as err:
        return _raised(t0, marker, SMOOTH_STEPS, err)
    (out_dir / "series.csv").write_text(series.to_csv())
    t1 = time.perf_counter()
    rnd = Round(marker.started - t0, t1 - marker.started, SMOOTH_STEPS, 0)
    rnd.problems += check_series(out_dir / "series.csv", SMOOTH_STEPS,
                                 SMOOTH_STEPS * SMOOTH_DT, reconstruction=False)
    return rnd


def lemma_round(seed, out_dir, tracer=None, setup_only=False):
    operations = MOSER_COUNT + LADY_COUNT + LEMMA_VERDICTS
    rnd, report = _experiment_round(lemma_config(seed, out_dir), out_dir, tracer, setup_only,
                                    "experiments", "random_instance", operations)
    if report is not None:
        rnd.problems += _count_verdicts(rnd, report.verdicts, LEMMA_VERDICTS)
        rnd.problems += check_lemmas(out_dir, rnd, lemma_inputs(seed))
        rnd.problems += check_saturated(lemma_inputs(seed))
    return rnd


def _count_verdicts(rnd, verdicts, expected):
    """Each verdict is one operation of the round; a failed one is a failed operation."""
    rnd.failed += sum(1 for ok in verdicts.values() if not ok)
    if len(verdicts) != expected:
        return [f"{len(verdicts)} verdicts, expected {expected}"]
    return []


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) for r in rows] for k in rows[0]} if rows else {}


def simpson(g, h):
    """Composite Simpson's rule on an even number of uniform intervals."""
    n = len(g) - 1
    if n < 4 or n % 2:
        raise ValueError(f"{n} intervals: need an even number, at least 4")
    return h / 3.0 * (g[0] + g[-1] + 4.0 * sum(g[1:-1:2]) + 2.0 * sum(g[2:-1:2]))


def energy_gap(t, l2, grad_l2):
    """Relative gap in E(T) + int_0^T ||grad v||^2 = E(0), E = ||v||_2^2 / 2.

    Returns the gap by Simpson's rule and that rule's error estimate
    (T / 180) h^4 max|g^(4)|, with h^4 g^(4) read off the fourth
    differences of the samples g = ||grad v||^2; both relative to E(0).
    """
    n = len(t) - 1
    h = (t[-1] - t[0]) / n
    g = [x * x for x in grad_l2]
    e0, e1 = 0.5 * l2[0] ** 2, 0.5 * l2[-1] ** 2
    d4 = max(abs(g[i] - 4 * g[i + 1] + 6 * g[i + 2] - 4 * g[i + 3] + g[i + 4])
             for i in range(n - 3))
    return abs(e1 + simpson(g, h) - e0) / e0, (t[-1] - t[0]) / 180.0 * d4 / e0


def check_series(path, steps, t_end, reconstruction):
    problems = []
    cols = read_csv(path)
    t = cols.get("t", [])
    if len(t) != steps + 1:
        return [f"{path.name}: {len(t)} rows, expected {steps + 1}"]
    if not all(math.isfinite(x) for c in ("t", "l2", "grad_l2") for x in cols[c]):
        return [f"{path.name}: non-finite norms"]
    h = t_end / steps
    if any(abs((b - a) - h) > 1e-9 * h for a, b in zip(t, t[1:])) or abs(t[-1] - t_end) > 1e-12:
        problems.append(f"{path.name}: time column is not {steps} steps to {t_end}")
    # The viscous system dissipates: rotation, advection and pressure are
    # energy-neutral, so ||v||_2 never grows.
    if any(b > a * (1 + 1e-14) for a, b in zip(cols["l2"], cols["l2"][1:])):
        problems.append(f"{path.name}: kinetic energy grew")
    gap, quad_err = energy_gap(t, cols["l2"], cols["grad_l2"])
    tol = STEPPER_ENERGY_TOL + QUADRATURE_SAFETY * quad_err
    if not gap <= tol:
        problems.append(f"{path.name}: energy identity gap {gap:.3e} above {tol:.3e}")
    if reconstruction:
        recon = cols["recon_residual"]
        if not all(0.0 <= r <= RECONSTRUCTION_TOL for r in recon):
            problems.append(f"{path.name}: reconstruction residual {max(recon):.3e} "
                            f"above {RECONSTRUCTION_TOL:.0e}")
    return problems


def check_lemmas(out_dir, rnd, inputs):
    problems = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    metrics = manifest["metrics"]
    samples = json.loads((out_dir / "ratios.json").read_text())["samples"]
    if len(samples) != LADY_COUNT:
        problems.append(f"ratios.json holds {len(samples)} triples, expected {LADY_COUNT}")
    # Failed operations: Moser violations and triples with a non-finite ratio.
    rnd.failed += int(metrics["moser_violations"])
    rnd.failed += sum(1 for s in samples
                      if not all(math.isfinite(r) for r in s["coarse"] + s["fine"]))
    # Saturated instance of the experiment (M0 = 2, delta0 = 0.1): a1 = M0 delta0^2.
    if not metrics["a1_identity_gap"] <= A1_TOL:
        problems.append(f"a1 identity gap {metrics['a1_identity_gap']:.3e}")
    # A constant field makes every layer norm a power of the volume 2h:
    # both ratios equal sqrt(2h).
    expected = math.sqrt(2.0 * inputs["h"])
    for key in ("constant_case_ratio1", "constant_case_ratio2"):
        if not abs(metrics[key] - expected) <= CONSTANT_CASE_TOL:
            problems.append(f"{key} = {metrics[key]!r}, expected sqrt(2h) = {expected!r}")
    return problems


def check_saturated(inputs):
    """a1 = M0 delta0^2 on the seed's own saturated instance, outside the timing."""
    est = sys.modules["hydrostat.estimates"]
    m0, d0 = inputs["m0"], inputs["delta0"]
    verdict = est.moser_bound_check(est.saturated_instance(m0, d0, 40))
    a1 = math.exp(verdict.log_certified[0])
    if not verdict.ok or abs(a1 - m0 * d0 ** 2) > A1_TOL * m0 * d0 ** 2:
        return [f"saturated instance M0={m0!r} delta0={d0!r}: "
                f"{verdict.status}, a1={a1!r} vs M0 delta0^2={m0 * d0 ** 2!r}"]
    return []


WORKLOADS = {
    "split-32": split_round,
    "smooth-64": smooth_round,
    "lemmas": lemma_round,
}
