"""Spans and counters recorded from outside the program.

The tracer rebinds public functions of ``hydrostat`` where their callers
look them up (modules import each other's names, so ``solver`` calls its
own binding of ``recover_w`` and ``decomposition`` its own binding of
``step``).  Every transform in the program goes through
``numpy.fft.rfftn`` / ``numpy.fft.irfftn``, so those two numpy functions
are the transform boundary.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# (module, attribute, span name): every binding a workload reaches.
BINDINGS = (
    ("spectral", "oversample", "spectral.oversample"),
    ("estimates", "oversample", "spectral.oversample"),
    ("decomposition", "linf_norm", "spectral.linf"),
    ("experiments", "linf_norm", "spectral.linf"),
    ("solver", "recover_w", "hydrostatics.recover_w"),
    ("solver", "project_barotropic", "hydrostatics.project"),
    ("solver", "solve_pressure", "hydrostatics.pressure"),
    ("solver", "step", "solver.step"),
    ("decomposition", "step", "solver.step"),
    ("decomposition", "step_linear", "solver.step_linear"),
    ("decomposition", "make_state", "solver.make_state"),
    ("decomposition", "prepare_initial_parts", "decomposition.prepare"),
    ("experiments", "prepare_initial_parts", "decomposition.prepare"),
    ("experiments", "run_decomposition", "decomposition.run"),
    ("solver", "norms", "estimates.norms"),
    ("decomposition", "norms", "estimates.norms"),
    ("experiments", "moser_bound_check", "estimates.moser"),
    ("experiments", "ladyzhenskaya_ratio", "estimates.lady"),
    ("solver", "energy_residual_series", "diagnostics.quadrature"),
    ("decomposition", "energy_residual_series", "diagnostics.quadrature"),
    ("decomposition", "integrate_series", "diagnostics.quadrature"),
)

# Per-layer metrics in output order: name -> unit.
METRICS = {
    "spectral.fft_calls": "count",
    "spectral.fft_mpoints": "Mpoint",
    "spectral.fft_mb": "MB",
    "spectral.fft_s": "s",
    "spectral.oversample_calls": "count",
    "spectral.oversample_s": "s",
    "spectral.linf_calls": "count",
    "spectral.linf_s": "s",
    "hydrostatics.recover_w_calls": "count",
    "hydrostatics.recover_w_s": "s",
    "hydrostatics.project_calls": "count",
    "hydrostatics.project_s": "s",
    "hydrostatics.pressure_calls": "count",
    "hydrostatics.pressure_s": "s",
    "solver.step_calls": "count",
    "solver.step_ms": "ms",
    "solver.step_self_s": "s",
    "solver.step_linear_calls": "count",
    "solver.step_linear_ms": "ms",
    "decomposition.split_step_ms": "ms",
    "decomposition.record_s": "s",
    "decomposition.record_share": "ratio",
    "decomposition.prepare_s": "s",
    "estimates.norms_calls": "count",
    "estimates.norms_s": "s",
    "estimates.moser_checks": "count",
    "estimates.moser_s": "s",
    "estimates.lady_calls": "count",
    "estimates.lady_s": "s",
    "diagnostics.quadrature_s": "s",
    "diagnostics.csv_s": "s",
    "experiments.write_s": "s",
    "experiments.bytes_written": "MB",
    "config.parse_s": "s",
}

# Per-layer counts that must repeat exactly from one round to the next.
COUNTS = tuple(name for name, unit in METRICS.items() if unit == "count")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []
        self.counters = {"fft_points": 0, "fft_bytes": 0, "bytes_written": 0}
        self._stack = []
        self._numpy_fft = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, fn, real_input):
        traced = self.wrap("spectral.fft", fn)
        counters = self.counters

        def fft(a, *args, **kwargs):
            out = traced(a, *args, **kwargs)
            a = np.asarray(a)
            counters["fft_points"] += a.size if real_input else out.size
            counters["fft_bytes"] += a.nbytes + out.nbytes
            return out

        return fft

    def install(self, prog):
        """Wrap every layer boundary of a freshly imported program."""
        for module, attr, name in BINDINGS:
            mod = getattr(prog, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        series = prog.diagnostics.DiagnosticsSeries
        series.to_csv = self.wrap("diagnostics.csv", series.to_csv)
        runners = prog.experiments._RUNNERS
        for kind in runners:
            runners[kind] = self.wrap("experiments.runner", runners[kind])
        if self._numpy_fft is None:
            self._numpy_fft = (np.fft.rfftn, np.fft.irfftn)
            np.fft.rfftn = self._wrap_fft(self._numpy_fft[0], True)
            np.fft.irfftn = self._wrap_fft(self._numpy_fft[1], False)

    def uninstall_numpy(self):
        """Restore the numpy transforms; program modules are re-imported anyway."""
        if self._numpy_fft is not None:
            np.fft.rfftn, np.fft.irfftn = self._numpy_fft
            self._numpy_fft = None

    def mark(self):
        return len(self.spans), dict(self.counters)

    def dump(self, path, extra):
        payload = {"spans": self.spans, "counters": self.counters, **extra}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def summarize(spans, lo, hi, counters):
    """Per-layer metrics of one round: spans ``lo:hi`` and its counter deltas.

    Totals (``_s``, counts) are per round and include child spans, except
    ``solver.step_self_s``, which subtracts the time the step's child spans
    cover.  ``_ms`` figures are medians per call.
    """
    children = {}
    by_name = {}
    for i in range(lo, hi):
        name, _, _, parent = spans[i]
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            children.setdefault(parent, []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def median_ms(durations):
        return 1e3 * statistics.median(durations) if durations else 0.0

    steps = by_name.get("solver.step", [])
    linear = by_name.get("solver.step_linear", [])
    step_self = sum(dur(i) - sum(dur(k) for k in children.get(i, ())) for i in steps)

    # The coupled loop in run_decomposition is not a function: a coupled
    # step runs from one nonlinear step's start to the next one's (or to
    # the closing quadrature), and the record is what the run spends
    # outside its steps, state clean-up and quadrature.
    record_s = 0.0
    split_steps = []
    for run in by_name.get("decomposition.run", ()):
        kids = children.get(run, [])
        record_s += dur(run) - sum(dur(k) for k in kids if spans[k][0] in (
            "solver.step", "solver.step_linear", "solver.make_state",
            "diagnostics.quadrature"))
        marks = [k for k in kids if spans[k][0] in ("solver.step", "diagnostics.quadrature")]
        split_steps += [spans[b][1] - spans[a][1] for a, b in zip(marks, marks[1:])
                        if spans[a][0] == "solver.step"]
    run_s = total("decomposition.run")

    return {
        "spectral.fft_calls": calls("spectral.fft"),
        "spectral.fft_mpoints": counters["fft_points"] / 1e6,
        "spectral.fft_mb": counters["fft_bytes"] / 1e6,
        "spectral.fft_s": total("spectral.fft"),
        "spectral.oversample_calls": calls("spectral.oversample"),
        "spectral.oversample_s": total("spectral.oversample"),
        "spectral.linf_calls": calls("spectral.linf"),
        "spectral.linf_s": total("spectral.linf"),
        "hydrostatics.recover_w_calls": calls("hydrostatics.recover_w"),
        "hydrostatics.recover_w_s": total("hydrostatics.recover_w"),
        "hydrostatics.project_calls": calls("hydrostatics.project"),
        "hydrostatics.project_s": total("hydrostatics.project"),
        "hydrostatics.pressure_calls": calls("hydrostatics.pressure"),
        "hydrostatics.pressure_s": total("hydrostatics.pressure"),
        "solver.step_calls": len(steps),
        "solver.step_ms": median_ms([dur(i) for i in steps]),
        "solver.step_self_s": step_self,
        "solver.step_linear_calls": len(linear),
        "solver.step_linear_ms": median_ms([dur(i) for i in linear]),
        "decomposition.split_step_ms": median_ms(split_steps),
        "decomposition.record_s": record_s,
        "decomposition.record_share": record_s / run_s if run_s > 0 else 0.0,
        "decomposition.run_s": run_s,       # the share's base, not a metric
        "decomposition.prepare_s": total("decomposition.prepare"),
        "estimates.norms_calls": calls("estimates.norms"),
        "estimates.norms_s": total("estimates.norms"),
        "estimates.moser_checks": calls("estimates.moser"),
        "estimates.moser_s": total("estimates.moser"),
        "estimates.lady_calls": calls("estimates.lady"),
        "estimates.lady_s": total("estimates.lady"),
        "diagnostics.quadrature_s": total("diagnostics.quadrature"),
        "diagnostics.csv_s": total("diagnostics.csv"),
        "experiments.write_s": total("experiments.run") - total("experiments.runner"),
        "experiments.bytes_written": counters["bytes_written"] / 1e6,
        "config.parse_s": total("config.parse"),
    }
