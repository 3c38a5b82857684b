"""Run configuration: line-oriented ``key = value`` sections, strict schema.

One table, ``_SCHEMA``, gives every key its caster and its default text.
Each key fills the ``RunConfig`` field of its name or of its ``_FIELDS``
entry; the ``[initial_data]`` keys fill an ``InitialDataSpec``.  Unknown
sections or keys are rejected, and every float must be finite.
The config hash is taken over the effective configuration (defaults
merged with the file and any command line overrides), canonicalized as
sorted ``section.key = value`` lines, so it is stable under key
reordering.  It leaves out ``output.directory`` and ``output.threads``,
which change no output byte.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, field

from .decomposition import InitialDataSpec
from .diagnostics import CSV_COLUMNS
from .errors import ConfigError, HydrostatError
from .solver import PhysicsParams, StepControl, _step_count
from .spectral import Grid, _check_grid, _check_memory

STEPPED = ("energy_identity", "decomposition", "stability", "mollification")
EXPERIMENTS = STEPPED + ("lemma_suite",)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _pair(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return (_finite(parts[0]), _finite(parts[1]))


def _floats(text):
    return tuple(_finite(p) for p in text.split(",") if p.strip())


def _bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_SCHEMA = {    # section -> key -> (caster, default text)
    "grid": {"nx": (int, "32"), "ny": (int, "32"), "nz": (int, "64"),
             "h": (_finite, "0.5")},
    "physics": {"f0": (_finite, "0.0")},
    "time": {"dt": (_finite, "5e-4"), "t_end": (_finite, "0.1"),
             "cfl_target": (_finite, "0.5")},
    "initial_data": {"kind": (str, "cusp_step"), "a": (_pair, "1.0, 0.0"),
                     "delta": (_finite, "1.0"), "eta": (_finite, "0.25"),
                     "sigma": (_pair, "0.2, 0.0"), "epsilon": (_finite, "0.1"),
                     "expression_u": (str, "0"), "expression_v": (str, "0"),
                     "snapshot": (str, "")},
    "experiment": {"kind": (str, "energy_identity"),
                   "sigma_perturbation": (_finite, "0.01"),
                   "eta_perturbation": (_finite, "0.25"),
                   "epsilons": (_floats, "0.2, 0.1, 0.05"),
                   "moser_count": (int, "10000"), "moser_kmax": (int, "40"),
                   "ladyzhenskaya_count": (int, "200"), "sample_count": (int, "4")},
    "output": {"directory": (str, "runs/out"), "seed": (int, "1234"),
               "threads": (int, ""), "snapshots": (_bool, "false")},
}

# ``RunConfig`` fields not named after their key
_FIELDS = {("grid", "nx"): "grid_nx", ("grid", "ny"): "grid_ny",
           ("grid", "nz"): "grid_nz", ("grid", "h"): "h",
           ("experiment", "kind"): "experiment"}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved run configuration."""

    grid_nx: int
    grid_ny: int
    grid_nz: int
    h: float
    f0: float
    dt: float
    t_end: float
    cfl_target: float
    initial_data: InitialDataSpec
    experiment: str
    sigma_perturbation: float
    eta_perturbation: float
    epsilons: tuple
    moser_count: int
    moser_kmax: int
    ladyzhenskaya_count: int
    sample_count: int
    directory: str
    seed: int
    threads: int
    snapshots: bool
    canonical: str = field(repr=False, default="")

    def make_grid(self):
        """The run's one grid; the lemma suite's nested lattice derives from it."""
        return Grid.make(self.grid_nx, self.grid_ny, self.grid_nz, self.h)

    def physics(self):
        return PhysicsParams(f0=self.f0)

    def step_control(self, dt=None):
        return StepControl(dt=self.dt if dt is None else dt,
                           cfl_target=self.cfl_target)

    @property
    def planned_steps(self):
        """Steps of dt from 0 to t_end, or None for a kind that takes none."""
        return _step_count(0.0, self.t_end, self.dt) if self.experiment in STEPPED else None

    @property
    def config_hash(self):
        return hashlib.sha256(self.canonical.encode()).hexdigest()


def _merge(file_values, overrides):
    merged = {s: {k: default for k, (_, default) in keys.items()}
              for s, keys in _SCHEMA.items()}
    for section, kv in file_values.items():
        merged[section].update(kv)
    for (section, key), value in overrides.items():
        merged[section][key] = value
    return merged


_UNHASHED = {("output", "directory"), ("output", "threads")}   # deployment settings


def _canonical(merged):
    lines = [f"{s}.{k} = {merged[s][k]}"
             for s in sorted(merged) for k in sorted(merged[s])
             if (s, k) not in _UNHASHED]
    return "\n".join(lines) + "\n"


def parse_config(path=None, text=None, overrides=None) -> RunConfig:
    """Parse, merge with defaults/overrides, type-check and validate."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        if text is None:
            with open(path) as fh:
                parser.read_file(fh)
        else:
            parser.read_string(text)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err

    file_values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            file_values.setdefault(section, {})[key] = value.strip()

    merged = _merge(file_values, overrides or {})
    if not merged["output"]["threads"]:
        merged["output"]["threads"] = os.environ.get("HYDROSTAT_THREADS", "1")

    fields, spec = {}, {}
    for section, keys in _SCHEMA.items():
        for key, (caster, _) in keys.items():
            raw = merged[section][key]
            if raw == "" and caster is not str:
                raise ConfigError(f"[{section}] {key}: empty value")
            try:
                value = caster(raw)
            except ValueError as err:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {err}") from err
            if section == "initial_data":
                spec[key] = value
            else:
                fields[_FIELDS.get((section, key), key)] = value

    cfg = RunConfig(**fields, initial_data=InitialDataSpec(**spec),
                    canonical=_canonical(merged))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Cross-field checks; raises ConfigError with the first violation."""
    try:
        _check_grid(cfg.grid_nx, cfg.grid_ny, cfg.grid_nz, cfg.h)
        cfg.step_control()
        for dt in (cfg.dt, cfg.dt / 2.0) if cfg.experiment == "energy_identity" else (cfg.dt,):
            steps = _step_count(0.0, cfg.t_end, dt)     # the last dt's run is the longest
        if cfg.experiment in STEPPED:
            _check_memory((steps + 1) * 8 * len(CSV_COLUMNS),
                          f"[time] {steps} steps of dt={dt!r}: their series rows")
        cfg.initial_data.validate(cfg.h)
    except HydrostatError as err:
        raise ConfigError(str(err)) from err
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {cfg.experiment!r}")
    if not cfg.t_end > 0:
        raise ConfigError(f"t_end={cfg.t_end}: must be positive")
    if cfg.seed < 0:
        raise ConfigError(f"seed={cfg.seed}: must be nonnegative")
    if cfg.threads < 1:
        raise ConfigError(f"threads={cfg.threads}: must be >= 1")
    if cfg.experiment == "mollification":
        if len(cfg.epsilons) < 2:
            raise ConfigError("mollification needs at least two epsilon values")
        if any(e <= 0 for e in cfg.epsilons):
            raise ConfigError("mollification epsilons must be positive")
    if cfg.experiment == "stability":
        if not cfg.sigma_perturbation > 0:
            raise ConfigError("stability needs sigma_perturbation > 0")
        if not 0 < cfg.eta_perturbation <= cfg.h:
            raise ConfigError("eta_perturbation must lie in (0, h]")
    if cfg.experiment == "lemma_suite":
        if cfg.moser_count < 1 or cfg.ladyzhenskaya_count < 1:
            raise ConfigError("lemma_suite sample counts must be >= 1")
        if cfg.moser_kmax < 1 or cfg.moser_kmax > 60:
            raise ConfigError("moser_kmax must lie in [1, 60]")
    if cfg.sample_count < 1:
        raise ConfigError("sample_count must be >= 1")
    if cfg.initial_data.kind == "snapshot" and not cfg.initial_data.snapshot:
        raise ConfigError("snapshot initial data needs a path")


def with_overrides(cfg_path, out=None, seed=None, threads=None) -> RunConfig:
    """Parse a config file applying CLI overrides."""
    overrides = {}
    if out is not None:
        overrides[("output", "directory")] = str(out)
    if seed is not None:
        overrides[("output", "seed")] = str(seed)
    if threads is not None:
        overrides[("output", "threads")] = str(threads)
    return parse_config(path=cfg_path, overrides=overrides)
