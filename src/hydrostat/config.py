"""Run configuration: line-oriented ``key = value`` sections, strict schema.

Unknown sections or keys are rejected, and every float must be finite.
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
from .errors import ConfigError, HydrostatError
from .solver import PhysicsParams, StepControl
from .spectral import Grid

EXPERIMENTS = ("energy_identity", "decomposition", "stability",
               "mollification", "lemma_suite")


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


_SCHEMA = {
    "grid": {"nx": int, "ny": int, "nz": int, "h": _finite},
    "physics": {"f0": _finite},
    "time": {"dt": _finite, "t_end": _finite, "cfl_target": _finite},
    "initial_data": {"kind": str, "a": _pair, "delta": _finite, "eta": _finite,
                     "sigma": _pair, "epsilon": _finite, "expression_u": str,
                     "expression_v": str, "snapshot": str},
    "experiment": {"kind": str, "sigma_perturbation": _finite,
                   "eta_perturbation": _finite, "epsilons": _floats,
                   "moser_count": int, "moser_kmax": int,
                   "ladyzhenskaya_count": int, "sample_count": int},
    "output": {"directory": str, "seed": int, "threads": int,
               "snapshots": _bool},
}

_DEFAULTS = {
    "grid": {"nx": "32", "ny": "32", "nz": "64", "h": "0.5"},
    "physics": {"f0": "0.0"},
    "time": {"dt": "5e-4", "t_end": "0.1", "cfl_target": "0.5"},
    "initial_data": {"kind": "cusp_step", "a": "1.0, 0.0", "delta": "1.0",
                     "eta": "0.25", "sigma": "0.2, 0.0", "epsilon": "0.1",
                     "expression_u": "0", "expression_v": "0", "snapshot": ""},
    "experiment": {"kind": "energy_identity", "sigma_perturbation": "0.01",
                   "eta_perturbation": "0.25", "epsilons": "0.2, 0.1, 0.05",
                   "moser_count": "10000", "moser_kmax": "40",
                   "ladyzhenskaya_count": "200", "sample_count": "4"},
    "output": {"directory": "runs/out", "seed": "1234", "threads": "",
               "snapshots": "false"},
}


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

    def make_grid(self, nz=None):
        return Grid.make(self.grid_nx, self.grid_ny,
                         self.grid_nz if nz is None else nz, self.h)

    def physics(self):
        return PhysicsParams(f0=self.f0, h=self.h)

    def step_control(self, dt=None):
        return StepControl(dt=self.dt if dt is None else dt,
                           cfl_target=self.cfl_target)

    @property
    def config_hash(self):
        return hashlib.sha256(self.canonical.encode()).hexdigest()


def _merge(file_values, overrides):
    merged = {s: dict(kv) for s, kv in _DEFAULTS.items()}
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

    typed = {}
    for section, keys in _SCHEMA.items():
        for key, caster in keys.items():
            raw = merged[section][key]
            if raw == "" and caster is not str:
                raise ConfigError(f"[{section}] {key}: empty value")
            try:
                typed[(section, key)] = caster(raw)
            except ValueError as err:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {err}") from err

    ids = InitialDataSpec(
        kind=typed[("initial_data", "kind")],
        a=typed[("initial_data", "a")],
        delta=typed[("initial_data", "delta")],
        eta=typed[("initial_data", "eta")],
        sigma=typed[("initial_data", "sigma")],
        epsilon=typed[("initial_data", "epsilon")],
        expression_u=typed[("initial_data", "expression_u")],
        expression_v=typed[("initial_data", "expression_v")],
        snapshot=typed[("initial_data", "snapshot")])

    cfg = RunConfig(
        grid_nx=typed[("grid", "nx")], grid_ny=typed[("grid", "ny")],
        grid_nz=typed[("grid", "nz")], h=typed[("grid", "h")],
        f0=typed[("physics", "f0")],
        dt=typed[("time", "dt")], t_end=typed[("time", "t_end")],
        cfl_target=typed[("time", "cfl_target")],
        initial_data=ids,
        experiment=typed[("experiment", "kind")],
        sigma_perturbation=typed[("experiment", "sigma_perturbation")],
        eta_perturbation=typed[("experiment", "eta_perturbation")],
        epsilons=typed[("experiment", "epsilons")],
        moser_count=typed[("experiment", "moser_count")],
        moser_kmax=typed[("experiment", "moser_kmax")],
        ladyzhenskaya_count=typed[("experiment", "ladyzhenskaya_count")],
        sample_count=typed[("experiment", "sample_count")],
        directory=typed[("output", "directory")],
        seed=typed[("output", "seed")],
        threads=typed[("output", "threads")],
        snapshots=typed[("output", "snapshots")],
        canonical=_canonical(merged))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Cross-field checks; raises ConfigError with the first violation."""
    try:
        cfg.make_grid()
        cfg.physics()
        cfg.step_control()
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
