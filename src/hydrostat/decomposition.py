"""Velocity splitting machinery: mollified rough initial data and the two
decoupled linear advection-diffusion systems whose solutions reconstruct
the full solution.

The initial-data family of interest is z-only data made of a power-law
cusp plus an indicator step,

    v0bar = a |z|^delta,        V0 = sigma * chi_{(-eta, eta)}(z),

which lies in the constraint space automatically.  The cusp part is
sampled on the lattice (its cosine coefficients decay like l^(-1-delta));
the step part uses its exact Fourier coefficients to avoid
lattice-alignment artifacts at z = +/- eta.

Mollification is periodic convolution with a separable product of 1D
C-infinity bumps of radius eps, realized spectrally: the multiplier is
real, equals 1 at mode zero, has magnitude <= 1 and decays rapidly, so it
preserves parity, the mean, membership in the constraint space, and every
L^q norm (Young's inequality).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diagnostics import (DiagnosticsSeries, energy_residual_series,
                          integrate_series)
from .errors import ConfigurationError
from .hydrostatics import solve_pressure
from .solver import (PhysicsParams, SolverState, StepControl, _plan_steps,
                     make_state, step, step_linear)
from .spectral import (EVEN, Grid, SpectralField, dealias, derivative,
                       field_from_function, grad_h_norm_sq, grad_norm_sq,
                       l2_norm, linf_norm, zero_field)
from .io import read_snapshot
from .estimates import norms

KINDS = ("analytic", "cusp_step", "snapshot")


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial data description, shared by the library and the run config."""

    kind: str = "cusp_step"
    a: tuple = (1.0, 0.0)            # cusp amplitude per component
    delta: float = 1.0               # cusp exponent, > 0
    eta: float = 0.25                # step half-width, in (0, h]
    sigma: tuple = (0.2, 0.0)        # step amplitude per component
    epsilon: float = 0.0             # mollification radius, >= 0
    expression_u: str = "0"          # analytic kind: component expressions
    expression_v: str = "0"
    snapshot: str = ""               # snapshot kind: HSF1 path

    def validate(self, h):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown initial-data kind {self.kind!r}")
        if self.kind == "cusp_step":
            if not self.delta > 0:
                raise ConfigurationError(f"delta={self.delta}: cusp exponent must be > 0")
            if not 0 < self.eta <= h:
                raise ConfigurationError(f"eta={self.eta}: step half-width must lie in (0, h]")
        if self.epsilon < 0:
            raise ConfigurationError(f"epsilon={self.epsilon}: radius must be >= 0")
        if self.epsilon > 0 and self.epsilon >= min(1.0, 2.0 * h):
            raise ConfigurationError(
                f"epsilon={self.epsilon}: radius must stay below min(1, 2h)")


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

_BUMP_POINTS = 4096


@lru_cache(maxsize=1)
def _bump_quadrature():
    """r-grid and normalized C-infinity bump values on [-1, 1]."""
    r = np.linspace(-1.0, 1.0, _BUMP_POINTS + 1)
    inner = np.zeros_like(r)
    core = np.abs(r) < 1.0
    inner[core] = np.exp(-1.0 / (1.0 - r[core] ** 2))
    mass = np.trapezoid(inner, r)
    return r, inner / mass


def _bump_transform(s):
    """Fourier transform of the unit-radius 1D bump at frequencies ``s``.

    The integrand is smooth with all derivatives vanishing at the support
    boundary, so the trapezoid rule converges superalgebraically.
    """
    r, b = _bump_quadrature()
    s = np.atleast_1d(np.asarray(s, dtype=float))
    kernel = np.cos(np.outer(s, r)) * b
    return np.trapezoid(kernel, r, axis=1)


def mollify(v0: SpectralField, epsilon: float) -> SpectralField:
    """Periodic convolution with a smooth unit-mass bump of radius ``epsilon``."""
    if epsilon < 0:
        raise ConfigurationError(f"epsilon={epsilon}: radius must be >= 0")
    if epsilon == 0:
        return v0
    g = v0.grid
    if epsilon >= min(1.0, 2.0 * g.h):
        raise ConfigurationError(
            f"epsilon={epsilon}: radius must stay below min(1, 2h)")
    px = _bump_transform(epsilon * g.kx[:, 0, 0])
    py = _bump_transform(epsilon * g.ky[0, :, 0])
    pz = _bump_transform(epsilon * g.kz[0, 0, :])
    mult = px[:, None, None] * py[None, :, None] * pz[None, None, :]
    return v0.with_coeffs(v0.coeffs * mult)


# ---------------------------------------------------------------------------
# initial-data library
# ---------------------------------------------------------------------------

def make_cusp_step_data(grid: Grid, spec: InitialDataSpec):
    """Build (v0bar, V0): lattice-sampled cusp and exact-coefficient step."""
    spec.validate(grid.h)
    if spec.kind != "cusp_step":
        raise ConfigurationError(f"initial-data kind {spec.kind!r} has no cusp/step parts")
    h = grid.h

    z = grid.z()
    profile = np.abs(z) ** spec.delta
    vbar = field_from_function(
        grid, lambda X, Y, Z: (spec.a[0] * profile[None, None, :] + 0 * X,
                               spec.a[1] * profile[None, None, :] + 0 * X),
        EVEN)
    vbar = dealias(vbar)

    # Exact coefficients of the indicator about z = 0; the lattice origin
    # sits at z = -h, so the z-centered value picks up the shift phase
    # e^{-i pi l} = (-1)^l.
    coeffs = np.zeros((2,) + grid.spectral_shape, dtype=complex)
    lz = np.rint(grid.kz[0, 0] * h / np.pi).astype(int)
    nonzero = lz != 0
    centered = np.zeros(grid.nz)
    centered[~nonzero] = spec.eta / h
    centered[nonzero] = (np.sin(np.pi * lz[nonzero] * spec.eta / h)
                         / (np.pi * lz[nonzero]))
    shifted = centered * np.where(lz % 2 == 0, 1.0, -1.0)
    for i in range(2):
        coeffs[i, 0, 0, :] = spec.sigma[i] * shifted
    step_part = dealias(SpectralField(grid, coeffs, EVEN))
    return vbar, step_part


_SAFE_NAMES = {"pi": np.pi, "sin": np.sin, "cos": np.cos, "exp": np.exp,
               "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs}


def _analytic_field(grid, spec):
    def build(X, Y, Z):
        env = dict(_SAFE_NAMES, x=X, y=Y, z=Z, h=grid.h)
        u = eval(spec.expression_u, {"__builtins__": {}}, env)  # noqa: S307 - restricted names
        v = eval(spec.expression_v, {"__builtins__": {}}, env)
        return (u + 0 * X, v + 0 * X)
    return dealias(field_from_function(grid, build, EVEN))


def prepare_initial_parts(grid: Grid, spec: InitialDataSpec):
    """Resolve the spec into mollified (v0bar, V0) on the grid."""
    spec.validate(grid.h)
    if spec.kind == "cusp_step":
        vbar, v_step = make_cusp_step_data(grid, spec)
        return mollify(vbar, spec.epsilon), mollify(v_step, spec.epsilon)
    if spec.kind == "analytic":
        return mollify(_analytic_field(grid, spec), spec.epsilon), zero_field(grid, 2, EVEN)
    if spec.kind == "snapshot":
        f = dealias(read_snapshot(spec.snapshot, grid))
        return mollify(f, spec.epsilon), zero_field(grid, 2, EVEN)
    raise ConfigurationError(f"unknown initial-data kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecompositionState:
    """The two linear parts lock-stepped with their nonlinear driver.

    ``pressure_vbar`` / ``pressure_V`` are the parts' own pressures at the
    current time, recovered from the linear Poisson problems with the
    driver velocity in the mixed advection tensor.
    """

    vbar: SolverState
    V: SolverState
    driver: SolverState

    @property
    def pressure_vbar(self):
        return solve_pressure(self.vbar.v, self.vbar.params.f0,
                              driver=self.driver.v).total

    @property
    def pressure_V(self):
        return solve_pressure(self.V.v, self.V.params.f0,
                              driver=self.driver.v).total


@dataclass(frozen=True, eq=False)
class DecompositionRun:
    final: DecompositionState
    series: DiagnosticsSeries


def lockstep(v0bar: SpectralField, V0: SpectralField, params: PhysicsParams,
             ctl: StepControl, t_end: float):
    """Co-integrate the nonlinear system and both linear parts.

    Yields ``(dt, DecompositionState)`` at t = 0 (with dt = 0.0) and after
    every step; the nonlinear trajectory supplies the driver fields at the
    exact RK stage times of both linear parts.
    """
    v = make_state(v0bar + V0, 0.0, params)
    vbar = make_state(v0bar, 0.0, params)
    V = make_state(V0, 0.0, params)
    yield 0.0, DecompositionState(vbar, V, v)
    for dt in _plan_steps(0.0, t_end, ctl.dt):
        v, stages = step(v, ctl, dt=dt, record_stages=True)
        vbar = step_linear(vbar, stages, ctl, dt=dt)
        V = step_linear(V, stages, ctl, dt=dt)
        yield dt, DecompositionState(vbar, V, v)


def run_decomposition(v0bar: SpectralField, V0: SpectralField,
                      params: PhysicsParams, ctl: StepControl, t_end: float,
                      qs=()) -> DecompositionRun:
    """Split run with a per-step record.

    Per step the series records the reconstruction residual
    ||v - (vbar + V)||_2 / ||v||_2 alongside the standard norms.
    """
    series = DiagnosticsSeries()
    for _, state in lockstep(v0bar, V0, params, ctl, t_end):
        v, vbar, V = state.driver, state.vbar, state.V
        rec = norms(v.v, qs=qs, t=v.t)
        dzbar = derivative(vbar.v, "z")
        denom = max(rec.l2, np.finfo(float).tiny)
        series.add_row(
            t=v.t, l2=rec.l2, grad_l2=rec.grad_l2, l4=rec.l4, l6=rec.l6,
            linf=rec.linf,
            linf_V=linf_norm(V.v),
            l2_V=l2_norm(V.v),
            grad_l2_V=np.sqrt(grad_norm_sq(V.v)),
            l2_vbar=l2_norm(vbar.v),
            grad_l2_vbar=np.sqrt(grad_norm_sq(vbar.v)),
            dz_vbar_l2=l2_norm(dzbar),
            grad_dz_vbar_sq=grad_norm_sq(dzbar),
            grad_h_dz_vbar_sq=grad_h_norm_sq(dzbar),
            recon_residual=l2_norm(v.v - (vbar.v + V.v)) / denom)

    t = series.array("t")
    residual, dissipation = energy_residual_series(
        t, series.array("l2"), series.array("grad_l2"))
    series.columns["energy_residual"] = list(residual)
    series.columns["dissipation"] = list(dissipation)
    series.columns["dz_vbar_dissipation"] = list(
        integrate_series(t, series.array("grad_dz_vbar_sq")))
    return DecompositionRun(state, series)
