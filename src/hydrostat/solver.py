"""Time integration of the nonlinear system and its linearizations.

One shared right-hand-side routine serves both the full equations and the
linear systems of the velocity decomposition: the advected field U is
transported by a driver velocity (v_drv, w_drv) and feels its own Coriolis
force.  For the nonlinear system the driver is U itself, so solutions of
the full system solve their own linearization bit for bit.

The pressure is not computed while stepping.  It depends on (x, y) only,
so its gradient lies in the z-mean plane, and it is the Lagrange
multiplier of the barotropic constraint: ``project_barotropic``, applied
after every stage, removes exactly that gradient part.  ``rhs_nonlinear``
applies the pressure explicitly through ``solve_pressure`` and is the
reference the projected tendency is checked against.

Scheme: three-stage low-storage Runge-Kutta (order 3) for the transport /
rotation terms with the unit-viscosity diffusion handled by the exact
integrating factor exp(-|k|^2 tau) per stage.  The stage tendency is
dealiased and re-symmetrized (even in z); the iterate is only projected
back onto the barotropic constraint, because a masked, exactly even state
plus a masked, exactly even increment, times factors that are symmetric
in l, is masked and exactly even again.

Products are formed on half the lattice.  The driver velocity and the
gradients of U are even or odd in z, so their values on the planes
j = 0..nz/2 fix the rest (plane nz - j mirrors plane j), and the even
products return to spectral space from those planes alone.

Stepping is a pure state-to-state function: a single trajectory is
sequential, but independent trajectories may run on separate threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil

import numpy as np

from .diagnostics import DiagnosticsSeries, energy_residual_series
from .errors import BlowUpError, ConfigurationError, SchedulingError
from .estimates import norms
from .hydrostatics import (pressure_gradient_field, project_barotropic,
                           recover_w, solve_pressure)
from .spectral import (EVEN, Grid, SpectralField, _forward_half,
                       _inverse_half, dealias, parity_flip, symmetrize)

RK_A = (8.0 / 15.0, 5.0 / 12.0, 3.0 / 4.0)
RK_B = (0.0, -17.0 / 60.0, -5.0 / 12.0)
RK_C = (0.0, 8.0 / 15.0, 2.0 / 3.0, 1.0)

_STAGE_TIME_TOL = 1e-9


@dataclass(frozen=True)
class PhysicsParams:
    """Coriolis parameter and half-height; viscosity is fixed at 1."""

    f0: float = 0.0
    h: float = 0.5

    def __post_init__(self):
        if not self.h > 0:
            raise ConfigurationError(f"h={self.h}: half-height must be positive")


@dataclass(frozen=True)
class StepControl:
    dt: float
    cfl_target: float = 0.5

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError(f"dt={self.dt}: time step must be positive")


@dataclass(frozen=True, eq=False)
class SolverState:
    v: SpectralField
    t: float
    params: PhysicsParams


@dataclass(frozen=True, eq=False)
class DriverStage:
    """Driver velocity and vertical velocity at one RK stage time.

    Bare lattice values on the planes j = 0..nz/2, shapes
    (2, nx, ny, nz/2 + 1) and (1, nx, ny, nz/2 + 1); v is even and w odd
    in z, so these planes determine the whole lattice.
    """

    t: float
    v: np.ndarray
    w: np.ndarray


class CFLWarning(UserWarning):
    pass


def make_state(v: SpectralField, t: float, params: PhysicsParams) -> SolverState:
    """Clean a velocity field into a valid solver state."""
    if v.ncomp != 2:
        raise ConfigurationError("solver state needs a 2-component velocity")
    if abs(v.grid.h - params.h) > 1e-14:
        raise ConfigurationError("params.h does not match the grid half-height")
    clean = project_barotropic(symmetrize(dealias(v), EVEN))
    return SolverState(clean, float(t), params)


def _stage_factors(grid: Grid, dt: float):
    """Integrating factors exp(-|k|^2 (c_{k+1} - c_k) dt) for the 3 stages."""
    return tuple(np.exp(-grid.k2 * ((RK_C[k + 1] - RK_C[k]) * dt)) for k in range(3))


def _cleanup(coeffs, grid):
    """Dealias + even-symmetrize at the coefficient level."""
    masked = coeffs * grid.dealias_mask
    return 0.5 * (masked + parity_flip(masked, grid))


def _coriolis(coeffs):
    """Coefficients of k x U = (-U^2, U^1)."""
    return np.concatenate([-coeffs[1:2], coeffs[0:1]])


def _rhs_core(u: SpectralField, v: np.ndarray, w: np.ndarray,
              f0: float) -> SpectralField:
    """-[(v . grad_H)U + w dz U + f0 k x U], even in z, pressure-free.

    ``v`` and ``w`` are the driver's half-plane values, as in ``DriverStage``.
    """
    g = u.grid
    gradients = np.concatenate([1j * g.kx_d * u.coeffs,
                                1j * g.ky_d * u.coeffs,
                                1j * g.kz_d * u.coeffs])
    dx, dy, dz = np.split(_inverse_half(gradients, g), 3)
    adv = v[0] * dx + v[1] * dy + w[0] * dz
    total = _forward_half(adv, g) * g.dealias_mask
    if f0 != 0.0:
        total = total + f0 * _coriolis(u.coeffs)
    out = _cleanup(-total, g)
    return SpectralField(g, out, EVEN)


def rhs_nonlinear(v: SpectralField, params: PhysicsParams) -> SpectralField:
    """Full nonlinear tendency of the horizontal velocity (diffusion excluded).

    Applies grad_H p from ``solve_pressure`` explicitly, where the stepper
    leaves it to ``project_barotropic``.
    """
    g = v.grid
    tendency = _rhs_core(v, _inverse_half(v.coeffs, g),
                         _inverse_half(recover_w(v).coeffs, g), params.f0)
    grad_p = pressure_gradient_field(solve_pressure(v, params.f0).total)
    return tendency.with_coeffs(tendency.coeffs - _cleanup(grad_p.coeffs, g))


def _advance_stages(state: SolverState, dt: float, driver_stages=None,
                    collect=False):
    """Shared RK3/integrating-factor stage loop.

    With ``driver_stages`` given, the state is advected by the frozen driver
    (linear systems); otherwise the field drives itself (nonlinear system)
    and, with ``collect``, the stage fields are returned for reuse.  Raises
    ``BlowUpError`` carrying ``state`` at the first stage that leaves
    non-finite values.
    """
    u, t = state.v, state.t
    g = u.grid
    factors = _stage_factors(g, dt)
    collected = [] if collect else None
    n_prev = None
    vmax0 = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3):
            if driver_stages is None:
                v = _inverse_half(u.coeffs, g)
                stage = DriverStage(t + RK_C[k] * dt, v,
                                    _inverse_half(recover_w(u).coeffs, g))
                if collect:
                    collected.append(stage)
                if k == 0:
                    vmax0 = float(np.max(np.abs(v)))
            else:
                stage = driver_stages[k]
                expected = t + RK_C[k] * dt
                if abs(stage.t - expected) > _STAGE_TIME_TOL * max(1.0, abs(expected)):
                    raise SchedulingError(
                        f"driver stage at t={stage.t} but stage {k} needs t={expected}")
            n_k = _rhs_core(u, stage.v, stage.w, state.params.f0)
            incr = dt * RK_A[k] * n_k.coeffs
            if k:
                incr = incr + dt * RK_B[k] * n_prev
            u = project_barotropic(SpectralField(g, factors[k] * (u.coeffs + incr), EVEN))
            if not np.all(np.isfinite(u.coeffs)):
                raise BlowUpError(
                    f"non-finite values at RK stage {k + 1} of 3 in the step from t={t}",
                    last_good=state)
            n_prev = factors[k] * n_k.coeffs
    return u, collected, vmax0


def step(state: SolverState, ctl: StepControl, dt: float | None = None,
         record_stages: bool = False):
    """Advance the nonlinear system by one step.

    Returns the new state, or ``(new_state, stages)`` with
    ``record_stages`` so the linear systems can be advected by exactly the
    same stage fields.  Raises ``BlowUpError`` (carrying the last good
    state) if non-finite values appear.
    """
    dt = ctl.dt if dt is None else dt
    g = state.v.grid
    u, stages, vmax = _advance_stages(state, dt, collect=record_stages)
    cfl = vmax * dt * 2.0 * np.pi * max(g.nx, g.ny, g.nz) / 3.0
    if cfl > ctl.cfl_target:
        warnings.warn(f"advisory CFL {cfl:.3f} exceeds target {ctl.cfl_target}",
                      CFLWarning, stacklevel=2)
    new = SolverState(u, state.t + dt, state.params)
    return (new, stages) if record_stages else new


def step_linear(part: SolverState, stages, ctl: StepControl,
                dt: float | None = None) -> SolverState:
    """Advance one decomposition part under the frozen driver stages."""
    dt = ctl.dt if dt is None else dt
    if len(stages) != 3:
        raise SchedulingError(f"need 3 driver stages, got {len(stages)}")
    u, _, _ = _advance_stages(part, dt, driver_stages=stages)
    return SolverState(u, part.t + dt, part.params)


def _plan_steps(t0: float, t_end: float, dt: float):
    span = t_end - t0
    if span <= 0:
        return []
    n = max(1, ceil(span / dt - 1e-9))
    steps = [dt] * (n - 1)
    steps.append(span - dt * (n - 1))
    return steps


def integrate(state: SolverState, ctl: StepControl, t_end: float,
              hooks=(), qs=()):
    """Repeated stepping with per-step norm recording.

    Returns ``(final_state, series)``.  Hooks are called as
    ``hook(state, series)`` after every step.  On blow-up the partial
    series is attached to the raised error.
    """
    series = DiagnosticsSeries()

    def _record(s):
        rec = norms(s.v, qs=qs, t=s.t)
        series.add_row(t=rec.t, l2=rec.l2, grad_l2=rec.grad_l2, l4=rec.l4,
                       l6=rec.l6, linf=rec.linf,
                       **{f"l{q:g}": val for q, val in rec.lq.items()})

    _record(state)
    try:
        for dt in _plan_steps(state.t, t_end, ctl.dt):
            state = step(state, ctl, dt=dt)
            _record(state)
            for hook in hooks:
                hook(state, series)
    except BlowUpError as err:
        err.series = series
        raise
    residual, dissipation = energy_residual_series(
        series.array("t"), series.array("l2"), series.array("grad_l2"))
    series.columns["energy_residual"] = list(residual)
    series.columns["dissipation"] = list(dissipation)
    return state, series
