"""Time integration of the nonlinear system and its linearizations.

One shared right-hand-side routine serves both the full equations and the
linear systems of the velocity decomposition: the advected field U is
transported by a driver velocity (v_drv, w_drv) and feels its own Coriolis
force.  For the nonlinear system the driver is U itself, so solutions of
the full system solve their own linearization bit for bit.

The pressure is not computed while stepping.  It depends on (x, y) only,
so its gradient lies in the z-mean plane, and it is the Lagrange
multiplier of the barotropic constraint: ``hydrostatics._project_mean``,
applied on the band after every stage, removes exactly that gradient part
(``project_barotropic``, its full-storage form, runs only in ``make_state``).
The tests check the projected tendency against one that applies the
pressure from ``solve_pressure`` explicitly.

Scheme: three-stage low-storage Runge-Kutta (order 3) for the transport /
rotation terms with the unit-viscosity diffusion handled by the exact
integrating factor exp(-|k|^2 tau) per stage.  The stage tendency is
dealiased and re-symmetrized (even in z); the iterate is only projected
back onto the barotropic constraint, because a masked, exactly even state
plus a masked, exactly even increment, times factors that are symmetric
in l, is masked and exactly even again.

A step runs on the dealiased band.  Such a state is fixed by its
coefficients at m <= nx/3, |n| <= ny/3 and 0 <= l <= nz/3, so the step
packs it once (``spectral._Band``, built once per grid as
``Grid.band``), runs the three stages on the packed array (gradients, w
and its constraint check, products, RK update, integrating factors,
projection, finiteness check) and unpacks once.  The band transforms are
partial Fourier sums, one small matrix product per axis, so states agree
with a full-storage FFT step to round-off; they stay masked and exactly
even, because only l >= 0 is computed and ``unpack`` mirrors it.

Products are formed on half the lattice.  The driver velocity and the
gradients of U are even or odd in z, so their values on the planes
j = 0..nz/2 fix the rest (plane nz - j mirrors plane j), and the even
products return to spectral space from those planes alone.  U is
transformed once for all its gradients (``_Band.gradient``): one fold,
one even z pass for U, dx U and dy U, one y pass for U and dx U, and a
derivative is one more table on those partial sums.  The nonlinear
stage takes its driver v from the same passes.  The gradients come one
at a time, each multiplied by its driver component and added to the sum
before the next is made, so a stage holds one gradient on the lattice,
not three.

A z-only state steps on its mean line alone.  Its packed array is a
column (``spectral._is_column``: zero off the mean line m = n = 0), so
dx U, dy U and w vanish, its tendency is -f0 k x U, and the projection
is the identity there (kh2 = 0).  Under drivers with w = 0 the step asks
this once and runs on ``u[:, :1, :1]``, with that tendency and without
projecting; the rest of the band stays zero.  Its driver values are the
z pass of that line broadcast over (nx, ny) as read-only views
(``_Band.column_inverse``), w broadcast zeros.  The full sums give the
same numbers up to the sign of zeros, so no artifact depends on the path.
The paper's cusp a|z|^delta and step sigma chi(-eta, eta)(z) are such
data: ``spectral.to_spectral`` makes z-only lattice values a column.

Stepping is a pure state-to-state function that only reads the band: a
single trajectory is sequential, but independent trajectories may run on
separate threads.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from itertools import repeat
from math import ceil

import numpy as np

from .diagnostics import DiagnosticsSeries, energy_residual_series
from .errors import BlowUpError, ConfigurationError, SchedulingError
from .estimates import norms
from .hydrostatics import _project_mean, _recover_w_band, project_barotropic
from .hydrostatics import recover_w, solve_pressure  # noqa: F401  -- bench/tracing.py rebinds them
from .spectral import EVEN, SpectralField, _Band, _is_column, dealias, symmetrize

RK_A = (8.0 / 15.0, 5.0 / 12.0, 3.0 / 4.0)
RK_B = (0.0, -17.0 / 60.0, -5.0 / 12.0)
RK_C = (0.0, 8.0 / 15.0, 2.0 / 3.0, 1.0)

_STAGE_TIME_TOL = 1e-9


@dataclass(frozen=True)
class PhysicsParams:
    """Coriolis parameter; viscosity is fixed at 1 and h is the grid's."""

    f0: float = 0.0


@dataclass(frozen=True)
class StepControl:
    dt: float
    cfl_target: float = 0.5

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError(f"dt={self.dt}: time step must be positive")
        if not self.cfl_target > 0:
            raise ConfigurationError(
                f"[time] cfl_target={self.cfl_target!r}: advisory CFL target must be positive")


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
    in z, so these planes determine the whole lattice.  v comes from the
    stage's gradient passes (``spectral._Band.gradient``) and w from the
    band inverse of its packed w (``spectral._Band.inverse``).  A z-only
    driver's v and w are read-only broadcast views (``_Band.column_inverse``).
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
    clean = project_barotropic(symmetrize(dealias(v), EVEN))
    return SolverState(clean, float(t), params)


def _coriolis(coeffs):
    """Coefficients of k x U = (-U^2, U^1)."""
    return np.concatenate([-coeffs[1:2], coeffs[0:1]])


def _any_stored(a) -> bool:
    """``np.any(a)``, reading each stored element once: a broadcast axis
    (stride 0) repeats its one element, so only index 0 of it is read."""
    return bool(np.any(a[tuple(slice(0, 1) if s == 0 else slice(None)
                                for s in a.strides)]))


def _rhs_core(u: np.ndarray, band: _Band, v: np.ndarray, w: np.ndarray,
              f0: float, grads=None) -> np.ndarray:
    """-[(v . grad_H)U + w dz U + f0 k x U] on the band, even in z, pressure-free.

    ``u`` is the packed advected field; ``v`` and ``w`` are the driver's
    half-plane values, as in ``DriverStage``.  The gradients of U come one
    at a time from ``band.gradient(u)``, or from ``grads``, such a stream
    whose values of U the caller has already taken, and are summed in the
    order v^1 dx U + v^2 dy U + w dz U, so one gradient at a time is on
    the lattice.
    """
    grads = band.gradient(u) if grads is None else grads
    adv = next(grads)
    adv *= v[0]
    for drv in (v[1], w[0]):
        term = next(grads)
        term *= drv
        adv += term
        del term            # freed before the next gradient is made
    out = band.forward(adv)
    if f0 != 0.0:
        out += f0 * _coriolis(u)
    return -out


def _advance_stages(state: SolverState, dt: float, driver_stages=None,
                    collect=False):
    """Shared RK3/integrating-factor stage loop, on the packed band.

    The state is packed once, stepped through the three stages on the
    band and unpacked once.  With ``driver_stages`` given, it is advected
    by the frozen driver (linear systems); otherwise the field drives
    itself (nonlinear system) and, with ``collect``, the stage fields are
    returned for reuse.  A column under drivers with w = 0, decided once
    per step, runs the stages on its mean line ``u[:, :1, :1]``: its
    tendency is -f0 k x U, and the projection, the identity on that line,
    is skipped (see the module docstring).  The integrating factors
    exp(-|k|^2 (c_{k+1} - c_k) dt) are formed each step from the |k|^2 of
    the block stepped, so the band is only read.  Raises ``BlowUpError``
    carrying ``state`` at the first stage that leaves non-finite values.
    """
    t = state.t
    band = state.v.grid.band
    u = band.pack(state.v.coeffs)
    column = _is_column(u) and not any(_any_stored(s.w) for s in driver_stages or ())
    k2 = band.k2
    if column:      # step the mean line alone
        u, k2 = u[:, :1, :1], k2[:1, :1]
    factors = [np.exp(-k2 * ((RK_C[k + 1] - RK_C[k]) * dt)) for k in range(3)]
    collected = [] if collect else None
    n_prev = None
    vmax0 = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3):
            if driver_stages is None:
                if column:
                    # w = 0, no gradient; v is one line per component, so is its max
                    v = band.column_inverse(u)
                    w = np.broadcast_to(0.0, (1,) + v.shape[1:])
                    vmax = v[:, :1, :1]
                else:
                    w = band.inverse(_recover_w_band(u, band), odd=True)
                    grads = band.gradient(u, values=True)
                    v = vmax = next(grads)
                stage = DriverStage(t + RK_C[k] * dt, v, w)
                if collect:
                    collected.append(stage)
                if k == 0:
                    vmax0 = float(np.max(np.abs(vmax)))
            else:
                grads = None
                stage = driver_stages[k]
                expected = t + RK_C[k] * dt
                if abs(stage.t - expected) > _STAGE_TIME_TOL * max(1.0, abs(expected)):
                    raise SchedulingError(
                        f"driver stage at t={stage.t} but stage {k} needs t={expected}")
            n_k = (-(state.params.f0 * _coriolis(u)) if column
                   else _rhs_core(u, band, stage.v, stage.w, state.params.f0, grads))
            incr = dt * RK_A[k] * n_k
            if k:
                incr = incr + dt * RK_B[k] * n_prev
            u = factors[k] * (u + incr)
            if not column:
                _project_mean(u[..., 0], band.kx[..., 0], band.ky[..., 0], band.kh2)
            if not np.all(np.isfinite(u)):
                raise BlowUpError(
                    f"non-finite values at RK stage {k + 1} of 3 in the step from t={t}",
                    last_good=state)
            n_prev = factors[k] * n_k
    return SpectralField(state.v.grid, band.unpack(u), EVEN), collected, vmax0


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


def _step_count(t0: float, t_end: float, dt: float) -> int:
    """Steps from t0 to t_end, all dt but a shorter last one.  A count past
    ``sys.maxsize``, an index-sized integer, raises ``ConfigurationError``."""
    n = (t_end - t0) / dt - 1e-9
    if not n < sys.maxsize:
        raise ConfigurationError(
            f"[time] t_end={t_end!r} and dt={dt!r}: {n:.3g} steps do not fit an index")
    return max(1, ceil(n)) if t_end > t0 else 0


def _plan_steps(t0: float, t_end: float, dt: float):
    n = _step_count(t0, t_end, dt)
    yield from repeat(dt, n - 1)
    if n:
        yield t_end - t0 - dt * (n - 1)


def _norm_row(t: float, rec) -> dict:
    """Every recorded run's columns t, l2, grad_l2, l4, l6, from ``rec = norms(v)``."""
    return dict(t=t, l2=rec.l2, grad_l2=rec.grad_l2, l4=rec.l4, l6=rec.l6)


def _recorded(states, record, hooks=()):
    """The one loop that turns a run into a series: each ``(dt, state)`` of
    ``states`` (dt = 0.0 first) adds the row ``record(state)``, then calls
    every ``hook(dt, state)``.  Returns ``(last state, series)`` with
    ``energy_residual`` added; a ``BlowUpError`` leaves carrying the rows
    recorded before it as ``series``.
    """
    series = DiagnosticsSeries()
    try:
        for dt, state in states:
            series.add_row(**record(state))
            for hook in hooks:
                hook(dt, state)
    except BlowUpError as err:
        err.series = series
        raise
    series.columns["energy_residual"] = list(energy_residual_series(
        series.array("t"), series.array("l2"), series.array("grad_l2")))
    return state, series


def _stepped(state: SolverState, ctl: StepControl, t_end: float):
    """``(0.0, state)``, then ``(dt, state)`` after each step to t_end."""
    yield 0.0, state
    for dt in _plan_steps(state.t, t_end, ctl.dt):
        state = step(state, ctl, dt=dt)
        yield dt, state


def integrate(state: SolverState, ctl: StepControl, t_end: float, hooks=()):
    """Repeated stepping with per-step norm recording.

    Returns ``(final_state, series)``: t, l2, grad_l2, l4 and l6 of every
    state from the initial one on, and ``energy_residual``.  Hooks are
    called as ``hook(dt, state)``: with dt = 0.0 for the initial state, then
    after every step.  On blow-up the raised ``BlowUpError`` carries the
    partial series as ``series``.
    """
    return _recorded(_stepped(state, ctl, t_end),
                     lambda s: _norm_row(s.t, norms(s.v)), hooks)
