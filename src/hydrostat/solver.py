"""Time integration of the nonlinear system and its linearizations.

One shared right-hand-side routine serves both the full equations and the
linear systems of the velocity decomposition: the advected field U is
transported by a driver velocity (v_drv, w_drv) and feels its own Coriolis
force.  For the nonlinear system the driver is U itself, so solutions of
the full system solve their own linearization bit for bit.

The pressure is not computed while stepping.  It depends on (x, y) only,
so its gradient lies in the z-mean plane, and it is the Lagrange
multiplier of the barotropic constraint: ``project_barotropic``, applied
after every stage, removes exactly that gradient part.  The tests check
the projected tendency against one that applies the pressure from
``solve_pressure`` explicitly.

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

A z-only state steps without band transforms.  Its packed array is a
column (``spectral._is_column``: zero off the mean line m = n = 0), so
dx U, dy U and w vanish identically and its tendency is -f0 k x U alone.
The driver values such a stage hands on are the z pass of the mean line,
broadcast over (nx, ny) as a read-only view (``_Band.column_inverse``),
with w a broadcast zero: driver values may be read-only broadcast views,
and nothing writes to them.  The full sums give the same values up to
the sign of zeros, so no state or artifact depends on the path taken.
Any state with a non-zero entry off the mean line, however small, takes
the full path.  This is the paper's discontinuous data: the cusp a|z|^delta
and the step sigma chi(-eta, eta)(z) are both z-only.

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
from .hydrostatics import _project_mean, _recover_w_band, project_barotropic
# Not called here: the benchmark's tracer (bench/tracing.py) rebinds these
# two names on this module, so they stay importable from it.
from .hydrostatics import recover_w, solve_pressure  # noqa: F401
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
    band inverse of its packed w (``spectral._Band.inverse``).  For a
    z-only driver, v is one z line per component broadcast over (nx, ny)
    (``spectral._Band.column_inverse``) and w broadcast zeros: both are
    then read-only views.
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


def _stage_factors(band: _Band, dt: float):
    """Integrating factors exp(-|k|^2 (c_{k+1} - c_k) dt) for the 3 stages."""
    return tuple(np.exp(-band.k2 * ((RK_C[k + 1] - RK_C[k]) * dt)) for k in range(3))


def _coriolis(coeffs):
    """Coefficients of k x U = (-U^2, U^1)."""
    return np.concatenate([-coeffs[1:2], coeffs[0:1]])


def _rhs_core(u: np.ndarray, band: _Band, v: np.ndarray, w: np.ndarray,
              f0: float, grads=None) -> np.ndarray:
    """-[(v . grad_H)U + w dz U + f0 k x U] on the band, even in z, pressure-free.

    ``u`` is the packed advected field; ``v`` and ``w`` are the driver's
    half-plane values, as in ``DriverStage``.  The gradients of U come one
    at a time from ``band.gradient(u)``, or from ``grads``, such a stream
    whose values of U the caller has already taken, and are summed in the
    order v^1 dx U + v^2 dy U + w dz U, so one gradient at a time is on
    the lattice.

    Without ``grads``, a column U (``spectral._is_column``: it depends on
    z alone) under a driver with w = 0 has no advection: dx U and dy U
    vanish identically, because the x and y derivative tables are zero at
    m = n = 0, and w dz U = 0.  The tendency is then -f0 k x U with no
    transform, which is what the full sums give up to the sign of zeros.
    """
    if grads is None and _is_column(u) and not np.any(w):
        return -(f0 * _coriolis(u))
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
    returned for reuse.  A z-only stage takes no band transform (see the
    module docstring).  Raises ``BlowUpError`` carrying ``state`` at the
    first stage that leaves non-finite values.
    """
    t = state.t
    band = state.v.grid.band
    u = band.pack(state.v.coeffs)
    factors = _stage_factors(band, dt)
    collected = [] if collect else None
    n_prev = None
    vmax0 = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3):
            if driver_stages is None:
                w = _recover_w_band(u, band)    # packed; checks the constraint
                if _is_column(u):
                    # z-only: w is zero and _rhs_core forms no gradient;
                    # v is one line per component, so is its max
                    grads = None
                    v = band.column_inverse(u)
                    w = np.broadcast_to(0.0, (1,) + v.shape[1:])
                    vmax = v[:, :1, :1]
                else:
                    w = band.inverse(w, odd=True)
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
            n_k = _rhs_core(u, band, stage.v, stage.w, state.params.f0, grads)
            incr = dt * RK_A[k] * n_k
            if k:
                incr = incr + dt * RK_B[k] * n_prev
            u = factors[k] * (u + incr)
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


def _plan_steps(t0: float, t_end: float, dt: float):
    span = t_end - t0
    if span <= 0:
        return []
    n = max(1, ceil(span / dt - 1e-9))
    steps = [dt] * (n - 1)
    steps.append(span - dt * (n - 1))
    return steps


def integrate(state: SolverState, ctl: StepControl, t_end: float, hooks=()):
    """Repeated stepping with per-step norm recording.

    Returns ``(final_state, series)``.  Hooks are called as
    ``hook(state, series)`` after every step.  On blow-up the partial
    series is attached to the raised error.
    """
    series = DiagnosticsSeries()

    def _record(s):
        rec = norms(s.v)
        series.add_row(t=s.t, l2=rec.l2, grad_l2=rec.grad_l2, l4=rec.l4,
                       l6=rec.l6)

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
    residual = energy_residual_series(
        series.array("t"), series.array("l2"), series.array("grad_l2"))
    series.columns["energy_residual"] = list(residual)
    return state, series
