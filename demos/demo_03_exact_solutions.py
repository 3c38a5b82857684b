"""The time stepper against closed-form solutions.

Two families make every nonlinear term vanish identically, so they probe
the diffusion (handled exactly by the integrating factor) and the
explicit Coriolis stage:

* pure shear v0 = (0, A cos(2 pi x)): decays like exp(-4 pi^2 t);
* a vertical mode v0 = (A cos(pi z/h), 0) with rotation f0: spirals as
  A exp(-(pi/h)^2 t) (cos f0 t, -sin f0 t) cos(pi z/h).

The discrete energy identity is monitored alongside.

Run:  python demos/demo_03_exact_solutions.py
"""

import numpy as np

from hydrostat import (EVEN, Grid, PhysicsParams, StepControl,
                       field_from_function, integrate, make_state, to_physical)

h = 0.5
grid = Grid.make(32, 32, 32, h)
ctl = StepControl(dt=1e-3)
A = 1.0

# --- decay --------------------------------------------------------------------
v0 = field_from_function(grid, lambda X, Y, Z: (0 * X, A * np.cos(2 * np.pi * X)),
                         symmetry=EVEN)
state = make_state(v0, 0.0, PhysicsParams(f0=0.0))
final, series = integrate(state, ctl, 0.1)
X, _, Z = grid.mesh()
exact = A * np.exp(-4 * np.pi ** 2 * final.t) * np.cos(2 * np.pi * X)
err = np.max(np.abs(to_physical(final.v).values[1] - exact)) / np.max(np.abs(exact))
print("pure-shear decay over [0, 0.1]:")
print(f"  relative error vs closed form: {err:.2e}")
print(f"  max energy-identity residual:  {np.max(series.array('energy_residual')):.2e}")

# --- rotation-decay -------------------------------------------------------------
f0 = 1.0
v0 = field_from_function(grid, lambda X, Y, Z: (A * np.cos(np.pi * Z / h), 0 * X),
                         symmetry=EVEN)
state = make_state(v0, 0.0, PhysicsParams(f0=f0))
final, series = integrate(state, ctl, 0.1)
amp = A * np.exp(-(np.pi / h) ** 2 * final.t)
vals = to_physical(final.v).values
err = max(
    np.max(np.abs(vals[0] - amp * np.cos(f0 * final.t) * np.cos(np.pi * Z / h))),
    np.max(np.abs(vals[1] + amp * np.sin(f0 * final.t) * np.cos(np.pi * Z / h)))) / amp
print("\nrotation-decay with f0 = 1:")
print(f"  relative error vs closed form: {err:.2e}")

# --- temporal order -------------------------------------------------------------
print("\nglobal error vs dt for fast rotation (f0 = 40), expect ~8x per halving:")
prev = None
for dt in (2e-3, 1e-3, 5e-4):
    state = make_state(v0, 0.0, PhysicsParams(f0=40.0))
    final, _ = integrate(state, StepControl(dt=dt), 0.05)
    amp = A * np.exp(-(np.pi / h) ** 2 * final.t)
    vals = to_physical(final.v).values
    err = max(
        np.max(np.abs(vals[0] - amp * np.cos(40.0 * final.t) * np.cos(np.pi * Z / h))),
        np.max(np.abs(vals[1] + amp * np.sin(40.0 * final.t) * np.cos(np.pi * Z / h)))) / amp
    note = f"  dt = {dt:.0e}: error {err:.3e}"
    if prev is not None:
        note += f"  (ratio {prev / err:.1f})"
    prev = err
    print(note)
