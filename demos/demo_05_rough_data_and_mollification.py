"""Mollification of discontinuous data and the Cauchy ladder.

The indicator step is genuinely discontinuous; the spectral solver runs
it through periodic convolution with a smooth unit-mass bump of radius
eps.  The multiplier never increases any L^q norm, and trajectories for
halving radii approach each other, which is the numerical footprint of
the eps -> 0 limit behind the rough-data existence theory.

Run:  python demos/demo_05_rough_data_and_mollification.py
"""

import numpy as np

from hydrostat import (InitialDataSpec, PhysicsParams, StepControl, l2_norm,
                       linf_norm, lq_norm, make_state, mollify,
                       prepare_initial_parts, step)
from hydrostat.decomposition import make_cusp_step_data
from hydrostat.spectral import Grid

h = 0.5
grid = Grid.make(32, 32, 64, h)
spec = InitialDataSpec(kind="cusp_step", a=(1.0, 0.0), delta=1.0, eta=0.25,
                       sigma=(0.5, 0.0), epsilon=0.0)
_, raw_step = make_cusp_step_data(grid, spec)

print("norms of the (band-limited) indicator step before/after mollification:")
print(f"{'eps':>6} {'L2':>10} {'L4':>10} {'L6':>10} {'sup':>10}")
for eps in (0.0, 0.05, 0.1, 0.2):
    f = mollify(raw_step, eps)
    print(f"{eps:>6} {l2_norm(f):>10.5f} {lq_norm(f, 4):>10.5f} "
          f"{lq_norm(f, 6):>10.5f} {linf_norm(f):>10.5f}")
print("every column is non-increasing in eps (Young's inequality),")
print("and the sup at eps = 0 shows the Gibbs overshoot above sigma = 0.5")

# --- trajectories form a Cauchy ladder as eps halves ---------------------------
params = PhysicsParams(f0=1.0)
ctl = StepControl(dt=1e-3)
finals = {}
for eps in (0.2, 0.1, 0.05):
    vb, v_step = prepare_initial_parts(
        grid, InitialDataSpec(kind="cusp_step", a=(1.0, 0.0), delta=1.0,
                              eta=0.25, sigma=(0.5, 0.0), epsilon=eps))
    state = make_state(vb + v_step, 0.0, params)
    for _ in range(40):
        state = step(state, ctl)
    finals[eps] = state.v

d1 = l2_norm(finals[0.2] - finals[0.1])
d2 = l2_norm(finals[0.1] - finals[0.05])
print(f"\ntrajectory distances at t = 0.04:")
print(f"  ||v(eps=0.2)  - v(eps=0.1) ||_2 = {d1:.4e}")
print(f"  ||v(eps=0.1)  - v(eps=0.05)||_2 = {d2:.4e}")
print(f"  strictly decreasing: {d1 > d2}")
