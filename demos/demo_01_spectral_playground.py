"""Tour of the spectral substrate.

Builds a grid on the periodic layer M x (-h, h), round-trips fields
through the transforms and through an HSF1 snapshot file, splits a field
into even/odd parts in z, and shows the superalgebraic convergence of
spectral derivatives.

Run:  python demos/demo_01_spectral_playground.py
"""

import tempfile
from pathlib import Path

import numpy as np

from hydrostat import (EVEN, Grid, derivative, field_from_function, l2_norm,
                       read_snapshot, symmetrize, to_physical, to_spectral,
                       write_snapshot)

h = 0.5
grid = Grid.make(32, 32, 32, h)
print(f"grid: {grid.nx} x {grid.ny} x {grid.nz}, layer half-height h = {grid.h}")
print(f"lattice: x starts at {grid.x()[0]}, z runs from {grid.z()[0]} "
      f"to {grid.z()[-1]:.4f} (z = +h excluded by periodicity)")

# --- transforms round-trip ---------------------------------------------------
f = field_from_function(grid, lambda X, Y, Z: np.cos(2 * np.pi * X) * np.cos(np.pi * Z / h))
back = to_spectral(to_physical(f))
print(f"\nround-trip residual: {np.max(np.abs(back.coeffs - f.coeffs)):.2e}")
print(f"mean mode holds the average: {f.coeffs[0, 0, 0, 0].real:.2e} (zero-mean field)")

# --- parity projections ------------------------------------------------------
mix = field_from_function(
    grid, lambda X, Y, Z: np.cos(np.pi * Z / h) + 0.5 * np.sin(np.pi * Z / h))
even = symmetrize(mix, "even")
odd = symmetrize(mix, "odd")
print("\nparity split of cos + 0.5 sin in z:")
print(f"  even part norm {l2_norm(even):.6f} (cos alone: {np.sqrt(h):.6f})")
print(f"  odd  part norm {l2_norm(odd):.6f} (0.5 sin alone: {0.5 * np.sqrt(h):.6f})")
print(f"  projections idempotent: "
      f"{np.array_equal(symmetrize(even, 'even').coeffs, even.coeffs)}")

# --- z-derivatives flip parity ----------------------------------------------
df = derivative(even, "z")
print(f"  d/dz maps tag {even.symmetry!r} -> {df.symmetry!r}")

# --- HSF1 snapshots: lattice values on disk, tag in the header -----------------
path = Path(tempfile.mkdtemp(prefix="hydrostat_demo_")) / "even.hsf"
write_snapshot(path, even)
loaded = read_snapshot(path)
print(f"\nsnapshot {path.name}: {path.stat().st_size} bytes, tag {loaded.symmetry!r}, "
      f"coefficient change {np.max(np.abs(loaded.coeffs - even.coeffs)):.1e}")

# --- spectral accuracy --------------------------------------------------------
print("\nderivative error for exp(sin(pi z / h)) as nz doubles:")
for nz in (8, 16, 32, 64):
    g = Grid.make(8, 8, nz, h)
    u = field_from_function(g, lambda X, Y, Z: np.exp(np.sin(np.pi * Z / h)))
    du = to_physical(derivative(u, "z")).values[0]
    _, _, Z = g.mesh()
    exact = (np.pi / h) * np.cos(np.pi * Z / h) * np.exp(np.sin(np.pi * Z / h))
    print(f"  nz = {nz:3d}: max error {np.max(np.abs(du - exact)):.3e}")
print("faster than any fixed order, until the round-off floor")
