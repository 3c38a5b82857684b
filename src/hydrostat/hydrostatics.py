"""Layer-specific operators: vertical integrals, vertical velocity,
barotropic projection and the 2D hydrostatic pressure solve.

The vertical velocity is diagnostic: w = -div_h integral_{-h}^{z} v dxi.
Periodicity of w requires the barotropic constraint
div_h integral_{-h}^{h} v dz = 0, which is enforced here by a Leray-type
projection acting on the z-mean mode alone.

Pressure depends on the horizontal position only: its gradient lies in
the z-mean plane and is the Lagrange multiplier of the barotropic
constraint, so during time stepping the projection is what enforces it.
``solve_pressure`` recovers it on demand from the instantaneous velocity
through a 2D Poisson problem with zero-mean gauge; it is never integrated
as a dynamic variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConstraintViolationError
from .spectral import (EVEN, ODD, Grid, PhysicalField, SpectralField,
                       _parseval, div_h, l2_norm, symmetrize, to_physical)

CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Pressure2D:
    """Horizontal-mode coefficients of a z-independent scalar, zero-mean gauge."""

    grid: Grid
    coeffs: np.ndarray      # (nxr, ny) complex

    def __post_init__(self):
        nxr, ny = self.grid.spectral_shape[:2]
        if self.coeffs.shape != (nxr, ny):
            raise ConfigurationError(
                f"pressure coefficients {self.coeffs.shape} do not match grid")
        if self.coeffs[0, 0] != 0:
            raise ConfigurationError("zero-mean gauge violated")

    def __add__(self, other):
        return Pressure2D(self.grid, self.coeffs + other.coeffs)


@dataclass(frozen=True, eq=False)
class PressureSplit:
    """Total pressure and its advective / Coriolis parts: total = p1 + p2."""

    total: Pressure2D
    advective: Pressure2D
    coriolis: Pressure2D


def zmean_coeffs(f: SpectralField) -> np.ndarray:
    """The l = 0 plane of the coefficients: the z-average per horizontal mode."""
    return f.coeffs[..., 0]


def barotropic_residual(v: SpectralField) -> float:
    """Relative L2 size of div_h <v> against ||v||_2 (absolute for tiny v)."""
    if v.ncomp != 2:
        raise ConfigurationError("barotropic residual needs a 2-component field")
    g = v.grid
    return _mean_residual(zmean_coeffs(v), g.kx_d[..., 0], g.ky_d[..., 0],
                          g.mode_weights[..., 0], g.volume, l2_norm(v))


def _mean_residual(u, kx, ky, weights, volume, norm):
    """L2 size of div_h of the z-mean plane ``u`` relative to max(norm, 1)."""
    d = 1j * kx * u[0] + 1j * ky * u[1]
    return _parseval(d, (weights,), volume, (True,))[0] / max(norm, 1.0)


def project_barotropic(v: SpectralField) -> SpectralField:
    """Remove the gradient part of the z-mean mode; baroclinic modes untouched."""
    if v.ncomp != 2:
        raise ConfigurationError("projection needs a 2-component field")
    g = v.grid
    coeffs = v.coeffs.copy()
    _project_mean(coeffs[..., 0], g.kx_d[..., 0], g.ky_d[..., 0], g.kh2)
    return SpectralField(g, coeffs, v.symmetry)


def _project_mean(u, kx, ky, kh2):
    """Remove, in place, the gradient part of the z-mean plane ``u``."""
    div = 1j * (kx * u[0] + ky * u[1])
    safe = np.where(kh2 > 0, kh2, 1.0)
    q = np.where(kh2 > 0, -div / safe, 0.0)
    u[0] -= 1j * kx * q
    u[1] -= 1j * ky * q


def vertical_integral(f: SpectralField, require_periodic: bool = True) -> SpectralField:
    """Antiderivative from -h to z of an even-in-z field.

    Coefficients are divided by i*kz for l != 0 and the result is projected
    onto the odd class, whose l = 0 plane is zero.  An odd, 2h-periodic
    function vanishes at z = -h, so no constant needs fixing.  A z-mean
    (l = 0) component of the integrand would grow linearly in z; if its
    norm exceeds ``CONSTRAINT_TOL * max(||f||_2, 1)`` while a periodic
    result is demanded, a constraint violation is raised, otherwise it is
    silently dropped.
    """
    if f.symmetry != EVEN:
        raise ConfigurationError("vertical integral is defined for even-in-z input")
    g = f.grid
    mean_plane = zmean_coeffs(f)
    if require_periodic:
        (res,) = _parseval(mean_plane, (g.mode_weights[..., 0],), g.volume, (True,))
        ref = max(l2_norm(f), 1.0)
        if res > CONSTRAINT_TOL * ref:
            raise ConstraintViolationError(
                "nonzero z-mean: antiderivative would grow linearly", res / ref)

    anti = f.coeffs * (-1j) * _inverse_kz(g)   # c / (i kz), zero where kz table is 0
    return symmetrize(SpectralField(g, anti, ODD), ODD)


def _inverse_kz(g):
    kz = g.kz_d
    return np.where(kz != 0, 1.0 / np.where(kz != 0, kz, 1.0), 0.0)


def recover_w(v: SpectralField) -> SpectralField:
    """Vertical velocity w = -div_h integral_{-h}^{z} v, odd in z.

    Requires the barotropic constraint to hold to ``CONSTRAINT_TOL``
    (relative, L2); the residual below tolerance is projected away so that
    w is periodic and vanishes at both walls.
    """
    if v.ncomp != 2:
        raise ConfigurationError("recover_w needs a 2-component field")
    if v.symmetry != EVEN:
        raise ConfigurationError("recover_w needs an even-in-z field")
    res = barotropic_residual(v)
    if res > CONSTRAINT_TOL:
        raise ConstraintViolationError("barotropic constraint violated", res)
    s = div_h(v)
    integral = vertical_integral(s, require_periodic=False)
    return integral.with_coeffs(-integral.coeffs, symmetry=ODD)


def _recover_w_band(u, band):
    """``recover_w`` on a packed even state; returns the packed odd w.

    The same arithmetic as ``recover_w`` restricted to the band, so the
    result is the packed full w bit for bit.
    """
    g = band.grid
    (norm,) = _parseval(u, (band.weights,), g.volume, (True,))
    res = _mean_residual(u[..., 0], band.kx[..., 0], band.ky[..., 0],
                         band.weights[..., 0], g.volume, norm)
    if res > CONSTRAINT_TOL:
        raise ConstraintViolationError("barotropic constraint violated", res)
    s = 1j * band.kx * u[0:1] + 1j * band.ky * u[1:2]
    inv = _inverse_kz(g)
    anti = s * (-1j) * inv[..., : band.nl]
    return -(0.5 * (anti - s * (-1j) * band.mirror(inv)))


def boundary_trace_norm(w: SpectralField) -> float:
    """L2(M) norm of w evaluated on the walls z = +/-h (equal by periodicity).

    The wall z = -h is the lattice origin, so the trace is the plain sum of
    coefficients along l.
    """
    g = w.grid
    trace = np.sum(w.coeffs, axis=-1)
    return _parseval(trace, (g.mode_weights[..., 0],), 1.0, (True,))[0]


def poisson_h_solve(grid: Grid, rhs_coeffs: np.ndarray) -> Pressure2D:
    """Solve -Lap_H p = rhs for a horizontal-mode RHS, zero-mean gauge."""
    kh2 = np.where(grid.kh2 > 0, grid.kh2, 1.0)
    p = np.where(grid.kh2 > 0, rhs_coeffs / kh2, 0.0)
    return Pressure2D(grid, p)


def _zmean_spectrum(values2d_mean, grid):
    """Horizontal spectrum of a z-averaged lattice field.

    Equals the l = 0 plane of the full 3D forward transform (the forward
    normalization makes the l = 0 coefficient the z-average per mode).
    """
    return np.fft.rfftn(values2d_mean, axes=(1, 0), norm="forward")


def _advection_tensor_zmean(g: Grid, u_phys: PhysicalField,
                            drv_phys: PhysicalField) -> np.ndarray:
    """z-averaged div_H div_H of the mixed tensor u (x) v_driver, spectral, dealiased."""
    out = np.zeros(g.spectral_shape[:2], dtype=complex)
    kx, ky = g.kx_d[..., 0], g.ky_d[..., 0]
    kk = ((kx * kx, kx * ky), (kx * ky, ky * ky))
    mask = g.dealias_mask[..., 0]
    for i in range(2):
        for j in range(2):
            prod_mean = np.mean(u_phys.values[i] * drv_phys.values[j], axis=2)
            out -= kk[i][j] * (_zmean_spectrum(prod_mean, g) * mask)
    return out


def solve_pressure(v: SpectralField, f0: float,
                   driver: SpectralField | None = None) -> PressureSplit:
    """Hydrostatic pressure with its advective/Coriolis split, p = p1 + p2.

    A diagnostic: the stepper never calls it.  With ``driver`` supplied,
    solves the linear-system analogue where the advection tensor is
    v (x) driver; otherwise the full quadratic problem.  The two parts
    solve -Lap_H p = rhs for the z-mean advection tensor and for the
    Coriolis term.
    """
    if v.ncomp != 2:
        raise ConfigurationError("pressure solve needs a 2-component field")
    g = v.grid
    v_phys = to_physical(v)
    drv_phys = v_phys if driver is None or driver is v else to_physical(driver)
    vm = zmean_coeffs(v)
    kx, ky = g.kx_d[..., 0], g.ky_d[..., 0]
    p1 = poisson_h_solve(g, _advection_tensor_zmean(g, v_phys, drv_phys))
    p2 = poisson_h_solve(g, f0 * 1j * (ky * vm[0] - kx * vm[1]))
    return PressureSplit(p1 + p2, p1, p2)
