"""Spectral substrate: grids, field containers, transforms and operators.

The computational domain is the periodic layer M x (-h, h) with
M = (0,1) x (0,1).  Horizontal wavenumbers are 2*pi*m, 2*pi*n; vertical
wavenumbers are pi*l/h (the z-period is 2h).  Fields are stored either on
the collocation lattice (``PhysicalField``) or as truncated Fourier
coefficients (``SpectralField``) with half-spectrum storage along x and
full spectra along y and z, so the z-parity operation l -> -l is a pure
index permutation.

Even and odd fields are evaluated on half the lattice.  The parity map
z -> -z takes plane j to plane nz - j (mod nz), so planes j = 0..nz/2
carry every value and the rest mirror them, with a sign flip for odd
fields.  The stepper transforms, multiplies and transforms back on those
planes alone (``_inverse_half``, ``_forward_half``).  The oversampled
norms of parity-tagged fields reduce over the planes j = 0..nz'/2 of the
finer lattice, counting the two end planes at half weight in means; an
even field whose z Nyquist plane is populated is the exception, because
zero padding places that mode on one side only and breaks the mirror.
Untagged fields, and the public transforms, always use the whole lattice.

Conventions (fixed for cross-run reproducibility):

* forward transforms carry the 1/N factor, so the (0,0,0) coefficient is
  the field mean;
* collocation points are x_j = j/nx, y_j = j/ny, z_j = -h + 2h*j/nz
  (z = -h included, z = +h excluded);
* the 2/3-rule mask keeps |m| <= nx/3, |n| <= ny/3, |l| <= nz/3;
* Nyquist wavenumbers are zeroed in the odd-derivative tables (those
  modes are masked away by dealiasing anyway).

All operations are pure: fields are never mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DataError

EVEN = "even"
ODD = "odd"
NONE = "none"
_TAGS = (EVEN, ODD, NONE)

# transforms act on (ncomp, nx, ny, nz) arrays: rfft along x, fft along y, z
_AXES = (2, 3, 1)

# |k|^2 sums three squared wavenumbers; each must stay below this to be finite
_K_LIMIT = np.sqrt(np.finfo(float).max / 3)


def _forward(values):
    return np.fft.rfftn(values, axes=_AXES, norm="forward")


def _inverse(coeffs, grid):
    return np.fft.irfftn(coeffs, s=(grid.ny, grid.nz, grid.nx), axes=_AXES,
                         norm="forward")


def _inverse_half(coeffs, grid):
    """Lattice values of an even or odd field on the planes j = 0..nz/2.

    A full z pass, then y and x on a contiguous copy of the kept planes
    only; returns a (ncomp, nx, ny, nz/2 + 1) array.
    """
    kept = np.ascontiguousarray(
        np.fft.ifft(coeffs, axis=3, norm="forward")[..., : grid.nz // 2 + 1])
    np.fft.ifft(kept, axis=2, norm="forward", out=kept)
    return np.fft.irfft(kept, n=grid.nx, axis=1, norm="forward")


def _forward_half(values, grid):
    """Coefficients of an even field from its values on the planes j = 0..nz/2.

    Plane j > nz/2 is plane nz - j, copied exactly before the z pass.
    """
    nz = grid.nz
    part = np.fft.rfftn(values, axes=(2, 1), norm="forward")
    full = np.empty(part.shape[:3] + (nz,), dtype=complex)
    full[..., : nz // 2 + 1] = part
    full[..., nz // 2 + 1:] = part[..., nz // 2 - 1: 0: -1]
    return np.fft.fft(full, axis=3, norm="forward", out=full)


@dataclass(frozen=True, eq=False)
class Grid:
    """Resolution, geometry and precomputed mode tables."""

    nx: int
    ny: int
    nz: int
    h: float
    kx: np.ndarray          # (nxr, 1, 1) true wavenumbers, rfft half-spectrum
    ky: np.ndarray          # (1, ny, 1)
    kz: np.ndarray          # (1, 1, nz)
    kx_d: np.ndarray        # derivative tables: Nyquist zeroed
    ky_d: np.ndarray
    kz_d: np.ndarray
    k2: np.ndarray          # (nxr, ny, nz) |k|^2
    kh2: np.ndarray         # (nxr, ny) horizontal |k_H|^2
    dealias_mask: np.ndarray
    parity_index: np.ndarray  # permutation implementing l -> -l
    mode_weights: np.ndarray  # Parseval weights for half-spectrum storage

    @classmethod
    def make(cls, nx, ny, nz, h):
        for name, n in (("nx", nx), ("ny", ny), ("nz", nz)):
            if n < 8 or n % 2:
                raise ConfigurationError(f"{name}={n}: mode counts must be even and >= 8")
        if not 0 < h < np.inf:
            raise ConfigurationError(f"h={h}: half-height must be positive and finite")
        if not np.pi / h * nz < _K_LIMIT:
            raise ConfigurationError(f"h={h}: vertical wavenumbers up to pi*nz/h overflow")

        nxr = nx // 2 + 1
        mx = np.arange(nxr, dtype=float)
        my = np.fft.fftfreq(ny) * ny
        mz = np.fft.fftfreq(nz) * nz

        kx = (2 * np.pi * mx)[:, None, None]
        ky = (2 * np.pi * my)[None, :, None]
        kz = (np.pi / h * mz)[None, None, :]

        kx_d, ky_d, kz_d = kx.copy(), ky.copy(), kz.copy()
        kx_d[-1] = 0.0
        ky_d[0, ny // 2] = 0.0
        kz_d[0, 0, nz // 2] = 0.0

        k2 = kx ** 2 + ky ** 2 + kz ** 2
        kh2 = (kx ** 2 + ky ** 2)[:, :, 0]

        keep = ((np.abs(mx) <= nx / 3)[:, None, None]
                & (np.abs(my) <= ny / 3)[None, :, None]
                & (np.abs(mz) <= nz / 3)[None, None, :])

        parity_index = (-np.arange(nz)) % nz

        weights = np.full((nxr, 1, 1), 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0

        return cls(nx=nx, ny=ny, nz=nz, h=float(h), kx=kx, ky=ky, kz=kz,
                   kx_d=kx_d, ky_d=ky_d, kz_d=kz_d, k2=k2, kh2=kh2,
                   dealias_mask=keep, parity_index=parity_index,
                   mode_weights=weights)

    @property
    def volume(self):
        return 2.0 * self.h

    @property
    def spectral_shape(self):
        return (self.nx // 2 + 1, self.ny, self.nz)

    @property
    def physical_shape(self):
        return (self.nx, self.ny, self.nz)

    def x(self):
        return np.arange(self.nx) / self.nx

    def y(self):
        return np.arange(self.ny) / self.ny

    def z(self):
        return -self.h + 2 * self.h * np.arange(self.nz) / self.nz

    def mesh(self):
        return np.meshgrid(self.x(), self.y(), self.z(), indexing="ij")

    def compatible(self, other):
        return (self.nx, self.ny, self.nz, self.h) == (other.nx, other.ny, other.nz, other.h)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Truncated Fourier representation; ``coeffs`` has shape (ncomp, nxr, ny, nz)."""

    grid: Grid
    coeffs: np.ndarray
    symmetry: str = NONE

    def __post_init__(self):
        if self.symmetry not in _TAGS:
            raise ConfigurationError(f"unknown symmetry tag {self.symmetry!r}")
        expected = self.grid.spectral_shape
        if self.coeffs.ndim != 4 or self.coeffs.shape[1:] != expected:
            raise ConfigurationError(
                f"coefficient shape {self.coeffs.shape} does not match grid {expected}")

    @property
    def ncomp(self):
        return self.coeffs.shape[0]

    def with_coeffs(self, coeffs, symmetry=None):
        return SpectralField(self.grid, coeffs,
                             self.symmetry if symmetry is None else symmetry)

    def component(self, i):
        return SpectralField(self.grid, self.coeffs[i:i + 1], self.symmetry)

    def __add__(self, other):
        _check_same_grid(self, other)
        tag = self.symmetry if self.symmetry == other.symmetry else NONE
        return SpectralField(self.grid, self.coeffs + other.coeffs, tag)

    def __sub__(self, other):
        _check_same_grid(self, other)
        tag = self.symmetry if self.symmetry == other.symmetry else NONE
        return SpectralField(self.grid, self.coeffs - other.coeffs, tag)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar, self.symmetry)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class PhysicalField:
    """Collocation values; ``values`` has shape (ncomp, nx, ny, nz)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expected = self.grid.physical_shape
        if self.values.ndim != 4 or self.values.shape[1:] != expected:
            raise ConfigurationError(
                f"value shape {self.values.shape} does not match grid {expected}")

    @property
    def ncomp(self):
        return self.values.shape[0]


def _check_same_grid(f, g):
    if f.grid is not g.grid and not f.grid.compatible(g.grid):
        raise ConfigurationError("fields live on incompatible grids")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def to_physical(f: SpectralField) -> PhysicalField:
    """Inverse transform onto the collocation lattice."""
    return PhysicalField(f.grid, _inverse(f.coeffs, f.grid))


def to_spectral(f: PhysicalField, symmetry: str = NONE) -> SpectralField:
    """Forward transform; a non-trivial tag triggers symmetrization."""
    if not np.all(np.isfinite(f.values)):
        raise DataError("physical field contains non-finite values")
    out = SpectralField(f.grid, _forward(f.values), NONE)
    if symmetry != NONE:
        out = symmetrize(out, symmetry)
    return out


def field_from_function(grid, fn, symmetry=NONE):
    """Sample ``fn(X, Y, Z)`` (returning one array per component) and transform."""
    X, Y, Z = grid.mesh()
    vals = fn(X, Y, Z)
    if isinstance(vals, np.ndarray) and vals.ndim == 3:
        vals = (vals,)
    stacked = np.stack([np.broadcast_to(np.asarray(v, dtype=float), grid.physical_shape)
                        for v in vals])
    return to_spectral(PhysicalField(grid, stacked), symmetry)


def zero_field(grid, ncomp=1, symmetry=NONE):
    return SpectralField(grid, np.zeros((ncomp,) + grid.spectral_shape, dtype=complex),
                         symmetry)


# ---------------------------------------------------------------------------
# symmetry and mask projections
# ---------------------------------------------------------------------------

def parity_flip(coeffs, grid):
    """Coefficients of z -> -z, as the l -> -l index permutation."""
    return coeffs[..., grid.parity_index]


def symmetrize(f: SpectralField, tag: str) -> SpectralField:
    """Project onto the even or odd class in z: (f(z) +/- f(-z)) / 2."""
    if tag not in (EVEN, ODD):
        raise ConfigurationError(f"symmetrize needs 'even' or 'odd', got {tag!r}")
    flipped = parity_flip(f.coeffs, f.grid)
    if tag == EVEN:
        return SpectralField(f.grid, 0.5 * (f.coeffs + flipped), EVEN)
    return SpectralField(f.grid, 0.5 * (f.coeffs - flipped), ODD)


def dealias(f: SpectralField) -> SpectralField:
    """Zero every mode outside the 2/3-rule band."""
    return f.with_coeffs(f.coeffs * f.grid.dealias_mask)


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

_FLIP = {EVEN: ODD, ODD: EVEN, NONE: NONE}


def derivative(f: SpectralField, axis: str) -> SpectralField:
    """Spectral derivative along 'x', 'y' or 'z'; z flips the parity tag."""
    g = f.grid
    if axis == "x":
        return f.with_coeffs(1j * g.kx_d * f.coeffs)
    if axis == "y":
        return f.with_coeffs(1j * g.ky_d * f.coeffs)
    if axis == "z":
        return f.with_coeffs(1j * g.kz_d * f.coeffs, symmetry=_FLIP[f.symmetry])
    raise ConfigurationError(f"unknown axis {axis!r}")


def laplacian(f: SpectralField) -> SpectralField:
    return f.with_coeffs(-f.grid.k2 * f.coeffs)


def grad_h(f: SpectralField) -> SpectralField:
    """Horizontal gradient of a scalar field -> 2-component field."""
    if f.ncomp != 1:
        raise ConfigurationError(f"grad_h needs a scalar field, got {f.ncomp} components")
    g = f.grid
    out = np.concatenate([1j * g.kx_d * f.coeffs, 1j * g.ky_d * f.coeffs])
    return SpectralField(g, out, f.symmetry)


def div_h(f: SpectralField) -> SpectralField:
    """Horizontal divergence of a 2-component field -> scalar."""
    if f.ncomp != 2:
        raise ConfigurationError(f"div_h needs exactly 2 components, got {f.ncomp}")
    g = f.grid
    out = 1j * g.kx_d * f.coeffs[0:1] + 1j * g.ky_d * f.coeffs[1:2]
    return SpectralField(g, out, f.symmetry)


def pointwise_product(f: PhysicalField, g: PhysicalField) -> PhysicalField:
    """Lattice product; scalar factors broadcast against vector factors.

    The caller is responsible for dealiasing after returning to spectral
    space.
    """
    _check_same_grid(f, g)
    if f.ncomp != g.ncomp and 1 not in (f.ncomp, g.ncomp):
        raise ConfigurationError(
            f"cannot broadcast {f.ncomp} against {g.ncomp} components")
    return PhysicalField(f.grid, f.values * g.values)


# ---------------------------------------------------------------------------
# norms and oversampling
# ---------------------------------------------------------------------------

def l2_norm_sq(f: SpectralField) -> float:
    """Squared L2 norm over M x (-h,h), computed by Parseval."""
    g = f.grid
    return float(g.volume * np.sum(g.mode_weights * np.abs(f.coeffs) ** 2))


def l2_norm(f: SpectralField) -> float:
    return np.sqrt(l2_norm_sq(f))


def grad_norm_sq(f: SpectralField) -> float:
    """Squared L2 norm of the full (3D) gradient, by Parseval."""
    g = f.grid
    return float(g.volume * np.sum(g.mode_weights * g.k2 * np.abs(f.coeffs) ** 2))


def grad_h_norm_sq(f: SpectralField) -> float:
    """Squared L2 norm of the horizontal gradient."""
    g = f.grid
    kh2 = g.kh2[:, :, None]
    return float(g.volume * np.sum(g.mode_weights * kh2 * np.abs(f.coeffs) ** 2))


def l2_lattice_norm(f: PhysicalField) -> float:
    """Lattice-quadrature L2 norm (trapezoid == rectangle on the torus)."""
    return np.sqrt(float(f.grid.volume * np.mean(np.sum(f.values ** 2, axis=0))))


@lru_cache(maxsize=32)
def _cached_grid(nx, ny, nz, h):
    return Grid.make(nx, ny, nz, h)


def refine(f: SpectralField, fine: Grid) -> SpectralField:
    """Embed onto a finer grid by zero padding (exact for dealiased fields)."""
    g = f.grid
    if (fine.nx < g.nx or fine.ny < g.ny or fine.nz < g.nz
            or abs(fine.h - g.h) > 1e-15):
        raise ConfigurationError("refinement target must be at least as fine, same h")
    src = f.coeffs
    ncomp = src.shape[0]
    pad = np.zeros((ncomp,) + fine.spectral_shape, dtype=complex)
    ny, nz = g.ny, g.nz
    fny, fnz = fine.ny, fine.nz
    ylo, zlo = ny // 2 + 1, nz // 2 + 1
    pad[:, : g.nx // 2 + 1, :ylo, :zlo] = src[:, :, :ylo, :zlo]
    pad[:, : g.nx // 2 + 1, :ylo, fnz - (nz - zlo):] = src[:, :, :ylo, zlo:]
    pad[:, : g.nx // 2 + 1, fny - (ny - ylo):, :zlo] = src[:, :, ylo:, :zlo]
    pad[:, : g.nx // 2 + 1, fny - (ny - ylo):, fnz - (nz - zlo):] = src[:, :, ylo:, zlo:]
    return SpectralField(fine, pad, f.symmetry)


def _pad_axis(dst, src, axis, n):
    """Copy ``src`` into the zeroed ``dst`` along ``axis``, keeping both signs.

    Index n//2 (the coarse Nyquist) lands on the positive side, as in
    ``refine``.
    """
    lo = n // 2 + 1
    hi = dst.shape[axis] - (n - lo)
    lead = (slice(None),) * axis
    dst[lead + (slice(None, lo),)] = src[lead + (slice(None, lo),)]
    dst[lead + (slice(hi, None),)] = src[lead + (slice(lo, None),)]


def _oversampled_values(f: SpectralField, factor: int, half: bool = False) -> np.ndarray:
    """Bare lattice values behind ``oversample``; the caller owns the array.

    Transforms one axis at a time and pads only the lines it is about to
    transform: z on the stored (m, n) lines, y on the stored m planes,
    then x by ``irfft(n=...)``, which pads internally.  The result is a
    (ncomp, nx', ny', nz') view of a (ncomp, ny', nz', nx') array, so the
    last, real pass runs along contiguous lines.  With ``half``, only the
    planes j = 0..nz'/2 go through the y and x passes and come back.
    """
    g = f.grid
    ncomp, nxr = f.coeffs.shape[:2]
    fnx, fny, fnz = factor * g.nx, factor * g.ny, factor * g.nz

    zpad = np.zeros((ncomp, nxr, g.ny, fnz), dtype=complex)
    _pad_axis(zpad, f.coeffs, 3, g.nz)
    np.fft.ifft(zpad, axis=3, norm="forward", out=zpad)
    if half:
        zpad = zpad[..., : fnz // 2 + 1]

    ypad = np.zeros((ncomp, fny, zpad.shape[3], nxr), dtype=complex)
    _pad_axis(ypad, zpad.transpose(0, 2, 3, 1), 1, g.ny)
    del zpad
    np.fft.ifft(ypad, axis=1, norm="forward", out=ypad)

    values = np.fft.irfft(ypad, n=fnx, axis=3, norm="forward")
    return np.moveaxis(values, 3, 1)


def _mirrored(f: SpectralField) -> bool:
    """Whether the oversampled lattice of ``f`` mirrors in z, plane j <-> nz' - j.

    True for odd fields and for even ones with an empty z Nyquist plane;
    the padding puts a populated Nyquist mode on the positive side only.
    """
    return f.symmetry != NONE and not np.any(f.coeffs[..., f.grid.nz // 2])


def _mag_sq(vals):
    """|v|^2 (Euclidean in components), squared in place in ``vals``."""
    np.square(vals, out=vals)
    mag_sq = vals[0]
    for comp in vals[1:]:
        mag_sq += comp
    return mag_sq


def _lattice_mean(a, half):
    """Mean over the whole lattice of values held on all planes or, with
    ``half``, on the planes j = 0..nz'/2 of a mirrored lattice.

    The end planes j = 0 and j = nz'/2 are their own mirrors and count at
    half weight.
    """
    if not half:
        return np.mean(a)
    ends = np.sum(a[..., 0]) + np.sum(a[..., -1])
    return (np.sum(a) - 0.5 * ends) / (a.size - a[..., 0].size)


_LOG_MAX = float(np.log(np.finfo(float).max))


def _lattice_norms(f: SpectralField, qs, factor: int = 2):
    """Sup norm and ``{q: L^q norm}`` of |f| from one oversampled evaluation.

    A mirrored lattice is evaluated and reduced on its planes
    j = 0..nz'/2 only.  Even integer q take integer powers of |f|^2.
    Only when |f|^2 or its largest power summed over the lattice would
    overflow is |f| first divided by its max, so finite fields on the
    edge of a blow-up keep finite norms and every other field keeps the
    unscaled arithmetic.
    """
    half = _mirrored(f)
    with np.errstate(over="ignore"):
        mag_sq = _mag_sq(_oversampled_values(f, factor, half))
    peak = float(np.max(mag_sq))
    unit = 1.0
    if peak > 1.0 and (max(qs, default=2.0) / 2.0 * np.log(peak)
                       + np.log(mag_sq.size) >= _LOG_MAX):
        vals = _oversampled_values(f, factor, half)
        unit = float(max(np.max(vals), -np.min(vals)))
        vals /= unit
        mag_sq = _mag_sq(vals)
        peak = float(np.max(mag_sq))

    def _lq(q):
        if float(q).is_integer() and int(q) % 2 == 0:
            moment = _lattice_mean(mag_sq ** (int(q) // 2), half)
        else:
            moment = _lattice_mean(mag_sq ** (q / 2.0), half)
        return unit * float((f.grid.volume * moment) ** (1.0 / q))

    return unit * float(np.sqrt(peak)), {float(q): _lq(float(q)) for q in qs}


def oversample(f: SpectralField, factor: int = 2) -> PhysicalField:
    """Evaluate on a ``factor``-times finer lattice by spectral zero-padding.

    Exact for dealiased fields; used for sup-norm and L^q evaluation where
    the collocation lattice alone undersamples Gibbs extrema.  Agrees with
    ``to_physical(refine(f, fine))`` to round-off, but the zero padding is
    never transformed.  ``values`` is a view whose memory order is
    (ncomp, ny', nz', nx').
    """
    g = f.grid
    fine = _cached_grid(factor * g.nx, factor * g.ny, factor * g.nz, g.h)
    return PhysicalField(fine, _oversampled_values(f, factor))


def lq_norm(f: SpectralField, q: float, factor: int = 2) -> float:
    """L^q norm via oversampled lattice quadrature of |f| (Euclidean in components)."""
    return _lattice_norms(f, (q,), factor)[1][float(q)]


def linf_norm(f: SpectralField, factor: int = 2) -> float:
    """Sup norm as the max of |f| over a ``factor``-times oversampled lattice.

    sqrt is monotone and correctly rounded, so sqrt(max |f|^2) is the max
    of sqrt(|f|^2) bit for bit.
    """
    return _lattice_norms(f, (), factor)[0]


def conjugate_symmetry_residual(f: SpectralField) -> float:
    """Max deviation from the real-field conjugate symmetry on the stored planes.

    With half-spectrum storage along x, redundancy survives only on the
    m = 0 and m = nx/2 planes, where c(m, -n, -l) must equal conj(c(m, n, l)).
    """
    g = f.grid
    iy = (-np.arange(g.ny)) % g.ny
    iz = g.parity_index
    res = 0.0
    for plane in (0, g.nx // 2):
        c = f.coeffs[:, plane]
        res = max(res, float(np.max(np.abs(c - np.conj(c[:, iy][:, :, iz])))))
    return res
