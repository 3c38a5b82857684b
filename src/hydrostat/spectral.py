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
planes alone.  Its states are also dealiased, so it keeps them packed in
the band m <= nx/3, |n| <= ny/3, 0 <= l <= nz/3 (``_Band``, built once
per grid as ``Grid.band``).  A band transform is a short partial Fourier
sum along each axis, so it is taken as three small real matrix products
(``np.matmul``, numpy's BLAS) rather than FFTs of mostly zero lines; the
z tables are cosine and sine sums, so the forward result is even in l by
construction.  A derivative is one more table on the same partial sums,
so a stage transforms its advected field once for all its gradients
(``_Band.gradient``).

Sup and L^q norms evaluate a field on an oversampled lattice, twice as
fine along each axis.  Its definition is ``oversample``, the zero-padded
spectrum through one inverse transform; the norms evaluate it by one
pruned path instead (``_oversampled_slabs``).  There z is a zero-padded
FFT of the populated (m, n) lines, and y and x are dense partial Fourier
sums over the populated rows and x modes, again matrix products.  The
oversampled norms of parity-tagged fields reduce over the planes
j = 0..nz'/2 of the finer lattice, counting the two end planes at half
weight in means; an even field whose z Nyquist plane is populated is the
exception, because zero padding places that mode on one side only and
breaks the mirror.
Untagged fields, ``to_physical`` and ``oversample`` use the whole
lattice.  The norms never hold that lattice: it streams in
slabs of y rows (``_oversampled_slabs``), and each slab is reduced to a
max and sums of powers before the next one is made.  A column, a field
whose only populated (m, n) line is m = n = 0, depends on z alone, so
its norms reduce that one z line (``_record_slabs``): the sup norm is
the lattice's to the byte, the L^q norms move at round-off.  The layer
inequality's checker streams its lattices the same way, in smaller
slabs.  The slab size changes memory and round-off only.

Conventions (fixed for cross-run reproducibility):

* forward transforms carry the 1/N factor, so the (0,0,0) coefficient is
  the field mean; values exactly constant in x and y take one z FFT onto
  the mean line, so z-only data are columns on every grid;
* collocation points are x_j = j/nx, y_j = j/ny, z_j = -h + 2h*j/nz
  (z = -h included, z = +h excluded);
* the 2/3-rule mask keeps |m| <= nx/3, |n| <= ny/3, |l| <= nz/3;
* Nyquist wavenumbers are zeroed in the odd-derivative tables (those
  modes are masked away by dealiasing anyway).

All operations are pure: fields are never mutated after construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

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
    """``rfftn`` over ``_AXES``, to the bit, pass by pass: x on rows padded by
    8 doubles (lines 64 KiB apart, as at 64x64x128, alias in the cache), a
    buffer freed before the z and y passes run in place."""
    ncomp, nx, ny, nz = values.shape
    rows = np.empty((ncomp, nx, ny * nz + 8))[..., :-8].reshape(values.shape)
    rows[...] = values
    out = np.fft.rfftn(rows, axes=(1,), norm="forward")
    del rows
    for axis in (3, 2):
        np.fft.fft(out, axis=axis, norm="forward", out=out)
    return out


def _inverse(coeffs, grid):
    return np.fft.irfftn(coeffs, s=(grid.ny, grid.nz, grid.nx), axes=_AXES,
                         norm="forward")


def _unit_circle(n):
    """cos and sin of 2 pi r / n for r = 0..n-1 (n even).

    Exactly even and odd under r -> n - r, with sin exactly 0 at r = 0 and
    r = n/2.  Tables index it by (p * q) mod n, so no angle exceeds 2 pi.
    """
    r = np.arange(n // 2 + 1)
    c, s = np.cos(2 * np.pi * r / n), np.sin(2 * np.pi * r / n)
    s[-1] = 0.0
    return np.concatenate((c, c[-2:0:-1])), np.concatenate((s, -s[-2:0:-1]))


def _is_column(b):
    """Whether ``b`` is a column: every entry off its horizontal-mean line
    ``b[:, 0, 0, :]`` is exactly zero.

    ``b`` indexes the (m, n) modes along its axes 1 and 2, with m = 0 and
    n = 0 first: a packed band array, or the line mask of ``_populated``.
    A column field depends on z alone.  The test is exact: any non-zero
    entry, however small (or NaN), makes ``b`` not a column.
    """
    return not (np.any(b[:, 1:]) or np.any(b[:, 0, 1:]))


class _Band:
    """The dealiased band of an even field, and its transforms as matrix products.

    A masked, exactly even field is fixed by its coefficients at
    m <= nx/3, |n| <= ny/3 and 0 <= l <= nz/3: every other stored
    coefficient is zero or, at -l, a copy of l.  Packed arrays have shape
    (ncomp, nm, len(rows), nl), where ``rows`` are the stored y indices of
    the band (n = 0..N, then -N..-1).

    Each transform is three short partial Fourier sums, one real matrix
    product per axis through ``np.matmul``, on a stack of one parity: all
    its components even in z or, for the inverse with ``odd``, all odd.
    Real and imaginary parts travel as separate real blocks, [Re; Im]:

    * z, on the planes j = 0..nz/2: an even line is c_0 + 2 sum c_l
      cos(2 pi l j / nz), an odd one 2i sum c_l sin(2 pi l j / nz), whose
      factor i the odd x table applies; back,
      c_l = (v_0 + (-1)^l v_{nz/2} + 2 sum v_j cos(2 pi l j / nz)) / nz,
      which is even in l by construction;
    * y, on the folded rows c_0, c_n + c_-n and i(c_n - c_-n): the table
      [1, cos, sin](2 pi n k / ny); back, its transpose / ny gives C_n
      and S_n, and c_{+-n} = C_n -+ i S_n;
    * x: the real pair [w_m cos, -w_m sin](2 pi m i / nx) on [Re; Im]
      (w_0 = 1, w_m = 2; the band holds no x Nyquist); back,
      [cos, -sin] / nx.

    The derivatives of an even field are the same sums with other tables
    (``gradient``): dx is the x table ``x_dx`` = kx times the odd one; dy
    is ``y_dy``, which maps the folded rows C_n, S_n of U to ky S_n and
    -ky C_n; dz is the odd z table times -kz (``z_dz``), i kz times the
    odd lines' factor i, so its lines take the even x table.

    The z and y products run as stacks of small blocks (per component and
    x mode or x point); the x product runs once per component.  They stay
    stacked: on a 2-core AVX-512 host, one tall product of the forward z
    pass at 64x64x128 took 5-8 ms with 2 OpenBLAS threads, against
    1.4-2 ms as a stack.

    The index and matrix tables are derived from ``grid.dealias_mask``
    when the band is built, once per grid (``Grid.band``), and only
    ``__init__`` writes them: the band holds no per-run state, so
    trajectories on one grid may share it across threads without a lock.
    """

    def __init__(self, grid):
        keep = grid.dealias_mask
        self.grid = grid
        self.nm = int(np.count_nonzero(keep[:, 0, 0]))
        self.rows = np.flatnonzero(keep[0, :, 0])
        self.nl = int(np.count_nonzero(keep[0, 0, : grid.nz // 2 + 1]))
        self.kx = grid.kx_d[: self.nm]
        self.ky = grid.ky_d[:, self.rows]
        self.kz = grid.kz_d[..., : self.nl]
        self.k2 = self.pack(grid.k2)
        self.kh2 = grid.kh2[: self.nm][:, self.rows]
        # l > 0 stands for l and -l, and m > 0 for m and -m
        twice = np.where(np.arange(max(self.nl, self.nm)) > 0, 2.0, 1.0)
        self.weights = grid.mode_weights[: self.nm] * twice[: self.nl]

        half = grid.nz // 2 + 1
        cos, sin = _unit_circle(grid.nz)
        lj = np.outer(np.arange(self.nl), np.arange(half)) % grid.nz
        self.z_even = twice[: self.nl, None] * cos[lj]
        self.z_odd = 2.0 * sin[lj]
        planes = np.full((half, 1), 2.0)
        planes[[0, -1]] = 1.0           # j = 0 and nz/2 are their own mirrors
        self.z_back = (planes * cos[lj.T]) / grid.nz

        # i kz times the odd lines' factor i is -kz: dz U takes the even x table
        self.z_dz = -self.kz.reshape(-1, 1) * self.z_odd

        cos, sin = _unit_circle(grid.ny)
        n0 = len(self.rows) // 2 + 1
        kn = np.outer(np.arange(grid.ny), np.arange(n0)) % grid.ny
        self.y_fold = np.concatenate((cos[kn], sin[kn[:, 1:]]), axis=1)
        self.y_back = self.y_fold.T / grid.ny
        # i ky folds C_n, S_n into ky S_n, -ky C_n
        ky = self.ky[0, 1:n0, 0]
        self.y_dy = np.concatenate((np.zeros((grid.ny, 1)), -ky * sin[kn[:, 1:]],
                                    ky * cos[kn[:, 1:]]), axis=1)

        cos, sin = _unit_circle(grid.nx)
        im = np.outer(np.arange(grid.nx), np.arange(self.nm)) % grid.nx
        pair = np.stack((cos[im], -sin[im]), axis=2)
        self.x_pair = (twice[: self.nm, None] * pair).reshape(grid.nx, -1)
        # i times [Re; Im] is [-Im; Re]: odd stacks carry that factor of 2i sin,
        # and dx U that of i kx
        odd = twice[: self.nm, None] * np.stack((-sin[im], -cos[im]), axis=2)
        self.x_odd = odd.reshape(grid.nx, -1)
        self.x_dx = (self.kx[:, 0] * odd).reshape(grid.nx, -1)
        self.x_back = pair.reshape(grid.nx, -1).T / grid.nx

    def pack(self, a):
        """The band of an array whose last three axes are (nxr, ny, nz)."""
        return a[..., : self.nm, :, : self.nl][..., self.rows, :]

    def populated(self, b):
        """``_populated`` of the even field packed as ``b``, from the band alone."""
        mask = np.zeros((1, self.grid.nx // 2 + 1, self.grid.ny, 1), dtype=bool)
        mask[0, : self.nm, :, 0][:, self.rows] = np.any(b, axis=(0, 3))
        return mask

    def mirror(self, a):
        """Entries at -l for l = 0..nl-1 of an array of full z lines."""
        return np.concatenate((a[..., :1], a[..., : -self.nl: -1]), axis=-1)

    def unpack(self, b):
        """Full (ncomp, nxr, ny, nz) coefficients of the even field ``b``:
        a packed array, or its leading (m, n) block with the rest zero."""
        g = self.grid
        out = np.zeros(b.shape[:1] + g.spectral_shape, dtype=complex)
        lines, rows = out[:, : b.shape[1]], self.rows[: b.shape[2]]
        lines[:, :, rows, : self.nl] = b
        lines[:, :, rows, g.nz - self.nl + 1:] = b[..., : 0: -1]
        return out

    def _fold(self, b):
        """[Re; Im] of the folded rows c_0, c_n + c_-n, i(c_n - c_-n) of ``b``,
        shape (ncomp, nm, 2, len(rows), nl)."""
        ncomp, nm, nr, nl = b.shape
        n0 = nr // 2 + 1
        pos, neg = b[:, :, 1:n0], b[:, :, : n0 - 1: -1]
        parts = np.empty((ncomp, nm, 2, nr, nl))
        re, im = parts[:, :, 0], parts[:, :, 1]
        re[:, :, 0], im[:, :, 0] = b[:, :, 0].real, b[:, :, 0].imag
        np.add(pos.real, neg.real, out=re[:, :, 1:n0])
        np.add(pos.imag, neg.imag, out=im[:, :, 1:n0])
        np.subtract(neg.imag, pos.imag, out=re[:, :, n0:])
        np.subtract(pos.real, neg.real, out=im[:, :, n0:])
        return parts

    def _x(self, table, planes):
        """The x product of ``table`` on (ncomp, nm, 2, ny, planes) y sums."""
        g = self.grid
        ncomp = planes.shape[0]
        out = np.matmul(table, planes.reshape(ncomp, 2 * self.nm, -1))
        return out.reshape(ncomp, g.nx, g.ny, -1)

    def inverse(self, b, odd=False):
        """Lattice values on the planes j = 0..nz/2 of the packed ``b``.

        Every component is even in z, or with ``odd`` every one is odd.
        Returns (ncomp, nx, ny, nz/2 + 1).
        """
        lines = np.matmul(self._fold(b), self.z_odd if odd else self.z_even)
        return self._x(self.x_odd if odd else self.x_pair, np.matmul(self.y_fold, lines))

    def column_inverse(self, b):
        """``inverse(b)`` of a column ``b`` or of its mean line, as a read-only view.

        The even z pass of the line's real part, broadcast over (nx, ny): the
        y and x tables are 1 at n = m = 0.  It runs on ``inverse``'s stack of
        (len(rows), nl) blocks, so the values are ``inverse(b)``'s bit for bit
        up to the sign of zeros; a one-row product rounds differently.
        """
        g = self.grid
        ncomp = b.shape[0]
        parts = np.zeros((ncomp, len(self.rows), self.nl))
        parts[:, 0] = b[:, 0, 0].real
        line = np.matmul(parts, self.z_even)[:, None, :1]
        return np.broadcast_to(line, (ncomp, g.nx, g.ny, line.shape[-1]))

    def gradient(self, u, values=False):
        """U (with ``values``), then dx U, dy U and dz U of the packed even ``u``.

        Yields one array at a time, each on the planes j = 0..nz/2 as from
        ``inverse``.  ``u`` is folded once.  One even z pass serves U, dx U
        and dy U, and one y pass serves U and dx U: a derivative is another
        table on shared partial sums (dx the table ``x_dx``, dy ``y_dy``,
        dz the odd ``z_dz``, whose factor i kz makes its lines real for the
        even x table).  Each set of lines or y sums is freed as soon as the
        passes that share it are done, so at most one of each is held.
        """
        parts = self._fold(u)
        lines = np.matmul(parts, self.z_even)
        planes = np.matmul(self.y_fold, lines)
        if values:
            yield self._x(self.x_pair, planes)
        yield self._x(self.x_dx, planes)
        del planes
        planes = np.matmul(self.y_dy, lines)
        del lines
        yield self._x(self.x_pair, planes)
        del planes
        lines = np.matmul(parts, self.z_dz)
        del parts
        planes = np.matmul(self.y_fold, lines)
        del lines
        yield self._x(self.x_pair, planes)

    def forward(self, values):
        """Band coefficients of F(values).

        ``values`` holds an even field on the planes j = 0..nz/2.
        """
        g = self.grid
        ncomp, nm, nl = values.shape[0], self.nm, self.nl
        lines = np.matmul(values, self.z_back).reshape(ncomp, g.nx, -1)
        planes = np.matmul(self.x_back, lines).reshape(ncomp, nm, 2, g.ny, nl)
        rows = np.matmul(self.y_back, planes)
        n0 = len(self.rows) // 2 + 1
        c, s = rows[..., :n0, :], rows[..., n0:, :]
        out = np.empty((ncomp, nm, len(self.rows), nl), dtype=complex)
        out[:, :, 0] = c[:, :, 0, 0] + 1j * c[:, :, 1, 0]
        pos, neg = out[:, :, 1:n0], out[:, :, : n0 - 1: -1]
        np.add(c[:, :, 0, 1:], s[:, :, 1], out=pos.real)
        np.subtract(c[:, :, 1, 1:], s[:, :, 0], out=pos.imag)
        np.subtract(c[:, :, 0, 1:], s[:, :, 1], out=neg.real)
        np.add(c[:, :, 1, 1:], s[:, :, 0], out=neg.imag)
        return out


def _check_memory(need, what):
    """Refuse ``what``, whose arrays ``need`` bytes, if they exceed the physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ConfigurationError(f"{what} need {need / 2 ** 30:.3g} GiB, more than the "
                                 f"{memory / 2 ** 30:.3g} GiB of memory")


def _check_grid(nx, ny, nz, h):
    """``Grid.make``'s checks, building no table: its tables plus one
    2-component coefficient array must fit the physical memory, too."""
    for name, n in (("nx", nx), ("ny", ny), ("nz", nz)):
        if n < 8 or n % 2:
            raise ConfigurationError(f"[grid] {name}={n}: mode counts must be even and >= 8")
    if not 0 < h < np.inf:
        raise ConfigurationError(f"[grid] h={h}: half-height must be positive and finite")
    if not np.pi / h * nz < _K_LIMIT:
        raise ConfigurationError(f"[grid] h={h}: vertical wavenumbers up to pi*nz/h overflow")
    _check_memory((8 + 1 + 2 * 16) * (nx // 2 + 1) * ny * nz,    # k2, the mask, 2 complex
                  f"[grid] {nx}x{ny}x{nz}: tables")


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
    mode_weights: np.ndarray  # Parseval weights for half-spectrum storage

    @classmethod
    def make(cls, nx, ny, nz, h):
        _check_grid(nx, ny, nz, h)
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

        weights = np.full((nxr, 1, 1), 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0

        return cls(nx=nx, ny=ny, nz=nz, h=float(h), kx=kx, ky=ky, kz=kz,
                   kx_d=kx_d, ky_d=ky_d, kz_d=kz_d, k2=k2, kh2=kh2,
                   dealias_mask=keep,
                   mode_weights=weights)

    @property
    def volume(self):
        return 2.0 * self.h

    @cached_property
    def band(self):
        """The grid's ``_Band``, built on first use and kept with the grid."""
        return _Band(self)

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
    """Forward transform; a tag other than NONE symmetrizes.  Values exactly
    constant in x and y take one z FFT onto the mean line (a column).
    DataError if the values or their coefficients are not finite."""
    values = f.values
    if not np.all(np.isfinite(values)):
        raise DataError("physical field contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        if np.all(values == values[:, :1, :1]):
            coeffs = np.zeros(values.shape[:1] + f.grid.spectral_shape, dtype=complex)
            coeffs[:, 0, 0] = np.fft.fft(values[:, 0, 0], norm="forward")
        else:
            coeffs = _forward(values)
    if not np.all(np.isfinite(coeffs)):
        raise DataError("physical field overflows its spectral transform")
    out = SpectralField(f.grid, coeffs, NONE)
    if symmetry != NONE:
        out = symmetrize(out, symmetry)
    return out


def field_from_function(grid, fn, symmetry=NONE):
    """Sample ``fn(X, Y, Z)`` (returning one array per component) and transform.

    X, Y and Z are broadcastable coordinate lines of shapes (nx, 1, 1),
    (1, ny, 1) and (1, 1, nz), so a separable expression evaluates its
    functions on lines; each component is broadcast to the lattice.
    """
    X, Y, Z = np.meshgrid(grid.x(), grid.y(), grid.z(), indexing="ij", sparse=True)
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

def parity_flip(coeffs):
    """Coefficients of z -> -z: plane l = 0, then l -> -l as a reversed slice."""
    return np.concatenate((coeffs[..., :1], coeffs[..., :0:-1]), axis=-1)


def symmetrize(f: SpectralField, tag: str) -> SpectralField:
    """Project onto the even or odd class in z: (f(z) +/- f(-z)) / 2."""
    if tag not in (EVEN, ODD):
        raise ConfigurationError(f"symmetrize needs 'even' or 'odd', got {tag!r}")
    flipped = parity_flip(f.coeffs)
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


def div_h(f: SpectralField) -> SpectralField:
    """Horizontal divergence of a 2-component field -> scalar."""
    if f.ncomp != 2:
        raise ConfigurationError(f"div_h needs exactly 2 components, got {f.ncomp}")
    g = f.grid
    out = 1j * g.kx_d * f.coeffs[0:1] + 1j * g.ky_d * f.coeffs[1:2]
    return SpectralField(g, out, f.symmetry)


# ---------------------------------------------------------------------------
# norms and oversampling
# ---------------------------------------------------------------------------

def _parseval(coeffs, weights, volume, roots) -> tuple:
    """volume * sum(w * |c|^2) over the coefficients ``coeffs`` for each table
    w of ``weights``, or its root where ``roots`` says so, all from one |c|^2.

    Only a sum that overflows from finite coefficients is taken again, of
    c / max |c|, and scaled back in Python floats, which give inf without a
    warning when the true value is out of range; so a root is finite
    whenever it is in range.  Every other sum keeps the unscaled arithmetic.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(coeffs) ** 2
        sums = [(float(volume * np.sum(w * mag)), 1.0) for w in weights]
    if not all(np.isfinite(s) for s, _ in sums) and np.all(np.isfinite(coeffs)):
        unit = float(np.max(np.abs(coeffs)))
        mag = np.abs(coeffs / unit) ** 2
        sums = [(s, u) if np.isfinite(s) else (float(volume * np.sum(w * mag)), unit)
                for (s, u), w in zip(sums, weights)]
    return tuple(np.sqrt(s) * u if root else s * u * u
                 for (s, u), root in zip(sums, roots, strict=True))


def l2_norm(f: SpectralField) -> float:
    return _parseval(f.coeffs, (f.grid.mode_weights,), f.grid.volume, (True,))[0]


def _band_l2(f: SpectralField, grad=False, packed=None):
    """||f||_2, or with ``grad`` ||grad f||_2, of a solver state or the
    difference of two, by Parseval on its band, which holds it whole
    (``_Band``; ``packed`` if given); a tuple ``grad`` gives a tuple of them,
    from one |c|^2.  A field not tagged ``EVEN`` raises ``ConfigurationError``."""
    if f.symmetry != EVEN:
        raise ConfigurationError(
            f"band norms take a solver state, tagged {EVEN!r}; got {f.symmetry!r}")
    band, flags = f.grid.band, grad if isinstance(grad, tuple) else (grad,)
    packed = band.pack(f.coeffs) if packed is None else packed
    out = _parseval(packed, tuple(band.weights * band.k2 if g else band.weights for g in flags),
                    f.grid.volume, (True,) * len(flags))
    return out if isinstance(grad, tuple) else out[0]


def refine(f: SpectralField, fine: Grid) -> SpectralField:
    """Embed onto a finer grid by zero padding (exact for dealiased fields),
    one zeroed array and a copy per (y, z) quarter (``_halves``)."""
    g = f.grid
    if (fine.nx < g.nx or fine.ny < g.ny or fine.nz < g.nz
            or abs(fine.h - g.h) > 1e-15):
        raise ConfigurationError("refinement target must be at least as fine, same h")
    ncomp, nxr = f.coeffs.shape[:2]
    pad = np.zeros((ncomp,) + fine.spectral_shape, dtype=complex)
    for y_dst, y_src in _halves(fine.ny, g.ny):
        for z_dst, z_src in _halves(fine.nz, g.nz):
            pad[:, :nxr, y_dst, z_dst] = f.coeffs[:, :, y_src, z_src]
    return SpectralField(fine, pad, f.symmetry)


def _halves(n_fine, n):
    """(dst, src) slices that copy a length-n spectrum into a zeroed length-n_fine
    one, keeping both signs; index n//2 (the coarse Nyquist) lands on the positive side."""
    lo = n // 2 + 1
    return (slice(None, lo), slice(None, lo)), (slice(n_fine - (n - lo), None), slice(lo, None))


# OpenBLAS runs a product of at most this many multiply-adds on one thread
# and splits larger ones over the cores, which stalls while another
# process holds the second core.
_BLOCK_MADDS = 2 ** 18


def _blocked_matmul(a, b, out):
    """``out = a @ b`` for a 2-D ``a``, as a stack of row blocks small
    enough for one thread each; returns ``out``."""
    rows = max(1, _BLOCK_MADDS // max(a.shape[1] * b.shape[1], 1))
    n = a.shape[0] // rows * rows
    np.matmul(a[:n].reshape(n // rows, rows, a.shape[1]), b,
              out=out[:n].reshape(n // rows, rows, b.shape[1]))
    np.matmul(a[n:], b, out=out[n:])
    return out


# The oversampled lattice is twice as fine as the grid along each axis.
_FACTOR = 2

# The record streams its lattice in slabs of at most this many bytes.  glibc
# returns freed blocks to the OS and lifts its mmap and trim thresholds to
# the largest block freed; smaller slabs leave them low, and the stepper's
# 1-2 MB temporaries at 32x32x64 then fault their pages back in every stage
# (split-32 ran 4-16 % slower with 256 KiB-4 MiB slabs).  At 16 MiB every
# acceptance-scale lattice is one slab, allocated as before.
_SLAB_BYTES = 16 * 2 ** 20

# ``estimates.ladyzhenskaya_ratio`` streams its lattices in slabs of at most
# this many bytes each: a fine 32x32x128 call peaks at 4.0 MiB under
# tracemalloc, against 18.8 MiB for whole lattices, and it never runs
# beside the stepper.  The record keeps 16 MiB, because small slabs slow
# it: ``_lattice_norms`` of a 2-component 64x64x128 field took 36-37 ms
# with 16 MiB slabs and 44-52 ms with 512 KiB ones (median of 10, 3 runs).
# The slab size changes memory and round-off only.
_LADY_SLAB_BYTES = 2 ** 19


def _populated(f: SpectralField) -> np.ndarray:
    """Which stored (m, n) lines of ``f`` hold a non-zero coefficient, as a
    (1, nx/2 + 1, ny, 1) mask, the shape ``_is_column`` reads."""
    return np.any(f.coeffs, axis=(0, 3), keepdims=True)


def _z_lines(f: SpectralField, ms, ns) -> np.ndarray:
    """Zero-padded z ``ifft`` of the stored lines (ms, ns) of ``f``, placed as
    ``_halves`` places them: (ncomp, len(ms), nz'), or only the planes
    j = 0..nz'/2 of a mirrored field (``_mirrored``)."""
    g = f.grid
    fnz = _FACTOR * g.nz
    zpad = np.zeros((f.coeffs.shape[0], len(ms), fnz), dtype=complex)
    for dst, src in _halves(fnz, g.nz):
        zpad[..., dst] = f.coeffs[:, ms, ns, src]
    np.fft.ifft(zpad, axis=2, norm="forward", out=zpad)
    if _mirrored(f):
        zpad = zpad[..., : fnz // 2 + 1]
    return zpad


def _oversampled_slabs(f: SpectralField, slab_bytes=None, populated=None):
    """Lattice values of ``oversample``, to round-off, as a stream of y-row slabs.

    Evaluates one axis at a time and only the lines that can be non-zero:

    * z: a zero-padded ``ifft`` (``_z_lines``) on the stored (m, n)
      lines that hold a non-zero coefficient, the ``populated`` mask of
      ``_populated``, which a caller that has scanned ``f`` passes;
    * y: those lines go onto the populated rows n only, and one complex
      table exp(2 pi i n k / ny') sums them;
    * x: the real pair [w_m cos, -w_m sin](2 pi m i / nx') (w_0 = 1,
      w_m = 2) on the interleaved [Re, Im] of the populated m; the row
      for Im at m = 0 is zero, as ``irfft`` ignores that part.

    The z pass and the tables run once per call.  The y and x sums are
    matrix products, run as stacks of row blocks (``_blocked_matmul``),
    once per slab of lattice rows k0..k0+rows-1 against that slab's table
    columns.  Yields ``(k0, values)`` with ``values`` of shape
    (ncomp, rows, nz', nx'), a buffer that the next slab overwrites.
    There is one slab per ``slab_bytes`` of the lattice, rounded up, or
    one in all when ``slab_bytes`` is None; all but the last have the
    same row count.  A mirrored field (``_mirrored``) is evaluated on the
    planes j = 0..nz'/2 only.
    """
    g = f.grid
    ncomp = f.coeffs.shape[0]
    fnx, fny = _FACTOR * g.nx, _FACTOR * g.ny
    ms, ns = np.nonzero((_populated(f) if populated is None else populated)[0, ..., 0])

    zpad = _z_lines(f, ms, ns)
    nzp = zpad.shape[2]

    rows, row_of = np.unique(ns, return_inverse=True)
    cols, col_of = np.unique(ms, return_inverse=True)
    lines = np.zeros((ncomp, len(rows), nzp, len(cols)), dtype=complex)
    lines[:, row_of, :, col_of] = zpad.transpose(1, 0, 2)
    del zpad

    cos, sin = _unit_circle(fny)
    nk = np.outer(np.where(rows <= g.ny // 2, rows, rows + fny - g.ny), np.arange(fny)) % fny
    y_table = cos[nk] + 1j * sin[nk]
    cos, sin = _unit_circle(fnx)
    mi = np.outer(cols, np.arange(fnx)) % fnx
    twice = np.where(cols > 0, 2.0, 1.0)[:, None]
    x_pair = np.stack((twice * cos[mi], -twice * sin[mi]), axis=1)
    x_pair[cols == 0, 1] = 0.0
    x_pair = x_pair.reshape(2 * len(cols), fnx)

    slabs = 1 if slab_bytes is None else -(-ncomp * fny * nzp * fnx * 8 // slab_bytes)
    step = -(-fny // slabs)
    width = nzp * len(cols)
    planes = np.empty(ncomp * step * width, dtype=complex)
    values = None
    for k0 in range(0, fny, step):
        n = min(step, fny - k0)
        last = k0 + n == fny
        slab = planes[: ncomp * n * width].reshape(ncomp, n, width)
        for comp in range(ncomp):      # transposed, so the row blocks run along (j, m)
            _blocked_matmul(lines[comp].reshape(len(rows), width).T,
                            y_table[:, k0:k0 + n], slab[comp].T)
        # The last slab frees the lines before the values are made and the
        # planes before its consumer runs, so a single slab allocates and
        # frees in the order a whole lattice did (fewer page faults).
        if last:
            del lines
        if values is None:
            values = np.empty(ncomp * step * nzp * fnx)
        out = values[: ncomp * n * nzp * fnx].reshape(ncomp, n, nzp, fnx)
        _blocked_matmul(slab.view(float).reshape(ncomp * n * nzp, 2 * len(cols)), x_pair,
                        out.reshape(-1, fnx))
        if last:
            del planes, slab
        yield k0, out


def _mirrored(f: SpectralField) -> bool:
    """Whether the oversampled lattice of ``f`` mirrors in z, plane j <-> nz' - j.

    True for odd fields and for even ones with an empty z Nyquist plane;
    the padding puts a populated Nyquist mode on the positive side only.
    """
    return f.symmetry != NONE and not np.any(f.coeffs[..., f.grid.nz // 2])


_LOG_MAX = float(np.log(np.finfo(float).max))


def _record_slabs(f: SpectralField, populated):
    """The oversampled lattice that the record reduces, as a stream of
    (ncomp, rows, nz', cols) value slabs that the caller may overwrite.

    A column (``_is_column`` of the ``populated`` mask: only the mean
    line m = n = 0 may be non-zero) depends on z alone, and every value
    of its lattice is the real part of its ``_z_lines`` bit for bit: the
    y table at n = 0 is 1 + 0i and the x pair at m = 0 is [1, 0].  So it
    comes as that one line, one slab of shape (ncomp, 1, nz', 1).  Any
    other field streams ``_oversampled_slabs`` in slabs of at most
    ``_SLAB_BYTES``.
    """
    if _is_column(populated):
        yield _z_lines(f, [0], [0]).real[..., None].copy()
    else:
        for _, vals in _oversampled_slabs(f, _SLAB_BYTES, populated):
            yield vals


def _lattice_moments(f: SpectralField, populated, qs, unit=None):
    """One streamed pass: max |f|^2, the number of values and ``{q: mean of |f|^q}``.

    Each slab of ``_record_slabs`` is reduced before the next is made:
    |f|^2 is formed in place (after dividing by ``unit``, if given),
    |f|^4 and |f|^6 = |f|^4 * |f|^2 share one slab-sized buffer (a
    product is cheaper than libm's pow), and other q are (|f|^2)^(q/2).
    A mirrored lattice comes as its planes j = 0..nz'/2, whose end planes
    j = 0 and j = nz'/2 are their own mirrors and count at half weight in
    the means.  A column's means are taken over its one z line.
    """
    half = _mirrored(f)
    peak, size, plane, power = -np.inf, 0, 0, None
    sums = dict.fromkeys(qs, 0.0)
    ends = dict.fromkeys(qs, 0.0)

    def add(q, a):
        sums[q] += np.sum(a)
        if half:
            ends[q] += np.sum(a[:, 0]) + np.sum(a[:, -1])

    for vals in _record_slabs(f, populated):
        if unit is not None:
            vals /= unit
        np.square(vals, out=vals)
        mag_sq = vals[0]
        for comp in vals[1:]:
            mag_sq += comp
        peak = np.maximum(peak, np.max(mag_sq))
        size += mag_sq.size
        plane += mag_sq[:, 0].size
        if 4.0 in sums or 6.0 in sums:
            if power is None:
                power = np.empty(mag_sq.size)
            p = np.multiply(mag_sq, mag_sq, out=power[: mag_sq.size].reshape(mag_sq.shape))
            if 4.0 in sums:
                add(4.0, p)
            if 6.0 in sums:
                p *= mag_sq
                add(6.0, p)
        for q in sums:
            if q not in (4.0, 6.0):
                add(q, mag_sq ** (q / 2.0))
    if half:
        means = {q: (sums[q] - 0.5 * ends[q]) / (size - plane) for q in qs}
    else:
        means = {q: sums[q] / size for q in qs}
    return float(peak), size, means


def _lattice_norms(f: SpectralField, qs, populated=None):
    """Sup norm and ``{q: L^q norm}`` of |f| from one streamed oversampled pass.

    The lattice comes in y-row slabs (``_oversampled_slabs``) and each is
    reduced before the next is made (``_lattice_moments``), so the whole
    lattice is never held.  A mirrored lattice is evaluated and reduced on
    its planes j = 0..nz'/2 only, and a column on its one z line
    (``_record_slabs``): its sup norm is the lattice's to the byte, its
    L^q norms move at round-off, because one line is summed instead of
    (2 nx)(2 ny) copies of it.  One line mask serves that choice and the
    stream: ``populated``, a record's from its band (``_Band.populated``),
    or else ``_populated``'s scan.  Only when |f|^2 or its largest power
    summed over the values reduced would overflow are they streamed again,
    once for the max |component| and once divided by it, so finite fields
    on the edge of a blow-up keep finite norms and every other field keeps
    the unscaled arithmetic.
    """
    qs = [float(q) for q in qs]
    populated = _populated(f) if populated is None else populated
    with np.errstate(over="ignore", invalid="ignore"):
        peak, size, means = _lattice_moments(f, populated, qs)
    unit = 1.0
    if peak > 1.0 and (max(qs, default=2.0) / 2.0 * np.log(peak)
                       + np.log(size) >= _LOG_MAX):
        unit = max(float(max(np.max(vals), -np.min(vals)))
                   for vals in _record_slabs(f, populated))
        peak, size, means = _lattice_moments(f, populated, qs, unit)
    lq = {q: unit * float((f.grid.volume * means[q]) ** (1.0 / q)) for q in qs}
    return unit * float(np.sqrt(peak)), lq


def oversample(f: SpectralField) -> PhysicalField:
    """Values on a lattice twice as fine along each axis: the zero-padded
    spectrum (``refine``) through one inverse transform.

    Exact for dealiased fields, and the reference for the oversampled
    lattice; the norms reduce the same lattice as a pruned stream
    (``_oversampled_slabs``) and never call this.
    """
    g = f.grid
    fine = Grid.make(_FACTOR * g.nx, _FACTOR * g.ny, _FACTOR * g.nz, g.h)
    return to_physical(refine(f, fine))


def lq_norm(f: SpectralField, q: float) -> float:
    """L^q norm of |f| (Euclidean in components) by lattice quadrature on a
    lattice twice as fine."""
    return _lattice_norms(f, (q,))[1][float(q)]


def linf_norm(f: SpectralField) -> float:
    """Sup norm as the max of |f| over a lattice twice as fine.

    sqrt is monotone and correctly rounded, so sqrt(max |f|^2) is the max
    of sqrt(|f|^2) bit for bit.
    """
    return _lattice_norms(f, ())[0]

