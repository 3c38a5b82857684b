"""Binary field snapshots (HSF1 format).

Layout: magic ``HSF1`` | nx, ny, nz as uint32 LE | h as float64 LE |
component count as uint32 LE | symmetry tag byte (0 none, 1 even, 2 odd) |
lattice values as float64 LE, one component after another, each in C order
with z fastest.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ConfigurationError, DataError
from .spectral import EVEN, NONE, ODD, Grid, PhysicalField, SpectralField, to_physical, to_spectral

MAGIC = b"HSF1"
_HEADER = struct.Struct("<4sIIIdIB")
_TAG_BYTE = {NONE: 0, EVEN: 1, ODD: 2}
_BYTE_TAG = {v: k for k, v in _TAG_BYTE.items()}


def _snapshot_bytes(f: SpectralField) -> bytes:
    """The HSF1 file of the field's lattice values, header included."""
    header = _HEADER.pack(MAGIC, f.grid.nx, f.grid.ny, f.grid.nz,
                          f.grid.h, f.ncomp, _TAG_BYTE[f.symmetry])
    return header + np.ascontiguousarray(to_physical(f).values, dtype="<f8").tobytes()


def write_snapshot(path, f: SpectralField) -> None:
    """Write the field's lattice values to ``path``."""
    with open(path, "wb") as fh:
        fh.write(_snapshot_bytes(f))


def read_snapshot(path, grid: Grid | None = None) -> SpectralField:
    """Read a snapshot; reuses ``grid`` when it matches the header.

    Any malformed file raises ``DataError``: a bad header field, a payload
    that is short or followed by trailing bytes, or non-finite values.  So
    does a path that cannot be opened, such as a missing file or a
    directory.
    """
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise DataError(f"{path}: cannot open snapshot: {err.strerror or err}") from err
    with fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise DataError(f"{path}: truncated header")
        magic, nx, ny, nz, h, ncomp, tag_byte = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        if tag_byte not in _BYTE_TAG:
            raise DataError(f"{path}: unknown symmetry byte {tag_byte}")
        if ncomp == 0:
            raise DataError(f"{path}: no components")
        payload = fh.read()
    count = ncomp * nx * ny * nz
    if len(payload) != count * 8:
        what = "truncated payload" if len(payload) < count * 8 else "trailing bytes"
        raise DataError(f"{path}: {what} ({len(payload)} bytes, header needs {count * 8})")
    if grid is None or (grid.nx, grid.ny, grid.nz, grid.h) != (nx, ny, nz, h):
        try:
            grid = Grid.make(nx, ny, nz, h)
        except ConfigurationError as err:
            raise DataError(f"{path}: bad header: {err}") from None
    values = np.frombuffer(payload, dtype="<f8").reshape(ncomp, nx, ny, nz).astype(float)
    return to_spectral(PhysicalField(grid, values), _BYTE_TAG[tag_byte])
