"""Tests for the HSF1 binary snapshot format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hydrostat.errors import DataError
from hydrostat.io import read_snapshot, write_snapshot
from hydrostat.spectral import (EVEN, Grid, PhysicalField, dealias, symmetrize,
                                to_physical, to_spectral)

H = 0.5


@pytest.fixture()
def grid():
    return Grid.make(8, 8, 16, H)


def sample_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((2,) + grid.physical_shape)
    return symmetrize(dealias(to_spectral(PhysicalField(grid, vals))), EVEN)


def test_round_trip(tmp_path, grid):
    f = sample_field(grid)
    path = tmp_path / "field.hsf"
    write_snapshot(path, f)
    g = read_snapshot(path, grid)
    assert g.symmetry == EVEN
    np.testing.assert_allclose(g.coeffs, f.coeffs, atol=1e-13)


def test_header_layout(tmp_path, grid):
    f = sample_field(grid)
    path = tmp_path / "field.hsf"
    write_snapshot(path, f)
    raw = path.read_bytes()
    magic, nx, ny, nz, h, ncomp, tag = struct.unpack_from("<4sIIIdIB", raw)
    assert magic == b"HSF1"
    assert (nx, ny, nz) == (8, 8, 16)
    assert h == H
    assert ncomp == 2
    assert tag == 1                    # even
    payload = raw[struct.calcsize("<4sIIIdIB"):]
    assert len(payload) == 2 * 8 * 8 * 16 * 8
    # z-fastest ordering: first 16 doubles are the z-column at (comp0, x0, y0)
    col = np.frombuffer(payload[: 16 * 8], dtype="<f8")
    np.testing.assert_allclose(col, to_physical(f).values[0, 0, 0], atol=1e-15)


def test_grid_rebuilt_when_absent(tmp_path, grid):
    f = sample_field(grid)
    path = tmp_path / "field.hsf"
    write_snapshot(path, f)
    g = read_snapshot(path)
    assert (g.grid.nx, g.grid.ny, g.grid.nz, g.grid.h) == (8, 8, 16, H)


def test_bad_magic_rejected(tmp_path, grid):
    path = tmp_path / "bad.hsf"
    path.write_bytes(b"XXXX" + b"\0" * 64)
    with pytest.raises(DataError):
        read_snapshot(path)


def test_truncated_payload_rejected(tmp_path, grid):
    f = sample_field(grid)
    path = tmp_path / "field.hsf"
    write_snapshot(path, f)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError):
        read_snapshot(path)


HEADER = struct.Struct("<4sIIIdIB")


def _snapshot_bytes(grid):
    f = sample_field(grid)
    header = HEADER.pack(b"HSF1", grid.nx, grid.ny, grid.nz, grid.h, f.ncomp, 1)
    return header, np.ascontiguousarray(to_physical(f).values, dtype="<f8").tobytes()


def _with_header(header, **fields):
    magic, nx, ny, nz, h, ncomp, tag = HEADER.unpack(header)
    values = dict(magic=magic, nx=nx, ny=ny, nz=nz, h=h, ncomp=ncomp, tag=tag)
    values.update(fields)
    return HEADER.pack(*values.values())


@pytest.mark.parametrize("fields", [
    dict(nx=7), dict(ny=7), dict(nz=0), dict(nx=0, ny=0, nz=0),
    dict(h=float("nan")), dict(h=-1.0), dict(h=0.0), dict(h=float("inf")),
    dict(h=5e-324),
    dict(ncomp=0), dict(tag=3),
], ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_bad_header_field_is_data_error(tmp_path, grid, fields):
    header, payload = _snapshot_bytes(grid)
    path = tmp_path / "bad.hsf"
    path.write_bytes(_with_header(header, **fields) + payload)
    with pytest.raises(DataError):
        read_snapshot(path)


def test_trailing_bytes_rejected(tmp_path, grid):
    f = sample_field(grid)
    path = tmp_path / "field.hsf"
    write_snapshot(path, f)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataError):
        read_snapshot(path)


def test_non_finite_values_rejected(tmp_path, grid):
    header, payload = _snapshot_bytes(grid)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[5] = np.inf
    path = tmp_path / "field.hsf"
    path.write_bytes(header + values.tobytes())
    with pytest.raises(DataError):
        read_snapshot(path)


FUZZ_FIELDS = {
    "nx": st.sampled_from([0, 1, 7, 9, 16, 2 ** 32 - 1]),
    "ny": st.sampled_from([0, 6, 10, 2 ** 31]),
    "nz": st.sampled_from([0, 8, 15, 32]),
    "h": st.floats(allow_nan=True, allow_infinity=True),
    "ncomp": st.sampled_from([0, 1, 3, 2 ** 32 - 1]),
    "tag": st.integers(0, 255),
}


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_reader_fuzz_returns_field_or_data_error(tmp_path_factory, data):
    """Header fields, truncation and trailing bytes: a field or DataError, nothing else."""
    grid = Grid.make(8, 8, 16, H)
    header, payload = _snapshot_bytes(grid)
    names = data.draw(st.sets(st.sampled_from(sorted(FUZZ_FIELDS)), max_size=2))
    fields = {name: data.draw(FUZZ_FIELDS[name], label=name) for name in sorted(names)}
    cut = data.draw(st.one_of(st.just(0), st.integers(1, len(header) + len(payload))))
    extra = data.draw(st.one_of(st.just(b""), st.binary(min_size=1, max_size=16)))
    raw = _with_header(header, **fields) + payload
    path = tmp_path_factory.mktemp("fuzz") / "f.hsf"
    path.write_bytes(raw[:len(raw) - cut] + extra)
    try:
        f = read_snapshot(path)
    except DataError:
        return
    _, nx, ny, nz, h, ncomp, _ = HEADER.unpack(raw[:HEADER.size])
    assert (f.grid.nx, f.grid.ny, f.grid.nz, f.grid.h) == (nx, ny, nz, h)
    assert f.ncomp == ncomp
    assert np.all(np.isfinite(f.coeffs))
