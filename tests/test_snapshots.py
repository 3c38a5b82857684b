"""Tests for the HSF1 binary snapshot format."""

import hashlib
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hydrostat import decomposition, experiments
from hydrostat.cli import main
from hydrostat.config import parse_config
from hydrostat.decomposition import InitialDataSpec, prepare_initial_parts
from hydrostat.errors import DataError
from hydrostat.experiments import manifest_core_bytes, run_experiment
from hydrostat.io import _snapshot_bytes, read_snapshot, write_snapshot
from hydrostat.spectral import (EVEN, NONE, ODD, Grid, PhysicalField, _Band, _is_column,
                                dealias, field_from_function, symmetrize, to_physical,
                                to_spectral)

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


def test_snapshot_bytes_are_the_written_file(tmp_path, grid):
    f = sample_field(grid)
    write_snapshot(tmp_path / "field.hsf", f)
    assert _snapshot_bytes(f) == (tmp_path / "field.hsf").read_bytes()


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unopenable_path_is_data_error(tmp_path, where):
    path = tmp_path / "absent.hsf" if where == "missing" else tmp_path
    with pytest.raises(DataError, match=re.escape(str(path))):
        read_snapshot(path)


@pytest.mark.parametrize("ncomp, shape", [(1, (8, 8, 8)), (3, (8, 8, 8)), (2, (8, 8, 16))])
def test_initial_data_snapshot_must_fit_the_run(tmp_path, ncomp, shape):
    """Initial data from a snapshot is a 2-component field on the run's grid, or a DataError."""
    path = tmp_path / "field.hsf"
    write_snapshot(path, field_from_function(
        Grid.make(*shape, H), lambda X, Y, Z: (np.cos(2 * np.pi * Y) + 0 * X,) * ncomp, EVEN))
    spec = InitialDataSpec(kind="snapshot", snapshot=str(path), epsilon=0.0)
    with pytest.raises(DataError, match="not a 2-component field on the run's 8x8x8 grid"):
        prepare_initial_parts(Grid.make(8, 8, 8, H), spec)


CUSP_10x14x20 = """
[grid]
nx = 10
ny = 14
nz = 20
[physics]
f0 = 1.3
[time]
dt = 2e-3
t_end = 2e-3
[initial_data]
kind = cusp_step
a = 1.1, 0.3
delta = 0.7
[experiment]
kind = decomposition
[output]
directory = {out}
snapshots = true
"""


def test_z_only_snapshot_reads_back_as_a_column(tmp_path, monkeypatch):
    """A cusp ``initial.hsf`` on a grid whose whole-lattice FFT leaves
    round-off off the mean line still reads back as a column, and a run
    from it steps that line alone: no ``_Band.gradient`` call."""
    run_experiment(parse_config(text=CUSP_10x14x20.format(out=tmp_path / "cusp")))
    snapshot = tmp_path / "cusp" / "initial.hsf"
    f = read_snapshot(snapshot)
    assert (f.grid.nx, f.grid.ny, f.grid.nz) == (10, 14, 20) and _is_column(f.coeffs)
    calls = []
    gradient = _Band.gradient
    monkeypatch.setattr(_Band, "gradient", lambda *a, **k: calls.append(1) or gradient(*a, **k))
    text = CUSP_10x14x20.format(out=tmp_path / "read").replace(
        "kind = cusp_step", f"kind = snapshot\nsnapshot = {snapshot}")
    report, _ = run_experiment(parse_config(text=text))
    assert report.all_pass and calls == []


SNAPSHOT_RUN = """
[grid]
nx = 8
ny = 8
nz = 16
[time]
dt = 2e-3
t_end = 4e-3
[initial_data]
kind = snapshot
snapshot = {snapshot}
epsilon = 0
[experiment]
kind = {kind}
[output]
directory = {out}
"""


@pytest.mark.parametrize("kind", ["decomposition", "energy_identity"])
def test_snapshot_runs_name_the_bytes_they_read(tmp_path, grid, kind):
    """Two files at one path share a config hash; the manifest core tells
    them apart by the sha256 under ``inputs``, and repeats each exactly."""
    path = tmp_path / "data.hsf"
    cores, hashes = [], set()
    for seed in (0, 1, 0):
        write_snapshot(path, sample_field(grid, seed))
        cfg = parse_config(text=SNAPSHOT_RUN.format(snapshot=path, kind=kind,
                                                    out=tmp_path / f"run{len(cores)}"))
        _, manifest = run_experiment(cfg)
        assert manifest["inputs"] == [{"name": str(path), "sha256": hashlib.sha256(
            path.read_bytes()).hexdigest()}]
        cores.append(manifest_core_bytes(manifest))
        hashes.add(cfg.config_hash)
    assert len(hashes) == 1 and cores[0] != cores[1] and cores[0] == cores[2]


def test_digest_names_the_bytes_parsed(tmp_path, grid, monkeypatch):
    """A file rewritten right after ``read_snapshot`` has read it does not
    change the digest under ``inputs``: it is of the bytes parsed."""
    path = tmp_path / "data.hsf"
    write_snapshot(path, sample_field(grid, 0))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()

    def rewriting(*args):
        field = read_snapshot(*args)
        write_snapshot(path, sample_field(grid, 1))
        return field

    monkeypatch.setattr(decomposition, "read_snapshot", rewriting)
    _, manifest = run_experiment(parse_config(text=SNAPSHOT_RUN.format(
        snapshot=path, kind="decomposition", out=tmp_path / "run")))
    assert hashlib.sha256(path.read_bytes()).hexdigest() != digest
    assert manifest["inputs"] == [{"name": str(path), "sha256": digest}]


def test_only_runs_that_read_a_snapshot_name_it(tmp_path, grid):
    """An analytic run has no ``inputs``; a lemma suite with snapshot data
    names the file only when ``snapshots = true`` makes it read it."""
    analytic = SNAPSHOT_RUN.replace("kind = snapshot", "kind = analytic")
    _, manifest = run_experiment(parse_config(text=analytic.format(
        snapshot="", kind="decomposition", out=tmp_path / "analytic")))
    assert "inputs" not in manifest
    path = tmp_path / "data.hsf"
    write_snapshot(path, sample_field(grid))
    for snapshots, named in (("false", False), ("true", True)):
        text = SNAPSHOT_RUN.format(snapshot=path, kind="lemma_suite",
                                   out=tmp_path / snapshots) + f"snapshots = {snapshots}\n"
        _, manifest = run_experiment(parse_config(text=text.replace(
            "[experiment]\n", "[experiment]\nmoser_count = 5\nladyzhenskaya_count = 1\n")))
        assert ("inputs" in manifest) is named


def test_odd_tagged_snapshot_fails_the_run(tmp_path, grid, capsys):
    """A state keeps the even part of its data, and an odd field's is zero:
    ``run`` refuses odd-tagged data, naming the file, and exits 1.  An
    untagged snapshot is still taken, by its even part."""
    path = tmp_path / "odd.hsf"
    write_snapshot(path, symmetrize(sample_field(grid), ODD))
    config = tmp_path / "c.ini"
    config.write_text(SNAPSHOT_RUN.format(snapshot=path, kind="decomposition",
                                          out=tmp_path / "run"))
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"run failed: {path}: ") and "symmetry tag: odd" in err
    f = sample_field(grid)
    write_snapshot(path, f.with_coeffs(f.coeffs, NONE))
    spec = InitialDataSpec(kind="snapshot", snapshot=str(path), epsilon=0.0)
    vbar0, _ = prepare_initial_parts(grid, spec)
    assert vbar0.symmetry == NONE


MOLLIFICATION_SNAPSHOT_RUN = SNAPSHOT_RUN.format(
    snapshot="{snapshot}", kind="mollification", out="{out}") + "snapshots = true\n"


def test_mollification_reads_its_snapshot_once(tmp_path, grid, monkeypatch):
    """Three mollification radii and ``initial.hsf`` come from one read."""
    path = tmp_path / "data.hsf"
    write_snapshot(path, sample_field(grid))
    reads = []
    monkeypatch.setattr(decomposition, "read_snapshot",
                        lambda *a: reads.append(a) or read_snapshot(*a))
    cfg = parse_config(text=MOLLIFICATION_SNAPSHOT_RUN.format(snapshot=path,
                                                              out=tmp_path / "run"))
    assert len(cfg.epsilons) == 3
    run_experiment(cfg)
    assert len(reads) == 1


def test_snapshot_replaced_during_the_run_changes_nothing(tmp_path, grid, monkeypatch):
    """A snapshot file replaced at the run's first step feeds no member and
    no digest: the series are those of an undisturbed run, and ``inputs``
    names the bytes read."""
    path = tmp_path / "data.hsf"
    write_snapshot(path, sample_field(grid, 0))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    run_experiment(parse_config(text=MOLLIFICATION_SNAPSHOT_RUN.format(
        snapshot=path, out=tmp_path / "still")))
    integrate = experiments.integrate

    def replacing(*args, **kwargs):
        if hashlib.sha256(path.read_bytes()).hexdigest() == digest:
            write_snapshot(path, sample_field(grid, 1))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", replacing)
    _, manifest = run_experiment(parse_config(text=MOLLIFICATION_SNAPSHOT_RUN.format(
        snapshot=path, out=tmp_path / "moved")))
    assert hashlib.sha256(path.read_bytes()).hexdigest() != digest
    assert manifest["inputs"] == [{"name": str(path), "sha256": digest}]
    names = sorted(p.name for p in (tmp_path / "still").glob("series_eps*.csv"))
    assert len(names) == 3
    for name in names:
        assert ((tmp_path / "moved" / name).read_bytes()
                == (tmp_path / "still" / name).read_bytes()), name


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


def _header_and_payload(grid):
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
    header, payload = _header_and_payload(grid)
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
    header, payload = _header_and_payload(grid)
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
    header, payload = _header_and_payload(grid)
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


def _config_values(snapshots):
    """Value texts per (section, key), as (valid, invalid) strategies.

    A valid text passes its own key's check, though it may clash with
    another key (an eta above h, say).  Grids stay at 16 or less and h in
    [0.05, 5], so that no accepted config allocates much.
    """
    floats = st.floats(0.05, 5.0).map(repr)

    def texts(*values):
        return st.sampled_from(values)

    return {
        ("grid", "nx"): (texts("8", "10", "16"), texts("7", "0", "-8", "x")),
        ("grid", "ny"): (texts("8", "12", "16"), texts("9", "2", "")),
        ("grid", "nz"): (texts("8", "14", "16"), texts("5", "1e1")),
        ("grid", "h"): (st.one_of(texts("0.5", "1.0", "0.3"), floats),
                        texts("0", "-0.5", "nan", "inf", "h")),
        ("physics", "f0"): (st.one_of(floats, texts("0", "-1.3", "1e308")), texts("nan")),
        ("time", "dt"): (texts("1e-3", "2e-3", "0.5", "1e300"),
                         texts("1e-300", "0", "-1e-3", "inf")),
        ("time", "t_end"): (texts("4e-3", "0.01", "7e15", "1e300"), texts("0", "-1")),
        ("time", "cfl_target"): (texts("0.5", "1e-9"), texts("nan", "0", "-1")),
        ("initial_data", "kind"): (texts("cusp_step", "analytic", "snapshot"),
                                   texts("rough")),
        ("initial_data", "a"): (texts("1.0, 0.0", "0, 0", "1e308, -1e308"),
                                texts("1", "a, b")),
        ("initial_data", "delta"): (texts("1.0", "0.3", "7", "1e308"), texts("0", "-1")),
        ("initial_data", "eta"): (st.one_of(texts("0.05", "0.25"), floats),
                                  texts("0", "-0.1")),
        ("initial_data", "sigma"): (texts("0.2, 0.0", "0, 0", "1e200, 1"), texts("2")),
        ("initial_data", "epsilon"): (texts("0", "0.05", "0.1", "0.3"),
                                      texts("-0.1", "2")),
        ("initial_data", "expression_u"): (
            texts("0", "cos(2*pi*x)", "exp(1e3*x)", "x**-1", "z**0.5", "1e308*1e308"),
            texts("sin(", "__import__('os')")),
        ("initial_data", "expression_v"): (
            texts("0", "sin(2*pi*y)*cos(pi*z/h)", "abs(z)**0.3", "1/x", "tanh(x)"),
            texts("x.real")),
        ("initial_data", "snapshot"): (texts(*snapshots), texts("")),
        ("experiment", "kind"): (texts("energy_identity", "decomposition", "stability",
                                       "mollification", "lemma_suite"), texts("bogus")),
        ("experiment", "sigma_perturbation"): (texts("0.01", "1e300"), texts("0", "-1")),
        ("experiment", "eta_perturbation"): (st.one_of(texts("0.05", "0.2"), floats),
                                             texts("0", "-9")),
        ("experiment", "epsilons"): (texts("0.2, 0.1", "0.2, 0.1, 0.05", "0.1, 0.2"),
                                     texts("0.1", "-1, 0.1", "0.3, x", "")),
        ("experiment", "moser_count"): (texts("1", "5"), texts("0", "-3", "1.5")),
        ("experiment", "moser_kmax"): (texts("1", "40", "60"), texts("0", "61")),
        ("experiment", "ladyzhenskaya_count"): (texts("1", "2"), texts("0")),
        ("experiment", "sample_count"): (texts("1", "2"), texts("0", "-1")),
        ("output", "seed"): (texts("0", "5"), texts("-1", "1e3")),
        ("output", "threads"): (texts("1", "2"), texts("0", "x")),
        ("output", "snapshots"): (texts("true", "false"), texts("maybe")),
        ("grid", "resolution"): (None, texts("32")),       # not a key
        ("mystery", "x"): (None, texts("1")),              # not a section
    }


_SHRUNK = {("grid", "nx"): "8", ("grid", "ny"): "8", ("grid", "nz"): "8",
           ("experiment", "moser_count"): "5", ("experiment", "ladyzhenskaya_count"): "1",
           ("experiment", "sample_count"): "1"}


def _config_text(values):
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


@pytest.fixture(scope="module")
def fuzz_snapshots(tmp_path_factory):
    """Snapshot paths a config may name: missing, a directory, a file that
    is not a snapshot, and snapshots with 2, 1 and 3 components."""
    base = tmp_path_factory.mktemp("snapshots")
    grid = Grid.make(8, 8, 8, 0.5)
    for name, ncomp in (("two.hsf", 2), ("one.hsf", 1), ("three.hsf", 3)):
        write_snapshot(base / name, field_from_function(
            grid, lambda X, Y, Z: (np.cos(2 * np.pi * Y) + 0 * X,) * ncomp, EVEN))
    (base / "text.hsf").write_text("not a snapshot\n")
    return [str(base / name) for name in ("absent.hsf", "two.hsf", "one.hsf", "three.hsf",
                                           "text.hsf")] + [str(base)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_config_fuzz_exits_zero_one_or_two(tmp_path_factory, fuzz_snapshots, data):
    """``validate`` of any config text exits 0 or 2 and raises nothing else.

    An accepted config, shrunk to an 8^3 grid, one step of its dt (two for
    energy_identity's dt/2 run), small counts and 1-2 threads, then ``run``s
    to exit 0 or 1.  Its output directory may be an existing file, and its
    snapshot path missing or a directory.
    """
    texts = _config_values(fuzz_snapshots)
    keys = data.draw(st.lists(st.sampled_from(sorted(texts)), unique=True, max_size=12),
                     label="keys")
    keys = sorted({("experiment", "kind"), ("initial_data", "kind"),
                   ("initial_data", "snapshot"), *keys})
    bad = data.draw(st.one_of(st.just([]), st.lists(st.sampled_from(keys), unique=True,
                                                    min_size=1, max_size=2)), label="bad")
    values = {}
    for key in keys:
        valid, invalid = texts[key]
        values[key] = data.draw(invalid if key in bad or valid is None else valid,
                                label=".".join(key))
    base = tmp_path_factory.mktemp("config")
    out = base / "run"
    if data.draw(st.booleans(), label="output is a file"):
        out.write_bytes(b"")
    values[("output", "directory")] = str(out)
    path = base / "c.ini"
    path.write_text(_config_text(values))
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["validate", str(path)])
        assert code in (0, 2)
        if code:
            return
        cfg = parse_config(path=path)
        values.update(_SHRUNK)
        values[("time", "t_end")] = repr(cfg.dt)
        values[("output", "threads")] = str(min(cfg.threads, 2))
        path.write_text(_config_text(values))
        assert main(["run", str(path)]) in (0, 1)
