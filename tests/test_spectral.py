"""Tests for the spectral substrate: transforms, parity, operators, masks."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import grad_norm_sq, l2_norm_sq, one_slab

from hydrostat import spectral
from hydrostat.decomposition import InitialDataSpec, make_cusp_step_data
from hydrostat.errors import ConfigurationError, DataError
from hydrostat.estimates import ladyzhenskaya_ratio, norms
from hydrostat.spectral import (EVEN, NONE, ODD, Grid, PhysicalField,
                                SpectralField, _Band, _forward, _inverse,
                                _SLAB_BYTES, _is_column, _lattice_norms, _mirrored,
                                _oversampled_slabs, _populated, _record_slabs,
                                grad_h_norm_sq,
                                dealias, derivative, div_h, field_from_function,
                                l2_norm, linf_norm, lq_norm, oversample,
                                parity_flip, refine, symmetrize,
                                to_physical, to_spectral, zero_field)

H = 0.5


@pytest.fixture(scope="module")
def grid():
    return Grid.make(16, 16, 16, H)


def random_field(grid, seed, ncomp=1, symmetry=NONE):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((ncomp,) + grid.physical_shape)
    f = dealias(to_spectral(PhysicalField(grid, vals)))
    if symmetry != NONE:
        f = symmetrize(f, symmetry)
    return f


def oversampling_input(grid, kind, seed, ncomp):
    """``raw``: not dealiased, every Nyquist plane populated; else dealiased, tagged ``kind``."""
    if kind != "raw":
        return random_field(grid, seed, ncomp, kind)
    rng = np.random.default_rng(seed)
    return to_spectral(PhysicalField(grid, rng.standard_normal((ncomp,) + grid.physical_shape)))


class TestGrid:
    def test_rejects_odd_or_small_mode_counts(self):
        with pytest.raises(ConfigurationError):
            Grid.make(15, 16, 16, H)
        with pytest.raises(ConfigurationError):
            Grid.make(16, 16, 4, H)

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ConfigurationError):
            Grid.make(16, 16, 16, 0.0)

    @pytest.mark.parametrize("h", [float("inf"), float("nan"), 1e-300, 5e-324])
    def test_rejects_height_with_unrepresentable_wavenumbers(self, h):
        with pytest.raises(ConfigurationError):
            Grid.make(16, 16, 16, h)

    def test_dealias_mask_follows_two_thirds_rule(self, grid):
        mask = grid.dealias_mask
        # retained corner and first masked mode along each axis
        assert mask[0, 0, 0]
        assert mask[5, 0, 0] and not mask[6, 0, 0]        # 16/3 = 5.33
        assert mask[0, 5, 0] and not mask[0, 6, 0]
        assert not mask[0, 0, grid.nz // 2]               # Nyquist always masked

    def test_wavenumbers(self, grid):
        assert grid.kx[1, 0, 0] == pytest.approx(2 * np.pi)
        assert grid.ky[0, 1, 0] == pytest.approx(2 * np.pi)
        assert grid.kz[0, 0, 1] == pytest.approx(np.pi / H)
        # z lattice includes -h, excludes +h
        z = grid.z()
        assert z[0] == -H and z[-1] < H

    def test_mean_mode_is_field_mean(self, grid):
        f = random_field(grid, 0)
        phys = to_physical(f)
        assert f.coeffs[0, 0, 0, 0] == pytest.approx(np.mean(phys.values), abs=1e-14)


class TestTransforms:
    def test_zero_field_round_trip(self, grid):
        f = zero_field(grid)
        assert np.all(to_physical(f).values == 0.0)

    def test_single_mode_gives_cosine(self, grid):
        coeffs = np.zeros((1,) + grid.spectral_shape, dtype=complex)
        coeffs[0, 1, 0, 0] = 0.5          # unit-amplitude cos(2 pi x)
        f = SpectralField(grid, coeffs)
        X, _, _ = grid.mesh()
        np.testing.assert_allclose(to_physical(f).values[0], np.cos(2 * np.pi * X),
                                   atol=1e-14)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16), (16, 8, 32),
                                       (32, 16, 8)])
    def test_round_trip_residual(self, shape):
        grid = Grid.make(*shape, H)
        f = random_field(grid, 1, ncomp=2)
        back = to_spectral(to_physical(f))
        rel = np.max(np.abs(back.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert rel <= 1e-13

    @pytest.mark.parametrize("shape", [(2, 64, 64, 128), (1, 32, 32, 64), (2, 10, 14, 20),
                                       (1, 16, 16, 32)])
    def test_forward_passes_are_rfftn_to_the_byte(self, shape):
        """The padded x pass, then z and y in place, give ``rfftn``'s bytes."""
        values = np.random.default_rng(5).standard_normal(shape)
        expected = np.fft.rfftn(values, axes=(2, 3, 1), norm="forward")
        got = spectral._forward(values)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_constant_field_occupies_mean_mode_only(self, grid):
        c = 3.25
        f = field_from_function(grid, lambda X, Y, Z: c + 0 * X)
        assert f.coeffs[0, 0, 0, 0] == pytest.approx(c)
        rest = f.coeffs.copy()
        rest[0, 0, 0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-14

    @pytest.mark.parametrize("shape", [(16, 16, 32), (32, 32, 64), (10, 14, 20)])
    def test_z_only_values_become_a_column(self, shape):
        """Values exactly constant in x and y take one z FFT onto the mean
        line: a column on every grid, equal to the whole-lattice transform
        (up to the sign of zeros) where its horizontal FFT of a constant is
        exact (powers of two), and within round-off of it elsewhere.  There,
        symmetrized, the bytes are equal, the signs of zeros included."""
        g = Grid.make(*shape, H)
        line = np.random.default_rng(7).standard_normal((2, 1, 1, g.nz))
        values = np.broadcast_to(line, (2,) + g.physical_shape)
        got = to_spectral(PhysicalField(g, values)).coeffs
        whole = _forward(values)
        assert _is_column(got)
        if all(n & (n - 1) == 0 for n in shape):
            assert (got + 0.0).tobytes() == (whole + 0.0).tobytes()     # -0 + 0 is +0
            for tag in (EVEN, ODD):
                assert to_spectral(PhysicalField(g, values), tag).coeffs.tobytes() == \
                    symmetrize(SpectralField(g, whole), tag).coeffs.tobytes()
        else:
            assert not _is_column(whole)
            assert np.max(np.abs(got - whole)) <= 1e-15 * np.max(np.abs(whole))
        bumped = np.array(values)       # one entry one ulp off: the whole transform
        bumped[1, -1, -1, 3] = np.nextafter(bumped[1, -1, -1, 3], np.inf)
        assert to_spectral(PhysicalField(g, bumped)).coeffs.tobytes() == \
            _forward(bumped).tobytes()

    def test_non_finite_values_rejected(self, grid):
        vals = np.zeros((1,) + grid.physical_shape)
        vals[0, 0, 0, 0] = np.nan
        with pytest.raises(DataError):
            to_spectral(PhysicalField(grid, vals))

    def test_finite_values_whose_transform_overflows_rejected(self, grid):
        """The sum of values near the largest float: a DataError, no warning
        (constant values, so this takes the z-only route)."""
        vals = np.full((1,) + grid.physical_shape, 1e308)
        with pytest.raises(DataError, match="overflows"):
            to_spectral(PhysicalField(grid, vals))

    def test_whole_transform_overflow_rejected(self, grid):
        """As above, with one entry off the constant: the whole transform."""
        vals = np.full((1,) + grid.physical_shape, 1e308)
        vals[0, 1, 0, 0] = 1e307
        with pytest.raises(DataError, match="overflows"):
            to_spectral(PhysicalField(grid, vals))

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            SpectralField(grid, np.zeros((1, 3, 3, 3), dtype=complex))
        with pytest.raises(ConfigurationError):
            PhysicalField(grid, np.zeros((1, 4, 4, 4)))

    def test_conjugate_symmetry_of_real_fields(self, grid):
        """On the m = 0 and m = nx/2 planes, c(m, -n, -l) = conj(c(m, n, l))."""
        f = random_field(grid, 2, ncomp=2)
        iy = (-np.arange(grid.ny)) % grid.ny
        for plane in (0, grid.nx // 2):
            c = f.coeffs[:, plane]
            assert np.max(np.abs(c - np.conj(parity_flip(c[:, iy])))) < 1e-13


class TestSymmetrize:
    def test_even_input_unchanged(self, grid):
        f = random_field(grid, 3, symmetry=EVEN)
        g = symmetrize(f, EVEN)
        np.testing.assert_array_equal(f.coeffs, g.coeffs)

    def test_even_projection_kills_sine(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: np.sin(np.pi * Z / H))
        g = symmetrize(f, EVEN)
        assert np.max(np.abs(g.coeffs)) < 1e-14

    def test_odd_projection_extracts_sine(self, grid):
        f = field_from_function(
            grid, lambda X, Y, Z: np.cos(np.pi * Z / H) + np.sin(np.pi * Z / H))
        g = symmetrize(f, ODD)
        _, _, Z = grid.mesh()
        np.testing.assert_allclose(to_physical(g).values[0],
                                   np.sin(np.pi * Z / H), atol=1e-13)
        assert g.symmetry == ODD

    @given(seed=st.integers(0, 10_000), tag=st.sampled_from([EVEN, ODD]))
    @settings(max_examples=25, deadline=None)
    def test_projection_is_exactly_idempotent(self, seed, tag):
        grid = Grid.make(8, 8, 8, H)
        f = random_field(grid, seed)
        once = symmetrize(f, tag)
        twice = symmetrize(once, tag)
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_odd_tag_request_only(self, grid):
        with pytest.raises(ConfigurationError):
            symmetrize(random_field(grid, 4), "sideways")


class TestOperators:
    def test_derivative_of_constant_vanishes(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: 1.0 + 0 * X)
        for axis in "xyz":
            assert np.max(np.abs(derivative(f, axis).coeffs)) < 1e-15

    def test_x_derivative_of_cosine(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: np.cos(2 * np.pi * X))
        X, _, _ = grid.mesh()
        np.testing.assert_allclose(to_physical(derivative(f, "x")).values[0],
                                   -2 * np.pi * np.sin(2 * np.pi * X), atol=1e-12)

    def test_z_derivative_flips_parity(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: np.cos(np.pi * Z / H),
                                symmetry=EVEN)
        df = derivative(f, "z")
        assert df.symmetry == ODD
        _, _, Z = grid.mesh()
        np.testing.assert_allclose(to_physical(df).values[0],
                                   -(np.pi / H) * np.sin(np.pi * Z / H), atol=1e-12)

    def test_div_h_of_x_only_shear_vanishes(self, grid):
        v = field_from_function(
            grid, lambda X, Y, Z: (0 * X, 1.3 * np.cos(2 * np.pi * X)))
        assert np.max(np.abs(div_h(v).coeffs)) < 1e-14

    def test_div_h_arity(self, grid):
        with pytest.raises(ConfigurationError):
            div_h(random_field(grid, 5, ncomp=1))

    def test_grad_div_consistency(self, grid):
        f = random_field(grid, 6)
        v = SpectralField(grid, np.concatenate([1j * grid.kx_d * f.coeffs,
                                                1j * grid.ky_d * f.coeffs]))
        lap_h = div_h(v)
        kh2 = grid.kh2[:, :, None]
        np.testing.assert_allclose(lap_h.coeffs[0], -kh2 * f.coeffs[0], atol=1e-12)


class TestDealias:
    def test_masked_mode_removed(self, grid):
        coeffs = np.zeros((1,) + grid.spectral_shape, dtype=complex)
        coeffs[0, 7, 0, 0] = 1.0          # |m| = 7 > 16/3
        f = SpectralField(grid, coeffs)
        assert np.max(np.abs(dealias(f).coeffs)) == 0.0

    def test_retained_modes_untouched(self, grid):
        f = random_field(grid, 11)        # already dealiased
        np.testing.assert_array_equal(dealias(f).coeffs, f.coeffs)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_energy_never_increases(self, seed):
        grid = Grid.make(8, 8, 8, H)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((1,) + grid.physical_shape)
        f = to_spectral(PhysicalField(grid, vals))
        assert l2_norm_sq(dealias(f)) <= l2_norm_sq(f) + 1e-14


class TestNormsAndSampling:
    def test_parseval_agreement(self, grid):
        f = random_field(grid, 12, ncomp=2)
        spectral = l2_norm(f)
        vals = to_physical(f).values
        lattice = np.sqrt(grid.volume * np.mean(np.sum(vals ** 2, axis=0)))
        assert abs(spectral - lattice) <= 1e-12 * lattice

    def test_oversample_matches_on_common_lattice(self, grid):
        f = random_field(grid, 13)
        coarse = to_physical(f).values
        fine = oversample(f).values
        np.testing.assert_allclose(fine[:, ::2, ::2, ::2], coarse, atol=1e-12)

    @staticmethod
    def assert_stream_matches_oversample(f):
        """The one-slab stream against ``oversample``, on the planes
        j = 0..nz'/2 of a mirrored field, to 1e-13 of max |values|."""
        full = oversample(f).values
        planes = full.shape[3] // 2 + 1 if _mirrored(f) else full.shape[3]
        got = one_slab(f)
        assert got.shape == full.shape[:3] + (planes,)
        expected = full[..., :planes]
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @given(nx=st.integers(4, 16), ny=st.integers(4, 16), nz=st.integers(4, 16),
           ncomp=st.sampled_from((1, 2, 3)),
           kind=st.sampled_from(("raw", EVEN, ODD, NONE)), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_oversample_matches_padded_inverse_transform(self, nx, ny, nz, ncomp,
                                                         kind, seed):
        """The pruned stream's z pass and dense y and x sums are the padded
        inverse transform, ``oversample``.

        ``raw`` coefficients are not dealiased, so every Nyquist plane is
        populated and its placement in the padded spectrum is checked.
        Dealiased inputs leave most (m, n) lines and m planes empty, which
        the stream skips; tagged ones are mirrored, so their half planes
        are checked.
        """
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        f = oversampling_input(grid, kind, seed, ncomp)
        if kind == "raw":
            for plane in (f.coeffs[:, -1], f.coeffs[:, :, grid.ny // 2],
                          f.coeffs[..., grid.nz // 2]):
                assert np.min(np.abs(plane).max(axis=0)) > 0
        else:
            assert not np.all(np.any(f.coeffs, axis=(0, 3)))
        assert _mirrored(f) == (kind in (EVEN, ODD))
        self.assert_stream_matches_oversample(f)

    @given(nx=st.integers(4, 16), ny=st.integers(4, 16), nz=st.integers(4, 16),
           ncomp=st.sampled_from((1, 2, 3)),
           kind=st.sampled_from(("raw", EVEN, ODD, NONE)), seed=st.integers(0, 10_000),
           keep=st.floats(0.05, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_oversampling_matches_the_unpruned_ffts(self, nx, ny, nz, ncomp, kind,
                                                    seed, keep):
        """On sparse populations the stream matches the unpruned FFTs of ``oversample``.

        A random share ``keep`` of the (m, n) lines survives, Nyquist lines
        included, so the stream skips scattered lines and whole m planes.
        Emptying a z line keeps its parity, so tagged inputs stay mirrored.
        """
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        f = oversampling_input(grid, kind, seed, ncomp)
        rng = np.random.default_rng(seed + 1)
        lines = rng.random(f.coeffs.shape[1:3]) < keep
        lines[rng.integers(lines.shape[0]), rng.integers(lines.shape[1])] = True
        coeffs = f.coeffs * lines[None, :, :, None]
        sparse = SpectralField(grid, coeffs, f.symmetry)
        assert not np.all(np.any(coeffs, axis=(0, 3)))
        assert _mirrored(sparse) == (kind in (EVEN, ODD))
        self.assert_stream_matches_oversample(sparse)

    @pytest.mark.parametrize("half", [False, True])
    def test_zero_field_oversamples_to_zeros(self, grid, half):
        f = zero_field(grid, 2, EVEN if half else NONE)
        got = one_slab(f)
        assert got.shape == (2, 32, 32, 17 if half else 32)
        assert not np.any(got)
        self.assert_stream_matches_oversample(f)

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 5), (3, 0), (5, 13), (8, 8)])
    def test_single_populated_line(self, grid, m, n):
        """One (m, n) line, Nyquist indices included."""
        rng = np.random.default_rng(m * 16 + n)
        coeffs = np.zeros((1,) + grid.spectral_shape, dtype=complex)
        coeffs[0, m, n] = rng.standard_normal(grid.nz) + 1j * rng.standard_normal(grid.nz)
        self.assert_stream_matches_oversample(SpectralField(grid, coeffs))

    def test_imaginary_part_at_m0_is_ignored(self, grid):
        """As ``irfft`` does, the x pass reads only Re of the m = 0 plane after y and z."""
        coeffs = np.zeros((1,) + grid.spectral_shape, dtype=complex)
        coeffs[0, 0, 0, 0] = 2.0 + 3.0j
        assert np.all(one_slab(SpectralField(grid, coeffs)) == 2.0)
        skewed = random_field(grid, 24, ncomp=2).coeffs.copy()
        skewed[:, 0, 3, 2] += 0.5j      # breaks the conjugate symmetry of the m = 0 plane
        self.assert_stream_matches_oversample(SpectralField(grid, skewed))

    def test_lattice_reductions_leave_coefficients_untouched(self, grid):
        f = random_field(grid, 15, ncomp=3)
        g, p, s = (random_field(grid, seed) for seed in (16, 17, 18))
        before = [x.coeffs.tobytes() for x in (f, g, p, s)]
        oversample(f)
        _lattice_norms(f, (4.0, 6.0))
        lq_norm(f, 4.0)
        linf_norm(f)
        ladyzhenskaya_ratio(g, p, s)
        assert [x.coeffs.tobytes() for x in (f, g, p, s)] == before

    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    def test_linf_is_max_of_pointwise_magnitude(self, grid, ncomp):
        f = random_field(grid, 19, ncomp=ncomp)
        vals = one_slab(f)
        expected = float(np.max(np.sqrt(np.sum(vals ** 2, axis=0))))
        assert linf_norm(f) == expected
        assert _lattice_norms(f, (4.0, 6.0))[0] == expected

    def test_refine_preserves_norm(self, grid):
        f = random_field(grid, 14, ncomp=2)
        fine = refine(f, Grid.make(32, 32, 32, H))
        assert l2_norm(fine) == pytest.approx(l2_norm(f), rel=1e-13)

    def test_spectral_accuracy_of_z_derivative(self):
        """Error drops faster than any fixed order as nz doubles."""
        errors = []
        for nz in (8, 16, 32):
            grid = Grid.make(8, 8, nz, H)
            f = field_from_function(grid, lambda X, Y, Z: np.exp(np.sin(np.pi * Z / H)))
            df = to_physical(derivative(f, "z")).values[0]
            _, _, Z = grid.mesh()
            exact = (np.pi / H) * np.cos(np.pi * Z / H) * np.exp(np.sin(np.pi * Z / H))
            errors.append(np.max(np.abs(df - exact)))
        for coarse, fine in zip(errors, errors[1:]):
            if coarse > 1e-12:
                assert coarse / max(fine, 1e-300) >= 10.0


def parity_field(grid, seed, ncomp, tag):
    """Exactly even or odd data, not dealiased, so the z Nyquist plane is populated."""
    rng = np.random.default_rng(seed)
    return symmetrize(to_spectral(PhysicalField(
        grid, rng.standard_normal((ncomp,) + grid.physical_shape))), tag)


half_plane_cases = dict(
    nx=st.integers(4, 16), ny=st.integers(4, 16), nz=st.integers(4, 16),
    ncomp=st.integers(1, 6), tag=st.sampled_from((EVEN, ODD)),
    seed=st.integers(0, 10_000))


class TestHalfPlanes:
    """Even and odd fields evaluated on the planes j = 0..nz/2."""

    @given(**half_plane_cases)
    @settings(max_examples=30, deadline=None)
    def test_inverse_matches_full_lattice(self, nx, ny, nz, ncomp, tag, seed):
        """The band inverse of a dealiased field, on the planes j = 0..nz/2."""
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        f = dealias(parity_field(grid, seed, ncomp, tag))
        expected = _inverse(f.coeffs, grid)[..., : nz + 1]
        band = _Band(grid)
        got = band.inverse(band.pack(f.coeffs), odd=tag == ODD)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @given(**half_plane_cases)
    @settings(max_examples=30, deadline=None)
    def test_forward_of_even_values_matches_full_lattice(self, nx, ny, nz, ncomp,
                                                          tag, seed):
        """Even values: an even field itself, or an odd field times an odd scalar.

        The band forward returns the band of the transform.
        """
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        values = _inverse(parity_field(grid, seed, ncomp, tag).coeffs, grid)
        if tag == ODD:
            values = values * _inverse(parity_field(grid, seed + 1, 1, ODD).coeffs, grid)
        band = _Band(grid)
        expected = band.pack(_forward(values))
        got = band.forward(values[..., : nz + 1])
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @given(**half_plane_cases)
    @settings(max_examples=20, deadline=None)
    def test_lattice_norms_match_full_lattice(self, nx, ny, nz, ncomp, tag, seed):
        """The half-plane max is the max of the stream's planes j = 0..nz'/2, bit for bit.

        ``oversample``'s whole lattice, mirrored planes included, gives the
        same max and means to round-off.
        """
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        f = dealias(parity_field(grid, seed, ncomp, tag))
        assert _mirrored(f)
        half = float(np.sqrt(np.max(np.sum(one_slab(f) ** 2, axis=0))))
        mag_sq = np.sum(oversample(f).values ** 2, axis=0)
        full = float(np.sqrt(np.max(mag_sq)))
        linf, lq = _lattice_norms(f, (4.0, 6.0))
        assert linf_norm(f) == half
        assert linf == half
        assert abs(half - full) <= 1e-15 * full
        for q, got in ((3.0, lq_norm(f, 3.0)), (4.0, lq[4.0]), (6.0, lq[6.0]),
                       (5.0, lq_norm(f, 5.0))):
            expected = (grid.volume * np.mean(mag_sq ** (q / 2))) ** (1 / q)
            assert abs(got - expected) <= 1e-14 * expected

    def test_populated_z_nyquist_keeps_the_full_lattice(self, grid):
        """Padding puts the coarse z Nyquist on one side, so that lattice does not mirror."""
        f = parity_field(grid, 22, 2, EVEN)
        assert np.max(np.abs(f.coeffs[..., grid.nz // 2])) > 0
        assert not _mirrored(f)
        mag_sq = np.sum(one_slab(f) ** 2, axis=0)
        assert mag_sq.shape == (32, 32, 32)
        assert linf_norm(f) == float(np.sqrt(np.max(mag_sq)))
        expected = (grid.volume * np.mean(mag_sq ** 2)) ** 0.25
        assert abs(lq_norm(f, 4.0) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("tag", [EVEN, ODD])
    def test_public_transforms_keep_the_full_lattice(self, grid, tag):
        f = random_field(grid, 20, ncomp=2, symmetry=tag)
        assert to_physical(f).values.shape == (2,) + grid.physical_shape
        assert oversample(f).values.shape == (2, 32, 32, 32)


_LOG_MAX = float(np.log(np.finfo(float).max))


def whole_lattice_norms(f, qs):
    """Reference for ``_lattice_norms``: the whole (half-plane) lattice, reduced in full-array passes."""
    def mag_sq_of(vals):
        np.square(vals, out=vals)
        mag_sq = vals[0]
        for comp in vals[1:]:
            mag_sq += comp
        return mag_sq

    def lattice_mean(a, half):
        if not half:
            return np.mean(a)
        ends = np.sum(a[..., 0]) + np.sum(a[..., -1])
        return (np.sum(a) - 0.5 * ends) / (a.size - a[..., 0].size)

    half = _mirrored(f)
    with np.errstate(over="ignore"):
        mag_sq = mag_sq_of(one_slab(f))
    peak = float(np.max(mag_sq))
    unit = 1.0
    if peak > 1.0 and (max(qs, default=2.0) / 2.0 * np.log(peak)
                       + np.log(mag_sq.size) >= _LOG_MAX):
        vals = one_slab(f)
        unit = float(max(np.max(vals), -np.min(vals)))
        vals /= unit
        mag_sq = mag_sq_of(vals)
        peak = float(np.max(mag_sq))
    qs = [float(q) for q in qs]
    moments = {}
    if 6.0 in qs:
        power = mag_sq * mag_sq
        moments[4.0] = lattice_mean(power, half)
        power *= mag_sq
        moments[6.0] = lattice_mean(power, half)
    for q in qs:
        if q not in moments:
            moments[q] = lattice_mean(mag_sq ** (q / 2.0), half)
    lq = {q: unit * float((f.grid.volume * moments[q]) ** (1.0 / q)) for q in qs}
    return unit * float(np.sqrt(peak)), lq


@pytest.fixture(scope="module")
def grid64():
    return Grid.make(64, 64, 128, H)


class TestStreamedNorms:
    """The record streams the oversampled lattice in y-row slabs and never holds it whole."""

    QS = (3.0, 4.0, 5.0, 6.0)

    @staticmethod
    def assert_matches_whole_lattice(f, qs):
        linf, lq = _lattice_norms(f, qs)
        ref_linf, ref_lq = whole_lattice_norms(f, qs)
        assert abs(linf - ref_linf) <= 1e-13 * ref_linf
        for q in qs:
            assert abs(lq[q] - ref_lq[q]) <= 1e-13 * ref_lq[q]

    @pytest.mark.parametrize("amplitude", [1.0, 1e154])
    def test_multi_slab_matches_the_whole_lattice(self, grid64, amplitude):
        """A 2-component even field at 64x64x128 comes in 3 slabs; at 1e154 it is streamed again scaled."""
        f = random_field(grid64, 31, ncomp=2, symmetry=EVEN) * amplitude
        assert _mirrored(f)
        assert sum(1 for _ in _oversampled_slabs(f, _SLAB_BYTES)) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self.assert_matches_whole_lattice(f, self.QS)

    @pytest.mark.parametrize("kind", ["odd", "untagged", "nyquist"])
    def test_single_slab_matches_the_whole_lattice(self, grid, kind):
        if kind == "nyquist":
            f = parity_field(grid, 32, 2, EVEN)
            assert not _mirrored(f)
        else:
            f = random_field(grid, 33, ncomp=2, symmetry=ODD if kind == "odd" else NONE)
        assert sum(1 for _ in _oversampled_slabs(f, _SLAB_BYTES)) == 1
        self.assert_matches_whole_lattice(f, self.QS)
        for q in self.QS:
            self.assert_matches_whole_lattice(f, (q,))

    @pytest.mark.parametrize("half", [False, True])
    def test_slabs_tile_the_whole_lattice(self, grid, half):
        """Slabs of the same row count but the last, at the rows their k0 names."""
        f = random_field(grid, 34, ncomp=2, symmetry=EVEN if half else NONE)
        assert _mirrored(f) == half
        whole = np.moveaxis(one_slab(f), 1, 3)
        counts = []
        for k0, values in _oversampled_slabs(f, -(-whole.nbytes // 3)):
            counts.append(values.shape[1])
            expected = whole[:, k0:k0 + values.shape[1]]
            assert np.max(np.abs(values - expected)) <= 1e-13 * np.max(np.abs(whole))
        assert counts == [11, 11, 10]

    def test_norms_never_hold_the_whole_lattice(self, grid64):
        f = random_field(grid64, 35, ncomp=2, symmetry=EVEN)
        assert _mirrored(f)
        lattice_bytes = 2 * 128 * 128 * 129 * 8
        tracemalloc.start()
        try:
            norms(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lattice_bytes


def column_of(f):
    """``f`` with every line but the mean line m = n = 0 zeroed: a column."""
    coeffs = np.zeros_like(f.coeffs)
    coeffs[:, 0, 0] = f.coeffs[:, 0, 0]
    return f.with_coeffs(coeffs)


def column_case(kind):
    """Column fields whose record reduces one z line."""
    if kind in ("cusp", "step"):
        g = Grid.make(16, 16, 32, H)
        parts = make_cusp_step_data(g, InitialDataSpec(
            kind="cusp_step", a=(1.1, 0.3), delta=0.7, eta=0.27, sigma=(0.2, -0.05)))
        return parts[kind == "step"]
    g = Grid.make(16, 16, 16, H)
    if kind == "zero":
        return zero_field(g, 2)
    if kind == "nyquist":
        f = column_of(oversampling_input(g, "raw", 41, 2))
        assert f.symmetry == NONE and np.all(f.coeffs[:, 0, 0, g.nz // 2] != 0)
        return f
    f = column_of(random_field(g, 42, ncomp=2, symmetry=ODD if kind == "odd" else EVEN))
    return f * 1e154 if kind == "huge" else f


class TestColumnRecord:
    """A column (z-only) field's record reduces its one z line, not the lattice."""

    QS = (3.0, 4.0, 5.0, 6.0)

    @pytest.mark.parametrize("kind", ["cusp", "step", "odd", "nyquist", "zero", "huge"])
    def test_column_matches_the_whole_lattice(self, kind):
        f = column_case(kind)
        populated = _populated(f)
        assert _is_column(populated)
        assert _mirrored(f) == (kind not in ("nyquist", "zero"))
        line, = _record_slabs(f, populated)
        whole = np.moveaxis(one_slab(f), 1, 3)
        assert line.shape == (2, 1, whole.shape[2], 1)
        assert np.array_equal(whole, np.broadcast_to(line, whole.shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            linf, lq = _lattice_norms(f, self.QS)
            singles = {q: lq_norm(f, q) for q in self.QS}
            rec_linf, rec_lq = _lattice_norms(f, (4.0, 6.0))
            assert linf_norm(f) == float(np.sqrt(np.max(np.sum(whole ** 2, axis=0))))
        # at 1e154 every q takes the rescale branch, as the whole lattice does
        ref_linf, ref_lq = whole_lattice_norms(f, self.QS)
        assert linf == ref_linf
        assert rec_linf == whole_lattice_norms(f, (4.0, 6.0))[0]
        for got in (lq, singles, rec_lq):
            for q, value in got.items():
                assert abs(value - ref_lq[q]) <= 1e-15 * ref_lq[q], q

    def test_only_columns_skip_the_stream(self, monkeypatch):
        f = column_case("cusp")

        def refuse(*args, **kwargs):
            raise AssertionError("streamed the lattice")

        monkeypatch.setattr(spectral, "_oversampled_slabs", refuse)
        for column in (f, f * 1e154):     # at 1e154 the rescale passes run too
            norms(column)
            linf_norm(column)
            lq_norm(column, 3.0)
        for index in [(1, 0, 2, 1), (0, 1, 0, 0)]:
            coeffs = f.coeffs.copy()
            coeffs[index] = 1e-300
            off_line = f.with_coeffs(coeffs)
            for fn in (norms, linf_norm, lambda g: lq_norm(g, 3.0)):
                with pytest.raises(AssertionError, match="streamed"):
                    fn(off_line)


band_cases = dict(
    nx=st.integers(4, 16), ny=st.integers(4, 16), nz=st.integers(4, 16),
    ncomp=st.integers(1, 6), seed=st.integers(0, 10_000))


class TestBand:
    """The dealiased band of an even state and its pruned transforms."""

    @pytest.mark.parametrize("shape", [(8, 8, 8), (10, 14, 20), (16, 16, 16),
                                       (18, 12, 22), (32, 32, 64)])
    def test_band_is_the_support_of_the_dealias_mask(self, shape):
        grid = Grid.make(*shape, H)
        band = _Band(grid)
        ones = np.ones((1, band.nm, len(band.rows), band.nl), dtype=complex)
        assert np.array_equal(band.unpack(ones)[0] != 0, grid.dealias_mask)
        assert np.all(band.pack(grid.dealias_mask))
        assert band.pack(grid.k2).shape == ones.shape[1:]

    @given(**band_cases)
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_round_trip(self, nx, ny, nz, ncomp, seed):
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        f = dealias(parity_field(grid, seed, ncomp, EVEN))
        band = _Band(grid)
        assert np.array_equal(band.unpack(band.pack(f.coeffs)), f.coeffs)

    @given(nx=st.integers(4, 16), ny=st.integers(4, 16), nz=st.integers(4, 16),
           ncomp=st.integers(1, 3), seed=st.integers(0, 10_000))
    @example(nx=5, ny=7, nz=10, ncomp=2, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_gradient_passes_match_one_inverse_each(self, nx, ny, nz, ncomp, seed):
        """U, dx U, dy U and dz U from the shared passes, against one band
        inverse of each packed derivative, on x-y dependent data."""
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        f = dealias(parity_field(grid, seed, ncomp, EVEN))
        band = _Band(grid)
        u = band.pack(f.coeffs)
        assert np.any(u[:, 1:]) and np.any(u[:, :, 1:])
        expected = [band.inverse(u), band.inverse(1j * band.kx * u),
                    band.inverse(1j * band.ky * u), band.inverse(1j * band.kz * u, odd=True)]
        got = list(band.gradient(u, values=True))
        assert len(got) == 4
        for name, value, ref in zip(("U", "dx U", "dy U", "dz U"), got, expected):
            assert value.shape == ref.shape, name
            assert np.max(np.abs(value - ref)) <= 1e-13 * np.max(np.abs(ref)), name
        without = list(band.gradient(u))
        assert len(without) == 3
        assert all(np.array_equal(a, b) for a, b in zip(without, got[1:]))


@pytest.mark.parametrize("nz", range(8, 65, 2))
def test_parity_flip_slices_equal_the_index_gather(nz):
    grid = Grid.make(8, 8, nz, H)
    c = random_field(grid, nz, ncomp=2).coeffs
    assert parity_flip(c).tobytes() == c[..., (-np.arange(nz)) % nz].tobytes()


class TestHugeFields:
    """|f|^2 or its powers overflow here; the lattice norms scale by the max instead."""

    def test_norms_of_a_huge_constant(self, grid):
        c = 1e154
        f = field_from_function(grid, lambda X, Y, Z: c + 0 * X)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            linf, lq = _lattice_norms(f, (4.0, 6.0))
            l3 = lq_norm(f, 3.0)
        vol = grid.volume
        assert lq[4.0] == pytest.approx(c * vol ** 0.25, rel=1e-12)
        assert lq[6.0] == pytest.approx(c * vol ** (1 / 6), rel=1e-12)
        assert l3 == pytest.approx(c * vol ** (1 / 3), rel=1e-12)
        assert linf == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("amplitude", [1e60, 1e154])
    @pytest.mark.parametrize("tag", [NONE, EVEN])
    def test_lattice_norms_stay_finite(self, grid, amplitude, tag):
        f = random_field(grid, 21, ncomp=2, symmetry=tag)
        big = f * amplitude
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = [lq_norm(big, q) for q in (3.0, 4.0, 6.0)] + [linf_norm(big)]
        expected = [lq_norm(f, q) for q in (3.0, 4.0, 6.0)] + [linf_norm(f)]
        for value, unit in zip(got, expected):
            assert value == pytest.approx(amplitude * unit, rel=1e-12)

    @pytest.mark.parametrize("tag", [NONE, EVEN])
    def test_parseval_norms_do_not_overflow(self, grid, tag):
        """Squares of 1e154 overflow; in range results stay finite, the rest is inf."""
        f = random_field(grid, 21, ncomp=2, symmetry=tag)
        big = f * 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = [fn(big) for fn in (l2_norm_sq, grad_norm_sq, grad_h_norm_sq)]
            l2 = norms(big).l2 if tag == EVEN else l2_norm(big)
        unit = [fn(f) for fn in (l2_norm_sq, grad_norm_sq, grad_h_norm_sq)]
        for value, small in zip(got, unit):
            assert value == pytest.approx(small * 1e154 * 1e154, rel=1e-12)
        assert np.isfinite(got[0])
        assert l2 == pytest.approx(1e154 * l2_norm(f), rel=1e-12)

    def test_norms_root_a_gradient_sum_that_overflows(self, grid):
        """At 1e160 the squared gradient norm leaves the float range; its root does not."""
        f = random_field(grid, 21, ncomp=2, symmetry=EVEN)
        big = f * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = norms(big)
            assert grad_norm_sq(big) == np.inf
        assert rec.grad_l2 == pytest.approx(1e160 * np.sqrt(grad_norm_sq(f)), rel=1e-12)
        assert np.isfinite([rec.l2, rec.l4, rec.l6, rec.linf]).all()

    def test_parseval_rescales_when_only_the_sum_overflows(self):
        """The weighted sum overflows, the volume-scaled norm does not."""
        g = Grid.make(16, 16, 16, 0.25)
        f = random_field(g, 23, ncomp=2)
        amplitude = np.sqrt(np.finfo(float).max) * np.sqrt(1.2 * g.volume / l2_norm_sq(f))
        constant = field_from_function(g, lambda X, Y, Z: 1e155 + 0 * X)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = l2_norm_sq(f * amplitude)
            flat = (grad_norm_sq(constant), grad_h_norm_sq(constant))
        assert np.isfinite(got)
        assert got == pytest.approx(amplitude * l2_norm_sq(f) * amplitude, rel=1e-12)
        assert flat == (0.0, 0.0)
