"""Tests for the spectral substrate: transforms, parity, operators, masks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hydrostat.errors import ConfigurationError, DataError
from hydrostat.estimates import ladyzhenskaya_ratio, norms
from hydrostat.spectral import (EVEN, NONE, ODD, Grid, PhysicalField,
                                SpectralField, _forward, _forward_half,
                                _inverse, _inverse_half, _mirrored,
                                conjugate_symmetry_residual,
                                dealias, derivative, div_h, field_from_function,
                                grad_h, l2_lattice_norm, l2_norm, l2_norm_sq,
                                laplacian, linf_norm, lq_norm, oversample,
                                pointwise_product, refine, symmetrize,
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

    def test_constant_field_occupies_mean_mode_only(self, grid):
        c = 3.25
        f = field_from_function(grid, lambda X, Y, Z: c + 0 * X)
        assert f.coeffs[0, 0, 0, 0] == pytest.approx(c)
        rest = f.coeffs.copy()
        rest[0, 0, 0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-14

    def test_non_finite_values_rejected(self, grid):
        vals = np.zeros((1,) + grid.physical_shape)
        vals[0, 0, 0, 0] = np.nan
        with pytest.raises(DataError):
            to_spectral(PhysicalField(grid, vals))

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            SpectralField(grid, np.zeros((1, 3, 3, 3), dtype=complex))
        with pytest.raises(ConfigurationError):
            PhysicalField(grid, np.zeros((1, 4, 4, 4)))

    def test_conjugate_symmetry_of_real_fields(self, grid):
        f = random_field(grid, 2, ncomp=2)
        assert conjugate_symmetry_residual(f) < 1e-13


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

    def test_laplacian_of_cosine(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: np.cos(2 * np.pi * X))
        X, _, _ = grid.mesh()
        np.testing.assert_allclose(to_physical(laplacian(f)).values[0],
                                   -4 * np.pi ** 2 * np.cos(2 * np.pi * X),
                                   atol=1e-11)

    def test_laplacian_of_constant_vanishes(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: 2.0 + 0 * X)
        assert np.max(np.abs(laplacian(f).coeffs)) < 1e-14

    def test_div_h_of_x_only_shear_vanishes(self, grid):
        v = field_from_function(
            grid, lambda X, Y, Z: (0 * X, 1.3 * np.cos(2 * np.pi * X)))
        assert np.max(np.abs(div_h(v).coeffs)) < 1e-14

    def test_div_h_arity(self, grid):
        with pytest.raises(ConfigurationError):
            div_h(random_field(grid, 5, ncomp=1))
        with pytest.raises(ConfigurationError):
            grad_h(random_field(grid, 5, ncomp=2))

    def test_grad_div_consistency(self, grid):
        f = random_field(grid, 6)
        v = grad_h(f)
        lap_h = div_h(v)
        kh2 = grid.kh2[:, :, None]
        np.testing.assert_allclose(lap_h.coeffs[0], -kh2 * f.coeffs[0], atol=1e-12)


class TestPointwiseProduct:
    def test_identity_factor(self, grid):
        f = to_physical(random_field(grid, 7))
        one = PhysicalField(grid, np.ones((1,) + grid.physical_shape))
        np.testing.assert_array_equal(pointwise_product(f, one).values, f.values)

    def test_cosine_square_identity(self, grid):
        f = to_physical(field_from_function(grid, lambda X, Y, Z: np.cos(2 * np.pi * X)))
        prod = to_spectral(pointwise_product(f, f))
        X, _, _ = grid.mesh()
        np.testing.assert_allclose(to_physical(prod).values[0],
                                   0.5 + 0.5 * np.cos(4 * np.pi * X), atol=1e-13)

    def test_zero_factor(self, grid):
        f = to_physical(random_field(grid, 8))
        zero = PhysicalField(grid, np.zeros((1,) + grid.physical_shape))
        assert np.all(pointwise_product(f, zero).values == 0.0)

    def test_broadcast_arity(self, grid):
        a = to_physical(random_field(grid, 9, ncomp=2))
        b = to_physical(random_field(grid, 10, ncomp=3))
        with pytest.raises(ConfigurationError):
            pointwise_product(a, b)


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
        lattice = l2_lattice_norm(to_physical(f))
        assert abs(spectral - lattice) <= 1e-12 * lattice

    def test_oversample_matches_on_common_lattice(self, grid):
        f = random_field(grid, 13)
        coarse = to_physical(f).values
        fine = oversample(f, 2).values
        np.testing.assert_allclose(fine[:, ::2, ::2, ::2], coarse, atol=1e-12)

    @given(nx=st.integers(4, 16), ny=st.integers(4, 16), nz=st.integers(4, 16),
           ncomp=st.sampled_from((1, 2, 3)), factor=st.sampled_from((2, 3)),
           seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_oversample_matches_padded_inverse_transform(self, nx, ny, nz, ncomp,
                                                         factor, seed):
        """Reference: the full zero-padded spectrum through one irfftn.

        The coefficients are not dealiased, so every Nyquist plane is
        populated and its placement in the padded spectrum is checked.
        """
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        rng = np.random.default_rng(seed)
        f = to_spectral(PhysicalField(grid, rng.standard_normal(
            (ncomp,) + grid.physical_shape)))
        for plane in (f.coeffs[:, -1], f.coeffs[:, :, grid.ny // 2],
                      f.coeffs[..., grid.nz // 2]):
            assert np.min(np.abs(plane).max(axis=0)) > 0
        fine = Grid.make(factor * grid.nx, factor * grid.ny, factor * grid.nz, H)
        expected = to_physical(refine(f, fine)).values
        got = oversample(f, factor)
        assert got.grid.compatible(fine)
        assert got.values.shape == expected.shape
        assert np.max(np.abs(got.values - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_lattice_reductions_leave_coefficients_untouched(self, grid):
        f = random_field(grid, 15, ncomp=3)
        g, p, s = (random_field(grid, seed) for seed in (16, 17, 18))
        before = [x.coeffs.tobytes() for x in (f, g, p, s)]
        oversample(f)
        norms(f, qs=(3.0,))
        lq_norm(f, 4.0)
        linf_norm(f)
        ladyzhenskaya_ratio(g, p, s)
        assert [x.coeffs.tobytes() for x in (f, g, p, s)] == before

    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    def test_linf_is_max_of_pointwise_magnitude(self, grid, ncomp):
        f = random_field(grid, 19, ncomp=ncomp)
        vals = oversample(f).values
        expected = float(np.max(np.sqrt(np.sum(vals ** 2, axis=0))))
        assert linf_norm(f) == expected
        assert norms(f).linf == expected

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
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        f = parity_field(grid, seed, ncomp, tag)
        expected = _inverse(f.coeffs, grid)[..., : nz + 1]
        got = _inverse_half(f.coeffs, grid)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @given(**half_plane_cases)
    @settings(max_examples=30, deadline=None)
    def test_forward_of_even_values_matches_full_lattice(self, nx, ny, nz, ncomp,
                                                          tag, seed):
        """Even values: an even field itself, or an odd field times an odd scalar."""
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        values = _inverse(parity_field(grid, seed, ncomp, tag).coeffs, grid)
        if tag == ODD:
            values = values * _inverse(parity_field(grid, seed + 1, 1, ODD).coeffs, grid)
        expected = _forward(values)
        got = _forward_half(values[..., : nz + 1], grid)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @given(**half_plane_cases)
    @settings(max_examples=20, deadline=None)
    def test_lattice_norms_match_full_lattice(self, nx, ny, nz, ncomp, tag, seed):
        """The half-plane max is the full lattice's max over the same planes, bit for bit.

        The mirrored planes of the full lattice equal their originals only
        to round-off, so its overall max may differ in the last bits.
        """
        grid = Grid.make(2 * nx, 2 * ny, 2 * nz, H)
        f = dealias(parity_field(grid, seed, ncomp, tag))
        assert _mirrored(f)
        mag_sq = np.sum(oversample(f).values ** 2, axis=0)
        half = float(np.sqrt(np.max(mag_sq[..., : 2 * nz + 1])))
        full = float(np.sqrt(np.max(mag_sq)))
        assert linf_norm(f) == half
        assert norms(f).linf == half
        assert abs(half - full) <= 1e-15 * full
        rec = norms(f, qs=(3.0,))
        for q, got in ((3.0, rec.lq[3.0]), (4.0, rec.l4), (6.0, rec.l6),
                       (5.0, lq_norm(f, 5.0))):
            expected = (grid.volume * np.mean(mag_sq ** (q / 2))) ** (1 / q)
            assert abs(got - expected) <= 1e-14 * expected

    def test_populated_z_nyquist_keeps_the_full_lattice(self, grid):
        """Padding puts the coarse z Nyquist on one side, so that lattice does not mirror."""
        f = parity_field(grid, 22, 2, EVEN)
        assert np.max(np.abs(f.coeffs[..., grid.nz // 2])) > 0
        assert not _mirrored(f)
        mag_sq = np.sum(oversample(f).values ** 2, axis=0)
        assert linf_norm(f) == float(np.sqrt(np.max(mag_sq)))
        expected = (grid.volume * np.mean(mag_sq ** 2)) ** 0.25
        assert abs(lq_norm(f, 4.0) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("tag", [EVEN, ODD])
    def test_public_transforms_keep_the_full_lattice(self, grid, tag):
        f = random_field(grid, 20, ncomp=2, symmetry=tag)
        assert to_physical(f).values.shape == (2,) + grid.physical_shape
        assert oversample(f).values.shape == (2, 32, 32, 32)


class TestHugeFields:
    """|f|^2 or its powers overflow here; the lattice norms scale by the max instead."""

    def test_norms_of_a_huge_constant(self, grid):
        c = 1e154
        f = field_from_function(grid, lambda X, Y, Z: c + 0 * X)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = norms(f, qs=(3.0,))
        vol = grid.volume
        assert rec.l4 == pytest.approx(c * vol ** 0.25, rel=1e-12)
        assert rec.l6 == pytest.approx(c * vol ** (1 / 6), rel=1e-12)
        assert rec.lq[3.0] == pytest.approx(c * vol ** (1 / 3), rel=1e-12)
        assert rec.linf == pytest.approx(c, rel=1e-12)

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
