"""Tests for vertical integrals, vertical velocity, projection and pressure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hydrostat.errors import ConfigurationError, ConstraintViolationError
from hydrostat.hydrostatics import (Pressure2D, barotropic_residual,
                                    boundary_trace_norm, poisson_h_solve,
                                    project_barotropic, recover_w,
                                    solve_pressure, vertical_integral)
from hydrostat.spectral import (EVEN, ODD, Grid, PhysicalField, SpectralField,
                                dealias, derivative, div_h,
                                field_from_function, l2_norm, symmetrize,
                                to_physical, to_spectral)

H = 0.5


@pytest.fixture(scope="module")
def grid():
    return Grid.make(16, 16, 32, H)


def constrained_random(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((2,) + grid.physical_shape)
    f = symmetrize(dealias(to_spectral(PhysicalField(grid, vals))), EVEN)
    return project_barotropic(f)


class TestVerticalIntegral:
    def test_cosine_antiderivative(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: np.cos(np.pi * Z / H),
                                symmetry=EVEN)
        F = vertical_integral(f)
        _, _, Z = grid.mesh()
        np.testing.assert_allclose(to_physical(F).values[0],
                                   (H / np.pi) * np.sin(np.pi * Z / H), atol=1e-13)
        assert F.symmetry == "odd"

    def test_zero_integrand(self, grid):
        f = SpectralField(grid, np.zeros((1,) + grid.spectral_shape, dtype=complex),
                          EVEN)
        assert np.all(vertical_integral(f).coeffs == 0.0)

    def test_constant_integrand_violates_periodicity(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: 1.0 + 0 * X, symmetry=EVEN)
        with pytest.raises(ConstraintViolationError) as err:
            vertical_integral(f)
        assert err.value.residual > 0

    def test_odd_input_rejected(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: np.sin(np.pi * Z / H),
                                symmetry="odd")
        with pytest.raises(ConfigurationError):
            vertical_integral(f)


class TestRecoverW:
    def test_divergence_free_shear_gives_zero_w(self, grid):
        v = field_from_function(
            grid,
            lambda X, Y, Z: (0 * X, 2.0 * np.cos(2 * np.pi * X) * np.cos(np.pi * Z / H)),
            symmetry=EVEN)
        w = recover_w(v)
        assert np.max(np.abs(w.coeffs)) < 1e-14

    def test_symbolic_pipeline(self, grid):
        A = 0.8
        v = field_from_function(
            grid,
            lambda X, Y, Z: (A * np.sin(2 * np.pi * X) * np.cos(np.pi * Z / H), 0 * X),
            symmetry=EVEN)
        w = recover_w(v)
        X, _, Z = grid.mesh()
        exact = -2 * np.pi * A * np.cos(2 * np.pi * X) * (H / np.pi) * np.sin(np.pi * Z / H)
        np.testing.assert_allclose(to_physical(w).values[0], exact, atol=1e-12)

    def test_constraint_violation_detected(self, grid):
        v = field_from_function(grid, lambda X, Y, Z: (np.sin(2 * np.pi * X), 0 * X),
                                symmetry=EVEN)
        # pure-gradient z-mean: barotropic residual is order one
        with pytest.raises(ConstraintViolationError):
            recover_w(v)

    def test_divergence_identity_and_walls(self, grid):
        v = constrained_random(grid, 21)
        w = recover_w(v)
        residual = l2_norm(derivative(w, "z") + div_h(v))
        assert residual <= 1e-12 * max(l2_norm(div_h(v)), 1.0)
        assert boundary_trace_norm(w) <= 1e-10
        assert w.symmetry == "odd"

    @given(n=st.integers(4, 12), nz=st.integers(4, 16), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_wall_fixed_antiderivative_bytes(self, n, nz, seed):
        """Reference: the l = 0 plane fixed from F(-h) = 0 before the odd projection.

        The projection zeroes that plane again, so leaving it out changes
        no byte, sign bits included.
        """
        g = Grid.make(2 * n, 2 * n, 2 * nz, H)
        v = constrained_random(g, seed)
        s = div_h(v)
        inv = np.where(g.kz_d != 0, 1.0 / np.where(g.kz_d != 0, g.kz_d, 1.0), 0.0)
        anti = s.coeffs * (-1j) * inv
        anti[..., 0] = -np.sum(anti, axis=-1)
        expected = -symmetrize(SpectralField(g, anti, ODD), ODD).coeffs
        assert recover_w(v).coeffs.tobytes() == expected.tobytes()

    def test_w_odd_coefficientwise(self, grid):
        v = constrained_random(grid, 22)
        w = recover_w(v)
        flipped = symmetrize(w, "odd")
        np.testing.assert_allclose(w.coeffs, flipped.coeffs, atol=1e-15)


class TestProjection:
    def test_idempotent_and_stable(self, grid):
        v = constrained_random(grid, 31)
        again = project_barotropic(v)
        assert np.max(np.abs(again.coeffs - v.coeffs)) <= 1e-14

    def test_pure_gradient_mean_is_removed(self, grid):
        v = field_from_function(grid, lambda X, Y, Z: (np.sin(2 * np.pi * X), 0 * X),
                                symmetry=EVEN)
        proj = project_barotropic(v)
        assert np.max(np.abs(proj.coeffs)) < 1e-14

    def test_divergence_free_mean_untouched(self, grid):
        v = field_from_function(grid, lambda X, Y, Z: (0 * X, np.cos(2 * np.pi * X)),
                                symmetry=EVEN)
        proj = project_barotropic(v)
        np.testing.assert_allclose(proj.coeffs, v.coeffs, atol=1e-15)

    def test_never_increases_l2(self, grid):
        rng = np.random.default_rng(41)
        vals = rng.standard_normal((2,) + grid.physical_shape)
        v = symmetrize(dealias(to_spectral(PhysicalField(grid, vals))), EVEN)
        assert l2_norm(project_barotropic(v)) <= l2_norm(v) * (1 + 1e-14)

    def test_residual_after_projection(self, grid):
        v = constrained_random(grid, 42)
        assert barotropic_residual(v) <= 1e-13


class TestPressure:
    def test_zero_velocity_zero_pressure(self, grid):
        v = SpectralField(grid, np.zeros((2,) + grid.spectral_shape, dtype=complex),
                          EVEN)
        split = solve_pressure(v, f0=0.7)
        assert np.all(split.total.coeffs == 0.0)

    def test_manufactured_inversion(self, grid):
        """-Lap_H p = 4 pi^2 cos(2 pi x) must return p = cos(2 pi x)."""
        rhs = np.zeros(grid.spectral_shape[:2], dtype=complex)
        rhs[1, 0] = 4 * np.pi ** 2 * 0.5          # cos as half-spectrum mode
        p = poisson_h_solve(grid, rhs)
        expect = np.zeros_like(rhs)
        expect[1, 0] = 0.5
        np.testing.assert_allclose(p.coeffs, expect, atol=1e-14)

    def test_shear_produces_no_pressure(self, grid):
        v = field_from_function(grid, lambda X, Y, Z: (0 * X, 1.7 * np.cos(2 * np.pi * X)),
                                symmetry=EVEN)
        split = solve_pressure(v, f0=0.0)
        assert np.max(np.abs(split.total.coeffs)) < 1e-14

    def test_split_is_exact_and_gauged(self, grid):
        v = constrained_random(grid, 51)
        split = solve_pressure(v, f0=1.3)
        np.testing.assert_array_equal(
            split.total.coeffs, split.advective.coeffs + split.coriolis.coeffs)
        assert split.total.coeffs[0, 0] == 0.0
        assert split.advective.coeffs[0, 0] == 0.0
        assert split.coriolis.coeffs[0, 0] == 0.0

    def test_gauge_enforced_on_construction(self, grid):
        bad = np.ones(grid.spectral_shape[:2], dtype=complex)
        with pytest.raises(ConfigurationError):
            Pressure2D(grid, bad)
