"""Tests for mollification, the cusp+step data family, and the split runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import grad_h_norm_sq, grad_norm_sq, stepwise_energy_residuals

from hydrostat import decomposition, spectral
from hydrostat.decomposition import (_SAFE_NAMES, InitialDataSpec, _split_record,
                                     lockstep, make_cusp_step_data, mollify,
                                     prepare_initial_parts, run_decomposition)
from hydrostat.diagnostics import energy_residual_series, integrate_series
from hydrostat.errors import BlowUpError, ConfigurationError, DataError
from hydrostat.hydrostatics import barotropic_residual, solve_pressure
from hydrostat.solver import (CFLWarning, PhysicsParams, StepControl, integrate,
                              make_state, step, step_linear)
from hydrostat.spectral import (EVEN, Grid, PhysicalField, SpectralField, dealias,
                                derivative, field_from_function,
                                l2_norm, linf_norm, lq_norm, symmetrize,
                                to_physical, to_spectral, zero_field)

H = 0.5


@pytest.fixture(scope="module")
def grid():
    return Grid.make(16, 16, 32, H)


def random_even(grid, seed, ncomp=2):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((ncomp,) + grid.physical_shape)
    return symmetrize(dealias(to_spectral(PhysicalField(grid, vals))), EVEN)


class TestMollify:
    def test_zero_radius_is_identity(self, grid):
        f = random_even(grid, 0)
        assert mollify(f, 0.0) is f

    def test_constant_field_unchanged(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: 2.5 + 0 * X, symmetry=EVEN)
        g = mollify(f, 0.3)
        np.testing.assert_allclose(g.coeffs, f.coeffs, atol=1e-14)

    def test_radius_must_stay_below_period(self, grid):
        f = random_even(grid, 1)
        with pytest.raises(ConfigurationError):
            mollify(f, 1.0)          # min(1, 2h) = 1 here
        with pytest.raises(ConfigurationError):
            mollify(f, -0.1)

    @given(seed=st.integers(0, 10_000),
           eps=st.floats(0.01, 0.6))
    @settings(max_examples=20, deadline=None)
    def test_never_increases_lq_norms(self, seed, eps):
        """Young's inequality for the unit-mass kernel, q in {2, 4, 6, inf}."""
        grid = Grid.make(8, 8, 16, H)
        f = random_even(grid, seed)
        g = mollify(f, eps)
        assert l2_norm(g) <= l2_norm(f) * (1 + 1e-10)
        for q in (4.0, 6.0):
            assert lq_norm(g, q) <= lq_norm(f, q) * (1 + 1e-10)
        assert linf_norm(g) <= linf_norm(f) * (1 + 1e-10)

    def test_preserves_mean_parity_and_constraint(self, grid):
        from hydrostat.hydrostatics import project_barotropic
        f = project_barotropic(random_even(grid, 2))
        g = mollify(f, 0.2)
        assert g.symmetry == EVEN
        assert g.coeffs[0, 0, 0, 0] == pytest.approx(f.coeffs[0, 0, 0, 0].real)
        assert np.max(np.abs(symmetrize(g, EVEN).coeffs - g.coeffs)) == 0.0
        assert barotropic_residual(g) <= 1e-12

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
    def test_bump_transform_is_the_trapezoid_rule_at_each_wavenumber(self, eps):
        """Taken once per distinct |s| and gathered back, to the byte."""
        g = Grid.make(32, 32, 64, H)
        r, b = decomposition._bump_quadrature()
        for line in (g.kx[:, 0, 0], g.ky[0, :, 0], g.kz[0, 0, :]):
            s = eps * line
            rows = [np.trapezoid(np.cos(si * r) * b, r) for si in s]
            assert decomposition._bump_transform(s).tobytes() == np.array(rows).tobytes()

    def test_parts_are_the_full_multipliers_products(self, grid):
        """The block product is the full multiplier's (the bump transform of
        every wavenumber line) bit for bit, up to the sign of zeros, which
        are all +0: for a 3-D field, a column and a tuple of both."""
        eps = 0.1
        full = (decomposition._bump_transform(eps * grid.kx[:, 0, 0])[:, None, None]
                * decomposition._bump_transform(eps * grid.ky[0, :, 0])[None, :, None]
                * decomposition._bump_transform(eps * grid.kz[0, 0, :])[None, None, :])
        column, _ = make_cusp_step_data(grid, InitialDataSpec(kind="cusp_step", a=(1.0, 0.4)))
        assert spectral._is_column(column.coeffs)
        for parts in ((random_even(grid, 3),), (column,), (column, random_even(grid, 4))):
            for f, got in zip(parts, decomposition._mollify_parts(parts, eps), strict=True):
                assert (got.coeffs + 0.0).tobytes() == (f.coeffs * full + 0.0).tobytes()
                for part in (got.coeffs.real, got.coeffs.imag):
                    assert not np.any(np.signbit(part[part == 0.0]))

    def test_cusp_step_parts_share_one_multiplier(self, grid, monkeypatch):
        """Three bump transforms, one per axis, for both parts, each over the
        populated wavenumbers only (one x and one y entry for these columns);
        the bytes are those of mollifying each part on its own."""
        spec = InitialDataSpec(kind="cusp_step", a=(1.0, 0.4), delta=0.8,
                               eta=0.25, sigma=(0.2, -0.1), epsilon=0.1)
        raw = make_cusp_step_data(grid, spec)
        expected = [mollify(f, spec.epsilon).coeffs.tobytes() for f in raw]
        calls = []
        transform = decomposition._bump_transform
        monkeypatch.setattr(decomposition, "_bump_transform",
                            lambda s: calls.append(len(s)) or transform(s))
        parts = prepare_initial_parts(grid, spec)
        lines = np.any([f.coeffs for f in raw], axis=(0, 1, 2, 3))
        assert calls == [1, 1, np.count_nonzero(lines)] and calls[2] < grid.nz
        assert [f.coeffs.tobytes() for f in parts] == expected


class TestCuspStepData:
    def test_zero_step_amplitude(self, grid):
        spec = InitialDataSpec(kind="cusp_step", sigma=(0.0, 0.0))
        _, step_part = make_cusp_step_data(grid, spec)
        assert np.all(step_part.coeffs == 0.0)

    def test_full_interval_step_is_constant(self, grid):
        spec = InitialDataSpec(kind="cusp_step", eta=H, sigma=(0.7, -0.2))
        _, step_part = make_cusp_step_data(grid, spec)
        vals = to_physical(step_part).values
        np.testing.assert_allclose(vals[0], 0.7, atol=1e-12)
        np.testing.assert_allclose(vals[1], -0.2, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16, 16, 32), (32, 32, 64), (10, 14, 20),
                                       (12, 8, 26), (48, 48, 96)])
    def test_sampled_cusp_is_a_column_on_every_grid(self, shape):
        """The cusp enters through ``to_spectral``'s z-only route, as a
        z-only expression does: one column, the same bytes on every grid.
        Where the horizontal FFT of a constant is exact (powers of two),
        the bytes are those of the whole-lattice transform; elsewhere the
        line moves at round-off."""
        g = Grid.make(*shape, H)
        spec = InitialDataSpec(kind="cusp_step", a=(1.1, -0.3), delta=0.7)
        vbar, _ = make_cusp_step_data(g, spec)
        assert spectral._is_column(vbar.coeffs) and vbar.symmetry == EVEN
        profile = np.abs(g.z()) ** spec.delta
        expression = dealias(field_from_function(g, lambda X, Y, Z: (
            spec.a[0] * profile + 0 * X, spec.a[1] * profile + 0 * X), EVEN)).coeffs
        assert vbar.coeffs.tobytes() == expression.tobytes()
        lattice = np.multiply.outer(spec.a, np.broadcast_to(profile, g.physical_shape))
        whole = dealias(symmetrize(SpectralField(g, spectral._forward(lattice)), EVEN)).coeffs
        if all(n & (n - 1) == 0 for n in shape):
            assert vbar.coeffs.tobytes() == whole.tobytes()
        else:
            assert np.max(np.abs(vbar.coeffs - whole)) <= 1e-15 * np.max(np.abs(whole))

    @pytest.mark.parametrize("a, delta, h", [((1e308, -1e308), 1.0, H), ((1.0, 0.0), 1e308, 5.0),
                                             ((0.0, 1.0), 800.0, 5.0)])
    def test_cusp_that_leaves_the_float_range_is_a_data_error(self, a, delta, h):
        """Samples or their transform past the float range raise DataError,
        with no numpy warning."""
        spec = InitialDataSpec(kind="cusp_step", a=a, delta=delta, eta=0.25)
        with pytest.raises(DataError):
            make_cusp_step_data(Grid.make(8, 8, 8, h), spec)

    def test_cusp_coefficients_match_direct_sum(self, grid):
        """FFT pipeline against a brute-force quadrature over the lattice.

        The lattice origin sits at z = -h, so the z-centered cosine
        quadrature carries the shift phase (-1)^l.
        """
        spec = InitialDataSpec(kind="cusp_step", a=(1.0, 0.0), delta=1.0)
        vbar, _ = make_cusp_step_data(grid, spec)
        z = grid.z()
        profile = np.abs(z)
        for l in range(0, grid.nz // 3 + 1):
            direct = (-1.0) ** l * np.mean(profile * np.exp(-1j * np.pi * l * z / H))
            assert abs(vbar.coeffs[0, 0, 0, l] - direct) <= 1e-10

    def test_step_coefficients_match_quadrature(self, grid):
        """Exact indicator coefficients against composite Simpson integration."""
        eta, sigma = 0.22, 0.9
        spec = InitialDataSpec(kind="cusp_step", eta=eta, sigma=(sigma, 0.0))
        _, step_part = make_cusp_step_data(grid, spec)
        zq = np.linspace(-eta, eta, 20001)
        hq = zq[1] - zq[0]
        for l in range(0, grid.nz // 3 + 1):
            integrand = np.cos(np.pi * l * zq / H)
            simpson = hq / 3 * (integrand[0] + integrand[-1]
                                + 4 * integrand[1:-1:2].sum()
                                + 2 * integrand[2:-1:2].sum())
            expect = (-1.0) ** l * sigma * simpson / (2 * H)
            assert abs(step_part.coeffs[0, 0, 0, l] - expect) <= 1e-10

    def test_step_sits_at_the_midplane(self, grid):
        """The reconstructed indicator concentrates on |z| < eta, not the walls."""
        eta = 0.15
        spec = InitialDataSpec(kind="cusp_step", eta=eta, sigma=(1.0, 0.0))
        _, step_part = make_cusp_step_data(grid, spec)
        vals = to_physical(step_part).values[0, 0, 0]
        z = grid.z()
        inside = np.abs(z) < eta / 2
        outside = np.abs(np.abs(z) - H) < eta / 2
        assert vals[inside].mean() > 0.8
        assert abs(vals[outside].mean()) < 0.2

    def test_spec_invariants(self, grid):
        with pytest.raises(ConfigurationError):
            InitialDataSpec(kind="cusp_step", delta=0.0).validate(H)
        with pytest.raises(ConfigurationError):
            InitialDataSpec(kind="cusp_step", eta=2 * H).validate(H)
        with pytest.raises(ConfigurationError):
            InitialDataSpec(kind="cusp_step", epsilon=1.5).validate(H)
        with pytest.raises(ConfigurationError):
            InitialDataSpec(kind="unheard-of").validate(H)

    def test_parts_live_in_constraint_space(self, grid):
        spec = InitialDataSpec(kind="cusp_step", a=(1.0, -0.5), sigma=(0.2, 0.3),
                               epsilon=0.1)
        vbar, step_part = prepare_initial_parts(grid, spec)
        assert barotropic_residual(vbar) == 0.0
        assert barotropic_residual(step_part) == 0.0
        assert vbar.symmetry == EVEN and step_part.symmetry == EVEN


class TestLinearSystem:
    def test_zero_part_stays_zero(self, grid):
        params = PhysicsParams(f0=1.0)
        ctl = StepControl(dt=1e-3)
        driver = make_state(random_even(grid, 3) * 0.3, 0.0, params)
        part = make_state(zero_field(grid, 2, EVEN), 0.0, params)
        for _ in range(5):
            driver, stages = step(driver, ctl, record_stages=True)
            part = step_linear(part, stages, ctl)
        assert np.all(part.v.coeffs == 0.0)

    def test_full_solution_solves_own_linearization(self, grid):
        """Driving the initial data by its own trajectory reproduces it.

        Horizontally structured data keeps the advection, the vertical
        transport and the pressure all nonzero, so the agreement is not
        vacuous.
        """
        params = PhysicsParams(f0=1.0)
        ctl = StepControl(dt=1e-3)
        v0 = field_from_function(
            grid,
            lambda X, Y, Z: (0.5 * np.sin(2 * np.pi * X) * np.cos(np.pi * Z / H),
                             0.4 * np.cos(2 * np.pi * X) + 0.2 * np.cos(2 * np.pi * Y)),
            symmetry=EVEN)
        full = make_state(v0, 0.0, params)
        part = make_state(v0, 0.0, params)
        for _ in range(100):
            full_new, stages = step(full, ctl, record_stages=True)
            part = step_linear(part, stages, ctl)
            full = full_new
        assert l2_norm(full.v) > 1e-3         # viscous decay, but signal remains
        assert l2_norm(part.v - full.v) <= 1e-9 * l2_norm(full.v)

    def test_superposition(self, grid):
        params = PhysicsParams(f0=0.7)
        ctl = StepControl(dt=1e-3)
        driver = make_state(random_even(grid, 4) * 0.2, 0.0, params)
        p1 = make_state(random_even(grid, 5) * 0.1, 0.0, params)
        p2 = make_state(random_even(grid, 6) * 0.1, 0.0, params)
        alpha, beta = 1.7, -0.4
        combo = make_state(alpha * p1.v + beta * p2.v, 0.0, params)
        for _ in range(10):
            driver, stages = step(driver, ctl, record_stages=True)
            p1 = step_linear(p1, stages, ctl)
            p2 = step_linear(p2, stages, ctl)
            combo = step_linear(combo, stages, ctl)
        recombined = alpha * p1.v.coeffs + beta * p2.v.coeffs
        assert np.max(np.abs(combo.v.coeffs - recombined)) <= 1e-13


class TestRunDecomposition:
    def test_zero_step_part_collapses(self, grid):
        spec = InitialDataSpec(kind="cusp_step", sigma=(0.0, 0.0), epsilon=0.1)
        vbar0, step0 = prepare_initial_parts(grid, spec)
        final, series = run_decomposition(vbar0, step0, PhysicsParams(1.0),
                                          StepControl(dt=1e-3), 0.01)
        assert np.all(final.V.v.coeffs == 0.0)
        assert np.max(series.array("linf_V")) == 0.0
        assert l2_norm(final.vbar.v - final.driver.v) == 0.0

    def test_zero_cusp_part_collapses(self, grid):
        spec = InitialDataSpec(kind="cusp_step", a=(0.0, 0.0), epsilon=0.1)
        vbar0, step0 = prepare_initial_parts(grid, spec)
        final, _ = run_decomposition(vbar0, step0, PhysicsParams(1.0),
                                     StepControl(dt=1e-3), 0.01)
        assert np.all(final.vbar.v.coeffs == 0.0)
        assert l2_norm(final.V.v - final.driver.v) == 0.0

    def test_reconstruction_identity(self, grid):
        spec = InitialDataSpec(kind="cusp_step", a=(1.0, 0.3), sigma=(0.2, -0.1),
                               epsilon=0.1)
        vbar0, step0 = prepare_initial_parts(grid, spec)
        _, series = run_decomposition(vbar0, step0, PhysicsParams(1.0),
                                      StepControl(dt=1e-3), 0.02)
        assert np.nanmax(series.array("recon_residual")) <= 1e-8

    def test_rows_scan_no_full_storage(self, grid, monkeypatch):
        """A cusp split run takes each row's line masks from the packed bands
        (``_Band.populated``): no ``spectral._populated`` scan."""
        calls = []
        populated = spectral._populated
        monkeypatch.setattr(spectral, "_populated", lambda f: calls.append(1) or populated(f))
        vbar0, step0 = prepare_initial_parts(grid, InitialDataSpec(kind="cusp_step"))
        _, series = run_decomposition(vbar0, step0, PhysicsParams(1.0),
                                      StepControl(dt=1e-3), 5e-3)
        assert len(series.array("t")) == 6 and calls == []

    def test_split_sums_match_the_full_spectrum(self, grid):
        """The record's band sums, against the full-spectrum formulas on
        x-y dependent data."""
        vbar0 = field_from_function(
            grid,
            lambda X, Y, Z: (0.4 * np.sin(2 * np.pi * X) * np.cos(np.pi * Z / H)
                             + 0.3 * np.abs(Z) * np.cos(2 * np.pi * Y),
                             0.5 * np.cos(2 * np.pi * (X + Y)) * np.cos(2 * np.pi * Z / H)),
            symmetry=EVEN)
        V0 = random_even(grid, 8) * 0.1
        for _, split in lockstep(dealias(vbar0), V0, PhysicsParams(1.0),
                                 StepControl(dt=1e-3), 3e-3):
            v, vbar = split.driver.v, split.vbar.v
            dz = derivative(vbar, "z")
            expected = dict(l2=l2_norm(v), grad_l2=np.sqrt(grad_norm_sq(v)),
                            dz_vbar_l2=l2_norm(dz), grad_dz_vbar_sq=grad_norm_sq(dz),
                            grad_h_dz_vbar_sq=grad_h_norm_sq(dz),
                            grad_vbar_l2=np.sqrt(grad_norm_sq(vbar)),
                            recon_residual=l2_norm(v - (vbar + split.V.v)) / l2_norm(v))
            got = _split_record(split)
            for name, ref in expected.items():
                assert abs(got[name] - ref) <= 1e-13 * abs(ref), name
            assert expected["grad_h_dz_vbar_sq"] > 0 and expected["recon_residual"] > 0

    @pytest.mark.parametrize("f0", [0.0, 1.0, 50.0])
    def test_column_run_is_the_closed_form(self, grid, f0):
        """On cusp + step data every part is heat flow and RK3 rotation: with
        Z = U^1 + i U^2, Z_l(t) = exp(-kz_l^2 t) R(-i f0 dt)^n Z_l(0), where
        R(z) = 1 + z + z^2/2 + z^3/6.  The final coefficients and every series
        column against it; l4, l6 and linf_V on an np.fft line twice as fine."""
        vbar0, step0 = prepare_initial_parts(grid, InitialDataSpec(a=(1.0, -0.4), sigma=(0.2, 0.3)))
        parts, dt, kz, vol = (vbar0 + step0, vbar0, step0), 2.0 ** -10, grid.kz[0, 0], grid.volume
        final, ser = run_decomposition(vbar0, step0, PhysicsParams(f0), StepControl(dt=dt), 6 * dt)
        r = 1 - 1j * f0 * dt + (-1j * f0 * dt) ** 2 / 2 + (-1j * f0 * dt) ** 3 / 6

        def line(part, n):                 # the part's coefficient line after n steps
            u, p = make_state(part, 0.0, PhysicsParams(f0)).v.coeffs[:, 0, 0], r ** n
            return np.exp(-kz ** 2 * n * dt) * np.array([p.real * u[0] - p.imag * u[1],
                                                        p.imag * u[0] + p.real * u[1]])

        def mag_sq(c):                     # |U|^2 on the fine z line
            fine = np.zeros((2, 2 * grid.nz), dtype=complex)
            fine[:, : grid.nz // 2], fine[:, -grid.nz // 2:] = c[:, : grid.nz // 2], c[:, grid.nz // 2:]
            return np.sum(np.fft.ifft(fine, norm="forward").real ** 2, axis=0)

        for state, part in zip((final.driver, final.vbar, final.V), parts):
            ref = line(part, 6)
            assert np.max(np.abs(state.v.coeffs[:, 0, 0] - ref)) <= 1e-14 * np.max(np.abs(ref))
        cols = {name: [] for name in ("l2", "grad_l2", "l4", "l6", "linf_V", "dz_vbar_l2",
                                      "grad_dz_vbar_sq", "grad_vbar_l2", "grad_h_dz_vbar_sq")}
        for n in range(7):
            v, vbar, V = (line(part, n) for part in parts)
            s = [vol * np.sum(kz ** (2 * j) * np.abs(c) ** 2) for c in (v, vbar) for j in range(3)]
            for name, x in zip(cols, (np.sqrt(s[0]), np.sqrt(s[1]), (vol * np.mean(mag_sq(v) ** 2)) ** 0.25,
                                      (vol * np.mean(mag_sq(v) ** 3)) ** (1 / 6), np.sqrt(np.max(mag_sq(V))),
                                      np.sqrt(s[4]), s[5], np.sqrt(s[4]), 0.0)):
                cols[name].append(x)
        t = ser.array("t")
        cols["energy_residual"] = energy_residual_series(t, cols["l2"], cols["grad_l2"])
        cols["dz_vbar_dissipation"] = integrate_series(t, cols["grad_dz_vbar_sq"])
        assert np.array_equal(t, dt * np.arange(7)) and np.all(ser.array("recon_residual") <= 1e-15)
        for name, ref in cols.items():          # the residual cancels against E(0)
            scale = cols["l2"][0] ** 2 if name == "energy_residual" else max(ref)
            assert np.allclose(ser.array(name), ref, rtol=1e-13, atol=1e-13 * scale), name

    def test_linear_part_energy_law(self, grid):
        """The small part dissipates like a free heat flow: transport,
        its own pressure and rotation do no work.  Low-mode parts keep
        every retained mode in the asymptotic k^2 dt << 1 regime.
        """
        vbar0 = field_from_function(
            grid,
            lambda X, Y, Z: (0.4 * np.sin(2 * np.pi * X) * np.cos(np.pi * Z / H),
                             0.5 * np.cos(2 * np.pi * X)),
            symmetry=EVEN)
        step0 = field_from_function(
            grid,
            lambda X, Y, Z: (0.2 * np.cos(2 * np.pi * Y) * np.cos(np.pi * Z / H),
                             0.1 * np.cos(2 * np.pi * X)),
            symmetry=EVEN)
        residuals = {}
        for dt in (2e-3, 1e-3):
            parts = [split.V for _, split in lockstep(
                vbar0, step0, PhysicsParams(1.0), StepControl(dt=dt), 0.04)]
            res = stepwise_energy_residuals([V.t for V in parts],
                                            [l2_norm(V.v) for V in parts],
                                            [np.sqrt(grad_norm_sq(V.v)) for V in parts])
            residuals[dt] = np.max(np.abs(res))
        assert residuals[2e-3] / residuals[1e-3] >= 6.0

    def test_x_part_regularity_recorded(self, grid):
        spec = InitialDataSpec(kind="cusp_step", epsilon=0.1)
        vbar0, step0 = prepare_initial_parts(grid, spec)
        _, series = run_decomposition(vbar0, step0, PhysicsParams(1.0),
                                      StepControl(dt=1e-3), 0.01)
        dz = series.array("dz_vbar_l2")
        dissip = series.array("dz_vbar_dissipation")
        assert np.all(np.isfinite(dz)) and np.all(dz >= 0)
        assert np.all(np.isfinite(dissip)) and dissip[-1] > 0

    def test_mollification_trajectories_get_closer(self, grid):
        """Trajectories for halving radii form a Cauchy-like ladder."""
        params = PhysicsParams(1.0)
        ctl = StepControl(dt=1e-3)
        finals = []
        for eps in (0.4, 0.2, 0.1):
            spec = InitialDataSpec(kind="cusp_step", epsilon=eps)
            vbar0, step0 = prepare_initial_parts(grid, spec)
            st = make_state(vbar0 + step0, 0.0, params)
            for _ in range(10):
                st = step(st, ctl)
            finals.append(st.v)
        d01 = l2_norm(finals[0] - finals[1])
        d12 = l2_norm(finals[1] - finals[2])
        assert d01 > d12 > 0

    def test_column_record_matches_the_streamed_record(self, grid, monkeypatch):
        """z-only states record their norms on one z line; streaming their
        whole lattice gives the same series, l4 and l6 to round-off."""
        spec = InitialDataSpec(kind="cusp_step", a=(1.0, 0.3), sigma=(0.2, -0.1),
                               epsilon=0.1)
        vbar0, step0 = prepare_initial_parts(grid, spec)
        args = (vbar0, step0, PhysicsParams(1.0), StepControl(dt=1e-3), 0.01)
        calls = []
        stream = spectral._oversampled_slabs
        monkeypatch.setattr(spectral, "_oversampled_slabs",
                            lambda *a: calls.append(1) or stream(*a))
        column = run_decomposition(*args)[1].columns
        assert calls == []
        # off in the record only: the stepper holds its own binding
        monkeypatch.setattr(spectral, "_is_column", lambda b: False)
        streamed = run_decomposition(*args)[1].columns
        assert len(calls) == 2 * len(streamed["t"]) == 22
        assert column.keys() == streamed.keys()
        for name, ref in streamed.items():
            got, ref = np.asarray(column[name]), np.asarray(ref)
            if name in ("l4", "l6"):
                assert np.all(np.abs(got - ref) <= 1e-15 * ref), name
            else:
                assert got.tobytes() == ref.tobytes(), name

    def test_hooks_see_the_steps_integrate_sees(self, grid):
        """One hook convention: (0.0, 0.0) first, then (dt, t) after every
        step, the last step short."""
        vbar0, step0 = prepare_initial_parts(grid, InitialDataSpec(epsilon=0.1))
        params, ctl, t_end = PhysicsParams(1.0), StepControl(dt=1e-3), 0.0035
        split, single = [], []
        run_decomposition(vbar0, step0, params, ctl, t_end,
                          hooks=(lambda dt, s: split.append((dt, s.driver.t)),))
        integrate(make_state(vbar0 + step0, 0.0, params), ctl, t_end,
                  hooks=(lambda dt, s: single.append((dt, s.t)),))
        assert split == single
        assert split[0] == (0.0, 0.0)
        assert len(split) == 5
        assert split[-1] == (pytest.approx(5e-4), pytest.approx(t_end))

    def test_blow_up_keeps_partial_series(self, grid):
        """A split run that blows up carries the rows recorded before it."""
        big = field_from_function(
            grid, lambda X, Y, Z: (1e6 * np.sin(2 * np.pi * Y), 1e6 * np.sin(2 * np.pi * X)),
            symmetry=EVEN)
        seen = []
        assert BlowUpError("no run").series is None
        with pytest.warns(CFLWarning):
            with pytest.raises(BlowUpError) as err:
                run_decomposition(big, zero_field(grid, 2, EVEN), PhysicsParams(0.0),
                                  StepControl(dt=0.02), 2.0,
                                  hooks=(lambda dt, s: seen.append(s.driver.t),))
        series = err.value.series
        assert series.length == len(seen) >= 1
        assert series.columns["t"] == seen
        assert seen[-1] == err.value.last_good.t < 2.0


class TestPartPressures:
    @pytest.mark.parametrize("f0", [0.0, 1.3])
    def test_part_pressures_add_up_to_the_driver_pressure(self, grid, f0):
        """Linear in the advected field: p(vbar; v) + p(V; v) = p(v) while v = vbar + V."""
        vbar0 = field_from_function(
            grid, lambda X, Y, Z: (np.sin(2 * np.pi * Y) * np.cos(np.pi * Z / H),
                                   np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Z / H)),
            symmetry=EVEN)
        V0 = field_from_function(
            grid, lambda X, Y, Z: (0.2 * np.cos(2 * np.pi * (X + Y)) + 0 * Z,
                                   0.1 * np.sin(2 * np.pi * X) * np.cos(np.pi * Z / H)),
            symmetry=EVEN)
        states = [s for _, s in lockstep(vbar0, V0, PhysicsParams(f0),
                                         StepControl(dt=1e-3), 3e-3)]
        assert len(states) == 4
        for state in states:
            p_vbar, p_V = (solve_pressure(part.v, part.params.f0, driver=state.driver.v).total
                           for part in (state.vbar, state.V))
            total = p_vbar + p_V
            ref = solve_pressure(state.driver.v, f0).total.coeffs
            assert np.max(np.abs(ref)) > 1e-3
            assert np.max(np.abs(total.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestAnalyticExpressions:
    @pytest.mark.parametrize("u, v", [
        ("0", "cos(2*pi*x)"),
        ("sin(2*pi*y)*cos(pi*z/h)**2 - -x/3", "exp(-(x-0.5)**2)*sqrt(abs(z))+tanh(y)"),
        ("2**3*sin(2*pi*(x+y))", "+1.5e-1*(2+cos(4*pi*y))**-2"),
    ])
    def test_checked_expressions_give_the_plain_eval_field(self, grid, u, v):
        def build(X, Y, Z):
            env = dict(_SAFE_NAMES, x=X, y=Y, z=Z, h=H)
            return tuple(eval(text, {"__builtins__": {}}, env) + 0 * X  # noqa: S307
                         for text in (u, v))
        ref = dealias(field_from_function(grid, build, EVEN))
        spec = InitialDataSpec(kind="analytic", expression_u=u, expression_v=v)
        out, _ = prepare_initial_parts(grid, spec)
        assert out.coeffs.tobytes() == ref.coeffs.tobytes()

    @pytest.mark.parametrize("expression", ["10**400*x", "9**9**9**9"])
    def test_constant_power_overflows_at_once(self, grid, expression):
        spec = InitialDataSpec(kind="analytic", expression_v=expression)
        with pytest.raises(ConfigurationError):
            prepare_initial_parts(grid, spec)
