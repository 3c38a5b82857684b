"""Tests for the RK3/integrating-factor stepper against exact solutions."""

import gc
import sys
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import stepwise_energy_residuals

from hydrostat.diagnostics import integrate_series
from hydrostat.estimates import NormRecord, norms
from hydrostat.errors import (BlowUpError, ConstraintViolationError,
                              SchedulingError)
from hydrostat import solver
from hydrostat.solver import (CFLWarning, PhysicsParams, SolverState,
                              StepControl, _coriolis, _rhs_core, integrate,
                              make_state, step, step_linear)
from hydrostat.spectral import (EVEN, Grid, SpectralField, _Band, _band_l2, _is_column,
                                _lattice_norms, _populated, dealias,
                                field_from_function, l2_norm,
                                symmetrize, to_physical, zero_field)
from hydrostat.hydrostatics import (_project_mean, barotropic_residual, project_barotropic,
                                    recover_w, solve_pressure)
from hydrostat.decomposition import (InitialDataSpec, lockstep,
                                     prepare_initial_parts)

H = 0.5


@pytest.fixture(scope="module")
def grid():
    return Grid.make(16, 16, 16, H)


def decay_data(grid, A=1.0):
    return field_from_function(grid, lambda X, Y, Z: (0 * X, A * np.cos(2 * np.pi * X)),
                               symmetry=EVEN)


def rotation_data(grid, A=1.0):
    return field_from_function(grid, lambda X, Y, Z: (A * np.cos(np.pi * Z / grid.h), 0 * X),
                               symmetry=EVEN)


def cusp_state(grid, f0=1.0):
    spec = InitialDataSpec(kind="cusp_step", a=(1.0, 0.0), delta=1.0, eta=0.25,
                           sigma=(0.2, 0.1), epsilon=0.1)
    vbar0, step0 = prepare_initial_parts(grid, spec)
    return make_state(vbar0 + step0, 0.0, PhysicsParams(f0=f0))


def pressure_gradient_field(p):
    """grad_H p embedded as a 2-component, z-independent (even) field."""
    g = p.grid
    out = np.zeros((2,) + g.spectral_shape, dtype=complex)
    out[0, :, :, 0] = 1j * g.kx_d[..., 0] * p.coeffs
    out[1, :, :, 0] = 1j * g.ky_d[..., 0] * p.coeffs
    return SpectralField(g, out, EVEN)


def rhs_nonlinear(v, params):
    """Full nonlinear tendency of the horizontal velocity (diffusion excluded).

    The reference the stepper's projected tendency is checked against:
    ``v`` is taken as a solver state, dealiased and exactly even in z, and
    grad_H p from ``solve_pressure`` is applied explicitly, where the
    stepper leaves it to ``project_barotropic``.
    """
    g = v.grid
    band = g.band
    u = band.pack(v.coeffs)
    w = band.pack(recover_w(v).coeffs)
    tendency = band.unpack(_rhs_core(u, band, band.inverse(u),
                                     band.inverse(w, odd=True), params.f0))
    grad_p = pressure_gradient_field(solve_pressure(v, params.f0).total)
    return SpectralField(g, tendency - symmetrize(dealias(grad_p), EVEN).coeffs, EVEN)


class TestTendency:
    def test_zero_state(self, grid):
        v = zero_field(grid, 2, EVEN)
        out = rhs_nonlinear(v, PhysicsParams(0.0))
        assert np.all(out.coeffs == 0.0)

    def test_pure_shear_has_no_tendency(self, grid):
        out = rhs_nonlinear(decay_data(grid), PhysicsParams(0.0))
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_rotation_of_constant_flow(self, grid):
        c1, c2 = 0.4, -1.1
        v = field_from_function(grid, lambda X, Y, Z: (c1 + 0 * X, c2 + 0 * X),
                                symmetry=EVEN)
        out = rhs_nonlinear(v, PhysicsParams(1.0))
        vals = to_physical(out).values
        np.testing.assert_allclose(vals[0], c2, atol=1e-14)
        np.testing.assert_allclose(vals[1], -c1, atol=1e-14)

    def test_constraint_violation_propagates(self, grid):
        from hydrostat.errors import ConstraintViolationError
        bad = field_from_function(grid, lambda X, Y, Z: (np.sin(2 * np.pi * X), 0 * X),
                                  symmetry=EVEN)
        with pytest.raises(ConstraintViolationError):
            rhs_nonlinear(bad, PhysicsParams(0.0))


class TestStep:
    def test_decay_single_step(self, grid):
        A, dt = 1.0, 1e-3
        state = make_state(decay_data(grid, A), 0.0, PhysicsParams(0.0))
        new = step(state, StepControl(dt=dt))
        X, _, _ = grid.mesh()
        exact = A * np.exp(-4 * np.pi ** 2 * dt) * np.cos(2 * np.pi * X)
        vals = to_physical(new.v).values
        assert np.max(np.abs(vals[1] - exact)) <= 1e-9 * A
        assert np.max(np.abs(vals[0])) <= 1e-14

    @pytest.mark.parametrize("h", [0.5, 0.25, 1.0])
    def test_rotation_decay_hundred_steps(self, h):
        grid = Grid.make(16, 16, 16, h)
        A, f0, dt = 1.0, 1.0, 1e-3
        state = make_state(rotation_data(grid, A), 0.0, PhysicsParams(f0))
        ctl = StepControl(dt=dt)
        for _ in range(100):
            state = step(state, ctl)
        t = state.t
        _, _, Z = grid.mesh()
        amp = A * np.exp(-(np.pi / h) ** 2 * t)
        exact_u = amp * np.cos(f0 * t) * np.cos(np.pi * Z / h)
        exact_v = -amp * np.sin(f0 * t) * np.cos(np.pi * Z / h)
        vals = to_physical(state.v).values
        err = max(np.max(np.abs(vals[0] - exact_u)), np.max(np.abs(vals[1] - exact_v)))
        assert err <= 1e-8 * amp

    def test_zero_stays_zero(self, grid):
        state = make_state(zero_field(grid, 2, EVEN), 0.0, PhysicsParams(1.0))
        new = step(state, StepControl(dt=1e-3))
        assert np.all(new.v.coeffs == 0.0)

    def test_state_invariants_preserved(self, grid):
        state = cusp_state(grid)
        ctl = StepControl(dt=1e-3)
        for _ in range(5):
            state = step(state, ctl)
            assert state.v.symmetry == EVEN
            flip = symmetrize(state.v, EVEN)
            assert np.max(np.abs(flip.coeffs - state.v.coeffs)) == 0.0
            assert barotropic_residual(state.v) <= 1e-10

    def test_states_are_cleanup_fixpoints(self, grid):
        """Masked, exactly even states stay so without a clean-up of the iterate."""
        vbar, V = prepare_initial_parts(grid, InitialDataSpec(
            kind="cusp_step", a=(1.0, 0.5), delta=0.5, eta=0.25,
            sigma=(0.3, 0.2), epsilon=0.1))
        params = PhysicsParams(1.0)
        ctl = StepControl(dt=1e-3)
        v = make_state(vbar + V, 0.0, params)
        parts = [make_state(vbar, 0.0, params), make_state(V, 0.0, params)]
        for _ in range(5):
            v, stages = step(v, ctl, record_stages=True)
            parts = [step_linear(p, stages, ctl) for p in parts]
            for s in [v] + parts:
                clean = symmetrize(dealias(s.v), EVEN)
                assert clean.coeffs.tobytes() == s.v.coeffs.tobytes()

    def test_constraint_violation_raises(self, grid):
        """A state off the barotropic constraint is refused, as recover_w refuses it."""
        bad = symmetrize(dealias(field_from_function(
            grid, lambda X, Y, Z: (np.sin(2 * np.pi * X), 0 * X))), EVEN)
        with pytest.raises(ConstraintViolationError):
            recover_w(bad)
        with pytest.raises(ConstraintViolationError):
            step(SolverState(bad, 0.0, PhysicsParams(1.0)), StepControl(dt=1e-3))

    def test_temporal_order_three(self, grid):
        """Error against the rotating-decay solution shrinks ~8x per halving."""
        f0 = 40.0
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            state = make_state(rotation_data(grid), 0.0, PhysicsParams(f0))
            state, _ = integrate(state, StepControl(dt=dt), 0.05)
            _, _, Z = grid.mesh()
            amp = np.exp(-(np.pi / H) ** 2 * state.t)
            exact_u = amp * np.cos(f0 * state.t) * np.cos(np.pi * Z / H)
            exact_v = -amp * np.sin(f0 * state.t) * np.cos(np.pi * Z / H)
            vals = to_physical(state.v).values
            errors.append(max(np.max(np.abs(vals[0] - exact_u)),
                              np.max(np.abs(vals[1] - exact_v))) / amp)
        assert errors[0] / errors[1] >= 6.0
        assert errors[1] / errors[2] >= 6.0

    def test_l2_monotone_along_trajectory(self, grid):
        state = cusp_state(grid)
        ctl = StepControl(dt=1e-3)
        prev = l2_norm(state.v)
        for _ in range(20):
            state = step(state, ctl)
            cur = l2_norm(state.v)
            assert cur <= prev * (1 + 1e-12)
            prev = cur

    def test_blow_up_detection(self, grid):
        big = field_from_function(
            grid, lambda X, Y, Z: (1e6 * np.sin(2 * np.pi * Y), 1e6 * np.sin(2 * np.pi * X)),
            symmetry=EVEN)
        state = make_state(big, 0.0, PhysicsParams(0.0))
        ctl = StepControl(dt=0.02)
        with pytest.warns(CFLWarning):
            with pytest.raises(BlowUpError) as err:
                for _ in range(50):
                    state = step(state, ctl)
        assert err.value.last_good is not None

    def test_cfl_advisory_warning(self, grid):
        state = cusp_state(grid)
        with pytest.warns(CFLWarning):
            step(state, StepControl(dt=1.0, cfl_target=1e-6))


class TestIntegrate:
    def test_identity_when_span_empty(self, grid):
        state = make_state(decay_data(grid), 0.0, PhysicsParams(0.0))
        final, series = integrate(state, StepControl(dt=1e-3), 0.0)
        assert final is state
        assert series.length == 1

    def test_energy_follows_analytic_decay(self, grid):
        state = make_state(decay_data(grid), 0.0, PhysicsParams(0.0))
        final, series = integrate(state, StepControl(dt=1e-3), 0.1)
        t = series.array("t")
        l2 = series.array("l2")
        np.testing.assert_allclose(l2 ** 2, l2[0] ** 2 * np.exp(-8 * np.pi ** 2 * t),
                                   rtol=1e-7)

    def test_hook_count_rounds_up(self, grid):
        state = make_state(decay_data(grid), 0.0, PhysicsParams(0.0))
        calls = []
        integrate(state, StepControl(dt=1e-3), 0.0105,
                  hooks=(lambda dt, s: calls.append(s.t),))
        assert len(calls) == 12
        assert calls[0] == 0.0
        assert calls[-1] == pytest.approx(0.0105)

    def test_blow_up_keeps_partial_series(self, grid):
        import warnings
        big = field_from_function(
            grid, lambda X, Y, Z: (1e6 * np.sin(2 * np.pi * Y),
                                   1e6 * np.sin(2 * np.pi * X)),
            symmetry=EVEN)
        state = make_state(big, 0.0, PhysicsParams(0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            with pytest.raises(BlowUpError) as err:
                integrate(state, StepControl(dt=0.02), 2.0)
        assert err.value.series.length >= 1

    def test_stepwise_energy_law_third_order(self, grid):
        """Per-step trapezoid residual of the energy law scales like dt^3.

        Low-mode data keeps every retained mode in the asymptotic regime
        k^2 dt << 1 while the nonlinearity, vertical transport and pressure
        all stay active.
        """
        v0 = field_from_function(
            grid,
            lambda X, Y, Z: (0.3 * np.sin(2 * np.pi * X) * np.cos(np.pi * Z / H),
                             0.5 * np.cos(2 * np.pi * X)),
            symmetry=EVEN)
        residuals = {}
        for dt in (2e-3, 1e-3):
            state = make_state(v0, 0.0, PhysicsParams(0.0))
            _, series = integrate(state, StepControl(dt=dt), 0.04)
            res = stepwise_energy_residuals(series.array("t"), series.array("l2"),
                                            series.array("grad_l2"))
            residuals[dt] = np.max(np.abs(res))
        assert residuals[2e-3] / residuals[1e-3] >= 6.0

    def test_energy_law_against_a_finer_run_sees_the_stepper(self, grid):
        """The stepper's own share of the energy residual is third order.

        Each run's 0.5 ||v||^2 is held against the dissipation integral of
        a run at dt = 2.5e-4, read at the same times, so the quadrature of
        the coarse run's samples plays no part.  It shrinks about 8x per
        halving of dt (7.4e-10, 9.3e-11, 1.2e-11); an advection without
        w dz U misses the law by about 2e-6 at every dt.
        """
        v0 = field_from_function(
            grid,
            lambda X, Y, Z: (0.3 * np.sin(2 * np.pi * X) * np.cos(np.pi * Z / H),
                             0.5 * np.cos(2 * np.pi * X)),
            symmetry=EVEN)

        def series(dt):
            return integrate(make_state(v0, 0.0, PhysicsParams(0.0)), StepControl(dt=dt),
                             0.02)[1]

        ref = series(2.5e-4)
        dissipation = integrate_series(ref.array("t"), ref.array("grad_l2") ** 2)
        e0 = 0.5 * ref.array("l2")[0] ** 2
        residuals = []
        for stride in (8, 4, 2):
            run = series(stride * 2.5e-4)
            assert np.allclose(run.array("t"), ref.array("t")[::stride], rtol=0, atol=1e-15)
            e = 0.5 * run.array("l2") ** 2
            residuals.append(np.max(np.abs(e - e0 + dissipation[::stride])))
        assert residuals[0] / residuals[1] >= 6.0 and residuals[1] / residuals[2] >= 6.0
        assert residuals[2] <= 1e-9 * e0


class TestLinearStepScheduling:
    def test_misaligned_driver_rejected(self, grid):
        state = cusp_state(grid)
        ctl = StepControl(dt=1e-3)
        _, stages = step(state, ctl, record_stages=True)
        part = make_state(decay_data(grid), 0.5, PhysicsParams(1.0))
        with pytest.raises(SchedulingError):
            step_linear(part, stages, ctl)

    def test_wrong_stage_count_rejected(self, grid):
        part = cusp_state(grid)
        with pytest.raises(SchedulingError):
            step_linear(part, [], StepControl(dt=1e-3))


def structured_constrained(grid):
    """Horizontally and vertically varying data on the barotropic constraint."""
    v = field_from_function(
        grid,
        lambda X, Y, Z: (np.sin(2 * np.pi * Y) * np.cos(np.pi * Z / H)
                         + 0.3 * np.cos(2 * np.pi * (X + Y)),
                         np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Z / H)
                         + 0.2 * np.sin(2 * np.pi * X)),
        symmetry=EVEN)
    return project_barotropic(symmetrize(dealias(v), EVEN))


class TestPressureFreeStepper:
    @pytest.mark.parametrize("f0", [0.0, 1.3])
    def test_projection_applies_the_pressure(self, grid, f0):
        """The stepper's projected tendency equals the explicit-pressure one."""
        v = structured_constrained(grid)
        band = _Band(grid)
        u, w = band.pack(v.coeffs), band.pack(recover_w(v).coeffs)
        free = SpectralField(grid, band.unpack(_rhs_core(
            u, band, band.inverse(u), band.inverse(w, odd=True), f0)), EVEN)
        ref = rhs_nonlinear(v, PhysicsParams(f0))
        scale = np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(free.coeffs - ref.coeffs)) > 1e-2 * scale
        gap = np.max(np.abs(project_barotropic(free).coeffs - ref.coeffs))
        assert gap <= 1e-12 * scale

    def test_one_band_per_grid(self, monkeypatch):
        """A 3-step lockstep and a 3-step integrate each build one band."""
        built = []
        init = _Band.__init__

        def counting(self, grid):
            built.append(grid)
            init(self, grid)

        monkeypatch.setattr(_Band, "__init__", counting)
        ctl = StepControl(dt=1e-3)
        g = Grid.make(16, 16, 32, H)
        vbar, V = prepare_initial_parts(g, InitialDataSpec(
            kind="cusp_step", a=(1.0, 0.5), delta=0.5, eta=0.25,
            sigma=(0.3, 0.2), epsilon=0.1))
        states = list(lockstep(vbar, V, PhysicsParams(1.0), ctl, 3e-3))
        assert len(states) == 4 and built == [g]
        other = Grid.make(16, 16, 16, H)
        _, series = integrate(smooth_state(other), ctl, 3e-3)
        assert series.length == 4 and built == [g, other]

    def test_step_does_not_pin_the_grid(self):
        g = Grid.make(8, 8, 8, H)
        state = make_state(decay_data(g), 0.0, PhysicsParams(0.0))
        step(state, StepControl(dt=1e-3))
        ref = weakref.ref(g)
        del g, state
        gc.collect()
        assert ref() is None

    def test_blow_up_raises_without_runtime_warnings(self, grid):
        big = field_from_function(
            grid, lambda X, Y, Z: (1e6 * np.sin(2 * np.pi * Y), 1e6 * np.sin(2 * np.pi * X)),
            symmetry=EVEN)
        state = make_state(big, 0.0, PhysicsParams(0.0))
        ctl = StepControl(dt=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", CFLWarning)
            with pytest.raises(BlowUpError) as err:
                for _ in range(50):
                    state = step(state, ctl)
        assert err.value.last_good is state
        assert np.all(np.isfinite(state.v.coeffs))
        assert "RK stage" in str(err.value)


def batched_rhs_core(u, band, v, w, f0):
    """The stage tendency with the four even gradients inverted in one band transform."""
    dx, dy = np.split(band.inverse(np.concatenate([1j * band.kx * u, 1j * band.ky * u])), 2)
    dz = band.inverse(1j * band.kz * u, odd=True)
    out = band.forward(v[0] * dx + v[1] * dy + w[0] * dz)
    if f0 != 0.0:
        out += f0 * _coriolis(u)
    return -out


def smooth_state(grid, f0=1.0):
    return make_state(field_from_function(grid, lambda X, Y, Z: (
        np.cos(2 * np.pi * Y) * np.cos(2 * np.pi * Z) + np.sin(2 * np.pi * (X + 2 * Y)),
        np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Z)), symmetry=EVEN), 0.0,
        PhysicsParams(f0))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_matches_batched(args):
    ref = batched_rhs_core(*args)
    assert np.max(np.abs(_rhs_core(*args) - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestStageOneDerivativeAtATime:
    """The stage forms its products one gradient at a time from shared
    passes, to round-off of one band inverse per gradient."""

    @pytest.mark.parametrize("shape", [(16, 16, 32), (10, 14, 20)])
    @pytest.mark.parametrize("f0", [0.0, 1.3])
    def test_nonlinear_tendency_matches_the_batched_one(self, shape, f0):
        g = Grid.make(*shape, H)
        v = structured_constrained(g)
        band = _Band(g)
        u, w = band.pack(v.coeffs), band.pack(recover_w(v).coeffs)
        assert_matches_batched((u, band, band.inverse(u), band.inverse(w, odd=True), f0))

    @pytest.mark.parametrize("shape", [(16, 16, 32), (10, 14, 20)])
    def test_linear_tendency_matches_the_batched_one(self, shape):
        g = Grid.make(*shape, H)
        _, stages = step(smooth_state(g), StepControl(dt=1e-3), record_stages=True)
        band = _Band(g)
        u = band.pack(structured_constrained(g).coeffs)
        for stage in stages:
            assert_matches_batched((u, band, stage.v, stage.w, 1.0))


class TestStepMemory:
    """At 64x64x128 one step holds one gradient on the lattice, not six."""

    @pytest.fixture(scope="class")
    def case(self):
        state = smooth_state(Grid.make(64, 64, 128, H))
        ctl = StepControl(dt=1e-3)
        _, stages = step(state, ctl, record_stages=True)
        return state, stages, ctl

    def test_step_peak(self, case):
        state, _, ctl = case
        assert traced_peak(lambda: step(state, ctl)) < 36 * 2 ** 20

    def test_step_linear_peak(self, case):
        state, stages, ctl = case
        assert traced_peak(lambda: step_linear(state, stages, ctl)) < 30 * 2 ** 20


def z_only_parts(grid):
    """The paper's z-only data: a mollified cusp v0bar and step V0."""
    return prepare_initial_parts(grid, InitialDataSpec(
        kind="cusp_step", a=(1.1, 0.3), delta=0.7, eta=0.27,
        sigma=(0.2, -0.05), epsilon=0.1))


def counting_gradients(monkeypatch):
    """Count ``_Band.gradient`` calls: the dense path makes one per stage."""
    calls = []
    gradient = _Band.gradient

    def counted(self, u, values=False):
        calls.append(values)
        return gradient(self, u, values)

    monkeypatch.setattr(_Band, "gradient", counted)
    return calls


class TestColumnPath:
    """A z-only state steps without band transforms, to the same bits."""

    def test_column_and_dense_lockstep_agree(self, monkeypatch):
        g = Grid.make(16, 16, 32, H)
        vbar, V = z_only_parts(g)
        args = (vbar, V, PhysicsParams(1.3), StepControl(dt=1e-3), 6e-3)
        calls = counting_gradients(monkeypatch)
        column = list(lockstep(*args))
        assert calls == []
        monkeypatch.setattr(solver, "_is_column", lambda b: False)
        dense = list(lockstep(*args))
        assert len(calls) == 9 * (len(dense) - 1)
        assert len(column) == len(dense) == 7
        for (_, a), (_, b) in zip(column, dense):
            for part in ("driver", "vbar", "V"):
                assert np.array_equal(getattr(a, part).v.coeffs,
                                      getattr(b, part).v.coeffs)

    def test_predicate_is_exact(self, monkeypatch):
        g = Grid.make(16, 16, 32, H)
        band = g.band
        vbar, V = z_only_parts(g)
        u = band.pack((vbar + V).coeffs)
        assert _is_column(u) and _is_column(np.zeros_like(u))
        for index in [(0, 1, 0, 1), (1, 0, 2, 0), (0, 0, 1, 3)]:
            tiny = u.copy()
            tiny[index] = 1e-300
            assert not _is_column(tiny)
        tiny = u.copy()
        tiny[1, 2, 0, 1] = 1e-300
        state = SolverState(SpectralField(g, band.unpack(tiny), EVEN), 0.0,
                            PhysicsParams(1.3))
        calls = counting_gradients(monkeypatch)
        new = step(state, StepControl(dt=1e-3))
        assert calls == [True] * 3
        monkeypatch.setattr(solver, "_is_column", lambda b: False)
        assert np.array_equal(step(state, StepControl(dt=1e-3)).v.coeffs,
                              new.v.coeffs)

    @pytest.mark.parametrize("shape", [(16, 16, 32), (10, 14, 20), (32, 32, 64)])
    def test_driver_values_are_the_band_inverse(self, shape):
        g = Grid.make(*shape, H)
        band = g.band
        vbar, V = z_only_parts(g)
        state = make_state(vbar + V, 0.0, PhysicsParams(1.3))
        u = band.pack(state.v.coeffs)
        assert _is_column(u)
        values = band.column_inverse(u)
        assert not values.flags.writeable
        assert np.array_equal(values, band.inverse(u))
        _, stages = step(state, StepControl(dt=1e-3), record_stages=True)
        assert np.array_equal(stages[0].v, band.inverse(u))
        assert stages[0].w.shape == (1,) + values.shape[1:]
        assert not np.any(stages[0].w)

    def test_column_under_a_moving_driver_goes_dense(self, monkeypatch):
        g = Grid.make(16, 16, 32, H)
        band = g.band
        driver = make_state(field_from_function(g, lambda X, Y, Z: (
            np.cos(2 * np.pi * X) * np.cos(np.pi * Z / H),
            np.sin(2 * np.pi * Y) * np.cos(2 * np.pi * Z / H)), symmetry=EVEN),
            0.0, PhysicsParams(1.0))
        _, stages = step(driver, StepControl(dt=1e-3), record_stages=True)
        vbar, _ = z_only_parts(g)
        u = band.pack(vbar.coeffs)
        assert _is_column(u)
        calls = counting_gradients(monkeypatch)
        for stage in stages:
            assert np.max(np.abs(stage.w)) > 0.1
            assert_matches_batched((u, band, stage.v, stage.w, 1.0))
            rotation_only = -(1.0 * _coriolis(u))
            assert np.max(np.abs(_rhs_core(u, band, stage.v, stage.w, 1.0)
                                 - rotation_only)) > 1e-3 * np.max(np.abs(u))
        assert len(calls) == 2 * len(stages)

    def test_lockstep_steps_the_mean_line_alone(self, monkeypatch):
        """A cusp_step lockstep recovers no w, calls no band transform and
        projects nothing: on the mean line the projection is the identity."""
        g = Grid.make(32, 32, 64, H)
        vbar, V = z_only_parts(g)
        calls = []

        def counted(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for name in ("_recover_w_band", "_project_mean", "_rhs_core"):
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
        for name in ("gradient", "inverse", "forward"):
            monkeypatch.setattr(_Band, name, counted(name, getattr(_Band, name)))
        states = list(lockstep(vbar, V, PhysicsParams(1.3), StepControl(dt=1e-3), 4e-3))
        assert len(states) == 5 and calls == []

    def test_the_projection_is_the_identity_on_the_mean_line(self):
        """What the column step skips: ``_project_mean`` of the mean line,
        with its tables sliced to that line (kh2 = 0), leaves every bit of
        it as it was, NaN, inf and -0 included."""
        band = Grid.make(16, 16, 32, H).band
        tables = band.kx[:1, :, 0], band.ky[:, :1, 0], band.kh2[:1, :1]
        assert tables[2] == 0
        for pair in [(complex(1.5, -0.0), complex(np.inf, 1.0)), (np.nan, 0.0j),
                     (complex(-0.0, -0.0), complex(-2.0, np.nan))]:
            line = np.array(pair).reshape(2, 1, 1)
            before = line.tobytes()
            with np.errstate(invalid="ignore"):
                _project_mean(line, *tables)
            assert line.tobytes() == before

    @pytest.mark.parametrize("shape", [(16, 16, 32), (32, 32, 64)])
    @pytest.mark.parametrize("f0", [0.0, 1.3])
    def test_step_and_step_linear_equal_the_dense_path(self, monkeypatch, shape, f0):
        g = Grid.make(*shape, H)
        vbar, V = z_only_parts(g)
        ctl = StepControl(dt=1e-3)

        def run():
            v, part = (make_state(f, 0.0, PhysicsParams(f0)) for f in (vbar + V, V))
            out = []
            for _ in range(3):
                v, stages = step(v, ctl, record_stages=True)
                part = step_linear(part, stages, ctl)
                out += [v.v.coeffs, part.v.coeffs] + [s.v for s in stages]
            return out

        line = run()
        monkeypatch.setattr(solver, "_is_column", lambda b: False)
        dense = run()
        assert all(np.array_equal(a, b) for a, b in zip(line, dense))

    @pytest.mark.parametrize("linear", [False, True])
    def test_nan_on_the_mean_line_blows_up_as_on_the_dense_path(self, monkeypatch, linear):
        g = Grid.make(16, 16, 32, H)
        band = g.band
        vbar, V = z_only_parts(g)
        state = make_state(vbar + V, 0.0, PhysicsParams(1.3))
        ctl = StepControl(dt=1e-3)
        _, stages = step(state, ctl, record_stages=True)
        u = band.pack(state.v.coeffs)
        u[1, 0, 0, 2] = np.nan
        bad = SolverState(SpectralField(g, band.unpack(u), EVEN), 0.0, PhysicsParams(1.3))
        assert _is_column(band.pack(bad.v.coeffs))

        def blow_up():
            with pytest.raises(BlowUpError) as err:
                step_linear(bad, stages, ctl) if linear else step(bad, ctl)
            return str(err.value), err.value.last_good

        line = blow_up()
        monkeypatch.setattr(solver, "_is_column", lambda b: False)
        dense = blow_up()
        assert line[0] == dense[0] and "RK stage 1 of 3" in line[0]
        assert line[1] is dense[1] is bad

    def test_column_part_under_a_moving_driver_steps_dense(self, monkeypatch):
        g = Grid.make(16, 16, 32, H)
        ctl = StepControl(dt=1e-3)
        _, stages = step(smooth_state(g), ctl, record_stages=True)
        assert all(np.any(s.w) for s in stages)
        vbar, _ = z_only_parts(g)
        part = make_state(vbar, 0.0, PhysicsParams(1.0))
        assert _is_column(g.band.pack(part.v.coeffs))
        calls = counting_gradients(monkeypatch)
        moved = step_linear(part, stages, ctl)
        assert calls == [False] * 3
        assert not _is_column(g.band.pack(moved.v.coeffs))

    def test_cfl_warning_at_the_same_dt(self, monkeypatch):
        g = Grid.make(16, 16, 32, H)
        vbar, V = z_only_parts(g)
        state = make_state(vbar + V, 0.0, PhysicsParams(1.3))
        vmax = np.max(np.abs(g.band.inverse(g.band.pack(state.v.coeffs))))
        dt = 1e-3
        target = vmax * dt * 2.0 * np.pi * 32 / 3.0

        def warns(dt):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", CFLWarning)
                step(state, StepControl(dt=1.0, cfl_target=target), dt=dt)
            return any(issubclass(w.category, CFLWarning) for w in caught)

        column = [warns(dt), warns(dt * (1 + 1e-12))]
        monkeypatch.setattr(solver, "_is_column", lambda b: False)
        assert column == [warns(dt), warns(dt * (1 + 1e-12))] == [False, True]


class TestSharedBand:
    """The grid's band is the one thing trajectories on a grid share, and
    no run writes it: a step forms its integrating factors itself."""

    def test_threaded_runs_match_runs_in_sequence(self):
        """``integrate`` at dt and dt/2 on one grid, on two threads switching
        every microsecond, writes the bytes of the two runs in sequence."""
        state = smooth_state(Grid.make(16, 16, 32, H))

        def run(dt):
            final, series = integrate(state, StepControl(dt=dt), 0.02)
            return series.to_csv(), final.v.coeffs.tobytes()

        sequence = [run(dt) for dt in (2e-3, 1e-3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(run, (2e-3, 1e-3), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequence

    def test_runs_leave_the_band_as_they_found_it(self):
        """A ``lockstep`` (3-D data), an ``integrate`` (a column) and
        ``norms`` read the band: the same names, the same array bytes."""
        g = Grid.make(16, 16, 32, H)

        def seen(band):
            return {name: value.tobytes() if isinstance(value, np.ndarray) else value
                    for name, value in vars(band).items()}

        before = seen(g.band)
        vbar = smooth_state(g).v
        V = field_from_function(g, lambda X, Y, Z: (0.3 * np.cos(2 * np.pi * X) + 0 * Z,
                                                    np.cos(np.pi * Z / H) + 0 * Y), symmetry=EVEN)
        ctl = StepControl(dt=1e-3)
        list(lockstep(vbar, V, PhysicsParams(1.0), ctl, 3e-3))
        integrate(cusp_state(g), ctl, 3e-3)
        norms(vbar)
        assert seen(g.band) == before


def test_norms_of_a_3d_state_are_the_full_scan_path():
    """``norms`` packs a state once and streams the lines populated in that
    band (``_Band.populated``): on every state of a 3-D ``integrate`` run
    the mask is the full-storage scan's and the record is, to the bit, the
    one from ``_band_l2`` and ``_lattice_norms`` with their own scans."""
    g = Grid.make(16, 16, 32, H)
    states = []
    integrate(smooth_state(g), StepControl(dt=1e-3), 3e-3,
              hooks=(lambda dt, state: states.append(state.v),))
    assert len(states) == 4 and not _is_column(states[-1].coeffs)
    for v in states:
        assert np.array_equal(g.band.populated(g.band.pack(v.coeffs)), _populated(v))
        linf, lq = _lattice_norms(v, (4.0, 6.0))
        assert norms(v) == NormRecord(_band_l2(v), _band_l2(v, grad=True),
                                      lq[4.0], lq[6.0], linf)


def test_any_stored_reads_the_stored_elements():
    """The z-only driver's w is broadcast zeros; testing its one stored
    element answers as ``np.any`` does, for any layout."""
    line = np.zeros((2, 1, 1, 5))
    hit = line.copy()
    hit[1, 0, 0, 3] = 1e-300
    dense = np.zeros((1, 8, 8, 5))
    dense[0, 7, 2, 4] = 1e-300
    cases = [np.broadcast_to(0.0, (1, 8, 8, 5)), np.broadcast_to(line, (2, 8, 8, 5)),
             np.broadcast_to(hit, (2, 8, 8, 5)), np.broadcast_to(np.nan, (1, 8, 8, 5)),
             np.zeros((1, 8, 8, 5)), dense, np.broadcast_to(1.0, (1, 0, 8, 5))]
    assert [solver._any_stored(a) for a in cases] == [bool(np.any(a)) for a in cases]
    assert [bool(np.any(a)) for a in cases] == [False, False, True, True, False, True, False]
