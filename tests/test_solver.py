"""Tests for the RK3/integrating-factor stepper against exact solutions."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from hydrostat.diagnostics import stepwise_energy_residuals
from hydrostat.errors import (BlowUpError, ConfigurationError, SchedulingError)
from hydrostat.solver import (CFLWarning, PhysicsParams, StepControl,
                              _cleanup, _rhs_core, integrate, make_state,
                              rhs_nonlinear, step, step_linear)
from hydrostat.spectral import (EVEN, Grid, _inverse_half, dealias,
                                field_from_function, l2_norm, symmetrize,
                                to_physical, zero_field)
from hydrostat.hydrostatics import (barotropic_residual, project_barotropic,
                                    recover_w)
from hydrostat.decomposition import InitialDataSpec, prepare_initial_parts

H = 0.5


@pytest.fixture(scope="module")
def grid():
    return Grid.make(16, 16, 16, H)


def decay_data(grid, A=1.0):
    return field_from_function(grid, lambda X, Y, Z: (0 * X, A * np.cos(2 * np.pi * X)),
                               symmetry=EVEN)


def rotation_data(grid, A=1.0):
    return field_from_function(grid, lambda X, Y, Z: (A * np.cos(np.pi * Z / H), 0 * X),
                               symmetry=EVEN)


def cusp_state(grid, f0=1.0):
    spec = InitialDataSpec(kind="cusp_step", a=(1.0, 0.0), delta=1.0, eta=0.25,
                           sigma=(0.2, 0.1), epsilon=0.1)
    vbar0, step0 = prepare_initial_parts(grid, spec)
    return make_state(vbar0 + step0, 0.0, PhysicsParams(f0=f0, h=grid.h))


class TestTendency:
    def test_zero_state(self, grid):
        v = zero_field(grid, 2, EVEN)
        out = rhs_nonlinear(v, PhysicsParams(0.0, H))
        assert np.all(out.coeffs == 0.0)

    def test_pure_shear_has_no_tendency(self, grid):
        out = rhs_nonlinear(decay_data(grid), PhysicsParams(0.0, H))
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_rotation_of_constant_flow(self, grid):
        c1, c2 = 0.4, -1.1
        v = field_from_function(grid, lambda X, Y, Z: (c1 + 0 * X, c2 + 0 * X),
                                symmetry=EVEN)
        out = rhs_nonlinear(v, PhysicsParams(1.0, H))
        vals = to_physical(out).values
        np.testing.assert_allclose(vals[0], c2, atol=1e-14)
        np.testing.assert_allclose(vals[1], -c1, atol=1e-14)

    def test_constraint_violation_propagates(self, grid):
        from hydrostat.errors import ConstraintViolationError
        bad = field_from_function(grid, lambda X, Y, Z: (np.sin(2 * np.pi * X), 0 * X),
                                  symmetry=EVEN)
        with pytest.raises(ConstraintViolationError):
            rhs_nonlinear(bad, PhysicsParams(0.0, H))


class TestStep:
    def test_decay_single_step(self, grid):
        A, dt = 1.0, 1e-3
        state = make_state(decay_data(grid, A), 0.0, PhysicsParams(0.0, H))
        new = step(state, StepControl(dt=dt))
        X, _, _ = grid.mesh()
        exact = A * np.exp(-4 * np.pi ** 2 * dt) * np.cos(2 * np.pi * X)
        vals = to_physical(new.v).values
        assert np.max(np.abs(vals[1] - exact)) <= 1e-9 * A
        assert np.max(np.abs(vals[0])) <= 1e-14

    def test_rotation_decay_hundred_steps(self, grid):
        A, f0, dt = 1.0, 1.0, 1e-3
        state = make_state(rotation_data(grid, A), 0.0, PhysicsParams(f0, H))
        ctl = StepControl(dt=dt)
        for _ in range(100):
            state = step(state, ctl)
        t = state.t
        _, _, Z = grid.mesh()
        amp = A * np.exp(-(np.pi / H) ** 2 * t)
        exact_u = amp * np.cos(f0 * t) * np.cos(np.pi * Z / H)
        exact_v = -amp * np.sin(f0 * t) * np.cos(np.pi * Z / H)
        vals = to_physical(state.v).values
        err = max(np.max(np.abs(vals[0] - exact_u)), np.max(np.abs(vals[1] - exact_v)))
        assert err <= 1e-8 * amp

    def test_zero_stays_zero(self, grid):
        state = make_state(zero_field(grid, 2, EVEN), 0.0, PhysicsParams(1.0, H))
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
        params = PhysicsParams(1.0, H)
        ctl = StepControl(dt=1e-3)
        v = make_state(vbar + V, 0.0, params)
        parts = [make_state(vbar, 0.0, params), make_state(V, 0.0, params)]
        for _ in range(5):
            v, stages = step(v, ctl, record_stages=True)
            parts = [step_linear(p, stages, ctl) for p in parts]
            for s in [v] + parts:
                assert _cleanup(s.v.coeffs, grid).tobytes() == s.v.coeffs.tobytes()

    def test_temporal_order_three(self, grid):
        """Error against the rotating-decay solution shrinks ~8x per halving."""
        f0 = 40.0
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            state = make_state(rotation_data(grid), 0.0, PhysicsParams(f0, H))
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
        state = make_state(big, 0.0, PhysicsParams(0.0, H))
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

    def test_h_mismatch_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            make_state(decay_data(grid), 0.0, PhysicsParams(0.0, h=1.0))


class TestIntegrate:
    def test_identity_when_span_empty(self, grid):
        state = make_state(decay_data(grid), 0.0, PhysicsParams(0.0, H))
        final, series = integrate(state, StepControl(dt=1e-3), 0.0)
        assert final is state
        assert series.length == 1

    def test_energy_follows_analytic_decay(self, grid):
        state = make_state(decay_data(grid), 0.0, PhysicsParams(0.0, H))
        final, series = integrate(state, StepControl(dt=1e-3), 0.1)
        t = series.array("t")
        l2 = series.array("l2")
        np.testing.assert_allclose(l2 ** 2, l2[0] ** 2 * np.exp(-8 * np.pi ** 2 * t),
                                   rtol=1e-7)

    def test_hook_count_rounds_up(self, grid):
        state = make_state(decay_data(grid), 0.0, PhysicsParams(0.0, H))
        calls = []
        integrate(state, StepControl(dt=1e-3), 0.0105,
                  hooks=(lambda s, ser: calls.append(s.t),))
        assert len(calls) == 11
        assert calls[-1] == pytest.approx(0.0105)

    def test_blow_up_keeps_partial_series(self, grid):
        import warnings
        big = field_from_function(
            grid, lambda X, Y, Z: (1e6 * np.sin(2 * np.pi * Y),
                                   1e6 * np.sin(2 * np.pi * X)),
            symmetry=EVEN)
        state = make_state(big, 0.0, PhysicsParams(0.0, H))
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
            state = make_state(v0, 0.0, PhysicsParams(0.0, H))
            _, series = integrate(state, StepControl(dt=dt), 0.04)
            res = stepwise_energy_residuals(series.array("t"), series.array("l2"),
                                            series.array("grad_l2"))
            residuals[dt] = np.max(np.abs(res))
        assert residuals[2e-3] / residuals[1e-3] >= 6.0


class TestLinearStepScheduling:
    def test_misaligned_driver_rejected(self, grid):
        state = cusp_state(grid)
        ctl = StepControl(dt=1e-3)
        _, stages = step(state, ctl, record_stages=True)
        part = make_state(decay_data(grid), 0.5, PhysicsParams(1.0, H))
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
        free = _rhs_core(v, _inverse_half(v.coeffs, grid),
                         _inverse_half(recover_w(v).coeffs, grid), f0)
        ref = rhs_nonlinear(v, PhysicsParams(f0, H))
        scale = np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(free.coeffs - ref.coeffs)) > 1e-2 * scale
        gap = np.max(np.abs(project_barotropic(free).coeffs - ref.coeffs))
        assert gap <= 1e-12 * scale

    def test_step_does_not_pin_the_grid(self):
        g = Grid.make(8, 8, 8, H)
        state = make_state(decay_data(g), 0.0, PhysicsParams(0.0, H))
        step(state, StepControl(dt=1e-3))
        ref = weakref.ref(g)
        del g, state
        gc.collect()
        assert ref() is None

    def test_blow_up_raises_without_runtime_warnings(self, grid):
        big = field_from_function(
            grid, lambda X, Y, Z: (1e6 * np.sin(2 * np.pi * Y), 1e6 * np.sin(2 * np.pi * X)),
            symmetry=EVEN)
        state = make_state(big, 0.0, PhysicsParams(0.0, H))
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
