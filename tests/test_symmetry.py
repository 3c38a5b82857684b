"""Symmetries of the equations as relations between runs, with no oracle:
horizontal shifts, and the reflections y -> -y (v^2 -> -v^2) and x <-> y
(components swapped), which hold with f0 -> -f0.  The run of mapped lattice
values, set-up included, is the mapped run, and its norms are the run's."""

import numpy as np
import pytest

from hydrostat.decomposition import run_decomposition
from hydrostat.solver import PhysicsParams, StepControl, integrate, make_state
from hydrostat.spectral import Grid, PhysicalField, to_physical, to_spectral

F0, FLIP = 1.3, np.array([1.0, -1.0])[:, None, None, None]
RELATIONS = {       # name: (map of (2, nx, ny, nz) lattice values, sign of f0)
    "x shift 1/2": (lambda a: np.roll(a, a.shape[1] // 2, axis=1), 1),
    "y shift 3 rows": (lambda a: np.roll(a, 3, axis=2), 1),
    "y -> -y": (lambda a: FLIP * np.roll(a[:, :, ::-1], 1, axis=2), -1),   # y_j -> y_-j
    "x <-> y": (lambda a: a[::-1].transpose(0, 2, 1, 3), -1),
}
RELATIONS["control: y -> -y, f0 kept"] = (RELATIONS["y -> -y"][0], 1)
CASES = [((16, 16, 32), name) for name in RELATIONS] + [
    ((10, 14, 20), name) for name in ("x shift 1/2", "y shift 3 rows")]
REFERENCE = {}      # (runner, shape): the run of the unmapped data


def run(runner, shape, parts, f0):
    """Final states' lattice values and the l2, grad_l2, l4, l6 series of 4 steps."""
    g = Grid.make(*shape, 0.5)
    vbar, V = (to_spectral(PhysicalField(g, p)) for p in parts)
    params, ctl = PhysicsParams(f0), StepControl(dt=1e-3)
    if runner == "integrate":
        final, series = integrate(make_state(vbar, 0.0, params), ctl, 4e-3)
        states = [final]
    else:
        final, series = run_decomposition(vbar, V, params, ctl, 4e-3)
        states = [final.vbar, final.V, final.driver]
    return ([to_physical(s.v).values for s in states],
            np.array([series.array(c) for c in ("l2", "grad_l2", "l4", "l6")]))


@pytest.mark.parametrize("runner", ["integrate", "lockstep"])
@pytest.mark.parametrize("shape, name", CASES)
def test_a_run_of_mapped_data_is_the_mapped_run(runner, shape, name):
    mapping, sign = RELATIONS[name]
    parts = np.random.default_rng(sum(shape)).standard_normal((2, 2) + shape)
    if (runner, shape) not in REFERENCE:
        REFERENCE[runner, shape] = run(runner, shape, parts, F0)
    states, series = REFERENCE[runner, shape]
    got_states, got_series = run(runner, shape, [mapping(p) for p in parts], sign * F0)
    gap = max(np.max(np.abs(a - mapping(b))) / np.max(np.abs(b))
              for a, b in zip(got_states, states, strict=True))
    if name.startswith("control"):
        assert gap > 1e-6
    else:
        assert gap <= 1e-13
        assert np.max(np.abs(got_series - series) / series) <= 1e-13
