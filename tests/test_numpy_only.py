"""The package needs numpy alone, as ``pyproject.toml`` declares.

A fresh interpreter with ``scipy`` made unimportable imports the package,
takes one nonlinear step, one linear step and one norm record at 8x8x8.
"""

from tooling import fresh_python

SCRIPT = """
import sys
sys.modules["scipy"] = None
import numpy as np
from hydrostat import (EVEN, Grid, PhysicsParams, StepControl,
                       field_from_function, make_state, norms, step, step_linear)
g = Grid.make(8, 8, 8, 0.5)
v = field_from_function(g, lambda X, Y, Z: (np.cos(2 * np.pi * Y) * np.cos(2 * np.pi * Z),
                                            np.sin(2 * np.pi * X)), symmetry=EVEN)
state = make_state(v, 0.0, PhysicsParams(1.0))
ctl = StepControl(dt=1e-3)
new, stages = step(state, ctl, record_stages=True)
part = step_linear(state, stages, ctl)
rec = norms(new.v)
assert np.isfinite(rec.l2) and np.isfinite(part.v.coeffs).all()
assert not any(name == "scipy" or name.startswith("scipy.") for name in sys.modules
               if sys.modules[name] is not None)
print("ok")
"""


def test_steps_and_norms_without_scipy():
    result = fresh_python(["-c", SCRIPT], timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
