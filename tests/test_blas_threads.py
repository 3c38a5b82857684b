"""Results do not depend on the number of BLAS threads.

The band transforms of the stepper and the y and x passes of the
oversampled evaluation are matrix products through numpy's BLAS.  A fresh
interpreter takes one nonlinear step, one linear step and one norm record
at each of three resolutions, one layer-inequality ratio at 32x32x128,
whose three lattices stream in lockstep in more than one slab, the sup
norm of an untagged field at 48x48x96 and one norm record at 64x64x128,
whose lattice comes in three slabs, with OPENBLAS_NUM_THREADS
and OMP_NUM_THREADS set to 1 and then to 2, and prints a hash of every
result's bytes.  At 48x48x96 the per-component x products of the band are
large enough for BLAS to split them across threads.
"""

from tooling import fresh_python

SCRIPT = """
import hashlib
import numpy as np
from hydrostat import (EVEN, Grid, PhysicsParams, StepControl,
                       field_from_function, make_state, norms, step, step_linear)
from hydrostat.estimates import ladyzhenskaya_ratio
from hydrostat.spectral import (_LADY_SLAB_BYTES, _SLAB_BYTES, PhysicalField,
                                _oversampled_slabs, dealias, linf_norm, to_spectral)
digest = hashlib.sha256()
for shape in ((16, 16, 32), (10, 14, 20), (48, 48, 96)):
    g = Grid.make(*shape, 0.5)
    v = field_from_function(g, lambda X, Y, Z: (
        np.cos(2 * np.pi * Y) * np.cos(2 * np.pi * Z) + np.sin(2 * np.pi * (X + 2 * Y)),
        np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Z)), symmetry=EVEN)
    state = make_state(v, 0.0, PhysicsParams(1.0))
    ctl = StepControl(dt=1e-3)
    new, stages = step(state, ctl, record_stages=True)
    part = step_linear(make_state(0.5 * v, 0.0, state.params), stages, ctl)
    rec = norms(new.v)
    for array in ([new.v.coeffs, part.v.coeffs]
                  + [a for s in stages for a in (s.v, s.w)]
                  + [np.array([rec.l2, rec.grad_l2, rec.l4, rec.l6, rec.linf])]):
        digest.update(array.tobytes())
rng = np.random.default_rng(5)
def scalar(shape):
    g = Grid.make(*shape, 0.5)
    return dealias(to_spectral(PhysicalField(g, rng.standard_normal((1,) + shape))))
triple = [scalar((32, 32, 128)) for _ in range(3)]
assert sum(1 for _ in _oversampled_slabs(triple[0], _LADY_SLAB_BYTES)) > 1
r = ladyzhenskaya_ratio(*triple)
digest.update(np.array([r.lhs, r.rhs1, r.rhs2, r.ratio1, r.ratio2,
                        linf_norm(scalar((48, 48, 96)))]).tobytes())
g = Grid.make(64, 64, 128, 0.5)
v = dealias(field_from_function(g, lambda X, Y, Z: (
    np.cos(2 * np.pi * Y) * np.cos(2 * np.pi * Z) + np.sin(2 * np.pi * (X + 2 * Y)),
    np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Z)), symmetry=EVEN))
assert sum(1 for _ in _oversampled_slabs(v, _SLAB_BYTES)) == 3
rec = norms(v)
digest.update(np.array([rec.l2, rec.grad_l2, rec.l4, rec.l6, rec.linf]).tobytes())
print(digest.hexdigest())
"""


def _run(threads):
    result = fresh_python(["-c", SCRIPT], env=dict(OPENBLAS_NUM_THREADS=str(threads),
                                                   OMP_NUM_THREADS=str(threads)),
                          timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_steps_and_norms_are_byte_identical_for_one_and_two_blas_threads():
    one = _run(1)
    assert len(one) == 64
    assert _run(2) == one
