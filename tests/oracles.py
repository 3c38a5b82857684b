"""References for the solver's fast paths.

The Parseval sums here run over every stored coefficient, so they hold
for any field; the band sums of the records are checked against them.
``one_slab`` takes the pruned oversampled stream whole, so that tests can
compare it with ``spectral.oversample``, the lattice's definition, and
``whole_lattice_ratio`` reduces such whole lattices, the reference for the
streamed Ladyzhenskaya ratios.  ``fit_c0_all_steps`` is the sup-envelope
fit as a 200-step bisection of each time's root, one time at a time.  The ``loop_``
functions are the Moser iteration one instance, and one term, at a time,
the references for its batches, and ``refine_two_pass`` is zero padding
one axis at a time.
"""

import numpy as np

from hydrostat.estimates import IterationInstance, LadyzhenskayaRatios, certified_log_bounds
from hydrostat.spectral import SpectralField, _oversampled_slabs, _parseval, l2_norm


def l2_norm_sq(f):
    """Squared L2 norm by Parseval; unrooted, so an overflow rescale is squared back."""
    return _parseval(f.coeffs, (f.grid.mode_weights,), f.grid.volume, (False,))[0]


def grad_norm_sq(f):
    """Squared L2 norm of the full (3D) gradient, by Parseval."""
    g = f.grid
    return _parseval(f.coeffs, (g.mode_weights * g.k2,), g.volume, (False,))[0]


def grad_h_norm_sq(f):
    """Squared L2 norm of the horizontal gradient, by Parseval."""
    g = f.grid
    return _parseval(f.coeffs, (g.mode_weights * g.kh2[:, :, None],), g.volume, (False,))[0]


def stepwise_energy_residuals(t, l2, grad_l2):
    """Per-step trapezoid residual of the energy law, O(dt^3) for the scheme."""
    e = 0.5 * np.asarray(l2, dtype=float) ** 2
    g = np.asarray(grad_l2, dtype=float) ** 2
    return np.diff(e) + 0.5 * np.diff(t) * (g[1:] + g[:-1])


def one_slab(f):
    """``_oversampled_slabs(f)`` run as one slab, as (ncomp, nx', ny', nz') values.

    That is ``oversample(f).values`` to round-off, or, for a mirrored
    field (``spectral._mirrored``), its planes j = 0..nz'/2 only.  The
    values are the bytes that the norms reduce when their lattice is one
    slab.
    """
    (_, values), = _oversampled_slabs(f)
    return np.moveaxis(values, 3, 1)


def whole_lattice_ratio(phi, varphi, psi):
    """``ladyzhenskaya_ratio`` on whole oversampled lattices of untagged fields, one at a time."""
    g = phi.grid
    vals = one_slab(phi)[0]
    col_phi = np.mean(np.abs(vals, out=vals), axis=2) * g.volume
    del vals
    mix = one_slab(varphi)[0]
    mix *= one_slab(psi)[0]
    col_mix = np.mean(np.abs(mix, out=mix), axis=2) * g.volume
    lhs = float(np.mean(col_phi * col_mix))

    def _pair(f):
        n2 = l2_norm(f)
        nh = np.sqrt(grad_h_norm_sq(f))
        return n2, np.sqrt(n2 * (n2 + nh))

    phi2, phi_mix = _pair(phi)
    var2, var_mix = _pair(varphi)
    psi2, psi_mix = _pair(psi)
    rhs1 = phi2 * var_mix * psi_mix
    rhs2 = phi_mix * var_mix * psi2
    tiny = np.finfo(float).tiny
    return LadyzhenskayaRatios(lhs, rhs1, rhs2,
                               lhs / max(rhs1, tiny), lhs / max(rhs2, tiny))


@np.errstate(over="ignore")
def fit_c0_all_steps(t, linf_V, linf_V0, v0_l4):
    """``estimates.fit_sup_envelope_c0`` bisecting each time's root for 200
    steps from the bracket (1e-300, hi], hi doubled from 1 up to 2^40."""
    a = np.float64(1.0 + v0_l4)
    need = 0.0
    for ti, vi in zip(np.asarray(t, dtype=float), np.asarray(linf_V, dtype=float)):
        target = np.log(vi / linf_V0) if vi > 0 else -np.inf
        if target == -np.inf:
            continue
        b = np.exp(2.0 * ti) * (ti + 1.0) * a ** 4
        if b == np.inf:
            continue
        offset = 40.0 * np.log(a) + 2.0 * np.log1p(ti)

        def short(c):
            return np.log(c) + offset + c * b - target

        lo, hi = 1e-300, 1.0
        while short(hi) < 0:
            hi *= 2.0
            if hi > 1e12:
                break
        for _ in range(200):
            mid = np.sqrt(lo * hi) if hi / lo > 4 else 0.5 * (lo + hi)
            if short(mid) < 0:
                lo = mid
            else:
                hi = mid
        need = max(need, hi)
    return float(need)


def loop_saturated(m0, delta0, kmax, damping=None):
    """The saturated recursion on numpy scalars, one term at a time."""
    lm, ld = np.log(m0), np.log(delta0)
    log_u = np.zeros(kmax) if damping is None else np.log(damping)
    la = np.empty(kmax)
    la[0] = lm + 2 * ld + log_u[0]
    for k in range(1, kmax):
        la[k] = np.logaddexp(lm + 2.0 ** (k + 1) * ld, k * lm + 2 * la[k - 1]) + log_u[k]
    return la


def loop_verdict(inst, slack=1e-9):
    """(status, first_violation) with the hypothesis checked one k at a time."""
    lm, ld, la = np.log(inst.m0), np.log(inst.delta0), inst.log_terms
    if la[0] > lm + 2 * ld + slack:
        return "hypothesis-violated", 1
    for k in range(1, len(la)):
        if la[k] > np.logaddexp(lm + 2.0 ** (k + 1) * ld, k * lm + 2 * la[k - 1]) + slack:
            return "hypothesis-violated", k + 1
    log_a = certified_log_bounds(inst.m0, inst.delta0, len(la))
    bad = np.nonzero(la > log_a + slack)[0]
    return ("bound-violated", int(bad[0]) + 1) if bad.size else ("ok", None)


def loop_instances(rng, count, kmax_limit):
    """``count`` random instances drawn and saturated one at a time."""
    for _ in range(count):
        m0 = rng.uniform(2.0, 10.0)
        delta0 = rng.uniform(1e-6, 1.0 - 1e-12)
        kmax = int(rng.integers(1, kmax_limit + 1))
        damping = rng.uniform(1e-3, 1.0, size=kmax) if rng.random() < 0.5 else None
        yield IterationInstance(m0, delta0, loop_saturated(m0, delta0, kmax, damping))


def loop_ensemble(instances):
    """(violations, tightness) of ``instances``, checked one at a time with
    a running max, as the lemma suite once looped over its ensemble."""
    violations, tightness = 0, 0.0
    for inst in instances:
        violations += loop_verdict(inst)[0] != "ok"
        log_a = certified_log_bounds(inst.m0, inst.delta0, len(inst.log_terms))
        margin = float(np.max(inst.log_terms - log_a))
        tightness = max(tightness, np.exp(min(margin, 0.0)))
    return violations, float(tightness)


def refine_two_pass(f, fine):
    """``spectral.refine`` as two zero-padded copies, y into a temporary and
    then z into the fine array."""
    g, (ncomp, nxr) = f.grid, f.coeffs.shape[:2]

    def pad_axis(dst, src, axis, n):
        lo = n // 2 + 1
        lead = (slice(None),) * axis
        dst[lead + (slice(None, lo),)] = src[lead + (slice(None, lo),)]
        dst[lead + (slice(dst.shape[axis] - (n - lo), None),)] = src[lead + (slice(lo, None),)]

    rows = np.zeros((ncomp, nxr, fine.ny, g.nz), dtype=complex)
    pad_axis(rows, f.coeffs, 2, g.ny)
    out = np.zeros((ncomp,) + fine.spectral_shape, dtype=complex)
    pad_axis(out[:, :nxr], rows, 3, g.nz)
    return SpectralField(fine, out, f.symmetry)
