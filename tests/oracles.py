"""References for the solver's fast paths.

The Parseval sums here run over every stored coefficient, so they hold
for any field; the band sums of the records are checked against them.
``one_slab`` takes the pruned oversampled stream whole, so that tests can
compare it with ``spectral.oversample``, the lattice's definition, and
``whole_lattice_ratio`` reduces such whole lattices, the reference for the
streamed Ladyzhenskaya ratios.  ``fit_c0_all_steps`` is the sup-envelope
fit with every one of its 200 bisection steps taken.
"""

import numpy as np

from hydrostat.estimates import LadyzhenskayaRatios
from hydrostat.spectral import _oversampled_slabs, _parseval, grad_h_norm_sq, l2_norm


def l2_norm_sq(f):
    """Squared L2 norm by Parseval; unrooted, so an overflow rescale is squared back."""
    return _parseval(f.coeffs, f.grid.mode_weights, f.grid.volume)


def grad_norm_sq(f):
    """Squared L2 norm of the full (3D) gradient, by Parseval."""
    g = f.grid
    return _parseval(f.coeffs, g.mode_weights * g.k2, g.volume)


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
    """``estimates.fit_sup_envelope_c0`` bisecting each root for all 200 steps."""
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
