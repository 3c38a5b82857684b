"""Norm records, closed-form bound evaluators and the quantitative lemmas.

The bound evaluators keep the displayed closed forms but treat the
non-explicit constants as parameters (``BoundParams``, default 1);
nothing here claims sharp constants.  Doubly exponential quantities (the
iteration bounds, where terms like delta0^(2^k) underflow long before
k = 40) are handled entirely in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spectral import (_FACTOR, _LADY_SLAB_BYTES, SpectralField, _band_l2,
                       _lattice_norms, _oversampled_slabs, _parseval)
from .spectral import oversample  # noqa: F401  -- a name the benchmark's tracer rebinds


@dataclass
class NormRecord:
    """Norms of a velocity field at one instant (unnormalized L^q)."""

    l2: float
    grad_l2: float
    l4: float
    l6: float
    linf: float


@dataclass(frozen=True)
class BoundParams:
    """Tunable stand-ins for the non-explicit constants depending only on h."""

    c0: float = 1.0
    c: float = 1.0
    c0_star: float = 1.0

    def __post_init__(self):
        if min(self.c0, self.c, self.c0_star) <= 0:
            raise ConfigurationError("bound constants must be positive")


def norms(v: SpectralField, packed=None) -> NormRecord:
    """Norms of a solver state: L2 and gradient by Parseval on its band, from
    one |v|^2 (``spectral._band_l2``, which refuses a field not tagged
    ``EVEN``), L^4, L^6 and sup by oversampled quadrature.

    ``v`` is packed once (or comes ``packed``), and that band gives the lines
    of the single oversampled evaluation of |v|^2 that feeds every lattice
    norm (``_Band.populated``; ``spectral.lq_norm`` gives any other q).  The
    gradient norm is the root of its Parseval sum, finite whenever it is in
    range.
    """
    band = v.grid.band
    packed = band.pack(v.coeffs) if packed is None else packed
    l2, grad_l2 = _band_l2(v, (False, True), packed)
    linf, lq = _lattice_norms(v, (4.0, 6.0), band.populated(packed))
    return NormRecord(l2=l2, grad_l2=grad_l2, l4=lq[4.0], l6=lq[6.0], linf=linf)


# ---------------------------------------------------------------------------
# closed-form bound evaluators
# ---------------------------------------------------------------------------

def _log_envelope(t, v0_l4, c):
    """log(c a^40 (t+1)^2 e^{c b}) and its rate b = e^{2t}(t+1)a^4, a = 1 + ||v0||_4.

    The log is summed as (log c + offset) + c b, offset = 40 log a +
    2 log(1+t), the order whose bits the C0 fit keeps; ``c`` broadcasts
    against ``t``.  b is inf where e^{2t} or a^4 overflows: there the
    envelope is above every float.
    """
    t = np.asarray(t, dtype=float)
    a = np.float64(1.0 + v0_l4)
    with np.errstate(over="ignore"):
        b = np.exp(2.0 * t) * (t + 1.0) * a ** 4
        return np.log(c) + (40.0 * np.log(a) + 2.0 * np.log1p(t)) + c * b, b


def growth_envelope(t, v0_l4, c):
    """c*(1+||v0||_4)^40 (t+1)^2 exp{c e^{2t}(t+1)(1+||v0||_4)^4}.

    Shared closed form of the sup-norm growth envelope; evaluated through
    the log to postpone overflow (returns inf when e^(...) overflows).
    """
    with np.errstate(over="ignore"):
        return np.exp(_log_envelope(t, v0_l4, c)[0])


def perturbation_response(s, v0_l4, h, p: BoundParams):
    """rho(s) = C0 a^40 e^{C0 a^4} s, a = 1 + ||v0||_4 + (2h)^(1/4) s: the
    threshold map of the perturbation result, the envelope at t = 0 with shifted
    data; rho(0) = 0 for every ||v0||_4, else inf where the envelope overflows."""
    s = np.asarray(s, dtype=float)
    rho = growth_envelope(0.0, v0_l4 + (2.0 * h) ** 0.25 * s, p.c0)
    return np.multiply(rho, s, out=np.zeros(np.shape(rho)), where=s != 0)[()]


def iteration_weight(t, v0_l4, p: BoundParams):
    """S0(t) = [(1+||v0||_4) exp{C e^{2t}(t+1)(1+||v0||_4)^4}]^20."""
    b = _log_envelope(t, v0_l4, p.c)[1]
    with np.errstate(over="ignore"):
        return np.exp(20.0 * (np.log(1.0 + v0_l4) + p.c * b))


def iteration_weight_integral(t, v0_l4, p: BoundParams, n: int = 256):
    """S1(t) = int_0^t S0, by composite Simpson quadrature."""
    if t == 0:
        return 0.0
    tau = np.linspace(0.0, t, 2 * n + 1)
    vals = iteration_weight(tau, v0_l4, p)
    ht = tau[1] - tau[0]
    return float(ht / 3.0 * (vals[0] + vals[-1] + 4 * vals[1::2].sum()
                             + 2 * vals[2:-1:2].sum()))


def iteration_base(t, s1, h, p: BoundParams):
    """M0(t) = 2h + (1+C0*) 2^80 (1+S1(t)); always >= 2."""
    return 2.0 * h + (1.0 + p.c0_star) * 2.0 ** 80 * (1.0 + s1)


# ---------------------------------------------------------------------------
# Moser-type iteration (exact numeric routine, log space)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationInstance:
    """A candidate sequence for the doubling iteration, stored as log A_k."""

    m0: float
    delta0: float
    log_terms: np.ndarray          # log A_k for k = 1..len

    def __post_init__(self):
        if self.m0 < 2:
            raise ConfigurationError(f"M0={self.m0}: iteration base must be >= 2")
        if self.delta0 <= 0:
            raise ConfigurationError(f"delta0={self.delta0}: must be positive")


@dataclass(frozen=True)
class MoserVerdict:
    status: str                    # "ok" | "bound-violated" | "hypothesis-violated"
    log_certified: np.ndarray      # log a_k = log of the certified bounds
    first_violation: int | None = None   # 1-based k where the check failed

    @property
    def ok(self):
        return self.status == "ok"


_LOG_SLACK = 1e-9   # forgives round-off on exactly saturated recursions
_MOSER_BATCH = 256  # instances per batch of the lemma suite: 80 KB arrays at kmax 40


def certified_log_bounds(m0, delta0, kmax):
    """log a_k = -(k+2) log M0 + 2^(k-1) (4 log M0 + 2 log delta0), k = 1..kmax."""
    k = np.arange(1, kmax + 1, dtype=float)
    return -(k + 2) * np.log(m0) + 2.0 ** (k - 1) * (4 * np.log(m0) + 2 * np.log(delta0))


def _saturated(lm, ld, log_u):
    """log A_k of the saturated recursion damped by exp(``log_u``), for a
    batch: ``lm``, ``ld`` (n,) and ``log_u`` (n, K), run k by k."""
    la = np.empty(log_u.shape)
    la[:, 0] = lm + 2 * ld + log_u[:, 0]
    for k in range(1, la.shape[1]):
        la[:, k] = np.logaddexp(lm + 2.0 ** (k + 1) * ld, k * lm + 2 * la[:, k - 1]) + log_u[:, k]
    return la


def _violations(m0, delta0, la):
    """Where each term of a batch (rows of ``la``) breaks the hypothesis and
    the bound A_k <= a_k, in log space; and log a_k."""
    lm, ld = np.log(m0)[:, None], np.log(delta0)[:, None]
    k = np.arange(1, la.shape[1])             # recursion index k, sequence A_{k+1}
    bound = np.logaddexp(lm + 2.0 ** (k + 1) * ld, k * lm + 2 * la[:, :-1])
    log_a = certified_log_bounds(m0[:, None], delta0[:, None], la.shape[1])
    return la > np.hstack((lm + 2 * ld, bound)) + _LOG_SLACK, la > log_a + _LOG_SLACK, log_a


def moser_bound_check(inst: IterationInstance) -> MoserVerdict:
    """Check the hypothesis, then the certified bound A_k <= a_k, in log
    space (``_violations`` of a batch of one)."""
    hyp, bound, log_a = _violations(np.array([inst.m0]), np.array([inst.delta0]),
                                    inst.log_terms[None])
    for status, bad in (("hypothesis-violated", hyp[0]), ("bound-violated", bound[0])):
        if bad.any():
            return MoserVerdict(status, log_a[0], int(np.argmax(bad)) + 1)
    return MoserVerdict("ok", log_a[0])


def moser_batch_check(batch):
    """(violations, tightness) of a ``random_instance`` batch, as checked one
    at a time: how many fail ``moser_bound_check``; max_k A_k / a_k, at most 1."""
    m0, delta0, kmax, la = batch
    hyp, bound, log_a = _violations(m0, delta0, la)
    live = np.arange(la.shape[1]) < kmax[:, None]         # not the padding
    closest = np.exp(np.minimum(np.max(np.where(live, la - log_a, -np.inf), axis=1), 0.0))
    return int(np.sum(((hyp | bound) & live).any(axis=1))), float(np.fmax.reduce(closest, initial=0.0))


def saturated_instance(m0, delta0, kmax, damping=None) -> IterationInstance:
    """Sequence saturating the recursion (``_saturated`` of a batch of one),
    optionally damped by factors u_k in (0, 1], one per term; any such
    sequence still satisfies the hypothesis."""
    log_u = np.zeros(kmax) if damping is None else np.log(np.asarray(damping, dtype=float))
    if log_u.shape != (kmax,) or np.any(log_u > 0):
        raise ConfigurationError("damping must be kmax factors in (0, 1]")
    return IterationInstance(m0, delta0, _saturated(np.log([m0]), np.log([delta0]), log_u[None])[0])


def random_instance(rng, kmax_limit=40, count=None):
    """Random hypothesis-satisfying instance: M0 in [2,10], delta0 in (0,1),
    kmax up to ``kmax_limit``, damped half the time by factors in [1e-3, 1).
    With ``count``, the next ``count`` of them, by the same ``rng`` calls in
    order, as a batch ``(m0, delta0, kmax, log_terms)`` of rows padded past kmax."""
    n = 1 if count is None else count
    m0, delta0, kmax, log_u = np.empty(n), np.empty(n), np.empty(n, int), np.zeros((n, kmax_limit))
    for i in range(n):
        m0[i], delta0[i] = rng.uniform(2.0, 10.0), rng.uniform(1e-6, 1.0 - 1e-12)
        kmax[i] = rng.integers(1, kmax_limit + 1)
        if rng.random() < 0.5:
            log_u[i, : kmax[i]] = np.log(rng.uniform(1e-3, 1.0, size=kmax[i]))
    la = _saturated(np.log(m0), np.log(delta0), log_u[:, : kmax.max(initial=1)])
    if count is None:
        return IterationInstance(float(m0[0]), float(delta0[0]), la[0])
    return m0, delta0, kmax, la


# ---------------------------------------------------------------------------
# anisotropic Ladyzhenskaya inequality (empirical checker)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadyzhenskayaRatios:
    lhs: float
    rhs1: float       # without the constant C
    rhs2: float
    ratio1: float
    ratio2: float


def ladyzhenskaya_ratio(phi: SpectralField, varphi: SpectralField,
                        psi: SpectralField) -> LadyzhenskayaRatios:
    """Empirical constant demand of the layer interpolation inequality.

    lhs = int_M (int |phi| dz)(int |varphi psi| dz) dx_H by oversampled
    lattice quadrature; both right-hand sides are returned without their
    constant, so lhs/rhs is the constant an inequality proof would need.
    The lattices are never held whole: they stream in slabs of y rows
    (``_column_means``), whose size changes lhs by round-off only.
    """
    triple = (phi, varphi, psi)
    return next(_ratios(triple, _column_means(triple, (1,))))


def _nested_ratios(triple):
    """``ladyzhenskaya_ratio`` of ``triple`` and of it refined to nz doubled (no grid
    is built for that), from one stream per field onto the fine oversampled lattice.

    The coarse lattice is its even z planes, so each slab is reduced over
    every plane and over the planes ``::2``.  The fine lhs is the refined
    triple's to the byte, the coarse one moves at round-off (a z transform
    twice as long), and both share the right-hand sides of ``triple``.
    """
    fine_columns, coarse_columns = _column_means(triple, (1, 2), 2 * _FACTOR * triple[0].grid.nz)
    return tuple(_ratios(triple, (coarse_columns, fine_columns)))


def _column_means(triple, strides, fnz=None):
    """(col_phi, col_mix) per s of ``strides``: the z column means, to np.mean's
    bits, of |phi| and of |varphi psi| over the oversampled planes ``::s``.

    The lattices, of ``fnz`` planes (``_oversampled_slabs``), stream in slabs
    of y rows k0.. of at most ``_LADY_SLAB_BYTES`` each, phi's alone and
    then varphi's and psi's in lockstep, and each slab is reduced for every
    stride before the next is made.  Untagged views stream every plane of a
    tagged field.  The columns are stored (ny', nx'), the memory order of
    the whole lattice's, so ``_ratios`` sums them in that order.
    """
    g = triple[0].grid
    for f in triple:
        if f.ncomp != 1:
            raise ConfigurationError("ratio checker expects scalar fields")
        if not f.grid.compatible(g):
            raise ConfigurationError("ratio checker expects fields on one grid")
    columns = [(np.empty((_FACTOR * g.ny, _FACTOR * g.nx)),
                np.empty((_FACTOR * g.ny, _FACTOR * g.nx))) for _ in strides]
    phi_s, varphi_s, psi_s = (_oversampled_slabs(SpectralField(f.grid, f.coeffs),
                                                 _LADY_SLAB_BYTES, fnz=fnz)
                              for f in triple)
    for k0, vals in phi_s:
        np.abs(vals[0], out=vals[0])
        for s, (col_phi, _) in zip(strides, columns):
            np.add.reduce(vals[0, :, ::s], axis=1, out=col_phi[k0:k0 + vals.shape[1]])
    for (k0, mix), (_, other) in zip(varphi_s, psi_s, strict=True):
        mix *= other
        np.abs(mix[0], out=mix[0])
        for s, (_, col_mix) in zip(strides, columns):
            np.add.reduce(mix[0, :, ::s], axis=1, out=col_mix[k0:k0 + mix.shape[1]])
    for s, pair in zip(strides, columns):       # np.mean's division, once a column
        for col in pair:
            col /= len(range(0, mix.shape[2], s))
    return columns


def _ratios(triple, columns):
    """The ratios of each (col_phi, col_mix) of ``columns``, over ``triple``'s norms."""
    g = triple[0].grid
    weights = (g.mode_weights, g.mode_weights * g.kh2[:, :, None])

    def _pair(f):
        n2, nh_sq = _parseval(f.coeffs, weights, g.volume, (True, False))
        return n2, np.sqrt(n2 * (n2 + np.sqrt(nh_sq)))

    (phi2, phi_mix), (_, var_mix), (psi2, psi_mix) = map(_pair, triple)
    rhs1 = phi2 * var_mix * psi_mix
    rhs2 = phi_mix * var_mix * psi2
    tiny = np.finfo(float).tiny
    for col_phi, col_mix in columns:
        lhs = float(np.mean((col_phi * g.volume) * (col_mix * g.volume)))
        yield LadyzhenskayaRatios(lhs, rhs1, rhs2, lhs / max(rhs1, tiny), lhs / max(rhs2, tiny))


# ---------------------------------------------------------------------------
# envelope fitting for the non-explicit bounds
# ---------------------------------------------------------------------------

_C0_CAP = np.float64(2.0 ** 40).view(np.int64)   # the largest fit, as bits
_PROBES = np.arange(1, 65)                       # bit patterns tried per pass and time


@np.errstate(over="ignore")
def fit_sup_envelope_c0(t, linf_V, linf_V0, v0_l4) -> float:
    """Minimal C0 with growth_envelope(t, .., C0) * ||V0||_inf >= ||V||_inf(t).

    Each time's root is the smallest float c <= 2^40 at which
    ``_log_envelope`` minus log(||V||/||V0||) is not negative (the
    difference grows with c); the fit is the largest root.  The roots are
    found for all times at once over the int64 bits of c, which order as
    the non-negative floats do: each pass tries 64 evenly spaced patterns
    of every time's interval (lo, hi] and keeps the one step of it where
    the sign changes, so it ends in about 11 passes on the float root,
    subnormal ones included.  A time where ||V|| = 0, or where the
    envelope is above every float, fits any C0 > 0 and adds no demand.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ConfigurationError("cannot fit an empty series")
    if linf_V0 <= 0:
        return 0.0
    ratio = np.asarray(linf_V, dtype=float) / linf_V0
    live = (ratio > 0) & (_log_envelope(t, v0_l4, 1.0)[1] < np.inf)
    t, target = t[live, None], np.log(ratio[live, None])
    lo, hi = np.zeros(t.shape, np.int64), np.full(t.shape, _C0_CAP)
    while np.any(hi - lo > 1):
        step = -((lo - hi) // len(_PROBES))
        probes = np.minimum(lo + step * _PROBES, hi)
        short = _log_envelope(t, v0_l4, probes.view(np.float64))[0] - target < 0
        k = np.count_nonzero(short, axis=1, keepdims=True)   # 64 only at the 2^40 cap: hi stays
        lo, hi = lo + step * k, np.minimum(lo + step * (k + 1), hi)
    return float(np.max(hi.view(np.float64), initial=0.0))
