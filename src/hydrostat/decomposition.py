"""Velocity splitting machinery: mollified rough initial data and the two
decoupled linear advection-diffusion systems whose solutions reconstruct
the full solution.

The initial-data family of interest is z-only data made of a power-law
cusp plus an indicator step,

    v0bar = a |z|^delta,        V0 = sigma * chi_{(-eta, eta)}(z),

which lies in the constraint space automatically.  The cusp part is
sampled on the lattice and enters as a column through ``to_spectral``
(its cosine coefficients decay like l^(-1-delta)); the step part uses
its exact Fourier coefficients against lattice artifacts at z = +/- eta.

Mollification is periodic convolution with a separable product of 1D
C-infinity bumps of radius eps, realized spectrally: the multiplier is
real, equals 1 at mode zero, has magnitude <= 1 and decays rapidly, so it
preserves parity, the mean, membership in the constraint space, and every
L^q norm (Young's inequality).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass

import numpy as np

from .diagnostics import integrate_series
from .diagnostics import energy_residual_series  # noqa: F401  -- the benchmark's tracer rebinds it
from .errors import ConfigurationError, DataError
from .hydrostatics import solve_pressure
from .solver import (PhysicsParams, SolverState, StepControl, _norm_row,
                     _plan_steps, _recorded, make_state, step, step_linear)
from .spectral import (EVEN, ODD, Grid, PhysicalField, SpectralField, _lattice_norms,
                       _parseval, dealias, field_from_function, to_spectral, zero_field)
from .spectral import linf_norm  # noqa: F401  -- a name the benchmark's tracer rebinds
from .io import read_snapshot
from .estimates import norms

KINDS = ("analytic", "cusp_step", "snapshot")


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial data description, shared by the library and the run config."""

    kind: str = "cusp_step"
    a: tuple = (1.0, 0.0)            # cusp amplitude per component
    delta: float = 1.0               # cusp exponent, > 0
    eta: float = 0.25                # step half-width, in (0, h]
    sigma: tuple = (0.2, 0.0)        # step amplitude per component
    epsilon: float = 0.0             # mollification radius, >= 0
    expression_u: str = "0"          # analytic kind: component expressions
    expression_v: str = "0"
    snapshot: str = ""               # snapshot kind: HSF1 path

    def validate(self, h):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown initial-data kind {self.kind!r}")
        if self.kind == "cusp_step":
            if not self.delta > 0:
                raise ConfigurationError(f"delta={self.delta}: cusp exponent must be > 0")
            if not 0 < self.eta <= h:
                raise ConfigurationError(f"eta={self.eta}: step half-width must lie in (0, h]")
        if self.kind == "analytic":
            _checked_expression(self.expression_u)
            _checked_expression(self.expression_v)
        if self.epsilon < 0:
            raise ConfigurationError(f"epsilon={self.epsilon}: radius must be >= 0")
        if self.epsilon > 0 and self.epsilon >= min(1.0, 2.0 * h):
            raise ConfigurationError(
                f"epsilon={self.epsilon}: radius must stay below min(1, 2h)")


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

_BUMP_POINTS = 4096


def _bump_quadrature():
    """r-grid and normalized C-infinity bump values on [-1, 1]."""
    r = np.linspace(-1.0, 1.0, _BUMP_POINTS + 1)
    inner = np.zeros_like(r)
    core = np.abs(r) < 1.0
    inner[core] = np.exp(-1.0 / (1.0 - r[core] ** 2))
    mass = np.trapezoid(inner, r)
    return r, inner / mass


def _bump_transform(s):
    """Fourier transform of the unit-radius 1D bump at frequencies ``s``.

    The integrand is smooth with all derivatives vanishing at the support
    boundary, so the trapezoid rule converges superalgebraically.  The
    transform is even in s, so it is taken once per distinct |s| (a
    wavenumber line holds each about twice) and gathered back.
    """
    r, b = _bump_quadrature()
    s = np.abs(np.atleast_1d(np.asarray(s, dtype=float)))
    distinct, where = np.unique(s, return_inverse=True)
    kernel = np.cos(np.outer(distinct, r)) * b
    return np.trapezoid(kernel, r, axis=1)[where]


def mollify(v0: SpectralField, epsilon: float) -> SpectralField:
    """Periodic convolution with a smooth unit-mass bump of radius ``epsilon``."""
    return _mollify_parts((v0,), epsilon)[0]


def _mollify_parts(fields, epsilon):
    """``mollify`` of each of ``fields``, all on one grid.

    The separable multiplier is built once for all of them, on the block of
    wavenumbers populated in some field (a column's x and y take one each),
    which alone is multiplied.  Its zeros are made +0, as outside it, so the
    bytes are the full multiplier's up to the sign of zeros, and the same
    whether the parts are mollified together or one by one.
    """
    if epsilon < 0:
        raise ConfigurationError(f"epsilon={epsilon}: radius must be >= 0")
    if epsilon == 0:
        return fields
    g = fields[0].grid
    if epsilon >= min(1.0, 2.0 * g.h):
        raise ConfigurationError(
            f"epsilon={epsilon}: radius must stay below min(1, 2h)")
    hit = np.logical_or.reduce([np.any(f.coeffs, axis=0) for f in fields])
    ms, ns, ls = (np.flatnonzero(np.any(hit, axis=other))
                  for other in ((1, 2), (0, 2), (0, 1)))
    mult = (_bump_transform(epsilon * g.kx[ms, 0, 0])[:, None, None]
            * _bump_transform(epsilon * g.ky[0, ns, 0])[None, :, None]
            * _bump_transform(epsilon * g.kz[0, 0, ls]))
    block = (slice(None),) + np.ix_(ms, ns, ls)
    out = tuple(np.zeros_like(f.coeffs) for f in fields)
    for f, c in zip(fields, out):
        c[block] = f.coeffs[block] * mult + 0.0
    return tuple(f.with_coeffs(c) for f, c in zip(fields, out))


# ---------------------------------------------------------------------------
# initial-data library
# ---------------------------------------------------------------------------

def _step_part(grid: Grid, eta, sigma) -> SpectralField:
    """The dealiased step sigma * chi_{(-eta, eta)}(z) from its exact coefficients.

    The coefficients are those of the indicator about z = 0; the lattice
    origin sits at z = -h, so the z-centered value picks up the shift
    phase e^{-i pi l} = (-1)^l.
    """
    h = grid.h
    coeffs = np.zeros((2,) + grid.spectral_shape, dtype=complex)
    lz = np.rint(grid.kz[0, 0] * h / np.pi).astype(int)
    nonzero = lz != 0
    centered = np.zeros(grid.nz)
    centered[~nonzero] = eta / h
    centered[nonzero] = (np.sin(np.pi * lz[nonzero] * eta / h)
                         / (np.pi * lz[nonzero]))
    shifted = centered * np.where(lz % 2 == 0, 1.0, -1.0)
    for i in range(2):
        coeffs[i, 0, 0, :] = sigma[i] * shifted
    return dealias(SpectralField(grid, coeffs, EVEN))


def make_cusp_step_data(grid: Grid, spec: InitialDataSpec):
    """Build (v0bar, V0): lattice-sampled cusp and exact-coefficient step,
    both columns (``to_spectral`` takes the z-only samples to the mean line)."""
    spec.validate(grid.h)
    if spec.kind != "cusp_step":
        raise ConfigurationError(f"initial-data kind {spec.kind!r} has no cusp/step parts")
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.multiply.outer(spec.a, np.abs(grid.z()) ** spec.delta)
    lattice = np.broadcast_to(samples[:, None, None], (2,) + grid.physical_shape)
    return (dealias(to_spectral(PhysicalField(grid, lattice), EVEN)),
            _step_part(grid, spec.eta, spec.sigma))


_SAFE_NAMES = {"pi": np.pi, "sin": np.sin, "cos": np.cos, "exp": np.exp,
               "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs}
_VARIABLES = {"x", "y", "z", "h", "pi"}
_FUNCTIONS = {name for name, f in _SAFE_NAMES.items() if callable(f)}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, ast.Add, ast.Sub,
          ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def _checked_expression(text):
    """Compile a config expression after checking every node of its tree.

    Allowed: the names x, y, z, h and pi, one-argument calls of the
    functions in ``_SAFE_NAMES``, int/float constants, + - * / ** and unary
    +/-.  Integer constants become floats, so that a power of constants
    overflows at once instead of growing an unbounded integer.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as err:
        raise ConfigurationError(f"expression {text!r}: {err}") from err
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
             and len(node.args) == 1 and not node.keywords}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            ok = node.id in (_FUNCTIONS if id(node) in calls else _VARIABLES)
        elif isinstance(node, ast.Call):
            ok = id(node.func) in calls
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float) and abs(node.value) <= sys.float_info.max
            if ok:
                node.value = float(node.value)
        else:
            ok = isinstance(node, _NODES)
        if not ok:
            what = ast.unparse(node) if isinstance(node, ast.expr) else type(node).__name__
            raise ConfigurationError(f"expression {text!r}: {what} is not allowed")
    try:
        return compile(tree, "<expression>", "eval")
    except RecursionError as err:
        raise ConfigurationError(f"expression {text!r}: nested too deeply") from err


def _analytic_field(grid, spec):
    texts = (spec.expression_u, spec.expression_v)
    codes = [_checked_expression(text) for text in texts]

    def build(X, Y, Z):
        env = dict(_SAFE_NAMES, x=X, y=Y, z=Z, h=grid.h)
        for text, code in zip(texts, codes):
            try:
                with np.errstate(all="ignore"):
                    value = eval(code, {"__builtins__": {}}, env) + 0 * X  # noqa: S307
            except ArithmeticError as err:
                raise ConfigurationError(f"expression {text!r}: {err}") from err
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"expression {text!r}: samples are not finite")
            yield value
    return dealias(field_from_function(grid, lambda *xyz: tuple(build(*xyz)), EVEN))


def prepare_initial_parts(grid: Grid, spec: InitialDataSpec, inputs=None):
    """Resolve the spec into (v0bar, V0) on the grid, mollified at its epsilon.

    A snapshot must hold a 2-component field on this very grid, not tagged
    odd (a state keeps the even part, which is zero); any other snapshot
    raises ``DataError``, as an unreadable one does.  A list ``inputs`` gets
    the digest of the snapshot bytes parsed (``read_snapshot``)."""
    spec.validate(grid.h)
    if spec.kind == "cusp_step":
        raw = make_cusp_step_data(grid, spec)
    elif spec.kind == "analytic":
        raw = _analytic_field(grid, spec), zero_field(grid, 2, EVEN)
    else:
        f = read_snapshot(spec.snapshot, grid, inputs)
        if f.ncomp != 2 or f.grid is not grid or f.symmetry == ODD:
            raise DataError(f"{spec.snapshot}: not a 2-component field on the run's "
                            f"{grid.nx}x{grid.ny}x{grid.nz} grid with h = {grid.h}, "
                            f"tagged even or untagged (symmetry tag: {f.symmetry})")
        raw = dealias(f), zero_field(grid, 2, EVEN)
    return _mollify_parts(raw, spec.epsilon)


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecompositionState:
    """The two linear parts lock-stepped with their nonlinear driver.

    ``pressure_vbar`` / ``pressure_V`` are the parts' own pressures at the
    current time, recovered from the linear Poisson problems with the
    driver velocity in the mixed advection tensor.
    """

    vbar: SolverState
    V: SolverState
    driver: SolverState

    @property
    def pressure_vbar(self):
        return solve_pressure(self.vbar.v, self.vbar.params.f0,
                              driver=self.driver.v).total

    @property
    def pressure_V(self):
        return solve_pressure(self.V.v, self.V.params.f0,
                              driver=self.driver.v).total


def lockstep(v0bar: SpectralField, V0: SpectralField, params: PhysicsParams,
             ctl: StepControl, t_end: float):
    """Co-integrate the nonlinear system and both linear parts.

    Yields ``(dt, DecompositionState)`` at t = 0 (with dt = 0.0) and after
    every step; the nonlinear trajectory supplies the driver fields at the
    exact RK stage times of both linear parts.
    """
    v = make_state(v0bar + V0, 0.0, params)
    vbar = make_state(v0bar, 0.0, params)
    V = make_state(V0, 0.0, params)
    yield 0.0, DecompositionState(vbar, V, v)
    for dt in _plan_steps(0.0, t_end, ctl.dt):
        v, stages = step(v, ctl, dt=dt, record_stages=True)
        vbar = step_linear(vbar, stages, ctl, dt=dt)
        V = step_linear(V, stages, ctl, dt=dt)
        yield dt, DecompositionState(vbar, V, v)


def _split_record(state: DecompositionState) -> dict:
    """One row of the split run's series: the ``CSV_COLUMNS`` but
    ``energy_residual``, with recon_residual = ||v - (vbar + V)||_2 / ||v||_2,
    plus ||grad dz vbar||_2^2 and stability's envelope terms ||grad vbar||_2
    and ||grad_H dz vbar||_2^2.

    v, vbar and V are solver states, so each is fixed by its band
    (``spectral._Band``): they are packed once, ``norms(v)`` and ||V||_inf
    take their line masks from those bands (``_Band.populated``), and every
    other sum is ``_parseval`` with ``band.weights``.  dz vbar is packed too;
    its factor i drops out of |i kz c|^2.
    """
    g = state.driver.v.grid
    band = g.band
    v, vbar, V = (band.pack(s.v.coeffs) for s in (state.driver, state.vbar, state.V))
    rec = norms(state.driver.v, v)
    dz = band.kz * vbar
    w, vol = band.weights, g.volume
    recon_l2 = _parseval(v - (vbar + V), w, vol, root=True)
    return dict(
        _norm_row(state.driver.t, rec),
        linf_V=_lattice_norms(state.V.v, (), band.populated(V))[0],
        dz_vbar_l2=_parseval(dz, w, vol, root=True),
        grad_dz_vbar_sq=_parseval(dz, w * band.k2, vol),
        recon_residual=recon_l2 / max(rec.l2, np.finfo(float).tiny),
        grad_vbar_l2=_parseval(vbar, w * band.k2, vol, root=True),
        grad_h_dz_vbar_sq=_parseval(dz, w * band.kh2[..., None], vol))


def run_decomposition(v0bar: SpectralField, V0: SpectralField,
                      params: PhysicsParams, ctl: StepControl,
                      t_end: float, hooks=()):
    """The coupled run, as ``(final DecompositionState, series)``, like
    ``integrate``: one ``_split_record`` row per ``lockstep`` state, in
    ``integrate``'s loop (``solver._recorded``), then ``energy_residual`` and
    ``dz_vbar_dissipation``, the running integral of ||grad dz vbar||_2^2.
    Hooks are called as ``hook(dt, state)``: with dt = 0.0 at t = 0, then after
    every step.  A ``BlowUpError`` carries the partial series as ``series``.
    """
    state, series = _recorded(lockstep(v0bar, V0, params, ctl, t_end),
                              _split_record, hooks)
    series.columns["dz_vbar_dissipation"] = list(
        integrate_series(series.array("t"), series.array("grad_dz_vbar_sq")))
    return state, series
