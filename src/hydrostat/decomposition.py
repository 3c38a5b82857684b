"""Velocity splitting machinery: mollified rough initial data and the two
decoupled linear advection-diffusion systems whose solutions reconstruct
the full solution.

The initial-data family of interest is z-only data made of a power-law
cusp plus an indicator step,

    v0bar = a |z|^delta,        V0 = sigma * chi_{(-eta, eta)}(z),

which lies in the constraint space automatically.  The cusp part is
sampled on the lattice (its cosine coefficients decay like l^(-1-delta));
the step part uses its exact Fourier coefficients to avoid
lattice-alignment artifacts at z = +/- eta.

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
from functools import lru_cache

import numpy as np

from .diagnostics import (DiagnosticsSeries, energy_residual_series,
                          integrate_series)
from .errors import ConfigurationError
from .hydrostatics import solve_pressure
from .solver import (PhysicsParams, SolverState, StepControl, _plan_steps,
                     make_state, step, step_linear)
from .spectral import (EVEN, Grid, SpectralField, _parseval, dealias,
                       field_from_function, linf_norm, zero_field)
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


@lru_cache(maxsize=1)
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
    boundary, so the trapezoid rule converges superalgebraically.
    """
    r, b = _bump_quadrature()
    s = np.atleast_1d(np.asarray(s, dtype=float))
    kernel = np.cos(np.outer(s, r)) * b
    return np.trapezoid(kernel, r, axis=1)


def mollify(v0: SpectralField, epsilon: float) -> SpectralField:
    """Periodic convolution with a smooth unit-mass bump of radius ``epsilon``."""
    return _mollify_parts((v0,), epsilon)[0]


def _mollify_parts(fields, epsilon):
    """``mollify`` of each of ``fields``, all on one grid.

    The separable multiplier is built once for all of them: each of its
    three factors is a ``_bump_transform`` over one wavenumber line.
    """
    if epsilon < 0:
        raise ConfigurationError(f"epsilon={epsilon}: radius must be >= 0")
    if epsilon == 0:
        return fields
    g = fields[0].grid
    if epsilon >= min(1.0, 2.0 * g.h):
        raise ConfigurationError(
            f"epsilon={epsilon}: radius must stay below min(1, 2h)")
    px = _bump_transform(epsilon * g.kx[:, 0, 0])
    py = _bump_transform(epsilon * g.ky[0, :, 0])
    pz = _bump_transform(epsilon * g.kz[0, 0, :])
    mult = px[:, None, None] * py[None, :, None] * pz[None, None, :]
    return tuple(f.with_coeffs(f.coeffs * mult) for f in fields)


# ---------------------------------------------------------------------------
# initial-data library
# ---------------------------------------------------------------------------

def make_cusp_step_data(grid: Grid, spec: InitialDataSpec):
    """Build (v0bar, V0): lattice-sampled cusp and exact-coefficient step."""
    spec.validate(grid.h)
    if spec.kind != "cusp_step":
        raise ConfigurationError(f"initial-data kind {spec.kind!r} has no cusp/step parts")
    h = grid.h

    z = grid.z()
    profile = np.abs(z) ** spec.delta
    vbar = field_from_function(
        grid, lambda X, Y, Z: (spec.a[0] * profile[None, None, :] + 0 * X,
                               spec.a[1] * profile[None, None, :] + 0 * X),
        EVEN)
    vbar = dealias(vbar)

    # Exact coefficients of the indicator about z = 0; the lattice origin
    # sits at z = -h, so the z-centered value picks up the shift phase
    # e^{-i pi l} = (-1)^l.
    coeffs = np.zeros((2,) + grid.spectral_shape, dtype=complex)
    lz = np.rint(grid.kz[0, 0] * h / np.pi).astype(int)
    nonzero = lz != 0
    centered = np.zeros(grid.nz)
    centered[~nonzero] = spec.eta / h
    centered[nonzero] = (np.sin(np.pi * lz[nonzero] * spec.eta / h)
                         / (np.pi * lz[nonzero]))
    shifted = centered * np.where(lz % 2 == 0, 1.0, -1.0)
    for i in range(2):
        coeffs[i, 0, 0, :] = spec.sigma[i] * shifted
    step_part = dealias(SpectralField(grid, coeffs, EVEN))
    return vbar, step_part


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
    codes = [_checked_expression(spec.expression_u),
             _checked_expression(spec.expression_v)]

    def build(X, Y, Z):
        env = dict(_SAFE_NAMES, x=X, y=Y, z=Z, h=grid.h)
        try:
            u, v = (eval(code, {"__builtins__": {}}, env)  # noqa: S307 - checked tree
                    for code in codes)
        except ArithmeticError as err:
            raise ConfigurationError(f"initial-data expression: {err}") from err
        return (u + 0 * X, v + 0 * X)
    return dealias(field_from_function(grid, build, EVEN))


def prepare_initial_parts(grid: Grid, spec: InitialDataSpec):
    """Resolve the spec into mollified (v0bar, V0) on the grid."""
    spec.validate(grid.h)
    if spec.kind == "cusp_step":
        return _mollify_parts(make_cusp_step_data(grid, spec), spec.epsilon)
    if spec.kind == "analytic":
        return mollify(_analytic_field(grid, spec), spec.epsilon), zero_field(grid, 2, EVEN)
    if spec.kind == "snapshot":
        f = dealias(read_snapshot(spec.snapshot, grid))
        return mollify(f, spec.epsilon), zero_field(grid, 2, EVEN)
    raise ConfigurationError(f"unknown initial-data kind {spec.kind!r}")


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


@dataclass(frozen=True, eq=False)
class DecompositionRun:
    final: DecompositionState
    series: DiagnosticsSeries


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


@dataclass(frozen=True)
class _SplitSums:
    """The split record's Parseval sums at one instant (``_split_sums``)."""

    dz_vbar_l2: float          # ||dz vbar||_2
    grad_dz_vbar_sq: float     # ||grad dz vbar||_2^2
    grad_h_dz_vbar_sq: float   # ||grad_H dz vbar||_2^2
    grad_vbar_l2: float        # ||grad vbar||_2
    recon_l2: float            # ||v - (vbar + V)||_2


def _split_sums(state: DecompositionState) -> _SplitSums:
    """Parseval sums of the split record on the packed band.

    v, vbar and V are solver states, masked and exactly even, so each is
    fixed by its band coefficients (``spectral._Band``): the three are
    packed once and every sum is ``_parseval`` with ``band.weights``, as
    ``_recover_w_band`` takes its norm.  dz vbar is packed too; its
    factor i drops out of |i kz c|^2.
    """
    g = state.driver.v.grid
    band = g.band
    v, vbar, V = (band.pack(s.v.coeffs) for s in (state.driver, state.vbar, state.V))
    dz = band.kz * vbar
    w, vol = band.weights, g.volume
    return _SplitSums(
        dz_vbar_l2=_parseval(dz, w, vol, root=True),
        grad_dz_vbar_sq=_parseval(dz, w * band.k2, vol),
        grad_h_dz_vbar_sq=_parseval(dz, w * band.kh2[..., None], vol),
        grad_vbar_l2=_parseval(vbar, w * band.k2, vol, root=True),
        recon_l2=_parseval(v - (vbar + V), w, vol, root=True))


def run_decomposition(v0bar: SpectralField, V0: SpectralField,
                      params: PhysicsParams, ctl: StepControl,
                      t_end: float) -> DecompositionRun:
    """Split run with a per-step record.

    Per step the series records the ``CSV_COLUMNS`` values -- the norms of
    v, ||V||_inf, ||dz vbar||_2 and the reconstruction residual
    ||v - (vbar + V)||_2 / ||v||_2 -- plus ``dz_vbar_dissipation``, the
    running integral of ||grad dz vbar||_2^2.  Nothing else is computed.
    """
    series = DiagnosticsSeries()
    for _, state in lockstep(v0bar, V0, params, ctl, t_end):
        v, vbar, V = state.driver, state.vbar, state.V
        rec = norms(v.v)
        sums = _split_sums(state)
        denom = max(rec.l2, np.finfo(float).tiny)
        series.add_row(
            t=v.t, l2=rec.l2, grad_l2=rec.grad_l2, l4=rec.l4, l6=rec.l6,
            linf_V=linf_norm(V.v),
            dz_vbar_l2=sums.dz_vbar_l2,
            grad_dz_vbar_sq=sums.grad_dz_vbar_sq,
            recon_residual=sums.recon_l2 / denom)

    t = series.array("t")
    residual = energy_residual_series(t, series.array("l2"), series.array("grad_l2"))
    series.columns["energy_residual"] = list(residual)
    series.columns["dz_vbar_dissipation"] = list(
        integrate_series(t, series.array("grad_dz_vbar_sq")))
    return DecompositionRun(state, series)
