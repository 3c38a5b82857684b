"""Time-series diagnostics: norm records, energy bookkeeping, CSV output.

The cumulative dissipation integral backing the energy-identity check uses
a sliding 6-point interpolatory rule (exact for quintics), with weights from
the moment equations of every interval at once; on nonlinear data this
quadrature, not the time stepper, limits the reported residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError

CSV_COLUMNS = ("t", "l2", "grad_l2", "l4", "l6", "linf_V", "dz_vbar_l2",
               "energy_residual", "recon_residual")


@dataclass
class DiagnosticsSeries:
    """Append-only record of per-step diagnostics (column -> list of floats)."""

    columns: dict = field(default_factory=dict)

    def add_row(self, **values):
        n = self.length
        for name in set(self.columns) | set(values):
            col = self.columns.setdefault(name, [np.nan] * n)
            col.append(float(values.get(name, np.nan)))

    @property
    def length(self):
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def array(self, name):
        if name not in self.columns:
            return np.full(self.length, np.nan)
        return np.asarray(self.columns[name], dtype=float)

    def to_csv(self) -> str:
        """Fixed-schema CSV with 17 significant digits (byte-reproducible)."""
        lines = [",".join(CSV_COLUMNS)]
        arrays = [self.array(c) for c in CSV_COLUMNS]
        for i in range(self.length):
            lines.append(",".join(f"{a[i]:.17g}" for a in arrays))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DiagnosticsSeries":
        """Parse ``to_csv`` output; malformed text raises ``DataError``."""
        lines = [ln for ln in text.strip().splitlines() if ln]
        if len(lines) < 2:
            raise DataError("series CSV has no data rows")
        header = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
        if any(len(row) != len(header) for row in rows):
            raise DataError(f"series CSV rows do not all have {len(header)} fields")
        try:
            data = np.array([[float(x) for x in row] for row in rows])
        except ValueError as err:
            raise DataError(f"series CSV: {err}") from None
        series = cls()
        series.columns = {name: list(data[:, j]) for j, name in enumerate(header)}
        return series


def integrate_series(t, g):
    """Cumulative integral of samples g(t), sliding quintic interpolation.

    Returns D with D[0] = 0 and D[i] ~= int_{t0}^{ti} g: on subinterval i,
    the integral of the degree-5 polynomial through the 6 nearest samples
    (fewer for short series), O(dt^6) with constants that grow with the
    decay rates, so it can exceed an order-3 stepper's error.  It is w . g,
    the weights solving sum_k w_k u_k^q = u_{i+1}^(q+1)/(q+1), q < 6, in
    u = (t - t_i)/scale: one batched solve for all intervals.  Times must be
    finite and increasing (``ConfigurationError``); samples that are not
    finite give a result that is not, without a numpy warning.
    """
    t = np.asarray(t, dtype=float)
    g = np.asarray(g, dtype=float)
    n = t.size
    if n != g.size:
        raise ConfigurationError("time and sample arrays differ in length")
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise ConfigurationError("times must be finite and strictly increasing")
    if n < 2:
        return np.zeros(n)
    window = min(6, n)
    i = np.arange(n - 1)
    rows = np.clip(i - (window - 2) // 2, 0, n - window)[:, None] + np.arange(window)
    scale = t[rows[:, -1]] - t[rows[:, 0]]
    u = (t[rows] - t[i, None]) / scale[:, None]
    powers = np.arange(window) + 1.0
    moments = ((t[i + 1] - t[i]) / scale)[:, None] ** powers / powers
    w = np.linalg.solve(u[:, None, :] ** (powers[:, None] - 1.0), moments[..., None])[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):     # g not finite: a result that is not
        return np.concatenate(([0.0], np.cumsum(scale * np.sum(w * g[rows], axis=1))))


def energy_residual_series(t, l2, grad_l2):
    """|0.5 ||v||^2(t) + int_0^t ||grad v||^2 - 0.5 ||v0||^2| per record."""
    l2 = np.asarray(l2, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):     # fails its verdict if not finite
        dissipation = integrate_series(t, np.asarray(grad_l2, dtype=float) ** 2)
        return np.abs(0.5 * l2 ** 2 + dissipation - 0.5 * l2[0] ** 2)

