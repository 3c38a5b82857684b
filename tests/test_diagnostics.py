"""Tests for the diagnostics series and the high-order cumulative quadrature."""

import numpy as np
import pytest

from hydrostat.diagnostics import (CSV_COLUMNS, DiagnosticsSeries,
                                   energy_residual_series, integrate_series)
from hydrostat.errors import ConfigurationError, DataError
from oracles import integrate_series_polyfit


class TestSeries:
    def test_rows_align_across_sparse_columns(self):
        s = DiagnosticsSeries()
        s.add_row(t=0.0, l2=1.0)
        s.add_row(t=1.0, l2=0.5, extra=7.0)
        assert s.length == 2
        assert np.isnan(s.array("extra")[0]) and s.array("extra")[1] == 7.0

    def test_csv_round_trip(self):
        s = DiagnosticsSeries()
        s.add_row(t=0.0, l2=1.0, grad_l2=2.0)
        s.add_row(t=0.1, l2=1 / 3, grad_l2=np.pi)
        text = s.to_csv()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        back = DiagnosticsSeries.from_csv(text)
        np.testing.assert_array_equal(back.array("l2"), s.array("l2"))
        # 17 significant digits survive the round trip exactly
        assert back.array("grad_l2")[1] == np.pi

    def test_csv_bytes_reproducible(self):
        def build():
            s = DiagnosticsSeries()
            for i in range(5):
                s.add_row(t=i * 0.1, l2=np.sqrt(i + 1))
            return s.to_csv()
        assert build() == build()

    @pytest.mark.parametrize("text", [
        "",
        "  \n\n",
        "t,l2\n",
        "t,l2\n0.0,1.0\n0.1\n",
        "t,l2\n0.0,1.0,2.0\n",
        "t,l2\n0.0,abc\n",
        "t,l2\n0.0,\n",
    ], ids=["empty", "blank", "header-only", "short-row", "long-row",
            "non-numeric", "empty-field"])
    def test_malformed_csv_raises_data_error(self, text):
        with pytest.raises(DataError):
            DiagnosticsSeries.from_csv(text)


class TestQuadrature:
    def test_exact_on_quintics(self):
        t = np.linspace(0.0, 1.0, 11)
        g = 3 * t ** 5 - t ** 2 + 4.0
        exact = 0.5 * t ** 6 - t ** 3 / 3 + 4.0 * t
        np.testing.assert_allclose(integrate_series(t, g), exact, atol=1e-13)

    def test_smooth_integrand_high_order(self):
        errs = []
        for n in (20, 40):
            t = np.linspace(0.0, 1.0, n + 1)
            g = np.exp(-3 * t)
            exact = (1 - np.exp(-3 * t)) / 3
            errs.append(np.max(np.abs(integrate_series(t, g) - exact)))
        assert errs[0] / errs[1] >= 2 ** 5       # at least order 5 observed

    def test_short_series(self):
        assert integrate_series([0.0], [1.0])[0] == 0.0
        two = integrate_series([0.0, 1.0], [1.0, 3.0])
        assert two[1] == pytest.approx(2.0)      # trapezoid fallback

    def test_nonuniform_spacing(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.55, 0.6, 0.8, 1.0])
        g = t ** 3
        np.testing.assert_allclose(integrate_series(t, g), t ** 4 / 4, atol=1e-13)

    @pytest.mark.parametrize("t", [
        [0.0, 0.1, 0.1, 0.3],
        [0.0, 0.2, 0.1, 0.3],
        [0.0, np.nan, 0.2, 0.3],
        [0.0, 0.1, 0.2, np.inf],
    ], ids=["repeated", "decreasing", "nan", "inf"])
    def test_bad_times_raise(self, t):
        with pytest.raises(ConfigurationError):
            integrate_series(t, np.ones(4))

    def test_matches_the_polyfit_loop(self):
        """The moment-equation weights integrate the same polynomials as one
        least-squares fit per interval: 1000 seeded series of 1..40 samples,
        time spans 1e-4..10, amplitudes over 6 decades, on uniform times,
        uniform times with a shorter last step, and non-uniform times."""
        rng = np.random.default_rng(7)
        for case in range(1000):
            n = int(rng.integers(1, 41))
            span = 10.0 ** rng.uniform(-4, 1)
            steps = np.ones(max(n - 1, 0))
            if case % 3 == 1 and n > 1:
                steps[-1] = rng.uniform(0.05, 1.0)
            elif case % 3 == 2:
                steps = rng.uniform(0.2, 1.0, steps.size)
            x = np.concatenate(([0.0], np.cumsum(steps))) / max(n - 1, 1)
            t = rng.uniform(-1.0, 1.0) * span + span * x
            wave = np.sin(rng.uniform(0, 2 * np.pi) * x + rng.uniform(0, 2 * np.pi))
            g = 10.0 ** rng.uniform(-3, 3) * np.exp(rng.uniform(-3, 3) * x) * (1.0 + 0.5 * wave)
            np.testing.assert_allclose(integrate_series(t, g), integrate_series_polyfit(t, g),
                                       rtol=1e-13, atol=0, err_msg=f"case {case}")


class TestEnergyResiduals:
    def test_exact_balance_gives_zero(self):
        t = np.linspace(0.0, 1.0, 101)
        lam = 2.0
        l2 = np.exp(-lam * t)                    # ||v||_2
        grad = np.sqrt(lam) * np.exp(-lam * t)   # ||grad v||_2 with balance
        res = energy_residual_series(t, l2, grad)
        assert np.max(res) <= 1e-10
        assert integrate_series(t, grad ** 2)[-1] == pytest.approx(0.5 * (1 - np.exp(-2 * lam)), rel=1e-9)

    def test_residual_of_norms_that_overflow_is_not_finite(self):
        """Squares past the float range give a residual that fails its
        verdict, not a numpy warning."""
        t = np.linspace(0.0, 1e-2, 4)
        res = energy_residual_series(t, np.full(4, 1e200), np.full(4, 1e200))
        assert not np.any(res <= 1e-7)
