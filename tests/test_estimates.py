"""Tests for norms, bound evaluators, the iteration lemma and the
layer-inequality ratio machinery."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (fit_c0_all_steps, loop_ensemble, loop_instances, loop_saturated,
                     loop_verdict, whole_lattice_ratio)

from hydrostat.errors import ConfigurationError
from hydrostat.experiments import exp_lemma_suite
from hydrostat.config import parse_config
from hydrostat.estimates import (_MOSER_BATCH, BoundParams, IterationInstance, _log_envelope,
                                 _nested_ratios,
                                 certified_log_bounds, fit_sup_envelope_c0,
                                 growth_envelope,
                                 iteration_base, iteration_weight,
                                 iteration_weight_integral,
                                 ladyzhenskaya_ratio, moser_batch_check, moser_bound_check,
                                 norms, perturbation_response,
                                 random_instance, saturated_instance,
                                 sup_norm_envelope)
from hydrostat.spectral import (_LADY_SLAB_BYTES, EVEN, NONE, ODD, Grid, PhysicalField,
                                SpectralField, _oversampled_slabs,
                                dealias, field_from_function,
                                l2_norm, linf_norm, lq_norm, refine, symmetrize,
                                to_physical, to_spectral, zero_field)

H = 0.5


@pytest.fixture(scope="module")
def grid():
    return Grid.make(16, 16, 16, H)


class TestNorms:
    def test_zero_field(self, grid):
        rec = norms(zero_field(grid, 2, EVEN))
        assert rec.l2 == rec.l4 == rec.l6 == rec.linf == rec.grad_l2 == 0.0

    def test_constant_field(self, grid):
        c = 1.7
        f = dealias(field_from_function(grid, lambda X, Y, Z: c + 0 * X, EVEN))
        rec = norms(f)
        vol = 2 * H
        assert rec.l2 == pytest.approx(c * vol ** 0.5, rel=1e-12)
        assert rec.l4 == pytest.approx(c * vol ** 0.25, rel=1e-12)
        assert rec.l6 == pytest.approx(c * vol ** (1 / 6), rel=1e-12)
        assert lq_norm(f, 8) == pytest.approx(c * vol ** 0.125, rel=1e-12)
        assert rec.linf == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("tag", [NONE, ODD])
    def test_refuses_a_field_that_is_not_a_solver_state(self, grid, tag):
        """Only solver states, tagged even: an untagged field's band sums
        would be wrong with no error."""
        rng = np.random.default_rng(1)
        f = dealias(to_spectral(PhysicalField(
            grid, rng.standard_normal((2,) + grid.physical_shape))))
        if tag == ODD:
            f = symmetrize(f, ODD)
        with pytest.raises(ConfigurationError, match="solver state"):
            norms(f)

    def test_cosine_l2(self, grid):
        f = field_from_function(grid, lambda X, Y, Z: np.cos(2 * np.pi * X))
        assert l2_norm(f) ** 2 == pytest.approx(H, rel=1e-12)

    def test_parseval_vs_lattice(self, grid):
        rng = np.random.default_rng(0)
        f = dealias(to_spectral(PhysicalField(
            grid, rng.standard_normal((2,) + grid.physical_shape))))
        vals = to_physical(f).values
        lattice = np.sqrt(grid.volume * np.mean(np.sum(vals ** 2, axis=0)))
        assert l2_norm(f) == pytest.approx(lattice, rel=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_volume_normalized_lq_monotone(self, seed):
        """|Omega|^(-1/q) ||v||_q is nondecreasing in q (Jensen)."""
        grid = Grid.make(8, 8, 8, H)
        rng = np.random.default_rng(seed)
        f = dealias(to_spectral(PhysicalField(
            grid, rng.standard_normal((1,) + grid.physical_shape))))
        vol = grid.volume
        order = [l2_norm(f) * vol ** (-1 / 2), lq_norm(f, 3) * vol ** (-1 / 3),
                 lq_norm(f, 4) * vol ** (-1 / 4), lq_norm(f, 6) * vol ** (-1 / 6),
                 lq_norm(f, 8) * vol ** (-1 / 8), lq_norm(f, 12) * vol ** (-1 / 12),
                 linf_norm(f)]                  # q = 2, 3, 4, 6, 8, 12, inf
        for lo, hi in zip(order, order[1:]):
            assert lo <= hi * (1 + 1e-9)


class TestBoundEvaluators:
    def test_envelope_at_origin(self):
        p = BoundParams(c0=1.0)
        assert sup_norm_envelope(0.0, 0.0, p) == pytest.approx(np.e, rel=1e-14)

    def test_envelope_monotone_in_time_and_data(self):
        p = BoundParams()
        t = np.linspace(0.0, 2.0, 50)
        vals = sup_norm_envelope(t, 0.3, p)
        assert np.all(np.diff(vals) > 0)
        assert sup_norm_envelope(1.0, 0.6, p) > sup_norm_envelope(1.0, 0.3, p)
        assert growth_envelope(1.0, 0.3, 2.0) > growth_envelope(1.0, 0.3, 1.0)

    def test_perturbation_response_vanishes_at_zero(self):
        assert perturbation_response(0.0, 1.0, H, BoundParams()) == 0.0

    def test_perturbation_response_continuous_near_zero(self):
        """rho is increasing and tends to zero with s (steeply: the
        prefactor is ~(1+||v0||_4)^40 e^{(1+||v0||_4)^4})."""
        p = BoundParams()
        s = np.logspace(-30, -1, 40)
        vals = perturbation_response(s, 1.0, H, p)
        assert np.all(np.diff(vals) > 0)
        assert vals[0] < 1e-9

    def test_iteration_base_at_least_two(self):
        p = BoundParams()
        for t in (0.0, 0.5, 1.0):
            s1 = iteration_weight_integral(t, 1.0, p)
            assert iteration_base(t, s1, H, p) >= 2.0

    def test_iteration_weight_integral_matches_closed_form_at_zero(self):
        p = BoundParams()
        assert iteration_weight_integral(0.0, 1.0, p) == 0.0
        # integrand at t=0 equals the closed form
        assert iteration_weight(0.0, 0.0, p) == pytest.approx(np.exp(20.0), rel=1e-12)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundParams(c0=0.0)


class TestMoserIteration:
    def test_first_certified_bound_collapses(self):
        """a_1 = M0 * delta0^2 exactly."""
        m0, d0 = 3.7, 0.42
        log_a = certified_log_bounds(m0, d0, 5)
        assert log_a[0] == pytest.approx(np.log(m0) + 2 * np.log(d0), abs=1e-12)

    def test_exponent_inequality(self):
        """4*2^k - (k+3) >= 3k+1 for k = 1..60, in exact integers."""
        for k in range(1, 61):
            assert 4 * 2 ** k - (k + 3) >= 3 * k + 1

    def test_saturated_sequences_certified(self):
        inst = saturated_instance(2.0, 0.1, 40)
        verdict = moser_bound_check(inst)
        assert verdict.ok
        assert verdict.first_violation is None

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_random_hypothesis_satisfying_instances_pass(self, seed):
        rng = np.random.default_rng(seed)
        verdict = moser_bound_check(random_instance(rng))
        assert verdict.ok

    def test_hypothesis_violation_detected(self):
        inst = IterationInstance(2.0, 0.5, np.array([np.log(2.0 * 0.25) + 1.0]))
        verdict = moser_bound_check(inst)
        assert verdict.status == "hypothesis-violated"
        assert verdict.first_violation == 1

    def test_base_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            IterationInstance(1.5, 0.5, np.array([0.0]))

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_the_numpy_scalar_loops(self, seed):
        """Terms, certified bounds and verdicts equal the loop forms bit for bit.

        Perturbed copies raise one term, past the slack or, for the last
        term, by about the slack, or lower one.
        """
        rng = np.random.default_rng(seed)
        m0, delta0 = rng.uniform(2.0, 10.0), rng.uniform(1e-6, 1.0)
        kmax = int(rng.integers(1, 41))
        damping = rng.uniform(1e-3, 1.0, size=kmax) if seed % 2 else None
        inst = saturated_instance(m0, delta0, kmax, damping)
        assert inst.log_terms.tobytes() == loop_saturated(m0, delta0, kmax, damping).tobytes()
        bumped = [inst.log_terms.copy() for _ in range(3)]
        bumped[0][rng.integers(kmax)] += rng.choice([1e-12, 1e-6, 0.5])
        bumped[1][-1] += 1e-9 * rng.uniform(0.5, 2.0)
        bumped[2][rng.integers(kmax)] -= 0.5
        for la in [inst.log_terms] + bumped:
            case = IterationInstance(m0, delta0, la)
            verdict = moser_bound_check(case)
            assert (verdict.status, verdict.first_violation) == loop_verdict(case)
            assert verdict.log_certified.tobytes() == certified_log_bounds(
                m0, delta0, kmax).tobytes()

    @pytest.mark.parametrize("kmax", [1, 40, 60])
    @pytest.mark.parametrize("count", [1, _MOSER_BATCH - 1, _MOSER_BATCH, _MOSER_BATCH + 1])
    def test_batch_is_the_one_at_a_time_loop(self, count, kmax):
        """A batch holds what as many one-instance draws give, bit for bit,
        leaves the rng where they leave it, and counts as checking them one
        at a time does."""
        batch_rng, loop_rng, one_rng = (np.random.default_rng(count + kmax) for _ in range(3))
        batch = random_instance(batch_rng, kmax, count)
        instances = list(loop_instances(loop_rng, count, kmax))
        m0, delta0, kmaxes, la = batch
        for i, inst in enumerate(instances):
            assert (m0[i], delta0[i], kmaxes[i]) == (inst.m0, inst.delta0, len(inst.log_terms))
            assert la[i, : kmaxes[i]].tobytes() == inst.log_terms.tobytes()
        assert moser_batch_check(batch) == loop_ensemble(instances)
        assert batch_rng.random() == loop_rng.random()
        assert random_instance(one_rng, kmax).log_terms.tobytes() == instances[0].log_terms.tobytes()

    def test_forged_batches_count_as_the_loop(self):
        """Terms raised past the hypothesis or, at the last term, by about the
        slack, terms lowered, and garbage past a row's kmax."""
        rng = np.random.default_rng(11)
        m0, delta0, kmax, la = random_instance(rng, 60, 2 * _MOSER_BATCH)
        rows = rng.permutation(len(m0))
        for r in rows[:60]:
            la[r, rng.integers(kmax[r])] += rng.choice([1e-12, 1e-6, 0.5])
        for r in rows[60:120]:
            la[r, kmax[r] - 1] += 1e-9 * rng.uniform(0.5, 2.0)
        for r in rows[120:180]:
            la[r, rng.integers(kmax[r])] -= 0.5
        la[kmax < la.shape[1], -1] = np.nan
        instances = [IterationInstance(m0[i], delta0[i], la[i, : kmax[i]]) for i in range(len(m0))]
        violations, tightness = moser_batch_check((m0, delta0, kmax, la))
        assert (violations, tightness) == loop_ensemble(instances)
        assert 0 < violations < len(m0) and tightness == 1.0

    def test_ensembles_of_many_batches(self, tmp_path):
        """moser.json of a suite over 4 batches and one more instance is the
        one-at-a-time loop's, and the suite's traced peak, after a first run
        that sets up what any run would, does not grow with its moser_count
        (one batch of 1025 instances peaks about 1.5 MB higher)."""
        peaks = []
        for count in (_MOSER_BATCH + 1, _MOSER_BATCH + 1, 4 * _MOSER_BATCH + 1):
            cfg = parse_config(text=f"[grid]\nnx = 8\nny = 8\nnz = 8\n[experiment]\n"
                               f"kind = lemma_suite\nmoser_count = {count}\nmoser_kmax = 60\n"
                               f"ladyzhenskaya_count = 1\n[output]\ndirectory = {tmp_path}\n")
            tracemalloc.start()
            try:
                record = json.loads(exp_lemma_suite(cfg).files["moser.json"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        rng = np.random.default_rng(cfg.seed)
        assert ((record["violations"], record["max_tightness"])
                == loop_ensemble(loop_instances(rng, count, 60)))
        assert peaks[2] < peaks[1] + 2 ** 16


class TestLadyzhenskayaRatio:
    def test_constant_fields_ratio_one(self, grid):
        """At 2h = 1 both sides collapse to 1 for unit constants."""
        one = field_from_function(grid, lambda X, Y, Z: 1.0 + 0 * X)
        r = ladyzhenskaya_ratio(one, one, one)
        assert abs(r.ratio1 - 1.0) <= 1e-12
        assert abs(r.ratio2 - 1.0) <= 1e-12
        assert r.lhs == pytest.approx(4 * H * H, rel=1e-12)

    def test_zero_factor_gives_zero_lhs(self, grid):
        one = field_from_function(grid, lambda X, Y, Z: 1.0 + 0 * X)
        z = zero_field(grid, 1)
        r = ladyzhenskaya_ratio(z, one, one)
        assert r.lhs == 0.0
        assert r.ratio1 == 0.0

    def test_ensemble_ratios_bounded(self, grid):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(25):
            fields = []
            for _ in range(3):
                vals = rng.standard_normal((1,) + grid.physical_shape)
                fields.append(dealias(to_spectral(PhysicalField(grid, vals))))
            r = ladyzhenskaya_ratio(*fields)
            assert np.isfinite(r.ratio1) and np.isfinite(r.ratio2)
            worst = max(worst, r.ratio1, r.ratio2)
        assert worst < 10.0

    def test_vector_input_rejected(self, grid):
        v = zero_field(grid, 2)
        one = field_from_function(grid, lambda X, Y, Z: 1.0 + 0 * X)
        with pytest.raises(ConfigurationError):
            ladyzhenskaya_ratio(v, one, one)

    def test_fields_on_different_grids_rejected(self, grid):
        one = field_from_function(grid, lambda X, Y, Z: 1.0 + 0 * X)
        other = refine(one, Grid.make(16, 16, 32, H))
        with pytest.raises(ConfigurationError):
            ladyzhenskaya_ratio(one, one, other)


def lady_slabs(f):
    return sum(1 for _ in _oversampled_slabs(f, _LADY_SLAB_BYTES))


def assert_close_ratios(got, expected):
    """Equal to the record's 1e-13 relative tolerance: the slabs change round-off only."""
    for a, b in zip(got.__dict__.values(), expected.__dict__.values(), strict=True):
        assert abs(a - b) <= 1e-13 * abs(b)


class TestStreamedLadyzhenskayaRatio:
    """The streamed ratio holds a few y rows of each lattice, to round-off."""

    @pytest.mark.parametrize("shape, h", [((32, 32, 64), 0.5), ((24, 20, 48), 0.37),
                                          ((10, 14, 20), 0.5)])
    def test_matches_the_whole_lattice(self, shape, h):
        coarse = Grid.make(*shape, h)
        fine = Grid.make(shape[0], shape[1], 2 * shape[2], h)
        rng = np.random.default_rng(sum(shape))
        triple = [dealias(to_spectral(PhysicalField(
            coarse, rng.standard_normal((1,) + shape)))) for _ in range(3)]
        for fields in (triple, [refine(f, fine) for f in triple]):
            assert_close_ratios(ladyzhenskaya_ratio(*fields), whole_lattice_ratio(*fields))
        if shape != (10, 14, 20):
            assert lady_slabs(triple[0]) > 2

    def test_constant_field_matches_the_whole_lattice(self):
        one = field_from_function(Grid.make(32, 32, 64, 0.41), lambda X, Y, Z: 1.0 + 0 * X)
        assert lady_slabs(one) > 2
        assert_close_ratios(ladyzhenskaya_ratio(one, one, one),
                            whole_lattice_ratio(one, one, one))

    @pytest.mark.parametrize("tag", [EVEN, ODD])
    def test_tagged_fields_give_the_ratio_of_their_untagged_copies(self, tag):
        """A tagged field streams every plane, as its untagged copy does."""
        g = Grid.make(24, 20, 48, 0.37)
        rng = np.random.default_rng(17)
        triple = [symmetrize(dealias(to_spectral(PhysicalField(
            g, rng.standard_normal((1,) + g.physical_shape)))), tag) for _ in range(3)]
        untagged = [SpectralField(g, f.coeffs) for f in triple]
        assert lady_slabs(untagged[0]) > 2
        assert ladyzhenskaya_ratio(*triple) == ladyzhenskaya_ratio(*untagged)

    def test_fine_ratio_never_holds_a_fine_lattice(self):
        g = Grid.make(32, 32, 128, H)
        rng = np.random.default_rng(11)
        triple = [dealias(to_spectral(PhysicalField(
            g, rng.standard_normal((1,) + g.physical_shape)))) for _ in range(3)]
        lattice_bytes = 64 * 64 * 256 * 8
        tracemalloc.start()
        try:
            ladyzhenskaya_ratio(*triple)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lattice_bytes


class TestNestedRatios:
    """The lemma suite's coarse and fine ratios from one stream of the refined
    triple: the coarse lattice is the even z planes of the fine one."""

    @pytest.mark.parametrize("shape, h", [((32, 32, 64), 0.5), ((24, 20, 48), 0.37)])
    def test_match_the_two_separate_ratios(self, shape, h):
        coarse = Grid.make(*shape, h)
        fine = Grid.make(shape[0], shape[1], 2 * shape[2], h)
        rng = np.random.default_rng(sum(shape) + 1)
        triple = [dealias(to_spectral(PhysicalField(
            coarse, rng.standard_normal((1,) + shape)))) for _ in range(3)]
        refined = [refine(f, fine) for f in triple]
        rows = [vals.shape[1] for _, vals in _oversampled_slabs(refined[0], _LADY_SLAB_BYTES)]
        assert len(rows) > 2
        if shape == (24, 20, 48):
            assert rows[-1] < rows[0]                  # the last slab is uneven
        got_coarse, got_fine = _nested_ratios(triple, fine)
        assert got_fine == ladyzhenskaya_ratio(*refined)
        direct, whole = ladyzhenskaya_ratio(*triple), whole_lattice_ratio(*triple)
        for a, b, c in zip(got_coarse.__dict__.values(), direct.__dict__.values(),
                           whole.__dict__.values(), strict=True):
            assert abs(a - b) <= 1e-15 * abs(b)
            assert abs(a - c) <= 1e-14 * abs(c)

    def test_refuses_a_fine_grid_that_does_not_double_nz(self):
        g = Grid.make(8, 8, 8, H)
        one = field_from_function(g, lambda X, Y, Z: 1.0 + 0 * X)
        for fine in (Grid.make(8, 8, 32, H), Grid.make(16, 8, 16, H)):
            with pytest.raises(ConfigurationError, match="nz doubled"):
                _nested_ratios((one, one, one), fine)


class TestEnvelopeFitting:
    def test_fit_has_the_bits_of_all_200_bisection_steps(self):
        """The fit is the 200-step bisection's (``oracles.fit_c0_all_steps``)
        bit for bit on random series and on a root above its bracket (hi
        doubled past 1e12, so 2^40).  On every case it is the smallest float
        that meets the envelope at every time.  That holds for the roots
        below the bisection's bracket too, where its lo * hi underflows
        (``below``, about 1.65e-310) and under the smallest subnormal, with
        no numpy warning."""
        rng = np.random.default_rng(11)
        cases = [(np.sort(rng.uniform(0.0, 2.0, 12)), rng.uniform(1e-3, 10.0, 12),
                  rng.uniform(0.05, 1.0), rng.uniform(0.0, 3.0)) for _ in range(40)]
        below = ([0.0, 0.1], [1e-310, 2e-310], 1.0, 0.0)
        subnormal = ([0.0, 0.1], [1e-320, 2e-320], 1.0, 1.0)
        above = ([0.0, 0.5], [0.3, 0.6], 0.3, -1.0 + 1e-5)
        for t, linf_V, linf_V0, v0_l4 in cases + [above]:
            got = fit_sup_envelope_c0(t, linf_V, linf_V0, v0_l4)
            want = fit_c0_all_steps(t, linf_V, linf_V0, v0_l4)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        for t, linf_V, linf_V0, v0_l4 in cases + [below, subnormal]:
            c0 = fit_sup_envelope_c0(t, linf_V, linf_V0, v0_l4)
            target = np.log(np.asarray(linf_V) / linf_V0)
            assert np.all(_log_envelope(t, v0_l4, c0)[0] - target >= 0)
            if c0 > np.nextafter(0.0, 1.0):
                assert np.any(_log_envelope(t, v0_l4, np.nextafter(c0, 0.0))[0] - target < 0)
        assert fit_sup_envelope_c0(*below) == pytest.approx(2e-310 / 1.1 ** 2, rel=1e-12)
        assert fit_sup_envelope_c0(*subnormal) == np.nextafter(0.0, 1.0)
        assert fit_sup_envelope_c0(*above) == 2.0 ** 40

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_sup_envelope_c0([], [], 1.0, 1.0)

    def test_sup_envelope_fit_dominates(self):
        t = np.linspace(0.0, 0.5, 20)
        measured = 0.3 * (1.0 + 0.5 * t)          # gentle growth
        c0 = fit_sup_envelope_c0(t, measured, measured[0], v0_l4=0.4)
        envelope = growth_envelope(t, 0.4, c0) * measured[0]
        assert np.all(envelope >= measured * (1 - 1e-9))
        # and it is minimal: slightly smaller constant fails somewhere
        smaller = growth_envelope(t, 0.4, c0 * 0.95) * measured[0]
        assert np.any(smaller < measured)

    @pytest.mark.parametrize("t_end, v0_l4", [(0.5, 1e200), (1e300, 0.4)])
    def test_envelope_above_every_float_fits_any_constant(self, t_end, v0_l4):
        """Where (1 + ||v0||_4)^4 or e^(2t) overflows, every C0 > 0 fits:
        that time adds no demand, with no OverflowError and no numpy warning."""
        t = np.array([0.0, t_end])
        alone = fit_sup_envelope_c0(t[:1], [0.3], 0.3, v0_l4)
        assert fit_sup_envelope_c0(t, [0.3, 0.6], 0.3, v0_l4) == alone
        assert alone == (0.0 if v0_l4 > 1e100 else fit_sup_envelope_c0(t[:1], [0.3], 0.3, 0.4))
