import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgstate import stats
from wgstate.measurement import outcome_probabilities, pauli_observable
from wgstate.stategen import weighted_graph_state
from wgstate.stats import (REDRAW_CAP, BinnedCounts, CosineFitError,
                           DegenerateDataError, FitResult, _resampled_estimators,
                           bootstrap_expectation, bootstrap_sensing, cosine_fit,
                           visibility)

ZY = pauli_observable("Z", "Y")
ZY_WEIGHTS = ZY.weights


def poisson_bins(state, obs, scale, n_bins, rng, theta=None):
    from wgstate.metrology import encoding_unitary
    from wgstate.qmath import PureState2Q
    amps = state.amplitudes
    if theta is not None:
        amps = encoding_unitary(theta) @ amps
    probs = outcome_probabilities(PureState2Q(amps), obs)
    return BinnedCounts(rng.poisson(scale * probs, size=(n_bins, 4)))


class TestValidation:
    def test_binned_counts_needs_two_bins(self):
        with pytest.raises(ValueError):
            BinnedCounts([[1, 2, 3, 4]])

    def test_fewer_than_100_replicates_rejected(self):
        bins = BinnedCounts([[1, 2, 3, 4]] * 3)
        with pytest.raises(ValueError, match="mu must be >= 100"):
            bootstrap_expectation(bins, ZY_WEIGHTS, mu=99)
        with pytest.raises(ValueError, match="mu must be >= 100"):
            bootstrap_sensing(bins, bins, bins, np.radians(5), ZY_WEIGHTS, mu=50)

    def test_empty_counts_rejected(self):
        bins = BinnedCounts([[0, 0, 0, 0]] * 3)
        with pytest.raises(DegenerateDataError):
            bootstrap_expectation(bins, ZY_WEIGHTS, seed=0)

    def test_sensing_rejects_empty_setting_and_bad_shift(self):
        empty = BinnedCounts([[0, 0, 0, 0]] * 3)
        full = BinnedCounts([[1, 2, 3, 4]] * 3)
        for triple in ((empty, full, full), (full, empty, full), (full, full, empty)):
            with pytest.raises(DegenerateDataError):
                bootstrap_sensing(*triple, np.radians(5), ZY_WEIGHTS,
                                  seed=0)
        with pytest.raises(ValueError):
            bootstrap_sensing(full, full, full, 0.0, ZY_WEIGHTS, seed=0)


class TestBootstrapExpectation:
    def test_identical_bins_zero_width(self):
        bins = BinnedCounts([[40, 10, 30, 20]] * 6)
        res = bootstrap_expectation(bins, ZY_WEIGHTS, mu=500, seed=1)
        assert np.all(res.samples == res.samples[0])
        assert res.ci_low == res.ci_high == pytest.approx(res.mean)

    def test_single_outcome_gives_unity(self):
        bins = BinnedCounts([[17, 0, 0, 0], [23, 0, 0, 0], [11, 0, 0, 0]])
        res = bootstrap_expectation(bins, {"++": 1, "+-": -1, "-+": -1, "--": 1},
                                    mu=500, seed=2)
        assert np.all(res.samples == 1.0)

    def test_recovers_known_expectation(self):
        rng = np.random.default_rng(21)
        bins = poisson_bins(weighted_graph_state(np.pi), ZY, 1500, 6, rng)
        res = bootstrap_expectation(bins, ZY_WEIGHTS, seed=3)
        half_width = (res.ci_high - res.ci_low) / 2
        assert abs(res.mean - 0.0) < 3 * half_width

    def test_determinism(self):
        rng = np.random.default_rng(22)
        bins = poisson_bins(weighted_graph_state(np.pi / 2), ZY, 800, 6, rng)
        cfg = dict(mu=1000, seed=9)
        a = bootstrap_expectation(bins, ZY_WEIGHTS, **cfg)
        b = bootstrap_expectation(bins, ZY_WEIGHTS, **cfg)
        assert np.array_equal(a.samples, b.samples)


class TestBootstrapVariance:
    # the single-shot variance uses the center setting only; the shifted
    # settings repeat it here

    def test_all_ones_when_expectation_vanishes(self):
        # equal counts in every outcome keep E identically zero
        bins = BinnedCounts([[25, 25, 25, 25]] * 6)
        res = bootstrap_sensing(bins, bins, bins, np.radians(5), ZY_WEIGHTS,
                                mu=500, seed=4).single_shot_variance
        assert np.all(res.samples == 1.0)

    def test_recovers_known_variance(self):
        rng = np.random.default_rng(23)
        bins = poisson_bins(weighted_graph_state(np.pi / 2), ZY, 1500, 6, rng)
        res = bootstrap_sensing(bins, bins, bins, np.radians(5), ZY_WEIGHTS,
                                seed=5).single_shot_variance
        assert res.ci_low <= 0.75 <= res.ci_high

    def test_single_shot_recovery(self):
        # across many synthetic runs, nu * Var(E) recovers 1 - <A>^2
        obs = ZY
        probs = outcome_probabilities(weighted_graph_state(np.pi / 2), obs)
        w = np.array([obs.weights[o] for o in ("++", "+-", "-+", "--")])
        e_true = float(w @ probs)
        rng = np.random.default_rng(0)
        estimates, totals = [], []
        for _ in range(2000):
            counts = rng.poisson(1500 * probs, size=(6, 4))
            pooled = counts.sum(axis=0)
            estimates.append((pooled @ w) / pooled.sum())
            totals.append(pooled.sum())
        ratio = np.mean(totals) * np.var(estimates, ddof=1) / (1 - e_true ** 2)
        assert ratio == pytest.approx(1.0, abs=0.05)


class TestBootstrapDerivative:
    # the slope uses the shifted settings only; the center repeats +h here

    def test_symmetric_difference_vanishes(self):
        rng = np.random.default_rng(24)
        counts = rng.poisson(500, size=(6, 4))
        bins = BinnedCounts(counts)
        res = bootstrap_sensing(bins, bins, bins, np.radians(5), ZY_WEIGHTS,
                                seed=6).derivative
        assert res.ci_low <= 0.0 <= res.ci_high

    def test_recovers_slope_two(self):
        rng = np.random.default_rng(25)
        h = np.radians(5)
        state = weighted_graph_state(np.pi)
        plus = poisson_bins(state, ZY, 1500, 6, rng, theta=h)
        minus = poisson_bins(state, ZY, 1500, 6, rng, theta=-h)
        res = bootstrap_sensing(plus, plus, minus, h, ZY_WEIGHTS,
                                seed=7).derivative
        assert res.ci_low <= 2.0 <= res.ci_high

    def test_halving_shift_doubles_ci_width(self):
        rng = np.random.default_rng(26)
        state = weighted_graph_state(np.pi)
        h = np.radians(5)
        widths = {}
        for shift in (h, h / 2):
            plus = poisson_bins(state, ZY, 1500, 6, rng, theta=shift)
            minus = poisson_bins(state, ZY, 1500, 6, rng, theta=-shift)
            res = bootstrap_sensing(plus, plus, minus, shift, ZY_WEIGHTS,
                                    seed=8).derivative
            widths[shift] = res.ci_high - res.ci_low
        assert 1.5 <= widths[h / 2] / widths[h] <= 2.5


class TestBootstrapRatio:
    def test_recovers_heisenberg_limit(self):
        rng = np.random.default_rng(27)
        h = np.radians(5)
        state = weighted_graph_state(np.pi)
        center = poisson_bins(state, ZY, 1500, 6, rng)
        plus = poisson_bins(state, ZY, 1500, 6, rng, theta=h)
        minus = poisson_bins(state, ZY, 1500, 6, rng, theta=-h)
        res = bootstrap_sensing(center, plus, minus, h, ZY_WEIGHTS,
                                seed=10).estimator_variance
        assert res.ci_low <= 0.25 <= res.ci_high
        assert res.n_clamped == 0

    def test_zero_derivative_clamps(self):
        bins = BinnedCounts([[30, 10, 20, 40]] * 6)
        cfg = dict(mu=500, seed=11)
        res = bootstrap_sensing(bins, bins, bins, np.radians(5), ZY_WEIGHTS,
                                **cfg).estimator_variance
        assert res.n_clamped == cfg["mu"]
        e = (np.array([30, 10, 20, 40]) @ np.array([1, -1, -1, 1])) / 100
        assert np.all(res.samples == pytest.approx((1 - e ** 2) / stats.SLOPE_SQ_FLOOR))


class TestBootstrapSensing:
    def test_shared_replicates(self):
        # identical center bins make every single-shot variance replicate one
        # value v, so the estimator variance is v over the squared slope of
        # the same replicate
        rng = np.random.default_rng(28)
        h = np.radians(5)
        state = weighted_graph_state(np.pi)
        center = BinnedCounts([[40, 10, 30, 20]] * 6)
        plus = poisson_bins(state, ZY, 1500, 6, rng, theta=h)
        minus = poisson_bins(state, ZY, 1500, 6, rng, theta=-h)
        cfg = dict(mu=2000, seed=13)
        res = bootstrap_sensing(center, plus, minus, h, ZY_WEIGHTS, **cfg)
        v = res.single_shot_variance.samples
        assert np.all(v == v[0])
        expected = np.sort(v[0] / np.maximum(res.derivative.samples ** 2, stats.SLOPE_SQ_FLOOR))
        assert np.array_equal(expected, res.estimator_variance.samples)

    def test_expectation_stream_matches_bootstrap_expectation(self):
        rng = np.random.default_rng(29)
        state = weighted_graph_state(np.pi / 2)
        center, plus, minus = (poisson_bins(state, ZY, 800, 6, rng) for _ in range(3))
        cfg = dict(mu=1000, seed=14)
        res = bootstrap_sensing(center, plus, minus, np.radians(5), ZY_WEIGHTS, **cfg)
        alone = bootstrap_expectation(center, ZY_WEIGHTS, **cfg)
        assert np.array_equal(res.expectation.samples, alone.samples)


def _bins_strategy():
    rows = st.lists(st.integers(0, 50), min_size=4, max_size=4)
    return st.lists(rows, min_size=2, max_size=6).map(BinnedCounts)


class TestBootstrapDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(center=_bins_strategy(), plus=_bins_strategy(), minus=_bins_strategy(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_repeat_call_gives_identical_samples(self, center, plus, minus, seed):
        assume(min(b.total for b in (center, plus, minus)) > 0)
        cfg = dict(mu=100, seed=seed)
        a = bootstrap_expectation(center, ZY_WEIGHTS, **cfg)
        b = bootstrap_expectation(center, ZY_WEIGHTS, **cfg)
        assert np.array_equal(a.samples, b.samples)
        first = bootstrap_sensing(center, plus, minus, np.radians(5), ZY_WEIGHTS, **cfg)
        second = bootstrap_sensing(center, plus, minus, np.radians(5), ZY_WEIGHTS, **cfg)
        for name, result in vars(first).items():
            again = getattr(second, name)
            assert np.array_equal(result.samples, again.samples), name
            assert result.n_clamped == again.n_clamped, name


def _reference_estimators(counts, w, mu, rng):
    """The bin bootstrap as a gather and sum over the drawn bins."""
    n_bins = counts.shape[0]
    idx = rng.integers(0, n_bins, size=(mu, n_bins))
    totals = counts[idx].sum(axis=1)
    nu = totals.sum(axis=1)
    redraws = 0
    while (nu == 0).any():
        if redraws >= REDRAW_CAP:
            raise DegenerateDataError("cap")
        bad = nu == 0
        redraw = rng.integers(0, n_bins, size=(int(bad.sum()), n_bins))
        totals[bad] = counts[redraw].sum(axis=1)
        nu = totals.sum(axis=1)
        redraws += 1
    return (totals @ w) / nu


@st.composite
def _count_tables(draw):
    """2-12 bins, of which any number (none included) hold counts, so that
    mostly empty tables force redraws of all-empty resamples."""
    n_bins = draw(st.integers(2, 12))
    table = np.zeros((n_bins, 4), dtype=np.int64)
    for i in draw(st.sets(st.integers(0, n_bins - 1), max_size=n_bins)):
        table[i] = draw(st.lists(st.integers(0, 10 ** 12), min_size=4, max_size=4))
    return table


class TestResampledEstimators:
    @settings(max_examples=200, deadline=None)
    @given(counts=_count_tables(), mu=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1),
           # a budget below 12 bins x 300 rows splits the draws into several
           # chunks, mostly with a partial last one
           chunk=st.one_of(st.just(stats._CHUNK_ENTRIES), st.integers(1, 200)),
           w=st.one_of(st.just((1.0, -1.0, -1.0, 1.0)),
                       st.tuples(*[st.floats(-3, 3)] * 4)))
    def test_matches_gather_sum_reference(self, counts, mu, seed, chunk, w):
        w = np.array(w)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(stats, "_CHUNK_ENTRIES", chunk):
            try:
                expected = _reference_estimators(counts, w, mu, ref_rng)
            except DegenerateDataError:
                with pytest.raises(DegenerateDataError):
                    _resampled_estimators(counts, w, mu, rng)
            else:
                result = _resampled_estimators(counts, w, mu, rng)
                assert result.tobytes() == expected.tobytes()
        # both drew the same stream, redraws included
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_sensing_at_cli_default_matches_reference(self):
        # 10000 replicates of 6 bins fill several chunks at the default budget
        rng = np.random.default_rng(11)
        tables = [rng.poisson([400, 80, 300, 120], size=(6, 4)) for _ in range(3)]
        cfg, h = dict(mu=10000, seed=5), np.radians(5)
        assert cfg["mu"] * 6 > 2 * stats._CHUNK_ENTRIES
        w = np.array([1.0, -1.0, -1.0, 1.0])
        result = bootstrap_sensing(*map(BinnedCounts, tables), h, w, **cfg)
        e_center, e_plus, e_minus = (
            _reference_estimators(counts, w, cfg["mu"], np.random.default_rng(child))
            for counts, child in zip(tables, np.random.SeedSequence(5).spawn(3)))
        variance = 1.0 - e_center ** 2
        slope = (e_plus - e_minus) / (2 * h)
        expected = {"expectation": e_center, "single_shot_variance": variance,
                    "derivative": slope,
                    "estimator_variance": variance / np.maximum(slope ** 2, stats.SLOPE_SQ_FLOOR)}
        for name, samples in expected.items():
            assert getattr(result, name).samples.tobytes() == np.sort(samples).tobytes(), name

    def test_pooled_totals_must_stay_below_two_to_the_53(self):
        # two bins pool to at most 2 x the largest bin total: exact in
        # float64 only below 2**53
        w = np.array([1.0, -1.0, -1.0, 1.0])
        below = np.array([[2 ** 51, 0, 2 ** 51 - 1, 0], [0, 0, 0, 1]])
        result = _resampled_estimators(below, w, 100, np.random.default_rng(0))
        expected = _reference_estimators(below, w, 100, np.random.default_rng(0))
        assert result.tobytes() == expected.tobytes()
        at_bound = below + np.array([[0, 0, 1, 0], [0, 0, 0, 0]])
        with pytest.raises(ValueError, match="2\\*\\*53"):
            _resampled_estimators(at_bound, w, 100, np.random.default_rng(0))

    def test_peak_memory_stays_in_chunks(self):
        # tracemalloc counts numpy's allocations deterministically: drawing
        # all (10000, 6) indices at once and pooling them in int64 peaks at
        # 1,720 KiB, while the (10000, 4) totals, the results and
        # chunk-sized temporaries stay under 1 MiB
        counts = np.random.default_rng(0).poisson(375, size=(6, 4))
        w = np.array([1.0, -1.0, -1.0, 1.0])
        tracemalloc.start()
        try:
            _resampled_estimators(counts, w, 10000, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024


class TestSummarize:
    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(2, 5000), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["normal", "ties", "wide", "signed_zeros"]),
           ci_level=st.one_of(st.floats(1e-9, 1 - 1e-9),
                              st.sampled_from([0.5, 0.9, 0.95, 0.99, 1 - 1e-15])))
    def test_percentiles_equal_numpy_bit_for_bit(self, size, seed, kind, ci_level):
        # the interval is read off the sorted samples by numpy's "linear"
        # rule; it must give np.percentile's bits, -0.0 included. Two
        # exceptions are left out: a lone -0.0 sample, which numpy's lerp
        # keeps negative (a bootstrap has at least 100 replicates), and
        # -0.0 mixed with 0.0, where np.percentile's partition may return
        # either of the equal zeros
        rng = np.random.default_rng(seed)
        samples = {"normal": lambda: rng.normal(size=size),
                   "ties": lambda: rng.integers(-3, 4, size).astype(float),
                   "wide": lambda: rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size),
                   "signed_zeros": lambda: rng.choice([-0.0, 1e-300, -2.5], size)}[kind]()
        result = stats._summarize(samples, ci_level)
        tail = 100 * (1 - ci_level) / 2
        expected = np.percentile(np.sort(samples), [tail, 100 - tail])
        assert np.array([result.ci_low, result.ci_high]).tobytes() == expected.tobytes()
        assert np.array_equal(result.samples, np.sort(samples))


class TestVisibility:
    def test_perfect_contrast(self):
        assert visibility(100, 0) == 1.0

    def test_partial_contrast(self):
        assert visibility(150, 14) == pytest.approx(0.829, abs=5e-4)

    def test_no_fringe(self):
        assert visibility(50, 50) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(DegenerateDataError):
            visibility(0, 0)
        with pytest.raises(ValueError):
            visibility(10, 20)

    @pytest.mark.parametrize("n_max, n_min", [(float("nan"), 1.0), (10.0, float("nan")),
                                              (float("inf"), 1.0), (float("inf"), float("inf"))])
    def test_non_finite_counts_refused(self, n_max, n_min):
        with pytest.raises(ValueError, match="^counts must be finite"):
            visibility(n_max, n_min)


class TestCosineFit:
    def test_exact_recovery(self):
        params = (-0.445, 0.235, 0.0662, 0.531)
        xs = np.arange(40, dtype=float)
        ys = params[0] * np.cos(params[1] * xs + params[2]) + params[3]
        fit = cosine_fit(xs, ys)
        assert fit.a == pytest.approx(params[0], abs=1e-6)
        assert fit.b == pytest.approx(params[1], abs=1e-6)
        assert fit.c == pytest.approx(params[2], abs=1e-6)
        assert fit.d == pytest.approx(params[3], abs=1e-6)
        assert fit.residual < 1e-10

    def test_canonical_negative_amplitude(self):
        xs = np.arange(30, dtype=float)
        ys = 0.4 * np.cos(0.5 * xs + 0.3) + 0.5
        fit = cosine_fit(xs, ys)
        assert fit.a <= 0
        assert fit.b >= 0
        # the sign flip shifts the phase by pi
        assert abs(fit.a) == pytest.approx(0.4, abs=1e-8)
        recovered = fit.a * np.cos(fit.b * xs + fit.c) + fit.d
        assert np.allclose(recovered, ys, atol=1e-8)

    def test_constant_data(self):
        xs = np.arange(12, dtype=float)
        fit = cosine_fit(xs, np.full(12, 0.7))
        assert abs(fit.a) < 1e-8
        assert fit.d == pytest.approx(0.7, abs=1e-8)

    def test_poisson_noised_recovery(self):
        params = (-0.445, 0.235, 0.0662, 0.531)
        xs = np.arange(40, dtype=float)
        law = params[0] * np.cos(params[1] * xs + params[2]) + params[3]
        rng = np.random.default_rng(30)
        noisy = rng.poisson(1500 * law) / 1500.0
        fit = cosine_fit(xs, noisy)
        assert fit.a == pytest.approx(params[0], rel=0.05)
        assert fit.b == pytest.approx(params[1], rel=0.05)
        assert fit.d == pytest.approx(params[3], rel=0.05)

    @pytest.mark.parametrize("contrast", [1.0, 0.9, 0.5])
    def test_phase_on_cut_is_plus_pi(self, contrast):
        # an exact sweep from phase 0, normalized as the fringe command does,
        # has its fitted phase on the +-pi cut; it is reported as exactly +pi
        for steps in range(4, 121):
            phases = 2 * np.pi * np.arange(steps) / steps
            counts = 1500.0 * (1 + contrast * np.cos(phases)) / 2
            fit = cosine_fit(np.arange(steps, dtype=float), counts / counts.max())
            assert fit.c == np.pi, (steps, fit.c)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            cosine_fit([0, 1, 2], [1, 2, 3])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("where", ["xs", "ys"])
    def test_non_finite_input_refused(self, where, value):
        data = {"xs": np.arange(8.0), "ys": np.cos(np.arange(8.0))}
        data[where][3] = value
        with pytest.raises(ValueError, match="^xs and ys must be finite$"):
            cosine_fit(data["xs"], data["ys"])

    def test_repeated_first_x_refused(self):
        # the first spacing sets the start frequency
        with pytest.raises(ValueError, match="^the first two xs must differ"):
            cosine_fit([0.0, 0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.0, 0.5, 1.0])

    def test_result_type(self):
        xs = np.arange(10, dtype=float)
        fit = cosine_fit(xs, np.cos(xs))
        assert isinstance(fit, FitResult)

    def test_nyquist_fit_without_a_fringe_raises(self):
        # 8 Poisson steps over one period at contrast 0.31: the fit used to
        # end at b = 3.14148, where the sine term all but vanishes on the
        # samples, with a = -687
        counts = np.random.default_rng(28).poisson(
            25 * (1 + 0.31 * np.cos(2 * np.pi * np.arange(8) / 8)))
        with pytest.raises(CosineFitError, match="Nyquist"):
            cosine_fit(np.arange(8.0), counts / counts.max())

    @pytest.mark.parametrize("b", [0.5, 1.3, 3.13])
    def test_alias_is_canonical(self, monkeypatch, b):
        # on unit-spaced samples b and 2 pi - b give the same values; the
        # fit reports b in [0, pi] and runs no scipy solver
        def refuse(*args, **kwargs):
            raise AssertionError("the fit called a scipy solver")

        monkeypatch.setattr(stats, "least_squares", refuse)
        xs = np.arange(30, dtype=float)
        for freq in (b, 2 * np.pi - b):
            fit = cosine_fit(xs, 0.4 * np.cos(freq * xs + 0.3) + 0.5)
            assert fit.b == pytest.approx(b, abs=1e-9)
            assert fit.b <= np.pi
            assert fit.residual < 1e-8


def test_weights_accepted_as_array():
    bins = BinnedCounts([[40, 10, 30, 20]] * 4)
    cfg = dict(mu=500, seed=12)
    as_dict = bootstrap_expectation(bins, ZY_WEIGHTS, **cfg)
    as_array = bootstrap_expectation(bins, [1, -1, -1, 1], **cfg)
    assert np.array_equal(as_dict.samples, as_array.samples)
