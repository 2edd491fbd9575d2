import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from wgstate.measurement import (analyzer_overlap, axis_state,
                                 checked_counts, checked_durations,
                                 general_axis_observable, outcome_probabilities,
                                 pauli_observable, simulate_counts, solve_projector_batch,
                                 solve_projector_waveplates, WaveplateSolverError)
from wgstate.optics import WaveplateKind, waveplate_jones
from wgstate.qmath import (PAULIS, POLARIZATION_KETS, PureState2Q, as_density, expectation,
                           tensor)
from wgstate.stategen import (GenerationConfig, NoiseModel, apply_noise, simulate_generation,
                              weighted_graph_state)
from wgstate.stats import BinnedCounts
from wgstate.tomography import TomographyDataset, tomography_settings


def waveplate_jones_lab(kind, lab_angle):
    """Jones operator of a plate mounted at ``lab_angle`` (radians, lab frame)."""
    return waveplate_jones(kind, np.pi / 2 - lab_angle)


class TestPauliObservable:
    def test_zz_weights(self):
        obs = pauli_observable("Z", "Z")
        assert obs.weights == {"++": 1, "+-": -1, "-+": -1, "--": 1}

    def test_identity_y_weights(self):
        obs = pauli_observable("I", "Y")
        assert obs.weights == {"++": 1, "+-": -1, "-+": 1, "--": -1}

    def test_identity_identity_is_constant(self):
        obs = pauli_observable("I", "I")
        assert obs.weights == {"++": 1, "+-": 1, "-+": 1, "--": 1}
        rng = np.random.default_rng(0)
        state = PureState2Q(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert expectation(obs.matrix(), state) == pytest.approx(1.0, abs=1e-12)

    def test_matrix_matches_pauli_kron(self):
        for a1 in "IXYZ":
            for a2 in "IXYZ":
                obs = pauli_observable(a1, a2)
                assert np.allclose(obs.matrix(), tensor(PAULIS[a1], PAULIS[a2]),
                                   atol=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            pauli_observable("Q", "Z")


class TestGeneralAxisObservable:
    def test_pole_is_z(self):
        for alpha in (0.0, 1.0, -2.5):
            obs = general_axis_observable(0.0, alpha, 0.0, alpha)
            assert np.allclose(obs.matrix(), tensor(PAULIS["Z"], PAULIS["Z"]),
                               atol=1e-12)

    def test_equatorial_axes(self):
        assert np.allclose(
            general_axis_observable(np.pi / 2, 0.0, 0.0, 0.0).matrix(),
            tensor(PAULIS["X"], PAULIS["Z"]), atol=1e-12)
        assert np.allclose(
            general_axis_observable(0.0, 0.0, np.pi / 2, np.pi / 2).matrix(),
            tensor(PAULIS["Z"], PAULIS["Y"]), atol=1e-12)

    def test_eigenvalues_are_plus_minus_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b1, b2 = rng.uniform(0, np.pi, 2)
            a1, a2 = rng.uniform(-np.pi, np.pi, 2)
            m = general_axis_observable(b1, a1, b2, a2).matrix()
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            vals = np.sort(np.linalg.eigvalsh(m))
            assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-10)

    def test_square_is_identity_so_variance_is_one_minus_mean_sq(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            obs = general_axis_observable(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                                          rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            m = obs.matrix()
            assert np.allclose(m @ m, np.eye(4), atol=1e-12)


class TestOutcomeProbabilities:
    def test_max_weight_state_with_zy_is_uniform(self):
        probs = outcome_probabilities(weighted_graph_state(np.pi),
                                      pauli_observable("Z", "Y"))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_hh_eigenstate(self):
        state = PureState2Q(np.array([1, 0, 0, 0], dtype=complex))
        probs = outcome_probabilities(state, pauli_observable("Z", "Z"))
        assert np.allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_fringe_law_on_intermediate_state(self):
        # projecting the one-arm-rotated state onto A (x) H follows
        # (1 + cos varphi)/2
        obs = general_axis_observable(np.pi / 2, np.pi, 0.0, 0.0)  # A (x) H
        for varphi in np.linspace(-np.pi, np.pi, 15):
            cfg = GenerationConfig(hwp_r2=0.0, hwp_l2=np.pi / 4,
                                   phi_prime_12=0.0, varphi_prime=varphi)
            state = simulate_generation(cfg).state
            p = outcome_probabilities(state, obs)[0]
            assert p == pytest.approx((1 + np.cos(varphi)) / 2, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            state = PureState2Q(rng.normal(size=4) + 1j * rng.normal(size=4))
            obs = general_axis_observable(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                                          rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            assert outcome_probabilities(state, obs).sum() == pytest.approx(1.0, abs=1e-10)

    def test_weighted_probabilities_reproduce_expectation(self):
        rng = np.random.default_rng(4)
        labels = list("IXYZ")
        for _ in range(30):
            state = PureState2Q(rng.normal(size=4) + 1j * rng.normal(size=4))
            obs = pauli_observable(labels[rng.integers(4)], labels[rng.integers(4)])
            probs = outcome_probabilities(state, obs)
            w = np.array([obs.weights[o] for o in ("++", "+-", "-+", "--")])
            assert w @ probs == pytest.approx(expectation(obs.matrix(), state), abs=1e-10)


# (rate, duration, the one a simulator must name in refusing them)
BAD_RATES = [(float("nan"), 10.0, "rate"), (float("inf"), 10.0, "rate"), (-1.0, 10.0, "rate"),
             (150.0, float("nan"), "duration"), (150.0, float("inf"), "duration"),
             (150.0, -1.0, "duration"), (1e300, 1e300, r"rate \* duration")]


class TestSimulateCounts:
    def test_zero_rate(self):
        counts = simulate_counts([0.25, 0.25, 0.25, 0.25], rate=0.0, duration=10.0, seed=1)
        assert counts.sum() == 0

    def test_degenerate_distribution(self):
        counts = simulate_counts([1, 0, 0, 0], rate=100.0, duration=1.0, seed=2)
        assert counts[1:].sum() == 0
        assert counts[0] > 0

    def test_poisson_moments(self):
        # means (750, 750, 0, 0); the sample mean over many seeds stays
        # within three standard errors
        totals = np.zeros(4)
        n = 1000
        for seed in range(n):
            totals += simulate_counts([0.5, 0.5, 0, 0], rate=150.0, duration=10.0,
                                      seed=seed)
        means = totals / n
        stderr = np.sqrt(750.0 / n)
        assert abs(means[0] - 750.0) < 3 * stderr
        assert abs(means[1] - 750.0) < 3 * stderr
        assert means[2] == 0 and means[3] == 0

    def test_deterministic_per_seed(self):
        a = simulate_counts([0.1, 0.2, 0.3, 0.4], 100.0, 10.0, seed=7)
        b = simulate_counts([0.1, 0.2, 0.3, 0.4], 100.0, 10.0, seed=7)
        assert np.array_equal(a, b)

    def test_read_only_int64(self):
        counts = simulate_counts([0.1, 0.2, 0.3, 0.4], 100.0, 10.0, seed=7)
        assert counts.dtype == np.int64 and counts.shape == (4,)
        assert not counts.flags.writeable

    def test_invalid_probs_rejected(self):
        with pytest.raises(ValueError):
            simulate_counts([0.5, 0.5, 0.5, 0.5], 100.0, 1.0, seed=0)

    @pytest.mark.parametrize("rate, duration, named", BAD_RATES)
    def test_non_finite_or_negative_rate_or_duration_refused(self, rate, duration, named):
        with pytest.raises(ValueError, match=rf"^{named} must be finite"):
            simulate_counts([0.25] * 4, rate, duration, seed=0)


def shape_id(shape):
    return "x".join(map(str, shape))


def validated(counts, duration):
    return checked_counts(counts, (4,)), checked_durations(duration)


# the validators and both containers that call them, each with the
# shape of counts it takes
HOLDERS = [pytest.param(validated, (4,), id="validators"),
           pytest.param(BinnedCounts, (2, 4), id="BinnedCounts"),
           pytest.param(TomographyDataset, (16, 4), id="TomographyDataset")]


class TestCountValidation:
    @pytest.mark.parametrize("make, shape", HOLDERS)
    def test_negative_count_rejected(self, make, shape):
        counts = np.ones(shape, dtype=int)
        counts.flat[-1] = -1
        with pytest.raises(ValueError, match="counts must be non-negative"):
            make(counts, 10.0)

    @pytest.mark.parametrize("count", [2 ** 63, -2 ** 63 - 1])
    @pytest.mark.parametrize("make, shape", HOLDERS)
    def test_count_outside_int64_rejected(self, make, shape, count):
        counts = np.ones(shape, dtype=object)
        counts.flat[-1] = count
        with pytest.raises(ValueError, match=r"outside int64: counts must be below 2\*\*63"):
            make(counts, 10.0)

    # the range is checked before the int64 cast: a uint64 would wrap to a
    # negative count, a float would warn "invalid value encountered in cast"
    @pytest.mark.parametrize("dtype, count", [(np.uint64, 2 ** 63), (np.uint64, 2 ** 64 - 1),
                                              (np.float64, 1e19), (np.float64, -1e19),
                                              (np.float32, 2.0 ** 63)])
    @pytest.mark.parametrize("make, shape", HOLDERS)
    def test_count_outside_int64_rejected_for_every_dtype(self, make, shape, dtype, count):
        counts = np.ones(shape, dtype=dtype)
        counts.flat[-1] = count
        with pytest.raises(ValueError, match=r"outside int64: counts must be below 2\*\*63"):
            make(counts, 10.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, object])
    @pytest.mark.parametrize("make, shape", HOLDERS)
    def test_non_finite_count_rejected(self, make, shape, dtype, value):
        counts = np.ones(shape, dtype=dtype)
        counts.flat[0] = value
        with pytest.raises(ValueError, match=f"counts must be finite, got {value!r}"):
            make(counts, 10.0)

    def test_largest_int64_count_accepted_from_uint64(self):
        counts = np.zeros(4, dtype=np.uint64)
        counts[-1] = 2 ** 63 - 1
        assert checked_counts(counts, (4,))[-1] == 2 ** 63 - 1

    def test_fractional_count_in_an_object_array_rejected(self):
        # the int64 cast of a Python float truncates it, as int() does
        counts = np.ones(4, dtype=object)
        counts[0] = 1.7
        with pytest.raises(ValueError, match="counts must be whole numbers, got 1.7"):
            checked_counts(counts, (4,))

    @pytest.mark.parametrize("make, shape", HOLDERS)
    def test_total_past_int64_rejected(self, make, shape):
        # two counts of 2**62 total 2**63, which an int64 sum wraps to -2**63;
        # one count less totals 2**63 - 1, the largest int64
        counts = np.zeros(shape, dtype=np.int64)
        counts.flat[:2] = 2 ** 62
        with pytest.raises(ValueError, match=r"counts must total below 2\*\*63"):
            make(counts, 10.0)
        counts.flat[1] -= 1
        make(counts, 10.0)

    @pytest.mark.parametrize("make, shape", HOLDERS)
    def test_fractional_count_rejected(self, make, shape):
        # the int64 cast would store 1 for 1.7 and 2 for 2.9
        counts = np.ones(shape)
        counts.flat[0] = 1.7
        with pytest.raises(ValueError, match="counts must be whole numbers, got 1.7"):
            make(counts, 10.0)
        with pytest.raises(ValueError, match="counts must be whole numbers, got 2.9"):
            make(np.full(shape, 2.9), 10.0)
        with pytest.raises(ValueError, match="counts must be whole numbers"):
            make(np.full(shape, 0.5, dtype=np.float32), 10.0)

    def test_fractional_counts_in_a_list_rejected(self):
        with pytest.raises(ValueError, match="counts must be whole numbers, got 1.7"):
            BinnedCounts([[1.7, 2, 3, 4], [1, 2, 3, 4]])

    @pytest.mark.parametrize("make, shape", HOLDERS[1:])
    def test_whole_float_counts_accepted(self, make, shape):
        held = make(np.full(shape, 2.0), 10.0)
        assert held.counts.dtype == np.int64 and (held.counts == 2).all()
        assert held.total == 2 * np.prod(shape)

    @pytest.mark.parametrize("make, shape", HOLDERS)
    @pytest.mark.parametrize("kind, value", [("bool", True), ("str", "2"), ("complex", 2 + 0j),
                                             ("None", None)])
    def test_non_number_counts_rejected(self, make, shape, kind, value):
        # an int64 cast would read True as 1 and "2" as 2
        with pytest.raises(ValueError, match="counts must be integers or real floats"):
            make(np.full(shape, value), 10.0)
        mixed = np.ones(shape, dtype=object)
        mixed.flat[-1] = value
        with pytest.raises(ValueError, match="counts must be integers or real floats"):
            make(mixed, 10.0)

    def test_strings_and_booleans_in_a_list_rejected(self):
        with pytest.raises(ValueError, match="counts must be integers or real floats"):
            BinnedCounts([["1", "2", "3", "4"], [True, 2, 3, 4]], 1.0)
        with pytest.raises(ValueError, match="counts must be integers or real floats, got True"):
            BinnedCounts(np.array([[1, 2, 3, 4], [True, 2, 3, 4]], dtype=object), 1.0)

    @pytest.mark.parametrize("make, shape", HOLDERS[1:])
    def test_numpy_scalars_in_an_object_array_accepted(self, make, shape):
        counts = np.ones(shape, dtype=object)
        counts.flat[0], counts.flat[1] = np.int64(3), np.float64(2.0)
        held = make(counts, 10.0)
        assert held.counts.dtype == np.int64 and held.counts.flat[0] == 3

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf"), -1.0])
    @pytest.mark.parametrize("make, shape", HOLDERS)
    def test_duration_finite_and_non_negative(self, make, shape, duration):
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            make(np.ones(shape, dtype=int), duration)

    @pytest.mark.parametrize("make, shape, wrong", [
        pytest.param(validated, (4,), wrong, id=f"validators-{shape_id(wrong)}")
        for wrong in [(3,), (5,), (1, 4), (2, 2)]] + [
        pytest.param(BinnedCounts, (2, 4), wrong, id=f"BinnedCounts-{shape_id(wrong)}")
        for wrong in [(8,), (2, 3), (2, 6), (2, 4, 1)]] + [
        pytest.param(TomographyDataset, (16, 4), wrong, id=f"TomographyDataset-{shape_id(wrong)}")
        for wrong in [(15, 4), (16, 5), (64,), (4, 16)]])
    def test_wrong_shape_rejected(self, make, shape, wrong):
        make(np.ones(shape, dtype=int), 10.0)
        with pytest.raises(ValueError, match="counts must have shape"):
            make(np.ones(wrong, dtype=int), 10.0)

    def test_one_bad_duration_of_sixteen_rejected(self):
        durations = np.full(16, 10.0)
        durations[5] = float("nan")
        with pytest.raises(ValueError, match="got nan"):
            TomographyDataset(np.ones((16, 4), dtype=int), durations)
        with pytest.raises(ValueError):
            TomographyDataset(np.ones((16, 4), dtype=int), np.full(15, 10.0))

    @pytest.mark.parametrize("make, shape", HOLDERS[1:])
    def test_containers_store_read_only_int64_copies(self, make, shape):
        counts = np.ones(shape)
        held = make(counts, 10.0)
        assert held.counts.dtype == np.int64 and held.counts.shape == shape
        assert not held.counts.flags.writeable
        counts[0, 0] = 5
        assert held.counts[0, 0] == 1
        assert held.total == np.prod(shape)


class TestTomographySettings:
    def test_sixteen_rows(self):
        assert len(tomography_settings()) == 16

    def test_row_three_is_hh(self):
        row = tomography_settings()[2]
        assert row.label == "HxH"
        assert (row.h1, row.q1, row.h2, row.q2) == (0.0, 0.0, 0.0, 0.0)

    def test_row_ten_is_dd(self):
        row = tomography_settings()[9]
        assert row.label == "DxD"
        assert (row.h1, row.q1, row.h2, row.q2) == (-22.5, 45.0, -22.5, 45.0)

    def test_every_row_maps_projector_to_h(self):
        # Jones-calculus oracle: each photon's plate pair sends its
        # projector state into the transmitted port
        for row in tomography_settings():
            s1, s2 = row.label.split("x")
            o1 = analyzer_overlap(row.h1, row.q1, POLARIZATION_KETS[s1])
            o2 = analyzer_overlap(row.h2, row.q2, POLARIZATION_KETS[s2])
            assert o1 >= 1 - 1e-8, row.label
            assert o2 >= 1 - 1e-8, row.label


class TestWaveplateSolver:
    def test_h_projector(self):
        setting = solve_projector_waveplates(0.0, 0.0, "+")
        assert setting.residual <= 1e-8
        assert analyzer_overlap(setting.hwp_deg, setting.qwp_deg,
                                axis_state(0.0, 0.0, "+")) >= 1 - 1e-8
        # the trivial straight-through solution is the minimal-|angle| one
        assert abs(setting.hwp_deg) < 1e-6
        assert abs(setting.qwp_deg) < 1e-6

    def test_published_general_axis_row(self):
        # photon-2 plus projector of the maximally-weighted optimum:
        # beta = 90 deg, alpha = 44.60 deg realized by h = -11.37 deg,
        # q = 45.00 deg (degenerate alternatives allowed)
        beta, alpha = np.pi / 2, np.radians(44.60)
        ket = axis_state(beta, alpha, "+")
        assert analyzer_overlap(-11.37, 45.00, ket) >= 1 - 1e-5
        setting = solve_projector_waveplates(beta, alpha, "+")
        assert analyzer_overlap(setting.hwp_deg, setting.qwp_deg, ket) >= 1 - 1e-8

    def test_round_trip_random_axes(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            beta = rng.uniform(0, np.pi)
            alpha = rng.uniform(-np.pi, np.pi)
            outcome = "+" if rng.random() < 0.5 else "-"
            setting = solve_projector_waveplates(beta, alpha, outcome)
            overlap = analyzer_overlap(setting.hwp_deg, setting.qwp_deg,
                                       axis_state(beta, alpha, outcome))
            assert overlap >= 1 - 1e-8

    def test_circular_state_takes_the_q_zero_kink(self):
        # R: the solutions form a continuum; (22.5, 0) is exact and has
        # the smallest |h| + |q| on it
        setting = solve_projector_waveplates(np.pi / 2, np.pi / 2, "-")
        assert (setting.hwp_deg, setting.qwp_deg) == (22.5, 0.0)
        assert setting.residual == 0.0

    def test_tie_breaks_toward_positive_qwp(self):
        # D: (-22.5, 45) and (-22.5, -45) tie on |h| + |q|
        setting = solve_projector_waveplates(np.pi / 2, 0.0, "+")
        assert setting.hwp_deg == pytest.approx(-22.5, abs=1e-9)
        assert setting.qwp_deg == pytest.approx(45.0, abs=1e-9)

    @settings(deadline=None)
    @given(beta=st.floats(0.0, np.pi), alpha=st.floats(-np.pi, np.pi),
           outcome=st.sampled_from("+-"))
    def test_exact_and_minimal(self, beta, alpha, outcome):
        ket = axis_state(beta, alpha, outcome)
        setting = solve_projector_waveplates(beta, alpha, outcome)
        h, q = setting.hwp_deg, setting.qwp_deg
        assert analyzer_overlap(h, q, ket) >= 1 - 1e-12
        assert -90.0 < h <= 90.0 and -90.0 < q <= 90.0
        assert setting.residual >= 0.0
        # reference by root finding: full transmission needs a linear
        # polarization behind the QWP, so every exact q is a zero of S3
        # there; at such a q the transmission is cos^2 of twice the HWP's
        # miss, so an h with residual <= 1e-4 lies within 0.29 deg of an
        # exact h
        def s3_after_qwp(q_deg):
            a, b = waveplate_jones_lab(WaveplateKind.QWP, np.radians(q_deg)) @ ket
            return (np.conj(a) * b).imag

        q_grid = np.linspace(-90.0, 90.0, 181)
        s3 = [s3_after_qwp(x) for x in q_grid]
        exact_qs = [x for x, f in zip(q_grid, s3) if f == 0.0]
        exact_qs += [brentq(s3_after_qwp, x0, x1, xtol=1e-12)
                     for x0, x1, f0, f1 in zip(q_grid, q_grid[1:], s3, s3[1:])
                     if f0 * f1 < 0]
        h_grid = np.arange(-359, 361) * 0.25
        for exact_q in exact_qs:
            near = 1.0 - analyzer_overlap(h_grid, exact_q, ket) <= 1e-4
            assert near.any()
            assert np.abs(h_grid[near]).min() + abs(exact_q) >= abs(h) + abs(q) - 0.3


def _settings_bytes(settings):
    return np.array([(s.hwp_deg, s.qwp_deg, s.residual) for s in settings]).tobytes()


class TestBatchedWaveplateSolver:
    # poles, the circular states and states within round-off of them, and
    # the H/V/D/A axes, besides the random rows of each batch
    SPECIAL = [(0.0, 0.0), (np.pi, 0.0), (0.0, 2.0), (np.pi, -1.0), (np.pi / 2, np.pi / 2),
               (np.pi / 2, -np.pi / 2), (np.pi / 2, np.nextafter(np.pi / 2, 0)),
               (np.nextafter(np.pi / 2, 4), np.pi / 2), (1e-12, 0.3), (np.pi / 2, 0.0),
               (np.pi / 2, np.pi)]

    def batches(self, count):
        rng = np.random.default_rng(18)
        for _ in range(count):
            size = int(rng.integers(1, 9))
            betas = rng.uniform(0, np.pi, size)
            alphas = rng.uniform(-np.pi, np.pi, size)
            for k in np.flatnonzero(rng.random(size) < 0.3):
                betas[k], alphas[k] = self.SPECIAL[rng.integers(len(self.SPECIAL))]
            yield betas.tolist(), alphas.tolist(), rng.choice(["+", "-"], size).tolist()

    def test_batch_equals_one_row_calls_bit_for_bit(self):
        for betas, alphas, outcomes in self.batches(300):
            batch = solve_projector_batch(betas, alphas, outcomes)
            rows = [solve_projector_waveplates(*row) for row in zip(betas, alphas, outcomes)]
            assert _settings_bytes(batch) == _settings_bytes(rows)
            assert [s.outcome for s in batch] == outcomes

    def test_every_pair_transmits_its_state(self):
        # oracle: the Jones product of the plates on a ket built here
        for betas, alphas, outcomes in self.batches(100):
            for s, beta, alpha in zip(solve_projector_batch(betas, alphas, outcomes),
                                      betas, alphas):
                c, si = np.cos(beta / 2), np.sin(beta / 2)
                ket = (np.array([c, si * np.exp(1j * alpha)]) if s.outcome == "+"
                       else np.array([-si, c * np.exp(1j * alpha)]))
                out = (waveplate_jones_lab(WaveplateKind.HWP, np.radians(s.hwp_deg))
                       @ waveplate_jones_lab(WaveplateKind.QWP, np.radians(s.qwp_deg)) @ ket)
                assert abs(out[0]) ** 2 >= 1 - 1e-8
                assert -90.0 < s.hwp_deg <= 90.0 and -90.0 < s.qwp_deg <= 90.0
                assert 0.0 <= s.residual <= 1e-8

    def test_pauli_states_give_the_pinned_settings(self):
        # optimize --kind pauli at phi12 = pi measures Z on photon 1 and Y
        # on photon 2; the X projectors (D, A) are not pinned by a golden
        golden = Path(__file__).parent / "golden" / "optimize_pauli_pi.json"
        plates = json.loads(golden.read_text())["waveplates"]
        z_plus, z_minus, x_plus, x_minus, y_plus, y_minus = solve_projector_batch(
            [0.0, 0.0, np.pi / 2, np.pi / 2, np.pi / 2, np.pi / 2],
            [0.0, 0.0, 0.0, 0.0, np.pi / 2, np.pi / 2], ["+", "-"] * 3)
        for setting, key in ((z_plus, "photon1_plus"), (z_minus, "photon1_minus"),
                             (y_plus, "photon2_plus"), (y_minus, "photon2_minus")):
            assert {"hwp_deg": setting.hwp_deg, "qwp_deg": setting.qwp_deg,
                    "residual": setting.residual} == plates[key]
        for setting, h in ((x_plus, -22.5), (x_minus, 22.5)):
            assert setting.hwp_deg == h and setting.residual == 0.0
            assert setting.qwp_deg == pytest.approx(45.0, abs=1e-12)

    def test_no_candidate_left_names_the_row(self):
        with pytest.raises(WaveplateSolverError, match=r"beta=1\.0000, alpha=0\.5000, outcome='-'"):
            solve_projector_batch([1.0], [0.5], ["-"], residual_tol=-1.0)

    def test_axis_states_stack_on_the_first_axis(self):
        betas, alphas, outcomes = [0.3, 2.0, np.pi], [-1.0, 0.4, 2.5], ["+", "-", "-"]
        kets = axis_state(np.array(betas), np.array(alphas), outcomes)
        assert kets.shape == (2, 3)
        for k, row in enumerate(zip(betas, alphas, outcomes)):
            assert kets[:, k].tobytes() == axis_state(*row).tobytes()
        with pytest.raises(ValueError, match="outcome must be"):
            axis_state(0.3, 0.1, "x")


class TestWrapPlateDeg:
    def test_interval_at_boundaries(self):
        from wgstate.measurement import _wrap_plate_deg
        for angle in (np.nextafter(90.0, 180), np.nextafter(90.0, 0),
                      np.nextafter(-90.0, -180), np.nextafter(-90.0, 0)):
            assert -90.0 < _wrap_plate_deg(angle) <= 90.0
        assert _wrap_plate_deg(90.0) == 90.0
        assert _wrap_plate_deg(-90.0) == 90.0

    def test_zero_is_positive(self):
        from wgstate.measurement import _wrap_plate_deg
        assert np.copysign(1.0, _wrap_plate_deg(-180.0)) == 1.0


class TestInternalConsistency:
    def test_vectorized_overlap_matches_matrix_path(self):
        # oracle: the Jones product of the plates, read at the PBS's H port
        rng = np.random.default_rng(14)
        for _ in range(25):
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket = ket / np.linalg.norm(ket)
            h, q = rng.uniform(-90, 90, (2, 4))
            jones = [abs((waveplate_jones_lab(WaveplateKind.HWP, np.radians(hi))
                          @ waveplate_jones_lab(WaveplateKind.QWP, np.radians(qj)) @ ket)[0]) ** 2
                     for hi in h for qj in q]
            grid = analyzer_overlap(h[:, None], q[None, :], ket)
            assert grid.shape == (4, 4)
            assert np.allclose(grid.ravel(), jones, rtol=0, atol=1e-12)
            assert float(analyzer_overlap(h[0], q[0], ket)) == pytest.approx(jones[0], abs=1e-12)

    @staticmethod
    def ket_projectors(obs):
        """Outcome-pair -> projector, and the weighted operator, from the
        factors' eigenkets: axis_state for an axis, H/V for an identity."""
        kets, signs = [], []
        for k in range(2):
            if obs.pauli_labels:
                label = obs.pauli_labels[k]
                pair = {"I": "HV", "X": "DA", "Y": "LR", "Z": "HV"}[label]
                kets.append([POLARIZATION_KETS[pair[0]], POLARIZATION_KETS[pair[1]]])
                signs.append([1, 1] if label == "I" else [1, -1])
            else:
                beta, alpha = obs.axis_angles[2 * k:2 * k + 2]
                kets.append([axis_state(beta, alpha, "+"), axis_state(beta, alpha, "-")])
                signs.append([1, -1])
        projs, operator = [], np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                v = tensor(kets[0][i], kets[1][j])
                projs.append(np.outer(v, v.conj()))
                operator += signs[0][i] * signs[1][j] * projs[-1]
        return projs, operator

    def test_ket_projectors_reproduce_probabilities_and_matrix(self):
        rng = np.random.default_rng(15)
        observables = [pauli_observable(a1, a2) for a1 in "IXYZ" for a2 in "IXYZ"]
        observables += [general_axis_observable(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                                                rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
                        for _ in range(10)]
        states = [PureState2Q(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(3)]
        states += [apply_noise(weighted_graph_state(phi), NoiseModel(p, sigma))
                   for phi, p, sigma in ((np.pi, 0.2, 0.3), (1.1, 0.05, 0.8), (2.4, 0.6, 0.0))]
        for obs in observables:
            projs, operator = self.ket_projectors(obs)
            assert np.allclose(obs.matrix(), operator, atol=1e-12)
            weights = [obs.weights[o] for o in ("++", "+-", "-+", "--")]
            assert np.allclose(operator, sum(w * p for w, p in zip(weights, projs)), atol=1e-12)
            for state in states:
                rho = as_density(state)
                direct = [np.real(np.trace(p @ rho)) for p in projs]
                assert np.allclose(direct, outcome_probabilities(state, obs), atol=1e-12)

    def test_coefficients_are_read_only_rows(self):
        obs = general_axis_observable(0.4, -1.2, 2.0, 0.7)
        assert obs.coefficients.shape == (2, 4)
        assert np.allclose(np.linalg.norm(obs.coefficients, axis=1), 1.0)
        with pytest.raises(ValueError):
            obs.coefficients[0, 0] = 1.0
        assert np.array_equal(pauli_observable("I", "Y").coefficients,
                              [[1, 0, 0, 0], [0, 0, 1, 0]])
