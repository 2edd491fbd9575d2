import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgstate.tomography as tomography
from wgstate.measurement import CountRecord, setting_outcome_kets, tomography_settings
from wgstate.qmath import DensityMatrix, PureState2Q, as_density, fidelity, trace_distance
from wgstate.stategen import NoiseModel, apply_noise, weighted_graph_state
from wgstate.stats import DegenerateDataError
from wgstate.tomography import (ReconstructionReport, TomographyDataset,
                                mle_reconstruct, monte_carlo_report,
                                read_dataset_csv, simulate_tomography,
                                write_dataset_csv)

LIKELIHOODS = ("gaussian", "poisson")


def scaled_dataset(data, factor):
    return TomographyDataset(records=tuple(
        CountRecord(counts=r.counts * factor, duration=r.duration) for r in data.records))


def brute_force_probs(state, setting):
    """Independent Born-rule oracle: explicit projector sandwiches."""
    rho = state.density().matrix if isinstance(state, PureState2Q) else state.matrix
    kets = setting_outcome_kets(setting)
    return np.array([np.real(kets[o].conj() @ rho @ kets[o])
                     for o in ("++", "+-", "-+", "--")])


class TestSimulateTomography:
    def test_maximally_mixed_uniform(self):
        rho = DensityMatrix(np.eye(4) / 4)
        data = simulate_tomography(rho, rate=100.0, duration=10.0)
        assert np.all(data.counts == 250)

    def test_hh_eigenstate(self):
        state = PureState2Q(np.array([1, 0, 0, 0], dtype=complex))
        data = simulate_tomography(state, rate=150.0, duration=10.0)
        labels = [s.label for s in tomography_settings()]
        assert data.records[labels.index("HxH")].counts[0] == 1500
        assert data.records[labels.index("VxV")].counts[0] == 0

    def test_counts_match_brute_force_probabilities(self):
        state = weighted_graph_state(np.pi)
        data = simulate_tomography(state, rate=1000.0, duration=1.0)
        for setting, record in zip(tomography_settings(), data.records):
            expected = np.rint(1000.0 * brute_force_probs(state, setting))
            assert np.array_equal(record.counts, expected.astype(int)), setting.label

    def test_poisson_mode_deterministic(self):
        state = weighted_graph_state(0.5)
        a = simulate_tomography(state, 150.0, 10.0, seed=3, poisson=True)
        b = simulate_tomography(state, 150.0, 10.0, seed=3, poisson=True)
        assert np.array_equal(a.counts, b.counts)

    def test_dataset_needs_sixteen_records(self):
        with pytest.raises(ValueError):
            TomographyDataset(records=tuple(
                CountRecord(counts=np.ones(4, dtype=int)) for _ in range(15)))


class TestMLE:
    def test_exact_counts_recover_max_weight_state(self):
        target = weighted_graph_state(np.pi)
        data = simulate_tomography(target, rate=150.0, duration=10.0)
        rho = mle_reconstruct(data)
        assert fidelity(rho, target) >= 0.999

    def test_uniform_counts_give_maximally_mixed(self):
        records = tuple(CountRecord(counts=np.full(4, 375)) for _ in range(16))
        rho = mle_reconstruct(TomographyDataset(records=records))
        assert trace_distance(rho, DensityMatrix(np.eye(4) / 4)) < 1e-3

    def test_intermediate_entangled_state(self):
        target = PureState2Q(
            np.array([1, 0, 0, -np.exp(1j * np.pi / 2)], dtype=complex) / np.sqrt(2))
        data = simulate_tomography(target, rate=150.0, duration=10.0)
        assert fidelity(mle_reconstruct(data), target) >= 0.999

    def test_transmitted_only_mode(self):
        target = weighted_graph_state(np.pi / 2)
        data = simulate_tomography(target, rate=1500.0, duration=10.0)
        rho = mle_reconstruct(data, outcomes="transmitted")
        assert fidelity(rho, target) >= 0.999

    def test_poisson_likelihood_flag(self):
        target = weighted_graph_state(3 * np.pi / 4)
        data = simulate_tomography(target, rate=150.0, duration=10.0)
        rho = mle_reconstruct(data, likelihood="poisson")
        assert fidelity(rho, target) >= 0.999

    def test_scale_invariance(self):
        target = weighted_graph_state(np.pi / 4)
        base = simulate_tomography(target, rate=150.0, duration=10.0)
        assert trace_distance(mle_reconstruct(base),
                              mle_reconstruct(scaled_dataset(base, 7))) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(0.0, np.pi), depolarizing=st.floats(0.0, 0.5),
           rate=st.sampled_from([3.0, 15.0, 150.0]), seed=st.integers(0, 2 ** 32 - 1),
           factor=st.integers(2, 9), likelihood=st.sampled_from(LIKELIHOODS))
    def test_scale_invariance_under_shot_noise(self, phi, depolarizing, rate, seed,
                                               factor, likelihood):
        state = apply_noise(weighted_graph_state(phi), NoiseModel(depolarizing_p=depolarizing))
        base = simulate_tomography(state, rate, 10.0, seed=seed, poisson=True)
        assert trace_distance(
            mle_reconstruct(base, likelihood=likelihood),
            mle_reconstruct(scaled_dataset(base, factor), likelihood=likelihood)) < 1e-6

    def test_output_physical_for_noisy_counts(self):
        rng = np.random.default_rng(17)
        records = tuple(CountRecord(counts=rng.integers(0, 400, size=4))
                        for _ in range(16))
        rho = mle_reconstruct(TomographyDataset(records=records))
        assert isinstance(rho, DensityMatrix)

    def test_all_zero_rejected(self):
        records = tuple(CountRecord(counts=np.zeros(4, dtype=int)) for _ in range(16))
        with pytest.raises(DegenerateDataError):
            mle_reconstruct(TomographyDataset(records=records))

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    def test_no_rectilinear_transmitted_counts(self, likelihood):
        # what a sparse Monte Carlo resample can leave: linear inversion
        # has nothing to normalize by, the other outcomes still carry flux
        data = simulate_tomography(weighted_graph_state(np.pi), 150.0, 10.0, seed=2, poisson=True)
        counts = data.counts.copy()
        counts[:4, 0] = 0
        rho = mle_reconstruct(TomographyDataset(records=tuple(
            CountRecord(counts=row) for row in counts)), likelihood=likelihood)
        assert isinstance(rho, DensityMatrix)


class TestGradient:
    """The analytic gradient of the fit's objective against central differences."""

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    @pytest.mark.parametrize("outcomes", ["all", "transmitted"])
    def test_matches_central_differences(self, likelihood, outcomes):
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0, seed=4, poisson=True)
        nll, _flux = tomography._objective(data.counts.astype(float), likelihood, outcomes)
        rng = np.random.default_rng(8)
        near_pure = (1 - 1e-3) * as_density(weighted_graph_state(2.0)) + 1e-3 * np.eye(4) / 4
        # random points are unnormalized: Tr(T^dag T) is far from 1
        points = [rng.normal(size=16) for _ in range(3)] + [tomography._cholesky_params(near_pure)]
        h = 1e-6
        for t in points:
            central = np.array([(nll(t + h * e)[0] - nll(t - h * e)[0]) / (2 * h)
                                for e in np.eye(16)])
            assert np.linalg.norm(nll(t)[1] - central) <= 1e-5 * np.linalg.norm(central)

    def test_fit_passes_the_gradient(self, monkeypatch):
        jacs = []
        minimize = tomography.minimize

        def spy(fun, x0, **kwargs):
            jacs.append(kwargs.get("jac"))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(tomography, "minimize", spy)
        mle_reconstruct(simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0))
        assert jacs and all(jac is True for jac in jacs)


class TestMonteCarloReport:
    def test_default_sample_count(self):
        import inspect
        assert inspect.signature(monte_carlo_report).parameters["n"].default == 100

    def test_deterministic_given_seed(self):
        target = weighted_graph_state(np.pi)
        data = simulate_tomography(target, 150.0, 10.0, seed=5, poisson=True)
        a = monte_carlo_report(data, target, n=8, seed=11)
        b = monte_carlo_report(data, target, n=8, seed=11)
        assert a.fidelity_to_target == b.fidelity_to_target
        assert a.concurrence == b.concurrence

    def test_huge_rate_shrinks_stdev(self):
        target = weighted_graph_state(np.pi)
        data = simulate_tomography(target, rate=1e6, duration=10.0)
        report = monte_carlo_report(data, target, n=12, seed=13)
        assert isinstance(report, ReconstructionReport)
        assert report.fidelity_stdev < 1e-3
        assert report.fidelity_to_target > 0.999

    def test_needs_two_samples(self):
        target = weighted_graph_state(np.pi)
        data = simulate_tomography(target, 150.0, 10.0)
        with pytest.raises(ValueError):
            monte_carlo_report(data, target, n=1)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 10.0,
                                   seed=19, poisson=True)
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, data)
        loaded = read_dataset_csv(path)
        assert np.array_equal(loaded.counts, data.counts)
        assert loaded.records[0].duration == data.records[0].duration

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting_index,projector_label\n0,HxH\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    def test_duplicate_setting_rejected(self, tmp_path):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 10.0)
        path = tmp_path / "dup.csv"
        write_dataset_csv(path, data)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[3]]) + "\n")
        with pytest.raises(ValueError, match="twice"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
    def test_bad_duration_rejected(self, tmp_path, duration):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 10.0)
        path = tmp_path / "bad_duration.csv"
        write_dataset_csv(path, data)
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + "," + duration
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duration"):
            read_dataset_csv(path)

    def test_truncated_csv_rejected(self, tmp_path):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 10.0)
        path = tmp_path / "short.csv"
        write_dataset_csv(path, data)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)
