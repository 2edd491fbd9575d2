import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wgstate.tomography as tomography
from wgstate.qmath import (POLARIZATION_KETS, DensityMatrix, PureState2Q, as_density,
                           concurrence, fidelity, tensor, trace_distance)
from wgstate.stategen import NoiseModel, apply_noise, weighted_graph_state
from wgstate.stats import DegenerateDataError
from wgstate.tomography import (ReconstructionReport, TomographyDataset,
                                dataset_csv, mle_reconstruct, monte_carlo_report,
                                read_dataset_csv, simulate_tomography,
                                tomography_settings)

LIKELIHOODS = ("gaussian", "poisson")
# maximum-likelihood estimates of the former L-BFGS-B fit on Poisson data
with open(Path(__file__).parent / "data" / "lbfgs_estimates.json") as fh:
    LBFGS_ESTIMATES = json.load(fh)


def scaled_dataset(data, factor):
    return TomographyDataset(data.counts * factor, data.durations)


ORTHOGONAL = {"H": "V", "V": "H", "D": "A", "A": "D", "L": "R", "R": "L"}


def brute_force_probs(state, setting):
    """Independent Born-rule oracle: explicit projector sandwiches of the
    setting's labelled states ("+") and their orthogonal partners ("-")."""
    rho = state.density().matrix if isinstance(state, PureState2Q) else state.matrix
    s1, s2 = setting.label.split("x")
    kets = [tensor(POLARIZATION_KETS[k1], POLARIZATION_KETS[k2])
            for k1 in (s1, ORTHOGONAL[s1]) for k2 in (s2, ORTHOGONAL[s2])]
    return np.array([np.real(ket.conj() @ rho @ ket) for ket in kets])


# (rate, duration, the one a simulator must name in refusing them)
BAD_RATES = [(float("nan"), 10.0, "rate"), (float("inf"), 10.0, "rate"), (-1.0, 10.0, "rate"),
             (150.0, float("nan"), "duration"), (150.0, float("inf"), "duration"),
             (150.0, -1.0, "duration"), (1e300, 1e300, r"rate \* duration")]


class TestSimulateTomography:
    @pytest.mark.parametrize("poisson", [False, True], ids=["exact", "poisson"])
    @pytest.mark.parametrize("rate, duration, named", BAD_RATES)
    def test_non_finite_or_negative_rate_or_duration_refused(self, poisson, rate, duration,
                                                             named):
        with pytest.raises(ValueError, match=rf"^{named} must be finite"):
            simulate_tomography(weighted_graph_state(1.0), rate, duration, poisson=poisson)

    def test_exact_counts_past_int64_refused(self):
        with pytest.raises(ValueError, match="outside int64"):
            simulate_tomography(weighted_graph_state(1.0), 1e19, 10.0)

    def test_maximally_mixed_uniform(self):
        rho = DensityMatrix(np.eye(4) / 4)
        data = simulate_tomography(rho, rate=100.0, duration=10.0)
        assert np.all(data.counts == 250)

    def test_hh_eigenstate(self):
        state = PureState2Q(np.array([1, 0, 0, 0], dtype=complex))
        data = simulate_tomography(state, rate=150.0, duration=10.0)
        labels = [s.label for s in tomography_settings()]
        assert data.counts[labels.index("HxH"), 0] == 1500
        assert data.counts[labels.index("VxV"), 0] == 0

    def test_counts_match_brute_force_probabilities(self):
        state = weighted_graph_state(np.pi)
        data = simulate_tomography(state, rate=1000.0, duration=1.0)
        for setting, counts in zip(tomography_settings(), data.counts):
            expected = np.rint(1000.0 * brute_force_probs(state, setting))
            assert np.array_equal(counts, expected.astype(int)), setting.label

    def test_poisson_mode_deterministic(self):
        state = weighted_graph_state(0.5)
        a = simulate_tomography(state, 150.0, 10.0, seed=3, poisson=True)
        b = simulate_tomography(state, 150.0, 10.0, seed=3, poisson=True)
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("phi, depolarizing, rate, seed", [
        (np.pi, 0.0, 150.0, 0), (1.1, 0.2, 3.0, 5), (2.4, 0.05, 1500.0, 12345)])
    def test_poisson_mode_matches_per_setting_draws(self, phi, depolarizing, rate, seed):
        # reference: one generator drawing four counts per setting, in plan order
        state = apply_noise(weighted_graph_state(phi),
                            NoiseModel(depolarizing_p=depolarizing, phase_jitter_sigma=0.1))
        rng = np.random.default_rng(seed)
        expected = [rng.poisson(rate * 10.0 * np.clip(brute_force_probs(state, setting), 0, None))
                    for setting in tomography_settings()]
        data = simulate_tomography(state, rate, 10.0, seed=seed, poisson=True)
        assert np.array_equal(data.counts, expected)
        assert np.array_equal(data.durations, np.full(16, 10.0))

    def test_dataset_needs_sixteen_records(self):
        with pytest.raises(ValueError):
            TomographyDataset(np.ones((15, 4), dtype=int))

    def test_counts_without_duration_rejected(self):
        durations = np.full(16, 10.0)
        durations[1] = 0.0
        with pytest.raises(ValueError, match=r"^setting 1 \(VxH\) has counts but a duration of 0$"):
            TomographyDataset(np.full((16, 4), 375), durations)

    def test_zero_duration_without_counts_accepted(self):
        data = simulate_tomography(weighted_graph_state(1.0), rate=150.0, duration=0.0)
        assert data.total == 0
        assert np.array_equal(data.durations, np.zeros(16))

    @pytest.mark.parametrize("idle, emptied, named", [
        ("all", [], "setting 0 (VxV)"),          # one duration for every setting
        ([15, 3], [], "setting 3 (HxV)"),        # the first in plan order
        ([2, 9], [2], "setting 9 (DxD)"),        # an idle setting without counts is valid
        ([15], "one count", "setting 15 (LxR)"),
    ], ids=["one-duration", "first-named", "beside-valid-idle", "single-count"])
    def test_first_setting_with_counts_and_no_duration_is_named(self, idle, emptied, named):
        counts = np.full((16, 4), 375)
        if emptied == "one count":
            counts[15] = [0, 0, 1, 0]
        else:
            counts[emptied] = 0
        durations = 0.0 if idle == "all" else np.where(np.isin(np.arange(16), idle), 0.0, 10.0)
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} has counts but a duration of 0$"):
            TomographyDataset(counts, durations)

    def test_idle_setting_beside_counted_ones_is_fitted(self):
        data = simulate_tomography(weighted_graph_state(np.pi), rate=150.0, duration=10.0)
        counts = data.counts.copy()
        counts[9] = 0
        durations = np.full(16, 10.0)
        durations[9] = 0.0
        rho = mle_reconstruct(TomographyDataset(counts, durations))
        assert fidelity(rho, weighted_graph_state(np.pi)) >= 0.999


class TestMLE:
    def test_exact_counts_recover_max_weight_state(self):
        target = weighted_graph_state(np.pi)
        data = simulate_tomography(target, rate=150.0, duration=10.0)
        rho = mle_reconstruct(data)
        assert fidelity(rho, target) >= 0.999

    def test_uniform_counts_give_maximally_mixed(self):
        rho = mle_reconstruct(TomographyDataset(np.full((16, 4), 375)))
        assert trace_distance(rho, DensityMatrix(np.eye(4) / 4)) < 1e-3

    def test_intermediate_entangled_state(self):
        target = PureState2Q(
            np.array([1, 0, 0, -np.exp(1j * np.pi / 2)], dtype=complex) / np.sqrt(2))
        data = simulate_tomography(target, rate=150.0, duration=10.0)
        assert fidelity(mle_reconstruct(data), target) >= 0.999

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

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    @pytest.mark.parametrize("phi", [0.37103851396769144, 1.9865326649540775])
    def test_scale_invariance_where_outcomes_have_no_counts(self, phi, likelihood):
        # exact counts of a pure state leave outcomes with no counts, whose
        # predicted probabilities go to 0 at the estimate
        base = simulate_tomography(weighted_graph_state(phi), rate=150.0, duration=10.0)
        assert trace_distance(
            mle_reconstruct(base, likelihood=likelihood),
            mle_reconstruct(scaled_dataset(base, 7), likelihood=likelihood)) < 1e-8

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    def test_outcomes_without_counts_are_driven_to_zero(self, likelihood):
        # exact counts of the maximum-weight state are exact multiples of its
        # probabilities; a floor on outcomes without counts would leave their
        # probabilities anywhere below it (infidelity ~1e-10 at a 1e-9 floor)
        target = weighted_graph_state(np.pi)
        data = simulate_tomography(target, rate=150.0, duration=10.0)
        assert fidelity(mle_reconstruct(data, likelihood=likelihood), target) >= 1 - 1e-13

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
        rho = mle_reconstruct(TomographyDataset(rng.integers(0, 400, size=(16, 4))))
        assert isinstance(rho, DensityMatrix)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDataError):
            mle_reconstruct(TomographyDataset(np.zeros((16, 4), dtype=int)))

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    def test_no_rectilinear_transmitted_counts(self, likelihood):
        # what a sparse Monte Carlo resample can leave: linear inversion
        # has nothing to normalize by, the other outcomes still carry flux
        data = simulate_tomography(weighted_graph_state(np.pi), 150.0, 10.0, seed=2, poisson=True)
        counts = data.counts.copy()
        counts[:4, 0] = 0
        rho = mle_reconstruct(TomographyDataset(counts), likelihood=likelihood)
        assert isinstance(rho, DensityMatrix)


def evaluate(nll, t, rows):
    """(f, gradient, Hessian) of a likelihood at parameter rows t."""
    f, terms = nll(t, rows)
    return (f, *nll.derivatives(terms))


class TestGradient:
    """The fit's exact gradient and Hessian against central differences."""

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    def test_matches_central_differences(self, likelihood):
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0, seed=4, poisson=True)
        nll = tomography._Likelihood(data.counts[None], likelihood)
        rows = np.array([0])
        rng = np.random.default_rng(8)
        near_pure = (1 - 1e-3) * as_density(weighted_graph_state(2.0)) + 1e-3 * np.eye(4) / 4
        # random points are unnormalized: Tr(T^dag T) is far from 1
        points = ([rng.normal(size=16) for _ in range(3)]
                  + [tomography._cholesky_params(near_pure[None])[0]])
        h = 1e-6
        for t in points:
            _f, grad, hess = evaluate(nll, t[None], rows)
            shifted = [(evaluate(nll, (t + h * e)[None], rows),
                        evaluate(nll, (t - h * e)[None], rows)) for e in np.eye(16)]
            central = np.array([(up[0][0] - down[0][0]) / (2 * h) for up, down in shifted])
            assert np.linalg.norm(grad[0] - central) <= 1e-5 * np.linalg.norm(central)
            central = np.array([(up[1][0] - down[1][0]) / (2 * h) for up, down in shifted])
            assert np.linalg.norm(hess[0] - central) <= 1e-5 * np.linalg.norm(central)

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    def test_scale_invariance_borders_the_newton_system(self, likelihood):
        # the premise of sphere_newton's bordered system: H t = -g and
        # g^T t = 0 at unit t
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0, seed=4, poisson=True)
        nll = tomography._Likelihood(data.counts[None], likelihood)
        rng = np.random.default_rng(8)
        near_pure = (1 - 1e-3) * as_density(weighted_graph_state(2.0)) + 1e-3 * np.eye(4) / 4
        points = ([rng.normal(size=16) for _ in range(3)]
                  + [tomography._cholesky_params(near_pure[None])[0]])
        for t in points:
            t = t / np.linalg.norm(t)
            _f, grad, hess = evaluate(nll, t[None], np.array([0]))
            assert np.linalg.norm(hess[0] @ t + grad[0]) <= 1e-13 * np.linalg.norm(hess[0])
            assert abs(grad[0] @ t) <= 1e-13 * np.linalg.norm(grad[0])

    def test_fit_runs_newton_on_the_hessian(self, monkeypatch):
        def no_scipy(*args, **kwargs):
            raise AssertionError("the fit called a scipy optimizer")

        monkeypatch.setattr(tomography, "minimize", no_scipy)
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0, seed=4, poisson=True)
        evaluations = []
        nll_class = tomography._Likelihood

        class Counting(nll_class):
            def derivatives(self, terms):
                evaluations.append(True)
                return super().derivatives(terms)

        monkeypatch.setattr(tomography, "_Likelihood", Counting)
        t = tomography._fit(data.counts[None], "gaussian")
        # Newton's quadratic convergence: a few Hessian evaluations, where
        # L-BFGS-B took ~70 gradient evaluations
        assert 3 <= evaluations.count(True) <= 20
        # a second-order minimum on the unit sphere: no tangent gradient,
        # and the projected Hessian has no negative curvature
        _f, grad, hess = evaluate(nll_class(data.counts[None], "gaussian"), t, np.array([0]))
        proj = np.eye(16) - np.outer(t[0], t[0])
        assert np.linalg.norm(proj @ grad[0]) <= 1e-6
        curvature = np.linalg.eigvalsh(proj @ hess[0] @ proj)
        assert curvature.min() >= -1e-8 * curvature.max()


def unmixed_start(nll):
    """The start of a fit with its I/4 admixture taken out again."""
    rho = tomography._rho_from_params(tomography._start(nll))
    mix = tomography._START_MIX
    return (rho - mix * np.eye(4) / 4) / (1 - mix)


def sparse_stack(kind):
    """Poisson datasets of ~3 counts per setting, or of 150 counts per
    setting with the non-rectilinear settings or the rectilinear
    transmitted counts emptied, keeping those whose flux is positive."""
    stack = np.stack([simulate_tomography(
        apply_noise(weighted_graph_state(phi), NoiseModel(depolarizing_p=0.1)),
        0.3 if kind == "three counts" else 15.0, 10.0, seed=seed, poisson=True).counts
        for seed, phi in enumerate(np.linspace(0.0, np.pi, 30))])
    if kind == "non-rectilinear empty":
        stack[:, 4:] = 0
    elif kind == "rectilinear transmitted empty":
        stack[:, :4, 0] = 0
    return stack[tomography._rectilinear_flux(stack) > 0]


class TestStart:
    """The least-squares start of the fit."""

    def test_exact_probabilities_invert_to_the_state(self):
        rng = np.random.default_rng(11)
        gram = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        rhos = gram @ np.swapaxes(gram.conj(), 1, 2)
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        probs = np.array([[brute_force_probs(DensityMatrix(rho), setting)
                           for setting in tomography_settings()] for rho in rhos])
        nll = tomography._Likelihood(probs, "gaussian")
        assert np.abs(unmixed_start(nll) - rhos).max() <= 1e-12

    def test_start_is_the_least_squares_inversion(self):
        # reference: the Pauli coefficients fitted to all 64 outcome ratios
        # by lstsq on explicit projector sandwiches, clipped to the PSD cone
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
        basis = [np.kron(a, b) / 2 for a in paulis for b in paulis]
        kets = [tensor(POLARIZATION_KETS[k1], POLARIZATION_KETS[k2])
                for s1, s2 in (s.label.split("x") for s in tomography_settings())
                for k1 in (s1, ORTHOGONAL[s1]) for k2 in (s2, ORTHOGONAL[s2])]
        matrix = np.array([[np.real(v.conj() @ b @ v) for b in basis] for v in kets])
        stack = stacked_counts([(0.3, 0.0, 15.0, 0), (1.2, 0.1, 150.0, 1),
                                (np.pi, 0.02, 1500.0, 2), (2.0, 0.4, 3.0, 3)])
        nll = tomography._Likelihood(stack, "poisson")
        for ratios, start in zip(nll.ratios, unmixed_start(nll)):
            coeffs = np.linalg.lstsq(matrix, ratios, rcond=None)[0]
            vals, vecs = np.linalg.eigh(np.tensordot(coeffs, basis, axes=1))
            rho = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
            assert np.abs(start - rho / np.trace(rho).real).max() <= 1e-12

    @pytest.mark.parametrize("kind", [
        "three counts", "non-rectilinear empty",
        # the former start took I/4 alone here
        "rectilinear transmitted empty",
    ])
    def test_unit_and_positive_definite_on_sparse_data(self, kind):
        stack = sparse_stack(kind)
        assert len(stack) >= 10
        t = tomography._start(tomography._Likelihood(stack, "gaussian"))
        assert np.all(np.isfinite(t))
        assert np.allclose(np.linalg.norm(t, axis=1), 1.0, rtol=0, atol=1e-12)
        smallest = np.linalg.eigvalsh(tomography._rho_from_params(t))[:, 0]
        assert smallest.min() >= tomography._START_MIX / 4 * (1 - 1e-9)

    def test_newton_iterations_within_budget(self, monkeypatch):
        # 40 tomo-mc-like stacks: a dataset and four Poisson resamples; the
        # former start (inversion of the transmitted counts with 30% of
        # I/4) took 13.85 Hessian evaluations per stack here, this one 9.85
        evaluations = []

        class Counting(tomography._Likelihood):
            def derivatives(self, terms):
                evaluations.append(True)
                return super().derivatives(terms)

        monkeypatch.setattr(tomography, "_Likelihood", Counting)
        rng = np.random.default_rng(20261019)
        per_stack = []
        for mixed in (False, True):
            for per_setting in (30.0, 1500.0):
                for likelihood in LIKELIHOODS:
                    for _ in range(5):
                        state = weighted_graph_state(rng.uniform(0, np.pi))
                        if mixed:
                            state = apply_noise(state, NoiseModel(
                                depolarizing_p=rng.uniform(0.05, 0.3),
                                phase_jitter_sigma=rng.uniform(0.1, 0.6)))
                        counts = simulate_tomography(state, per_setting / 10, 10.0,
                                                     seed=int(rng.integers(2 ** 31)),
                                                     poisson=True).counts
                        stack = np.concatenate([counts[None], rng.poisson(counts, (4, 16, 4))])
                        evaluations.clear()
                        tomography._fit(stack, likelihood)
                        per_stack.append(evaluations.count(True))
        assert len(per_stack) == 40
        assert np.mean(per_stack) <= 11.5


# stacks hypothesis once reported: a lone fit ends on a rank-deficient
# optimum, where the end point depends on the path to the last bit
PINNED_STACKS = [
    dict(specs=[(0.0, 0.0, 3.0, 0), (0.0, 0.05859375, 15.0, 201)], likelihood="gaussian"),
    dict(specs=[(0.0, 0.0, 3.0, 0), (1.0, 0.015625, 15.0, 254942)], likelihood="poisson"),
]


def stacked_counts(specs):
    return np.stack([simulate_tomography(
        apply_noise(weighted_graph_state(phi), NoiseModel(depolarizing_p=p)),
        rate, 10.0, seed=seed, poisson=True).counts for phi, p, rate, seed in specs])


class TestBatchedFit:
    """One Newton solve over a stack of datasets."""

    @settings(max_examples=25, deadline=None)
    @given(specs=st.lists(st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 0.5),
                                    st.sampled_from([3.0, 15.0, 150.0]),
                                    st.integers(0, 2 ** 32 - 1)),
                          min_size=2, max_size=6),
           likelihood=st.sampled_from(LIKELIHOODS))
    @example(**PINNED_STACKS[0])
    @example(**PINNED_STACKS[1])
    def test_stack_matches_each_fit_alone(self, specs, likelihood):
        stack = stacked_counts(specs)
        rhos = tomography._rho_from_params(tomography._fit(stack, likelihood))
        for counts, rho in zip(stack, rhos):
            alone = tomography._rho_from_params(tomography._fit(counts[None], likelihood))
            assert trace_distance(rho, alone[0]) <= 1e-10

    @pytest.mark.parametrize("pinned", PINNED_STACKS, ids=range(len(PINNED_STACKS)))
    def test_pinned_stacks_match_each_fit_alone_bit_for_bit(self, pinned):
        stack = stacked_counts(pinned["specs"])
        t = tomography._fit(stack, pinned["likelihood"])
        for i, counts in enumerate(stack):
            alone = tomography._fit(counts[None], pinned["likelihood"])
            assert np.array_equal(t[i], alone[0])

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    def test_stacked_likelihood_rows_equal_lone_calls(self, likelihood):
        # each row of a stacked call rounds as the same row called alone
        stack = stacked_counts([(0.4 * i, 0.1, 15.0, i) for i in range(5)])
        nll = tomography._Likelihood(stack, likelihood)
        rng = np.random.default_rng(3)
        t = rng.normal(size=(5, 16))
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        rows = np.arange(5)
        stacked = evaluate(nll, t, rows), nll(t, rows)[0], tomography._start(nll)
        for i in rows:
            alone = tomography._Likelihood(stack[i:i + 1], likelihood)
            lone = evaluate(alone, t[i:i + 1], rows[:1]), alone(t[i:i + 1], rows[:1])[0]
            for got, want in zip(stacked[0], lone[0]):
                assert np.array_equal(got[i], want[0])
            assert np.array_equal(stacked[1][i], lone[1][0])
            assert np.array_equal(stacked[2][i], tomography._start(alone)[0])

    @pytest.mark.parametrize("case", LBFGS_ESTIMATES["cases"],
                             ids=lambda c: f"{c['state']}-{c['phi12']}-{c['rate']:g}-{c['likelihood']}")
    def test_no_worse_than_lbfgs(self, case):
        state = weighted_graph_state(case["phi12"])
        if case["state"] == "mixed":
            state = apply_noise(state, NoiseModel(depolarizing_p=0.15, phase_jitter_sigma=0.4))
        counts = simulate_tomography(state, case["rate"], 10.0, seed=case["seed"],
                                     poisson=True).counts[None]
        t = tomography._fit(counts, case["likelihood"])
        pinned = np.array([case["t"]])
        assert trace_distance(tomography._rho_from_params(t)[0],
                              tomography._rho_from_params(pinned)[0]) <= 1e-6
        nll = tomography._Likelihood(counts, case["likelihood"])
        rows = np.array([0])
        assert nll(t, rows)[0][0] <= nll(pinned, rows)[0][0] + 1e-9 * nll.flux[0]


@pytest.fixture
def fit_log(monkeypatch):
    """The fit's calls in order: ("value", points) for each evaluation of
    its likelihood, ("derivatives", points) for each derivative call, and
    ("step", points) for the points each Newton step is taken from."""
    log = []

    class Logging(tomography._Likelihood):
        def __call__(self, t, rows):
            log.append(("value", t.copy()))
            return super().__call__(t, rows)

        def derivatives(self, terms):
            log.append(("derivatives", terms[0].copy()))
            return super().derivatives(terms)

    newton_step = tomography._newton_step

    def logged_step(grad, hess, x):
        log.append(("step", x.copy()))
        return newton_step(grad, hess, x)

    monkeypatch.setattr(tomography, "_Likelihood", Logging)
    monkeypatch.setattr(tomography, "_newton_step", logged_step)
    return log


def logged_points(log, kind):
    """The rows of every logged call of one kind, as sorted bytes."""
    return sorted(row.tobytes() for k, rows in log if k == kind for row in rows)


class TestNewtonLoop:
    """sphere_newton's line search and its rare exits, on the fit."""

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    def test_rejected_full_step_beside_passing_rows(self, fit_log, likelihood):
        stack = stacked_counts([(1.0, 0.1, 15.0, 1), (2.0, 0.0, 3.0, 2)])
        t = tomography._fit(stack, likelihood)
        log = list(fit_log)
        # the evaluations of each iteration, up to its derivative call
        iterations, calls = [], []
        for kind, rows in log:
            if kind == "value":
                calls.append(len(rows))
            elif kind == "derivatives":
                iterations.append(calls)
                calls = []
        # an iteration whose full step fails for one row and passes for the other
        assert any(len(calls) >= 2 and calls[1] < calls[0] for calls in iterations)
        # derivatives are formed exactly at the points a step is taken
        # from, so at no rejected trial
        derived = logged_points(log, "derivatives")
        assert derived == logged_points(log, "step")
        assert set(logged_points(log, "value")) - set(derived)
        for i, counts in enumerate(stack):
            alone = tomography._fit(counts[None], likelihood)
            assert np.array_equal(t[i], alone[0])

    def test_fit_whose_full_steps_pass_makes_no_value_only_call(self, fit_log):
        # every full step of this fit passes the Armijo test, so each
        # evaluation is at a point a step is taken from
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0, seed=4, poisson=True)
        tomography._fit(data.counts[None], "gaussian")
        values = [rows for kind, rows in fit_log if kind == "value"]
        derived = [rows for kind, rows in fit_log if kind == "derivatives"]
        assert len(values) == len(derived) >= 3
        assert all(np.array_equal(a, b) for a, b in zip(values, derived))

    @pytest.mark.parametrize("limit, value", [("_NEWTON_MAX_ITER", 2), ("_MAX_HALVINGS", 0)],
                             ids=["iteration cap", "stalled line search"])
    def test_unconverged_fit_with_a_large_gradient_raises(self, monkeypatch, limit, value):
        monkeypatch.setattr(tomography, limit, value)
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0, seed=4, poisson=True)
        with pytest.raises(tomography.ReconstructionError, match="did not converge"):
            tomography._fit(data.counts[None], "gaussian")

    def test_unconverged_fit_with_a_negligible_gradient_is_accepted(self, monkeypatch):
        # this fit converges at its 9th iteration; at the 8th its gradient
        # is ~1e-8, far below 1e-4 of its flux
        data = simulate_tomography(weighted_graph_state(1.0), 150.0, 10.0, seed=4, poisson=True)
        converged = tomography._fit(data.counts[None], "gaussian")
        monkeypatch.setattr(tomography, "_NEWTON_MAX_ITER", 8)
        nll = tomography._Likelihood(data.counts[None], "gaussian")
        _t, (done,), _grad = tomography.sphere_newton(nll, tomography._start(nll))
        assert not done
        capped = tomography._fit(data.counts[None], "gaussian")
        assert trace_distance(tomography._rho_from_params(capped)[0],
                              tomography._rho_from_params(converged)[0]) <= 1e-9


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

    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    def test_matches_separate_fits_of_each_resample(self, likelihood):
        # reference: the per-resample loop, SeedSequence(seed) children in order
        target = weighted_graph_state(2.0)
        data = simulate_tomography(target, 15.0, 10.0, seed=6, poisson=True)
        report = monte_carlo_report(data, target, n=6, seed=21, likelihood=likelihood)
        fids, concs = [], []
        for seq in np.random.SeedSequence(21).spawn(6):
            counts = np.random.default_rng(seq).poisson(data.counts)
            rho = mle_reconstruct(TomographyDataset(counts), likelihood=likelihood)
            fids.append(fidelity(rho, target))
            concs.append(concurrence(rho))
        point = mle_reconstruct(data, likelihood=likelihood)
        assert trace_distance(report.rho, point) <= 1e-10
        assert report.point_fidelity == pytest.approx(fidelity(point, target), abs=1e-10)
        assert report.point_concurrence == pytest.approx(concurrence(point), abs=1e-10)
        assert report.fidelity_to_target == pytest.approx(np.mean(fids), abs=1e-10)
        assert report.fidelity_stdev == pytest.approx(np.std(fids, ddof=1), abs=1e-10)
        assert report.concurrence == pytest.approx(np.mean(concs), abs=1e-10)
        assert report.concurrence_stdev == pytest.approx(np.std(concs, ddof=1), abs=1e-10)

    def test_empty_resample_is_named(self):
        target = weighted_graph_state(1.0)
        counts = simulate_tomography(target, 150.0, 10.0, seed=2, poisson=True).counts.copy()
        counts[:4] = 0
        counts[2, 0] = 1
        data = TomographyDataset(counts)
        with pytest.raises(DegenerateDataError,
                           match=r"^Monte Carlo resample \d+ of 20: .*recorded 1\)$"):
            monte_carlo_report(data, target, n=20, seed=3)

    def test_all_zero_rejected(self):
        target = weighted_graph_state(np.pi)
        with pytest.raises(DegenerateDataError, match="^dataset contains no counts$"):
            monte_carlo_report(TomographyDataset(np.zeros((16, 4), dtype=int)), target, n=2)

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
        path.write_text(dataset_csv(data), newline="")
        loaded = read_dataset_csv(path)
        assert np.array_equal(loaded.counts, data.counts)
        assert np.array_equal(loaded.durations, data.durations)

    # "%g" kept six significant digits and wrote 1e-07 as "1e-07"
    @pytest.mark.parametrize("duration", [10.1234567, 1e-7])
    def test_durations_round_trip_exactly(self, tmp_path, duration):
        data = TomographyDataset(np.ones((16, 4), dtype=int), duration)
        path = tmp_path / "dataset.csv"
        path.write_text(dataset_csv(data), newline="")
        assert np.array_equal(read_dataset_csv(path).durations, data.durations)

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting_index,projector_label\n0,HxH\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    # a short row raised AttributeError, and a long one was read
    @pytest.mark.parametrize("edit", [lambda line: line.rsplit(",", 5)[0],
                                      lambda line: line + ",7"], ids=["short", "long"])
    def test_row_with_a_wrong_field_count_rejected(self, tmp_path, edit):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 10.0)
        path = tmp_path / "ragged.csv"
        lines = dataset_csv(data).splitlines()
        lines[1] = edit(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed dataset CSV row"):
            read_dataset_csv(path)

    def test_settings_are_built_once(self):
        first, second = tomography_settings(), tomography_settings()
        assert first == second and first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert len(tomography_settings()) == 16

    def test_duplicate_setting_rejected(self, tmp_path):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 10.0)
        path = tmp_path / "dup.csv"
        path.write_text(dataset_csv(data), newline="")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[3]]) + "\n")
        with pytest.raises(ValueError, match="twice"):
            read_dataset_csv(path)

    def test_zero_duration_without_counts_round_trips(self, tmp_path):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 0.0)
        path = tmp_path / "idle.csv"
        path.write_text(dataset_csv(data), newline="")
        loaded = read_dataset_csv(path)
        assert loaded.total == 0
        assert np.array_equal(loaded.durations, np.zeros(16))

    # "0": setting 3 (HxV) has counts
    @pytest.mark.parametrize("duration", ["nan", "inf", "-1", "0"])
    def test_bad_duration_rejected(self, tmp_path, duration):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 10.0)
        path = tmp_path / "bad_duration.csv"
        path.write_text(dataset_csv(data), newline="")
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + "," + duration
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duration"):
            read_dataset_csv(path)

    def test_truncated_csv_rejected(self, tmp_path):
        data = simulate_tomography(weighted_graph_state(1.1), 150.0, 10.0)
        path = tmp_path / "short.csv"
        path.write_text(dataset_csv(data), newline="")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)
