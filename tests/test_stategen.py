import numpy as np
import pytest

from wgstate.measurement import general_axis_observable, outcome_probabilities
from wgstate.qmath import DensityMatrix, PureState2Q, fidelity, trace_distance
from wgstate.stategen import (GenerationConfig, NoiseModel, apply_noise,
                              canonical_config, mzi_phase_condition,
                              simulate_generation, weighted_graph_state)


def state_fidelity(a: PureState2Q, b: PureState2Q) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


class TestWeightedGraphState:
    def test_zero_weight_is_plus_plus(self):
        assert np.allclose(weighted_graph_state(0.0).amplitudes, np.full(4, 0.5))

    def test_pi_weight(self):
        assert np.allclose(weighted_graph_state(np.pi).amplitudes,
                           [0.5, 0.5, 0.5, -0.5])

    def test_half_pi_weight(self):
        assert np.allclose(weighted_graph_state(np.pi / 2).amplitudes,
                           [0.5, 0.5, 0.5, 0.5j])


class TestGenerationPipeline:
    def test_canonical_config_matches_direct(self):
        phi12 = 3 * np.pi / 4
        result = simulate_generation(canonical_config(phi12))
        assert state_fidelity(result.state, weighted_graph_state(phi12)) > 1 - 1e-10

    def test_one_arm_rotated_intermediate(self):
        # HWP at 45 deg in l2 and 0 deg in r2 leaves photon 2 horizontal
        varphi = 0.7
        cfg = GenerationConfig(hwp_r2=0.0, hwp_l2=np.pi / 4,
                               phi_prime_12=0.0, varphi_prime=varphi)
        state = simulate_generation(cfg).state
        target = PureState2Q(
            np.array([1, 0, -np.exp(1j * varphi), 0], dtype=complex) / np.sqrt(2))
        assert state_fidelity(state, target) > 1 - 1e-12

    def test_both_arms_straight_intermediate(self):
        # both HWPs at 0 deg: the l2 plate flips the V sign, so the
        # polarization-entangled pair carries exp(i(varphi + pi))
        varphi = 1.1
        cfg = GenerationConfig(hwp_r2=0.0, hwp_l2=0.0,
                               phi_prime_12=0.0, varphi_prime=varphi)
        state = simulate_generation(cfg).state
        target = PureState2Q(np.array(
            [1, 0, 0, -np.exp(1j * (varphi + np.pi))], dtype=complex) / np.sqrt(2))
        assert state_fidelity(state, target) > 1 - 1e-12

    def test_postselection_probability_half(self):
        for phi12 in np.linspace(0.0, np.pi, 33):
            result = simulate_generation(canonical_config(phi12))
            assert result.postselect_probability == pytest.approx(0.5, abs=1e-12)

    def test_grid_equivalence(self):
        for phi12 in np.linspace(0.0, np.pi, 33):
            result = simulate_generation(canonical_config(phi12))
            assert state_fidelity(result.state, weighted_graph_state(phi12)) >= 1 - 1e-10

    def test_detection_probability_law(self):
        # joint D (x) H detection probability follows (1 + cos varphi)/4,
        # maximized exactly at the phase-matching condition
        obs = general_axis_observable(np.pi / 2, 0.0, 0.0, 0.0)  # D (x) H projectors
        for phi12 in (np.pi, np.pi / 2):
            condition = mzi_phase_condition(phi12)
            probs = []
            for offset in np.linspace(-np.pi, np.pi, 21):
                cfg = canonical_config(phi12)
                cfg = GenerationConfig(cfg.hwp_r2, cfg.hwp_l2, cfg.phi_prime_12,
                                       condition + offset)
                state = simulate_generation(cfg).state
                p = outcome_probabilities(state, obs)[0]
                assert p == pytest.approx((1 + np.cos(offset)) / 4, abs=1e-12)
                probs.append(p)
            assert np.argmax(probs) == 10  # zero offset

    def test_non_finite_config_rejected(self):
        with pytest.raises(ValueError):
            GenerationConfig(np.nan, 0.0, 0.0, 0.0)


class TestMziPhaseCondition:
    def test_pi_weight(self):
        assert mzi_phase_condition(np.pi) == pytest.approx(-np.pi)

    def test_zero_weight_wraps(self):
        assert mzi_phase_condition(0.0) == pytest.approx(np.pi / 2)

    def test_interval_at_boundaries(self):
        # phi12 just below pi puts the raw phase just past the open end +pi
        for phi12 in (np.pi - 1e-15, np.nextafter(np.pi, 0), np.pi,
                      np.nextafter(np.pi, 4), np.nextafter(-np.pi, 0),
                      np.nextafter(-np.pi, -4)):
            assert -np.pi <= mzi_phase_condition(phi12) < np.pi

    def test_round_trip_oracle(self):
        for phi12 in np.linspace(0.0, np.pi, 9):
            cfg = canonical_config(phi12)
            assert cfg.varphi_prime == pytest.approx(mzi_phase_condition(phi12))
            result = simulate_generation(cfg)
            assert state_fidelity(result.state, weighted_graph_state(phi12)) >= 1 - 1e-10


class TestNoise:
    def test_noiseless_identity(self):
        psi = weighted_graph_state(np.pi)
        rho = apply_noise(psi, NoiseModel(0.0, 0.0))
        assert np.allclose(rho.matrix, psi.density().matrix, atol=1e-12)

    def test_full_depolarization(self):
        rho = apply_noise(weighted_graph_state(0.3), NoiseModel(1.0, 0.0))
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_depolarizing_fidelity_inversion(self):
        # F = 1 - 3p/4 for a pure target, so p = 4(1 - F)/3
        target_fidelity = 0.835
        p = 4 * (1 - target_fidelity) / 3
        psi = weighted_graph_state(np.pi)
        rho = apply_noise(psi, NoiseModel(p, 0.0))
        assert fidelity(rho, psi) == pytest.approx(target_fidelity, abs=1e-12)

    def test_jitter_damps_coherence(self):
        psi = weighted_graph_state(np.pi)
        for sigma in (0.4, 2.0, 10.0):
            rho = apply_noise(psi, NoiseModel(0.0, sigma))
            expected = np.exp(-sigma ** 2 / 2)
            # the damping is real: it shrinks the coherence without turning it
            for idx in ((0, 2), (2, 0)):
                ratio = rho.matrix[idx] / psi.density().matrix[idx]
                assert ratio.real == pytest.approx(expected, rel=1e-12), sigma
                assert ratio.imag == 0.0, sigma

    # squaring sigma = 1e300 raised OverflowError
    def test_huge_jitter_dephases_fully_as_at_forty(self):
        psi = weighted_graph_state(1.0)
        huge = apply_noise(psi, NoiseModel(0.5, 1e300)).matrix
        assert huge.tobytes() == apply_noise(psi, NoiseModel(0.5, 40.0)).matrix.tobytes()
        assert not huge[:2, 2:].any() and not huge[2:, :2].any()

    def test_output_always_physical(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            nm = NoiseModel(rng.uniform(0, 1), rng.uniform(0, 1.5))
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            rho = apply_noise(PureState2Q(amps), nm)
            assert isinstance(rho, DensityMatrix)

    def test_jitter_matches_phase_average(self):
        # reference: average |psi(delta)><psi(delta)| over the Gaussian
        # law of delta, with exp(i delta) on the photon-1 |V> branch
        nm = NoiseModel(0.2, 0.3)
        psi = weighted_graph_state(1.0)
        deltas = np.linspace(-12 * nm.phase_jitter_sigma, 12 * nm.phase_jitter_sigma, 4001)
        weights = np.exp(-deltas ** 2 / (2 * nm.phase_jitter_sigma ** 2))
        weights /= weights.sum()
        amps = np.tile(psi.amplitudes, (len(deltas), 1))
        amps[:, 2:] *= np.exp(1j * deltas)[:, None]
        averaged = np.einsum("n,ni,nj->ij", weights, amps, amps.conj())
        expected = (1 - nm.depolarizing_p) * averaged + nm.depolarizing_p * np.eye(4) / 4
        rho = apply_noise(psi, nm)
        assert trace_distance(rho, DensityMatrix(expected)) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing_p=1.5)
        with pytest.raises(ValueError):
            NoiseModel(phase_jitter_sigma=-0.1)
        # nan < 0 is false, so a sign test alone lets nan through
        with pytest.raises(ValueError, match="phase_jitter_sigma"):
            NoiseModel(phase_jitter_sigma=np.nan)
        with pytest.raises(ValueError, match="depolarizing_p"):
            NoiseModel(depolarizing_p=np.nan)
