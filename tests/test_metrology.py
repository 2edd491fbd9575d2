import numpy as np
import pytest

from wgstate import metrology
from wgstate.measurement import general_axis_observable, pauli_observable
from wgstate.metrology import (VARIANCE_TOLERANCE, DerivativeVanishesError,
                               SensingConfig, _canonical_axis, encoding_unitary,
                               general_axis_search, limits, pauli_search,
                               qfi_closed_form, qfi_numeric, sense)
from wgstate.qmath import PAULIS, PureState2Q, tensor
from wgstate.stategen import weighted_graph_state

# optimal local Pauli products and their figures of merit per graph weight
PAULI_TABLE = [
    (np.pi,         ("Z", "Y"), 0.00, 2.00, 0.25),
    (7 * np.pi / 8, ("Z", "Y"), -0.19, 1.92, 0.26),
    (3 * np.pi / 4, ("Z", "Y"), -0.35, 1.71, 0.30),
    (5 * np.pi / 8, ("Z", "Y"), -0.46, 1.38, 0.41),
    (np.pi / 2,     ("Z", "Y"), -0.50, 1.00, 0.75),
    (3 * np.pi / 8, ("Y", "Y"), 0.31, 0.92, 1.06),
    (np.pi / 4,     ("I", "Y"), 0.35, 0.85, 1.20),
    (np.pi / 8,     ("I", "Y"), 0.19, 0.96, 1.04),
    (0.0,           ("I", "Y"), 0.00, 1.00, 1.00),
]


class TestEncodingUnitary:
    def test_zero_is_identity(self):
        assert np.allclose(encoding_unitary(0.0), np.eye(4), atol=1e-12)

    def test_full_turn_is_identity(self):
        # the two -1 factors of the single-qubit 2*pi rotations cancel
        assert np.allclose(encoding_unitary(2 * np.pi), np.eye(4), atol=1e-12)

    def test_pi_gives_minus_x_tensor_z(self):
        assert np.allclose(encoding_unitary(np.pi),
                           -tensor(PAULIS["X"], PAULIS["Z"]), atol=1e-12)

    def test_unitary(self):
        u = encoding_unitary(0.731)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


class TestQFI:
    def test_maximal_weight(self):
        assert qfi_closed_form(np.pi) == pytest.approx(4.0, abs=0)

    def test_zero_weight(self):
        assert qfi_closed_form(0.0) == pytest.approx(1.0, abs=0)

    def test_half_pi(self):
        assert qfi_closed_form(np.pi / 2) == pytest.approx(2.75, abs=1e-12)

    def test_numeric_matches_closed_form(self):
        for phi in np.linspace(0.0, np.pi, 33):
            assert qfi_numeric(weighted_graph_state(phi)) == pytest.approx(
                qfi_closed_form(phi), abs=1e-9)

    def test_independent_of_encoded_phase(self):
        for phi in (0.0, np.pi / 3, np.pi):
            base = qfi_numeric(weighted_graph_state(phi))
            for theta in (-1.0, -0.2, 0.4, 1.3, 2.9):
                encoded = PureState2Q(
                    encoding_unitary(theta) @ weighted_graph_state(phi).amplitudes)
                assert qfi_numeric(encoded) == pytest.approx(base, abs=1e-9)


class TestSense:
    def test_max_weight_zy(self):
        res = sense(weighted_graph_state(np.pi), pauli_observable("Z", "Y"),
                    SensingConfig(phi12=np.pi))
        assert res.expectation == pytest.approx(0.0, abs=1e-10)
        assert res.derivative_magnitude == pytest.approx(2.0, abs=1e-10)
        assert res.estimator_variance == pytest.approx(0.25, abs=1e-10)

    def test_half_weight_zy(self):
        res = sense(weighted_graph_state(np.pi / 2), pauli_observable("Z", "Y"),
                    SensingConfig(phi12=np.pi / 2))
        assert res.expectation == pytest.approx(-0.5, abs=1e-10)
        assert res.derivative_magnitude == pytest.approx(1.0, abs=1e-10)
        assert res.estimator_variance == pytest.approx(0.75, abs=1e-10)

    def test_finite_difference_truncation_order(self):
        state = weighted_graph_state(np.pi)
        obs = pauli_observable("Z", "Y")
        exact = sense(state, obs, SensingConfig(phi12=np.pi)).derivative_magnitude

        def fd_error(h):
            res = sense(state, obs, SensingConfig(phi12=np.pi, h=h),
                        mode="finite_difference")
            return abs(res.derivative_magnitude - exact)

        h = 0.2
        ratio = fd_error(h) / fd_error(h / 2)
        assert 3.5 <= ratio <= 4.5

    def test_vanishing_derivative_raises(self):
        with pytest.raises(DerivativeVanishesError):
            sense(weighted_graph_state(np.pi), pauli_observable("I", "I"),
                  SensingConfig(phi12=np.pi))

    def test_estimator_variance_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            phi = rng.uniform(0, np.pi)
            obs = general_axis_observable(rng.uniform(0, np.pi),
                                          rng.uniform(-np.pi, np.pi),
                                          rng.uniform(0, np.pi),
                                          rng.uniform(-np.pi, np.pi))
            try:
                res = sense(weighted_graph_state(phi), obs, SensingConfig(phi12=phi))
            except DerivativeVanishesError:
                continue
            assert res.estimator_variance == pytest.approx(
                res.single_shot_variance / res.derivative_magnitude ** 2, rel=1e-12)
            assert res.single_shot_variance == pytest.approx(
                1 - res.expectation ** 2, abs=1e-10)

    def test_analytic_matches_richardson(self):
        rng = np.random.default_rng(12)
        h = 0.02
        for _ in range(20):
            phi = rng.uniform(0, np.pi)
            obs = general_axis_observable(rng.uniform(0, np.pi),
                                          rng.uniform(-np.pi, np.pi),
                                          rng.uniform(0, np.pi),
                                          rng.uniform(-np.pi, np.pi))
            state = weighted_graph_state(phi)
            try:
                exact = sense(state, obs, SensingConfig(phi12=phi)).derivative_magnitude
            except DerivativeVanishesError:
                continue
            fd_h = sense(state, obs, SensingConfig(phi12=phi, h=h),
                         mode="finite_difference", derivative_floor=0.0)
            fd_h2 = sense(state, obs, SensingConfig(phi12=phi, h=h / 2),
                          mode="finite_difference", derivative_floor=0.0)
            # signs agree near theta* = 0, so magnitudes extrapolate too
            richardson = (4 * fd_h2.derivative_magnitude - fd_h.derivative_magnitude) / 3
            assert richardson == pytest.approx(exact, abs=1e-6)


class TestPauliSearch:
    @pytest.mark.parametrize("phi12,labels,e_t,d_t,v_t", PAULI_TABLE)
    def test_reproduces_optimal_operators(self, phi12, labels, e_t, d_t, v_t):
        obs, res = pauli_search(phi12)
        assert obs.pauli_labels == labels
        assert res.expectation == pytest.approx(e_t, abs=0.01)
        assert res.derivative_magnitude == pytest.approx(d_t, abs=0.01)
        assert res.estimator_variance == pytest.approx(v_t, abs=0.01)

    def test_every_candidate_respects_qcrb(self):
        for phi12 in np.linspace(0.0, np.pi, 9):
            bound = 1.0 / qfi_closed_form(phi12)
            state = weighted_graph_state(phi12)
            for a1 in "IXYZ":
                for a2 in "IXYZ":
                    try:
                        res = sense(state, pauli_observable(a1, a2),
                                    SensingConfig(phi12=phi12))
                    except DerivativeVanishesError:
                        continue
                    assert res.estimator_variance >= bound - 1e-9


class TestGeneralAxisSearch:
    def test_maximal_weight_reaches_heisenberg_limit(self):
        obs, res = general_axis_search(np.pi)
        assert res.estimator_variance == pytest.approx(0.25, abs=1e-6)
        assert res.derivative_magnitude == pytest.approx(2.0, abs=1e-4)
        assert obs.axis_angles is not None

    @pytest.mark.parametrize("phi12, variance", [(1.88, 0.32606), (1.91, 0.32167)])
    def test_no_worse_than_differential_evolution(self, phi12, variance):
        # the variances the former seeded differential evolution reached.
        # Bounded Powell from an 8^4 grid that holds the beta = 0 pole once
        # per alpha sticks on the beta bound near these weights: 0.3334 at
        # phi12 = 1.91
        _, res = general_axis_search(phi12)
        assert res.estimator_variance <= variance + VARIANCE_TOLERANCE

    # (phi12, theta_star, estimator variance, slope) of the unbounded Powell
    # refinement from the same 72 x 72 start grid
    POWELL = [
        (0.0, 0.0, 1.0, 1.0),
        (0.3, 0.0, 0.9372112806619086, 1.0329546293576464),
        (0.7, 0.0, 0.7344731725784298, 1.0249334840902802),
        (1.2, 0.0, 0.4965670004686656, 1.1706791769629457),
        (1.5, 0.0, 0.402275102705441, 1.3034590086718343),
        (1.88, 0.0, 0.3260174947559997, 1.465402280707523),
        (1.91, 0.0, 0.3215885950630913, 1.4777262348160374),
        (2.4, 0.0, 0.2725166188537938, 1.7034608895670666),
        (2.9, 0.0, 0.252636665086604, 1.984204411468617),
        (np.pi, 0.0, 0.24999999999999994, 1.9999999999999998),
        (1.3, 0.4, 0.46117777655600123, 1.2143473583969187),
        (2.2, -1.1, 0.2878942843386425, 1.6013744533229741),
        (0.9, 2.5, 0.6283145979839245, 1.059015547913054),
    ]

    @pytest.mark.parametrize("phi12, theta_star, variance, slope", POWELL)
    def test_no_worse_than_powell(self, phi12, theta_star, variance, slope):
        _, res = general_axis_search(phi12, SensingConfig(phi12=phi12, theta_star=theta_star))
        assert res.estimator_variance <= variance + 1e-7
        assert res.derivative_magnitude == pytest.approx(slope, abs=1e-5)

    def test_between_qcrb_and_pauli_with_canonical_angles(self):
        for phi in np.linspace(0.0, np.pi, 33):
            bound = 1.0 / qfi_closed_form(phi)
            for theta in (0.0, 0.7, -2.1):
                cfg = SensingConfig(phi12=phi, theta_star=theta)
                obs, res = general_axis_search(phi, cfg)
                pauli = pauli_search(phi, cfg)[1].estimator_variance
                assert bound - 1e-9 <= res.estimator_variance <= pauli + 1e-6
                beta1, alpha1, beta2, alpha2 = obs.axis_angles
                for beta, alpha in ((beta1, alpha1), (beta2, alpha2)):
                    assert 0.0 <= beta <= np.pi
                    assert -np.pi < alpha <= np.pi

    def test_angle_on_the_cut_is_plus_pi(self):
        # at weight 0 the search ends 5e-11 inside the (-pi, pi] cut in alpha1
        obs, _ = general_axis_search(0.0)
        assert obs.axis_angles[1] == np.pi
        beta, alpha = _canonical_axis(0.3, -np.pi + 1e-11)
        assert (beta, alpha) == (pytest.approx(0.3), np.pi)
        beta, alpha = _canonical_axis(-np.pi + 1e-11, 0.5)
        assert (beta, alpha) == (np.pi, pytest.approx(0.5))

    def test_deterministic(self):
        cfg = SensingConfig(phi12=1.3, theta_star=0.4)
        obs_a, res_a = general_axis_search(1.3, cfg)
        obs_b, res_b = general_axis_search(1.3, cfg)
        assert obs_a.axis_angles == obs_b.axis_angles
        assert res_a == res_b


class TestSearchGradient:
    """The solvers of the general-axis search get exact gradients."""

    @staticmethod
    def solver_calls(monkeypatch, phi12=1.3, theta_star=0.4):
        calls = []
        minimize = metrology.minimize

        def spy(fun, x0, **kwargs):
            calls.append((fun, kwargs))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(metrology, "minimize", spy)
        general_axis_search(phi12, SensingConfig(phi12=phi12, theta_star=theta_star))
        return calls

    @staticmethod
    def points():
        rng = np.random.default_rng(21)
        points = [np.array([rng.uniform(0.2, np.pi - 0.2), rng.uniform(-np.pi, np.pi),
                            rng.uniform(0.2, np.pi - 0.2), rng.uniform(-np.pi, np.pi)])
                  for _ in range(4)]
        points.append(np.array([1e-3, 0.7, 1.1, -0.4]))   # next to the beta = 0 pole
        # A(pi - beta, alpha + pi) = -A: the mirrored first axis flips the slope's sign
        return points + [np.array([np.pi - b1, a1 + np.pi, b2, a2]) for b1, a1, b2, a2 in points]

    def test_points_cover_both_slope_signs(self):
        _, slope_matrix = metrology._axis_correlations(1.3, 0.4)
        signs = {np.sign(metrology._bloch(p[0], p[1])[0] @ slope_matrix
                         @ metrology._bloch(p[2], p[3])[0]) for p in self.points()}
        assert signs == {-1.0, 1.0}

    def test_matches_central_differences(self, monkeypatch):
        (objective, _), (neg_abs_slope, push) = self.solver_calls(monkeypatch)
        (constraint,) = push["constraints"]
        functions = [lambda p: objective(p)[0], lambda p: neg_abs_slope(p)[0], constraint.fun]
        gradients = [lambda p: objective(p)[1], lambda p: neg_abs_slope(p)[1], constraint.jac]
        h = 1e-6
        for p in self.points():
            for fun, grad in zip(functions, gradients):
                central = np.array([(fun(p + h * e) - fun(p - h * e)) / (2 * h)
                                    for e in np.eye(4)])
                assert np.linalg.norm(grad(p) - central) <= 1e-6 * np.linalg.norm(central)

    @pytest.mark.parametrize("phi12, theta_star", [(0.0, 0.0), (1.91, 0.0), (2.2, -1.1)])
    def test_no_derivative_free_or_finite_difference_solver(self, monkeypatch,
                                                            phi12, theta_star):
        calls = self.solver_calls(monkeypatch, phi12, theta_star)
        assert [kwargs["method"] for _, kwargs in calls] == ["L-BFGS-B", "SLSQP"]
        assert all(kwargs["jac"] is True for _, kwargs in calls)
        assert all(callable(c.jac) for c in calls[1][1]["constraints"])


def test_limits():
    sql, hl = limits()
    assert sql == 0.5
    assert hl == 0.25
    assert hl == pytest.approx(1.0 / qfi_closed_form(np.pi), abs=1e-12)

