import json
from pathlib import Path

import numpy as np
import pytest

from wgstate import metrology
from wgstate._optimize import sphere_newton
from wgstate.measurement import general_axis_observable, pauli_observable
from wgstate.metrology import (VARIANCE_TOLERANCE, DerivativeVanishesError,
                               SensingConfig, _axis_angles, encoding_unitary,
                               general_axis_search, limits, pauli_search,
                               qfi_closed_form, qfi_numeric, sense)
from wgstate.qmath import PAULIS, PureState2Q, tensor
from wgstate.stategen import weighted_graph_state

# (phi12, theta_star, estimator variance, slope) of the general-axis search
# in (beta, alpha) polar angles, before it moved onto Bloch vectors
with open(Path(__file__).parent / "data" / "general_search_estimates.json") as fh:
    GENERAL_SEARCH_ESTIMATES = json.load(fh)["cases"]

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
        # at weight 0 the search ends on the (-pi, pi] cut in alpha1
        obs, _ = general_axis_search(0.0)
        assert obs.axis_angles[1] == np.pi
        off_cut = -np.pi + 1e-11
        n = np.array([np.sin(0.3) * np.cos(off_cut), np.sin(0.3) * np.sin(off_cut), np.cos(0.3)])
        assert _axis_angles(n) == (pytest.approx(0.3), np.pi)
        # at the poles alpha is arctan2 of two zeros, -pi for two -0.0
        assert _axis_angles(np.array([-0.0, -0.0, -1.0])) == (np.pi, np.pi)
        beta, alpha = _axis_angles(np.array([0.0, 0.0, 1.0]))
        assert beta == 0.0 and -np.pi < alpha <= np.pi

    def test_deterministic(self):
        cfg = SensingConfig(phi12=1.3, theta_star=0.4)
        obs_a, res_a = general_axis_search(1.3, cfg)
        obs_b, res_b = general_axis_search(1.3, cfg)
        assert obs_a.axis_angles == obs_b.axis_angles
        assert res_a == res_b


    # (phi12, penalized objective) of the former L-BFGS-B run at theta* = 0;
    # from the best grid pair alone, Newton in (beta, alpha) polar angles
    # ended on the beta1 = 0 pole, 2.9e-5 and 9.6e-6 above it
    LBFGS_NEAR_PI = [(3.029392915961586, 0.260595658268187),
                     (3.0574428503686377, 0.2603365213166439)]

    @pytest.mark.parametrize("phi12, objective", LBFGS_NEAR_PI)
    def test_penalized_minimum_no_worse_than_lbfgs(self, monkeypatch, phi12, objective):
        minima = []

        def spy(fun, x):
            result = sphere_newton(fun, x)
            ends = result[0]
            minima.append(fun(ends.reshape(len(ends), -1), None, derivatives=False).min())
            return result

        monkeypatch.setattr(metrology, "sphere_newton", spy)
        general_axis_search(phi12)
        assert minima[0] <= objective * (1 + 1e-9)

    # (phi12, theta_star) where one of the four starts did not converge in
    # 50 iterations of Newton in (beta, alpha) polar angles: it crawled
    # towards the beta1 = 0 pole, where that chart degenerates
    POLE_CRAWLS = [(3.0013, 0.7), (3.0294, 0.7), (3.0574, 0.7), (3.0855, 0.7),
                   (3.1135, -2.1)]

    @pytest.mark.parametrize("phi12, theta_star", POLE_CRAWLS)
    def test_every_start_converges(self, monkeypatch, phi12, theta_star):
        runs = []

        def spy(fun, x):
            result = sphere_newton(fun, x)
            runs.append(result[1])
            return result

        monkeypatch.setattr(metrology, "sphere_newton", spy)
        general_axis_search(phi12, SensingConfig(phi12=phi12, theta_star=theta_star))
        assert runs[0].shape == (4,) and runs[0].all()

    def test_no_worse_than_polar_angle_search(self):
        # every 4th case of the 452 pinned ones
        failures = []
        for phi12, theta_star, variance, slope in GENERAL_SEARCH_ESTIMATES[::4]:
            _, res = general_axis_search(phi12, SensingConfig(phi12=phi12, theta_star=theta_star))
            if (res.estimator_variance > variance + 1e-9
                    or res.derivative_magnitude < slope - 1e-6):
                failures.append((phi12, theta_star, res.estimator_variance,
                                 res.derivative_magnitude))
        assert not failures

    # (phi12, theta_star, slope, variance cap) of the L-BFGS-B search with
    # the SLSQP slope push, where the push stopped short of the largest
    # slope under the cap
    NEAR_PI_PUSH = [
        (2.9733, -2.1, 1.9889720337663521, 0.2513700032784283),
        (3.0013, -2.1, 1.9932953670836946, 0.2509928141555195),
        (3.0294, -2.1, 1.9963084800252022, 0.25067709204675837),
        (2.9733, 1.9, 1.9889720389607488, 0.25137000330468917),
        (3.0013, 1.9, 1.9932953299035558, 0.2509928139683648),
        (3.0294, 1.9, 1.9963084681121737, 0.25067709198697247),
    ]

    @pytest.mark.parametrize("phi12, theta_star, slope, cap", NEAR_PI_PUSH)
    def test_near_pi_push_no_worse_than_slsqp(self, phi12, theta_star, slope, cap):
        _, res = general_axis_search(phi12, SensingConfig(phi12=phi12, theta_star=theta_star))
        assert res.derivative_magnitude >= slope - 1e-5
        assert res.estimator_variance <= cap + 1e-9


class TestSearchGradient:
    """The general-axis search runs damped Newton on the exact tangent
    gradients and Hessians of the two unit spheres, and no scipy solver."""

    @staticmethod
    def points():
        """Rows (n1, n2) of unit vectors, and the same with n1 mirrored."""
        rng = np.random.default_rng(21)
        points = [rng.normal(size=(2, 3)) for _ in range(4)]
        points.append(np.array([[1e-3, 0.0, 1.0], [0.5, -0.4, 0.2]]))   # n1 next to the z axis
        points = [p / np.linalg.norm(p, axis=1, keepdims=True) for p in points]
        # A(-n1, n2) = -A: the mirrored first axis flips the slope's sign
        return np.array([p.ravel() for p in points]
                        + [np.concatenate([-p[0], p[1]]) for p in points])

    def test_points_cover_both_slope_signs(self):
        slope_block = metrology._axis_correlations(1.3, 0.4)[1]
        points = self.points()
        assert np.allclose(np.linalg.norm(points.reshape(-1, 2, 3), axis=2), 1.0)
        signs = {np.sign(p @ slope_block @ p) for p in points}
        assert signs == {-1.0, 1.0}

    @staticmethod
    def tangent_basis(x):
        """(6, 4) orthonormal basis of the tangent space at x = (n1, n2)."""
        basis = np.zeros((6, 4))
        for i in range(2):
            basis[3 * i:3 * i + 3, 2 * i:2 * i + 2] = np.linalg.svd(x[None, 3 * i:3 * i + 3])[2][1:].T
        return basis

    def test_matches_central_differences(self):
        blocks = metrology._axis_correlations(1.3, 0.4)
        h = 1e-6
        # the Newton objective v + w/s, at the penalty weight and a push weight
        for weight in (metrology.PENALTY_WEIGHT, 0.7):
            fun = metrology._scalarized(blocks, weight)
            for x in self.points():
                _, grad, hess = fun(x[None])
                grad, hess = grad[0], hess[0]
                # the gradient is tangent: no part along either vector
                normal = grad.reshape(2, 3) @ x.reshape(2, 3).T
                assert np.abs(np.diag(normal)).max() <= 1e-12 * np.linalg.norm(grad)
                basis = self.tangent_basis(x)

                # f along the retraction t -> x + basis t, each vector
                # normalised (the objective reads its rows at unit norm),
                # and its gradient in t: grad f at the retracted point,
                # scaled on each vector by the derivative 1/|z_i| of the
                # normalisation
                def pulled_back(t):
                    z = x + basis @ t
                    value, g, _ = fun(z[None])
                    norms = np.repeat(np.linalg.norm(z.reshape(2, 3), axis=1), 3)
                    return value[0], basis.T @ (g[0] / norms)

                up = [pulled_back(h * e) for e in np.eye(4)]
                down = [pulled_back(-h * e) for e in np.eye(4)]
                central_grad = np.array([(u[0] - d[0]) / (2 * h) for u, d in zip(up, down)])
                central_hess = np.array([(u[1] - d[1]) / (2 * h) for u, d in zip(up, down)])
                # the retraction is of second order, so the Hessian of f
                # along it is the Riemannian Hessian P H P
                tangent_grad, tangent_hess = basis.T @ grad, basis.T @ hess @ basis
                assert np.linalg.norm(tangent_grad - central_grad) <= 1e-6 * np.linalg.norm(
                    central_grad)
                assert np.linalg.norm(tangent_hess - central_hess) <= 1e-6 * np.linalg.norm(
                    central_hess)

    @pytest.mark.parametrize("phi12, theta_star", [(0.0, 0.0), (1.91, 0.0), (2.2, -1.1)])
    def test_no_derivative_free_or_finite_difference_solver(self, monkeypatch,
                                                            phi12, theta_star):
        def refuse(*args, **kwargs):
            raise AssertionError("the search called a scipy solver")

        runs = []

        def spy(fun, x):
            runs.append(fun(x.reshape(len(x), -1), np.arange(len(x))))
            return sphere_newton(fun, x)

        monkeypatch.setattr(metrology, "minimize", refuse)
        monkeypatch.setattr(metrology, "differential_evolution", refuse)
        monkeypatch.setattr(metrology, "sphere_newton", spy)
        general_axis_search(phi12, SensingConfig(phi12=phi12, theta_star=theta_star))
        # the first run from the four best grid pairs; every run gets Hessians
        assert runs and runs[0][0].shape == (4,)
        assert all(hess.shape == (len(value), 6, 6) for value, _, hess in runs)


def test_limits():
    sql, hl = limits()
    assert sql == 0.5
    assert hl == 0.25
    assert hl == pytest.approx(1.0 / qfi_closed_form(np.pi), abs=1e-12)

