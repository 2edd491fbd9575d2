import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgstate import metrology
from wgstate._optimize import sphere_newton
from wgstate.measurement import (_axis_angles, general_axis_observable,
                                 outcome_probabilities, pauli_observable)
from wgstate.metrology import (VARIANCE_TOLERANCE, DerivativeVanishesError,
                               encoding_unitary, general_axis_search, limits,
                               pauli_search, qfi_closed_form, qfi_numeric, sense)
from wgstate.qmath import PAULIS, PureState2Q, as_density, tensor
from wgstate.stategen import NoiseModel, apply_noise, weighted_graph_state

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


def _two_point_slope(state, obs, theta, h):
    """(<A>(theta + h) - <A>(theta - h)) / 2h, read off the correlation
    matrices, so that no slope floor applies."""
    a, b = obs.coefficients
    e_plus, e_minus = (a @ metrology._correlations(state, theta + shift)[0] @ b
                       for shift in (h, -h))
    return float((e_plus - e_minus) / (2 * h))


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
        res = sense(weighted_graph_state(np.pi), pauli_observable("Z", "Y"))
        assert res.expectation == pytest.approx(0.0, abs=1e-10)
        assert res.derivative_magnitude == pytest.approx(2.0, abs=1e-10)
        assert res.estimator_variance == pytest.approx(0.25, abs=1e-10)

    def test_half_weight_zy(self):
        res = sense(weighted_graph_state(np.pi / 2), pauli_observable("Z", "Y"))
        assert res.expectation == pytest.approx(-0.5, abs=1e-10)
        assert res.derivative_magnitude == pytest.approx(1.0, abs=1e-10)
        assert res.estimator_variance == pytest.approx(0.75, abs=1e-10)

    def test_finite_difference_truncation_order(self):
        state = weighted_graph_state(np.pi)
        obs = pauli_observable("Z", "Y")
        exact = sense(state, obs).derivative_magnitude

        def fd_error(h):
            return abs(abs(_two_point_slope(state, obs, 0.0, h)) - exact)

        h = 0.2
        ratio = fd_error(h) / fd_error(h / 2)
        assert 3.5 <= ratio <= 4.5

    def test_vanishing_derivative_raises(self):
        with pytest.raises(DerivativeVanishesError):
            sense(weighted_graph_state(np.pi), pauli_observable("I", "I"))

    def test_estimator_variance_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            phi = rng.uniform(0, np.pi)
            obs = general_axis_observable(rng.uniform(0, np.pi),
                                          rng.uniform(-np.pi, np.pi),
                                          rng.uniform(0, np.pi),
                                          rng.uniform(-np.pi, np.pi))
            try:
                res = sense(weighted_graph_state(phi), obs)
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
                exact = sense(state, obs).derivative_magnitude
            except DerivativeVanishesError:
                continue
            fd_h = abs(_two_point_slope(state, obs, 0.0, h))
            fd_h2 = abs(_two_point_slope(state, obs, 0.0, h / 2))
            # signs agree near theta* = 0, so magnitudes extrapolate too
            richardson = (4 * fd_h2 - fd_h) / 3
            assert richardson == pytest.approx(exact, abs=1e-6)


    def test_mixed_states_match_direct_traces(self):
        # Tr(A rho), Tr(i[H, A] rho) and Tr(A^2 rho) - <A>^2 on noisy states
        rng = np.random.default_rng(30)
        for _ in range(12):
            phi, theta = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
            rho = apply_noise(weighted_graph_state(phi),
                              NoiseModel(rng.uniform(0, 0.5), rng.uniform(0, 1.0)))
            obs = general_axis_observable(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                                          rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            u = encoding_unitary(theta)
            encoded = u @ rho.matrix @ u.conj().T
            a = obs.matrix()
            exp_val = np.trace(a @ encoded).real
            slope = np.trace(1j * (metrology.GENERATOR @ a - a @ metrology.GENERATOR)
                             @ encoded).real
            res = sense(rho, obs, theta)
            assert res.expectation == pytest.approx(exp_val, abs=1e-12)
            assert res.derivative_magnitude == pytest.approx(abs(slope), abs=1e-12)
            assert res.single_shot_variance == pytest.approx(
                np.trace(a @ a @ encoded).real - exp_val ** 2, abs=1e-12)


class TestThetaStar:
    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", ["sense", "pauli_search", "general_axis_search"])
    def test_non_finite_rejected(self, entry, theta):
        call = {"sense": lambda: sense(weighted_graph_state(1.0), pauli_observable("Z", "Y"),
                                       theta),
                "pauli_search": lambda: pauli_search(1.0, theta),
                "general_axis_search": lambda: general_axis_search(1.0, theta)}[entry]
        with pytest.raises(ValueError, match="theta_star must be finite"):
            call()


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
                        res = sense(state, pauli_observable(a1, a2))
                    except DerivativeVanishesError:
                        continue
                    assert res.estimator_variance >= bound - 1e-9

    @pytest.mark.parametrize("gap, labels, variance", [(1e-7, ("X", "X"), 0.64 + 1e-7),
                                                       (1e-5, ("Z", "Y"), 0.64)])
    def test_tie_tolerance_reranks_near_minima(self, monkeypatch, gap, labels, variance):
        # Z(x)Y: <A> = 0.6 and slope 1, so variance 0.64; X(x)X: a larger slope
        # 1.1 at a variance gap above it. Within TIE_TOLERANCE the larger
        # slope wins; beyond it the lower variance does. Every other product
        # has a vanishing slope.
        assert 1e-7 < metrology.TIE_TOLERANCE < 1e-5
        table = np.zeros((2, 4, 4))
        table[:, 3, 2] = 0.6, 1.0
        table[:, 1, 1] = np.sqrt(1 - (0.64 + gap) * 1.21), 1.1
        monkeypatch.setattr(metrology, "_correlations", lambda state, theta: table)
        obs, res = pauli_search(1.0)
        assert obs.pauli_labels == labels
        assert res.estimator_variance == pytest.approx(variance, abs=1e-12)


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
        _, res = general_axis_search(phi12, theta_star)
        assert res.estimator_variance <= variance + 1e-7
        assert res.derivative_magnitude == pytest.approx(slope, abs=1e-5)

    def test_between_qcrb_and_pauli_with_canonical_angles(self):
        for phi in np.linspace(0.0, np.pi, 33):
            bound = 1.0 / qfi_closed_form(phi)
            for theta in (0.0, 0.7, -2.1):
                obs, res = general_axis_search(phi, theta)
                pauli = pauli_search(phi, theta)[1].estimator_variance
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
        # at a pole arctan2 of two zeros would pick alpha by their signs
        # (-pi for two -0.0); it is reported as 0 there
        assert _axis_angles(np.array([-0.0, -0.0, -1.0])) == (np.pi, 0.0)
        assert _axis_angles(np.array([0.0, 0.0, 1.0])) == (0.0, 0.0)
        for x, y in ((-1e-10, 0.0), (-1e-10, -1e-10), (3e-10, -5e-10)):
            beta, alpha = _axis_angles(np.array([x, y, -1.0]))
            assert beta == pytest.approx(np.pi) and alpha == 0.0
            assert np.copysign(1.0, alpha) == 1.0
        # just outside the tolerance the azimuth is kept
        assert _axis_angles(np.array([0.0, 2e-9, 1.0]))[1] == np.pi / 2

    def test_deterministic(self):
        obs_a, res_a = general_axis_search(1.3, 0.4)
        obs_b, res_b = general_axis_search(1.3, 0.4)
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
        # the search makes one start, from the best grid pair
        runs = []

        def spy(fun, x):
            result = sphere_newton(fun, x)
            runs.append(result[1])
            return result

        monkeypatch.setattr(metrology, "sphere_newton", spy)
        general_axis_search(phi12, theta_star)
        assert runs[0].shape == (1,) and runs[0].all()

    @pytest.fixture(scope="class")
    def pinned(self):
        """The search's result at each of the 452 pinned cases."""
        return [(case, general_axis_search(*case[:2])) for case in GENERAL_SEARCH_ESTIMATES]

    @pytest.mark.parametrize("phi12, theta_star", [(1.3, 0.4), (2.2, -1.1), (0.9, 2.5),
                                                   (2.9733, 1.9)])
    def test_push_runs_no_newton(self, monkeypatch, phi12, theta_star):
        # the slope push is a root-find along the singular pairs; the one
        # Newton run is the minimization's
        ends = []

        def spy(fun, x):
            result = sphere_newton(fun, x)
            ends.append(result[0][0])
            return result

        monkeypatch.setattr(metrology, "sphere_newton", spy)
        _, res = general_axis_search(phi12, theta_star)
        assert len(ends) == 1
        axes = metrology._correlations(weighted_graph_state(phi12), theta_star)[:, 1:, 1:]
        _, minimum_slope = metrology._figures(ends[0], axes)
        assert res.derivative_magnitude > minimum_slope + 1e-6

    def test_no_worse_than_polar_angle_search(self, pinned):
        failures = [(phi12, theta_star, res.estimator_variance, res.derivative_magnitude)
                    for (phi12, theta_star, variance, slope), (_, res) in pinned
                    if res.estimator_variance > variance + 1e-9
                    or res.derivative_magnitude < slope - 1e-6]
        assert not failures

    def test_optimum_is_a_singular_pair_of_the_family(self, pinned):
        # every stationary point of a function of <A> = n1 . T n2 and the
        # slope n1 . D n2 has K n2 || n1 and K^T n1 || n2 for some
        # K = cos tau T + sin tau D. The residual of both is
        # cos tau a + sin tau b, whose least norm over tau is the smaller
        # singular value of the 6 x 2 matrix (a, b)
        worst = 0.0
        for (phi12, theta_star, _, _), (obs, _) in pinned:
            axes = metrology._correlations(weighted_graph_state(phi12), theta_star)[:, 1:, 1:]
            n1, n2 = obs.coefficients[:, 1:]
            residuals = np.array([np.concatenate([m @ n2 - (n1 @ m @ n2) * n1,
                                                  m.T @ n1 - (n1 @ m @ n2) * n2])
                                  for m in axes])
            worst = max(worst, np.linalg.svd(residuals.T, compute_uv=False)[-1])
        assert worst <= 1e-8

    def test_reported_vectors_obey_the_sign_rule(self, pinned):
        # the first of (n_z, -n_x, -n_y) beyond 1e-12 is positive: the
        # upper hemisphere, then the half of the equator with n_x < 0
        for _, (obs, _) in pinned:
            for x, y, z in obs.coefficients[:, 1:]:
                lead = next(c for c in (z, -x, -y) if abs(c) > 1e-12)
                assert lead > 0, obs.label

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
        _, res = general_axis_search(phi12, theta_star)
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
        corr = metrology._correlations(weighted_graph_state(1.3), 0.4)
        slope_block = metrology._axis_blocks(corr)[1]
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
        corr = metrology._correlations(weighted_graph_state(1.3), 0.4)
        blocks = metrology._axis_blocks(corr)
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
        general_axis_search(phi12, theta_star)
        # the first run from the best grid pair; every run gets Hessians
        assert runs and runs[0][0].shape == (1,)
        assert all(hess.shape == (len(value), 6, 6) for value, _, hess in runs)


def test_limits():
    sql, hl = limits()
    assert sql == 0.5
    assert hl == 0.25
    assert hl == pytest.approx(1.0 / qfi_closed_form(np.pi), abs=1e-12)



# ------------------------------------------------- Cramer-Rao chain oracle

_ANGLE = st.floats(-np.pi, np.pi)
_PAULI_PAIRS = [(a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")]
_FD_STEP = 1e-5
# finite-difference and round-off slack of the classical Fisher information
_CHAIN_RTOL = 1e-6


@st.composite
def _observables(draw):
    if draw(st.booleans()):
        return pauli_observable(*draw(st.sampled_from(_PAULI_PAIRS)))
    return general_axis_observable(*(draw(_ANGLE) for _ in range(4)))


@st.composite
def _pure_states(draw):
    """(state, F_Q): a weighted graph state with the closed-form QFI, or
    an arbitrary pure state with 4 Var(H)."""
    if draw(st.booleans()):
        phi = draw(st.floats(0, 2 * np.pi))
        return weighted_graph_state(phi), qfi_closed_form(phi)
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=8, max_size=8)))
    assume(np.linalg.norm(parts) > 0.1)
    state = PureState2Q(parts[:4] + 1j * parts[4:])
    return state, qfi_numeric(state)


def _inverse_fisher_and_variance(state, obs, theta):
    """1/F_C of the four outcome pairs of obs's local settings, and the
    estimator variance v(A) that ``sense`` reports, at the phase theta.

    F_C = sum (dp)^2 / p comes from ``outcome_probabilities`` of the
    encoded state and its central difference in theta, a path apart from
    the correlation matrices behind ``sense``. It is a 0/0 limit where an
    outcome vanishes, so None is returned where an outcome probability is
    1e-3 or less, and where the slope is below 1e-3.
    """
    rho = as_density(state)

    def probs(t):
        u = encoding_unitary(t)
        return outcome_probabilities(u @ rho @ u.conj().T, obs)

    p = probs(theta)
    if p.min() <= 1e-3:
        return None
    dp = (probs(theta + _FD_STEP) - probs(theta - _FD_STEP)) / (2 * _FD_STEP)
    try:
        res = sense(state, obs, theta)
    except DerivativeVanishesError:
        return None
    if res.derivative_magnitude < 1e-3:
        return None
    return 1 / np.sum(dp ** 2 / p), res.estimator_variance


class TestCramerRaoChain:
    """1/F_Q <= 1/F_C <= v(A) for every product observable A and phase
    (Braunstein & Caves, PRL 72, 3439, 1994; the right-hand side is
    Cauchy-Schwarz on the error-propagation formula)."""

    @settings(max_examples=300, deadline=None)
    @given(state=_pure_states(), obs=_observables(), theta=_ANGLE)
    def test_pure_states(self, state, obs, theta):
        state, qfi = state
        chain = _inverse_fisher_and_variance(state, obs, theta)
        assume(chain is not None)
        inverse_fc, variance = chain
        assert 1 / qfi <= inverse_fc * (1 + _CHAIN_RTOL)
        assert inverse_fc <= variance * (1 + _CHAIN_RTOL)

    @settings(max_examples=200, deadline=None)
    @given(phi=st.floats(0, 2 * np.pi), p=st.floats(0, 0.9), sigma=st.floats(0, 2),
           obs=_observables(), theta=_ANGLE)
    def test_noisy_states(self, phi, p, sigma, obs, theta):
        # the quantum bound here is a mixed-state QFI, which the package
        # does not compute: only the right-hand inequality is checked
        state = apply_noise(weighted_graph_state(phi), NoiseModel(p, sigma))
        chain = _inverse_fisher_and_variance(state, obs, theta)
        assume(chain is not None)
        inverse_fc, variance = chain
        assert inverse_fc <= variance * (1 + _CHAIN_RTOL)

    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("search", [pauli_search, general_axis_search],
                             ids=["pauli", "general"])
    def test_reported_optima(self, search, k):
        # the optimum each search reports at the table weights k pi/8
        phi = k * np.pi / 8
        obs, res = search(phi)
        chain = _inverse_fisher_and_variance(weighted_graph_state(phi), obs, 0.0)
        if chain is None:
            pytest.skip(f"{search.__name__} at {k} pi/8 reports {obs.label}, which has an "
                        f"outcome probability of at most 1e-3")
        inverse_fc, variance = chain
        assert variance == pytest.approx(res.estimator_variance, rel=1e-12)
        assert 1 / qfi_closed_form(phi) <= inverse_fc * (1 + _CHAIN_RTOL)
        assert inverse_fc <= variance * (1 + _CHAIN_RTOL)
