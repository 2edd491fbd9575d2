import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wgstate.qmath import (PAULI_PRODUCTS, DensityMatrix, NonPhysicalStateError,
                           PureState2Q, I2, X, Y, Z, as_density, concurrence, expectation,
                           fidelity, pauli_correlations, tensor, trace_distance)
from wgstate.stategen import weighted_graph_state


def bell_phi_plus():
    return PureState2Q(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


class TestTensor:
    def test_basis_kets(self):
        ket0 = np.array([1, 0], dtype=complex)
        assert np.allclose(tensor(ket0, ket0), [1, 0, 0, 0])

    def test_identity(self):
        assert np.allclose(tensor(I2, I2), np.eye(4))

    def test_x_tensor_z_entries(self):
        # hand-expanded Kronecker product
        xz = tensor(X, Z)
        assert xz[0, 2] == 1
        assert xz[1, 3] == -1
        expected = np.array([[0, 0, 1, 0],
                             [0, 0, 0, -1],
                             [1, 0, 0, 0],
                             [0, -1, 0, 0]], dtype=complex)
        assert np.allclose(xz, expected)


class TestStates:
    def test_pure_state_normalizes(self):
        s = PureState2Q(np.array([2, 0, 0, 0], dtype=complex))
        assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            PureState2Q(np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState2Q([bad, 1, 1, 1])

    @pytest.mark.parametrize("amplitudes", [[np.nan, 1, 1, 1], [np.inf, 1, 1, 1], [0, 0, 0, 0]])
    def test_raw_amplitudes_checked_like_a_pure_state(self, amplitudes):
        with pytest.raises(ValueError):
            as_density(np.array(amplitudes, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_matrix_rejected(self, bad):
        with pytest.raises(NonPhysicalStateError, match="non-finite"):
            DensityMatrix(np.full((4, 4), bad))
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 3] = rho[3, 0] = bad
        with pytest.raises(NonPhysicalStateError, match="non-finite"):
            DensityMatrix(rho)

    def test_density_matrix_validation(self):
        good = np.eye(4) / 4
        DensityMatrix(good)
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(good + 1e-3 * 1j * np.eye(4))
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(np.eye(4) / 2)
        bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(bad)


class TestFidelity:
    def test_self_fidelity(self):
        psi = bell_phi_plus()
        assert fidelity(psi.density(), psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        psi = bell_phi_plus()
        assert fidelity(np.eye(4) / 4, psi) == pytest.approx(0.25, abs=1e-12)

    def test_opposite_weight_states(self):
        # |<G_0|G_pi>|^2 = |(1+1+1-1)/4|^2 = 1/4
        rho = weighted_graph_state(np.pi).density()
        assert fidelity(rho, weighted_graph_state(0.0)) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_for_pure_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = PureState2Q(rng.normal(size=4) + 1j * rng.normal(size=4))
            b = PureState2Q(rng.normal(size=4) + 1j * rng.normal(size=4))
            assert fidelity(a.density(), b) == pytest.approx(
                fidelity(b.density(), a), abs=1e-12)


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(bell_phi_plus().density()) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        assert concurrence(weighted_graph_state(0.0).density()) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("phi", [np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    def test_weighted_graph_values(self, phi):
        # 2|ad - bc| on the (1,1,1,e^{i phi})/2 amplitudes
        assert concurrence(weighted_graph_state(phi).density()) == pytest.approx(
            abs(np.sin(phi / 2)), abs=1e-9)

    def test_sine_law_on_grid(self):
        for phi in np.linspace(0.0, np.pi, 33):
            c = concurrence(weighted_graph_state(phi).density())
            assert c == pytest.approx(abs(np.sin(phi / 2)), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
           rank=st.integers(1, 4))
    # the maximal-weight graph state (1, 1, 1, -1)/2: its spectrum rounds to 1 + 4e-16
    @example(entries=[1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0, 0, 0, 0, -1.0] + [0.0] * 19, rank=1)
    def test_lies_in_unit_interval(self, entries, rank):
        # rho = A A^dag / Tr(A A^dag) for a random 4 x rank complex A
        a = (np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4)))[:, :rank]
        norm = np.vdot(a, a).real
        assume(norm > 1e-6)
        assert 0.0 <= concurrence(a @ a.conj().T / norm) <= 1.0


class TestExpectation:
    def test_zy_on_max_weight(self):
        assert expectation(tensor(Z, Y), weighted_graph_state(np.pi)) == pytest.approx(
            0.0, abs=1e-12)

    def test_identity_normalization(self):
        rng = np.random.default_rng(6)
        state = PureState2Q(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert expectation(np.eye(4), state) == pytest.approx(1.0, abs=1e-12)

    def test_zy_on_half_weight(self):
        assert expectation(tensor(Z, Y), weighted_graph_state(np.pi / 2)) == pytest.approx(
            -0.5, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            expectation(np.triu(np.ones((4, 4))), weighted_graph_state(0.0))

    def test_bounded_by_extreme_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            herm = (m + m.conj().T) / 2
            state = PureState2Q(rng.normal(size=4) + 1j * rng.normal(size=4))
            val = expectation(herm, state)
            lo, hi = np.linalg.eigvalsh(herm)[[0, -1]]
            assert lo - 1e-10 <= val <= hi + 1e-10


def test_trace_distance_basics():
    rho = weighted_graph_state(np.pi).density()
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    other = weighted_graph_state(0.0).density()
    d = trace_distance(rho, other)
    assert 0 < d <= 1


class TestConcurrenceMixedStates:
    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_family_closed_form(self, p):
        # p |Phi+><Phi+| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
        bell = bell_phi_plus().density().matrix
        werner = p * bell + (1 - p) * np.eye(4) / 4
        expected = max(0.0, (3 * p - 1) / 2)
        assert concurrence(DensityMatrix(werner)) == pytest.approx(expected, abs=1e-10)

    def test_depolarized_graph_state_matches_werner_law(self):
        # the weight-pi state is a local rotation of a Bell state, and
        # local unitaries leave concurrence unchanged
        from wgstate.stategen import NoiseModel, apply_noise
        for p_dep in (0.1, 0.4, 0.9):
            rho = apply_noise(weighted_graph_state(np.pi), NoiseModel(p_dep, 0.0))
            expected = max(0.0, (3 * (1 - p_dep) - 1) / 2)
            assert concurrence(rho) == pytest.approx(expected, abs=1e-10)


class TestPauliCorrelations:
    def test_products_are_kronecker_products(self):
        for i, p in enumerate((I2, X, Y, Z)):
            for j, q in enumerate((I2, X, Y, Z)):
                assert np.array_equal(PAULI_PRODUCTS[i, j], tensor(p, q))

    def test_round_trip(self):
        # rho = sum_ij T_ij sigma_i (x) sigma_j / 4, for pure and mixed states
        rng = np.random.default_rng(31)
        states = []
        for rank in (1, 2, 4):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        states.append(weighted_graph_state(2.2).density().matrix)
        corr = pauli_correlations(np.array(states))
        assert corr.shape == (4, 4, 4)
        for rho, t in zip(states, corr):
            assert t[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(np.einsum("ij,ijab->ab", t, PAULI_PRODUCTS) / 4, rho, atol=1e-12)
            assert np.allclose(pauli_correlations(rho), t, atol=0)


class TestStackedFigures:
    """fidelity and concurrence over a stack (..., 4, 4) equal the calls on
    each matrix alone."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           ranks=st.lists(st.integers(1, 4), min_size=1, max_size=8),
           phi=st.floats(0.0, 2 * np.pi))
    @example(seed=0, ranks=[1, 2], phi=np.pi)
    def test_stack_matches_each_matrix_alone(self, seed, ranks, phi):
        rng = np.random.default_rng(seed)
        states = []
        for rank in ranks:
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        # a rank-1 state on the target itself, whose fidelity rounds near 1
        target = weighted_graph_state(phi)
        states.append(target.density().matrix)
        stack = np.array(states)
        fids, concs = fidelity(stack, target), concurrence(stack)
        assert fids.shape == concs.shape == (len(states),)
        for rho, f, c in zip(states, fids, concs):
            assert abs(f - fidelity(DensityMatrix(rho), target)) <= 1e-15
            assert abs(c - concurrence(DensityMatrix(rho))) <= 1e-15
        # more than one leading axis
        pairs = np.stack([stack, stack[::-1]], axis=1)
        assert np.abs(fidelity(pairs, target)[:, 0] - fids).max() <= 1e-15
        assert np.abs(concurrence(pairs)[:, 1] - concs[::-1]).max() <= 1e-15

    def test_one_state_gives_a_float(self):
        rho = bell_phi_plus().density()
        assert type(fidelity(rho, bell_phi_plus())) is float
        assert type(concurrence(rho)) is float
