import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wgstate.optics import (EulerAngles, RotationAxis, WaveplateKind,
                            euler_to_waveplates, euler_unitary,
                            phase_aligned_distance, rotation_gate,
                            rotation_waveplates, to_lab_angle, waveplate_jones,
                            wrap_angle, wrap_interval)
from wgstate.qmath import KET_D, KET_H, KET_V, PAULIS, is_unitary


class TestWaveplateJones:
    def test_qwp_at_zero(self):
        assert np.allclose(waveplate_jones(WaveplateKind.QWP, 0.0),
                           np.diag([1, 1j]), atol=1e-12)

    def test_hwp_maps_h_to_d(self):
        out = waveplate_jones(WaveplateKind.HWP, np.radians(22.5)) @ KET_H
        assert abs(np.vdot(KET_D, out)) == pytest.approx(1.0, abs=1e-12)

    def test_hwp_at_45_swaps_h_v(self):
        out = waveplate_jones(WaveplateKind.HWP, np.radians(45.0)) @ KET_H
        assert abs(np.vdot(KET_V, out)) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_for_all_angles(self):
        for kind in WaveplateKind:
            for angle in np.linspace(-np.pi, np.pi, 41):
                assert is_unitary(waveplate_jones(kind, angle), atol=1e-12)


class TestEulerDecomposition:
    def test_identity_triple(self):
        triple = euler_to_waveplates(EulerAngles(0.0, 0.0, 0.0))
        assert triple.eta1 == pytest.approx(-np.pi / 4)
        assert triple.tau == pytest.approx(-np.pi / 4)
        assert triple.eta2 == pytest.approx(-np.pi / 4)

    def test_z_rotation_triple(self):
        theta = 0.83
        triple = euler_to_waveplates(EulerAngles(0.0, -theta / 2, 0.0))
        assert triple.eta1 == pytest.approx(-np.pi / 4)
        assert triple.tau == pytest.approx(-theta / 4 - np.pi / 4)
        assert triple.eta2 == pytest.approx(-np.pi / 4)

    def test_x_rotation_triple(self):
        theta = 1.21
        triple = euler_to_waveplates(EulerAngles(-np.pi / 4, theta / 2, np.pi / 4))
        assert triple.eta1 == pytest.approx(-np.pi / 2)
        assert triple.tau == pytest.approx(theta / 4 - np.pi / 2)
        assert triple.eta2 == pytest.approx(-np.pi / 2)

    def test_random_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            euler = EulerAngles(*rng.uniform(-np.pi, np.pi, size=3))
            composed = euler_to_waveplates(euler).compose()
            assert phase_aligned_distance(composed, euler_unitary(euler)) < 1e-10


class TestRotationWaveplates:
    def test_z_at_zero_is_identity_triple(self):
        triple = rotation_waveplates(RotationAxis.Z, 0.0)
        ident = rotation_waveplates(RotationAxis.IDENTITY)
        assert (triple.eta1, triple.tau, triple.eta2) == pytest.approx(
            (ident.eta1, ident.tau, ident.eta2))
        assert phase_aligned_distance(triple.compose(), np.eye(2)) < 1e-10

    def test_y_rotation_angles(self):
        theta = 0.37
        triple = rotation_waveplates(RotationAxis.Y, theta)
        assert triple.eta1 == pytest.approx(-np.pi / 4)
        assert triple.tau == pytest.approx(-theta / 4 - np.pi / 4)
        assert triple.eta2 == pytest.approx(-theta / 2 - np.pi / 4)

    def test_full_x_turn_is_identity_up_to_phase(self):
        composed = rotation_waveplates(RotationAxis.X, 2 * np.pi).compose()
        assert phase_aligned_distance(composed, np.eye(2)) < 1e-10

    @pytest.mark.parametrize("axis", [RotationAxis.X, RotationAxis.Y, RotationAxis.Z])
    def test_composite_matches_rotation(self, axis):
        rng = np.random.default_rng(13)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=25):
            composed = rotation_waveplates(axis, theta).compose()
            assert phase_aligned_distance(composed, rotation_gate(axis.value, theta)) < 1e-10

    @pytest.mark.parametrize("axis", [RotationAxis.X, RotationAxis.Y, RotationAxis.Z])
    def test_composite_commutes_with_generator(self, axis):
        sigma = PAULIS[axis.value.upper()]
        for theta in np.linspace(-np.pi, np.pi, 9):
            c = rotation_waveplates(axis, theta).compose()
            assert np.max(np.abs(c @ sigma - sigma @ c)) < 1e-10


class TestLabConvention:
    def test_quarter_pi_fixed_point(self):
        assert to_lab_angle(np.pi / 4) == pytest.approx(np.pi / 4)

    def test_zero_maps_to_vertical(self):
        assert to_lab_angle(0.0) == pytest.approx(np.pi / 2)

    def test_negative_quarter(self):
        assert to_lab_angle(-np.pi / 4) == pytest.approx(3 * np.pi / 4)

    def test_wrap_angle_interval(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        # float modulo rounds a value just past the open end onto it
        for angle in (np.nextafter(np.pi, 4), np.nextafter(np.pi, 0),
                      np.nextafter(-np.pi, -4), np.nextafter(-np.pi, 0)):
            assert -np.pi < wrap_angle(angle) <= np.pi


class TestWrapInterval:
    @given(value=st.floats(-1e6, 1e6),
           bounds=st.sampled_from([(-np.pi, np.pi), (-90.0, 90.0), (0.0, 2 * np.pi)]),
           closed=st.sampled_from(["high", "low"]))
    @example(value=np.nextafter(np.pi, 4), bounds=(-np.pi, np.pi), closed="high")
    @example(value=np.nextafter(-np.pi, -4), bounds=(-np.pi, np.pi), closed="low")
    @example(value=np.nextafter(90.0, 180), bounds=(-90.0, 90.0), closed="high")
    def test_lands_in_half_open_interval(self, value, bounds, closed):
        low, high = bounds
        wrapped = wrap_interval(value, low, high, closed=closed)
        if closed == "high":
            assert low < wrapped <= high
        else:
            assert low <= wrapped < high
        turns = (value - wrapped) / (high - low)
        assert abs(turns - round(turns)) < 1e-9

    @given(fraction=st.floats(0.0, 1.0),
           bounds=st.sampled_from([(-np.pi, np.pi), (-90.0, 90.0), (0.0, 2 * np.pi)]),
           closed=st.sampled_from(["high", "low"]))
    @example(fraction=0.0, bounds=(-np.pi, np.pi), closed="low")
    @example(fraction=1.0, bounds=(-np.pi, np.pi), closed="high")
    def test_value_inside_interval_unchanged(self, fraction, bounds, closed):
        low, high = bounds
        value = low + fraction * (high - low)
        if closed == "high" and value == low:
            value = np.nextafter(low, high)
        if closed == "low" and value == high:
            value = np.nextafter(high, low)
        assert wrap_interval(value, low, high, closed=closed) == value

    def test_wrap_angle_keeps_in_range_angle(self):
        # the modulo round trip used to return 0.2999999999999998
        assert wrap_angle(0.3) == 0.3

    @pytest.mark.parametrize("value, bounds, closed, end", [
        (np.pi, (-np.pi, np.pi), "high", np.pi),
        (-np.pi, (-np.pi, np.pi), "high", np.pi),
        (np.nextafter(np.pi, 4), (-np.pi, np.pi), "high", np.pi),
        (np.pi, (-np.pi, np.pi), "low", -np.pi),
        (-np.pi, (-np.pi, np.pi), "low", -np.pi),
        (90.0, (-90.0, 90.0), "high", 90.0),
        (-90.0, (-90.0, 90.0), "high", 90.0),
        (90.0, (-90.0, 90.0), "low", -90.0),
        (-90.0, (-90.0, 90.0), "low", -90.0),
    ])
    def test_ends_land_on_closed_end(self, value, bounds, closed, end):
        assert wrap_interval(value, *bounds, closed=closed) == end

    def test_closed_end_kept(self):
        assert wrap_interval(np.pi, -np.pi, np.pi) == np.pi
        assert wrap_interval(-np.pi, -np.pi, np.pi, closed="low") == -np.pi

    def test_unknown_closed_end(self):
        with pytest.raises(ValueError):
            wrap_interval(0.0, -1.0, 1.0, closed="both")
