import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wgstate.optics import (WaveplateKind, rotation_gate, waveplate_jones, wrap_angle,
                            wrap_interval)
from wgstate.qmath import KET_D, KET_H, KET_L, KET_V, PAULIS


def exp_generator(sigma, theta):
    """exp(-i theta sigma / 2), built from the eigenvectors of sigma."""
    vals, vecs = np.linalg.eigh(sigma)
    return vecs @ np.diag(np.exp(-0.5j * theta * vals)) @ vecs.conj().T


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
                jones = waveplate_jones(kind, angle)
                assert np.abs(jones.conj().T @ jones - np.eye(2)).max() <= 1e-12

    def test_two_quarter_wave_plates_make_a_half_wave_plate(self):
        for angle in np.linspace(-np.pi, np.pi, 41):
            qwp = waveplate_jones(WaveplateKind.QWP, angle)
            hwp = waveplate_jones(WaveplateKind.HWP, angle)
            assert np.abs(qwp @ qwp - hwp).max() <= 1e-12


class TestRotationGate:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_matches_matrix_exponential(self, axis):
        rng = np.random.default_rng(13)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=25):
            expected = exp_generator(PAULIS[axis.upper()], theta)
            assert np.abs(rotation_gate(axis, theta) - expected).max() <= 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_commutes_with_generator(self, axis):
        sigma = PAULIS[axis.upper()]
        for theta in np.linspace(-np.pi, np.pi, 9):
            gate = rotation_gate(axis, theta)
            assert np.abs(gate @ sigma - sigma @ gate).max() <= 1e-12

    def test_full_turn_is_minus_identity(self):
        for axis in "xyz":
            assert np.abs(rotation_gate(axis, 2 * np.pi) + np.eye(2)).max() <= 1e-12

    def test_quarter_turns_take_h_to_d_and_l(self):
        to_d = rotation_gate("y", np.pi / 2) @ KET_H
        to_l = rotation_gate("x", -np.pi / 2) @ KET_H
        assert abs(np.vdot(KET_D, to_d)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(KET_L, to_l)) == pytest.approx(1.0, abs=1e-12)


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

    def test_wrap_angle_interval(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        # float modulo rounds a value just past the open end onto it
        for angle in (np.nextafter(np.pi, 4), np.nextafter(np.pi, 0),
                      np.nextafter(-np.pi, -4), np.nextafter(-np.pi, 0)):
            assert -np.pi < wrap_angle(angle) <= np.pi

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
