"""Jones-calculus waveplates and the QWP-HWP-QWP decomposition of SU(2).

Rotation convention: ``rot(n, psi) = exp(-i psi n.sigma)`` rotates by an
angle 2*psi in the usual Bloch-sphere sense, so the standard rotation
gates are ``R_n(theta) = rot(n, theta/2)``.  Waveplate fast-axis angles
are measured in this internal frame; the physical mounts in the lab are
indexed clockwise from the vertical axis, related by
``lab = pi/2 - internal``.  The same conversion is applied to both
half- and quarter-wave plates (the relation is geometric, about the
axis orientation, not the retardance).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qmath import I2, PAULIS

Q0 = np.array([[1, 0], [0, 1j]], dtype=complex)   # QWP with fast axis horizontal
H0 = np.array([[1, 0], [0, -1]], dtype=complex)   # HWP with fast axis horizontal


class WaveplateKind(str, Enum):
    QWP = "qwp"
    HWP = "hwp"


class RotationAxis(str, Enum):
    X = "x"
    Y = "y"
    Z = "z"
    IDENTITY = "identity"


@dataclass(frozen=True)
class EulerAngles:
    """Angles (varphi, xi, zeta) of the y-z-y rotation sequence."""

    varphi: float
    xi: float
    zeta: float


@dataclass(frozen=True)
class WaveplateTriple:
    """Fast-axis angles (first QWP, HWP, second QWP), internal frame, radians."""

    eta1: float
    tau: float
    eta2: float

    def __post_init__(self):
        object.__setattr__(self, "eta1", wrap_angle(self.eta1))
        object.__setattr__(self, "tau", wrap_angle(self.tau))
        object.__setattr__(self, "eta2", wrap_angle(self.eta2))

    def compose(self) -> np.ndarray:
        """Jones operator QWP(eta1) @ HWP(tau) @ QWP(eta2)."""
        return (waveplate_jones(WaveplateKind.QWP, self.eta1)
                @ waveplate_jones(WaveplateKind.HWP, self.tau)
                @ waveplate_jones(WaveplateKind.QWP, self.eta2))


def wrap_interval(value: float, low: float, high: float, *,
                  closed: str = "high") -> float:
    """Wrap ``value`` into a half-open interval of period ``high - low``.

    ``closed="high"`` gives (low, high], ``closed="low"`` gives [low, high).
    A value already inside the interval is returned unchanged. The float
    modulo can round a value just past the open end onto that end
    (``nextafter(pi, 4)`` lands on exactly -pi); such a result is moved
    to the closed end, so the interval holds for every finite input.
    """
    period = high - low
    if closed == "high":
        if low < value <= high:
            return float(value)
        wrapped = -((-value + high) % period - high)
        return float(high if wrapped <= low else wrapped)
    if closed == "low":
        if low <= value < high:
            return float(value)
        wrapped = (value - low) % period + low
        return float(low if wrapped >= high else wrapped)
    raise ValueError(f"closed must be 'high' or 'low', got {closed!r}")


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return wrap_interval(angle, -np.pi, np.pi)


PHASE_CUT_TOL = 1e-9     # rad; far below any fit's precision, far above rounding


def canonical_phase(angle: float) -> float:
    """Wrap a reported phase to (-pi, pi], with the +-pi cut snapped to +pi.

    A phase within ``PHASE_CUT_TOL`` of +-pi is reported as exactly +pi,
    so a result whose true phase lies on the cut gives the same bytes
    whichever way the rounding of a fit or search falls.
    """
    angle = wrap_angle(angle)
    return float(np.pi) if abs(angle) >= np.pi - PHASE_CUT_TOL else angle


def rot(axis: str, psi: float) -> np.ndarray:
    """exp(-i psi sigma_axis); rotates the Bloch vector by 2*psi."""
    return np.cos(psi) * I2 - 1j * np.sin(psi) * PAULIS[axis.upper()]


def rotation_gate(axis: str, theta: float) -> np.ndarray:
    """Standard rotation gate R_axis(theta) = exp(-i theta sigma/2)."""
    return rot(axis, theta / 2.0)


def waveplate_jones(kind: WaveplateKind, angle: float) -> np.ndarray:
    """Jones operator of a wave plate with fast axis at ``angle``.

    The plate at angle 0 is diag(1, i) for a quarter-wave plate and
    diag(1, -1) for a half-wave plate; rotating the fast axis conjugates
    by ``rot('y', angle)``.
    """
    kind = WaveplateKind(kind)
    w0 = Q0 if kind is WaveplateKind.QWP else H0
    r = rot("y", angle)
    return r @ w0 @ r.conj().T


def waveplate_jones_lab(kind: WaveplateKind, lab_angle: float) -> np.ndarray:
    """Jones operator for a plate mounted at ``lab_angle`` (radians, lab frame)."""
    return waveplate_jones(kind, np.pi / 2 - lab_angle)


def euler_unitary(e: EulerAngles) -> np.ndarray:
    """SU(2) element rot_y(varphi) rot_z(-xi) rot_y(zeta)."""
    return rot("y", e.varphi) @ rot("z", -e.xi) @ rot("y", e.zeta)


def euler_to_waveplates(e: EulerAngles) -> WaveplateTriple:
    """Waveplate triple realizing the Euler-angle unitary up to a global phase.

    The closed-form map is eta1 = varphi - pi/4, eta2 = -zeta - pi/4,
    tau = (varphi + xi - zeta)/2 - pi/4.
    """
    return WaveplateTriple(
        eta1=e.varphi - np.pi / 4,
        tau=(e.varphi + e.xi - e.zeta) / 2 - np.pi / 4,
        eta2=-e.zeta - np.pi / 4,
    )


def rotation_waveplates(axis: RotationAxis, theta: float = 0.0) -> WaveplateTriple:
    """Waveplate triple implementing R_axis(theta) up to a global phase."""
    axis = RotationAxis(axis)
    if axis is RotationAxis.X:
        euler = EulerAngles(-np.pi / 4, theta / 2, np.pi / 4)
    elif axis is RotationAxis.Y:
        euler = EulerAngles(0.0, 0.0, theta / 2)
    elif axis is RotationAxis.Z:
        euler = EulerAngles(0.0, -theta / 2, 0.0)
    else:
        euler = EulerAngles(0.0, 0.0, 0.0)
    return euler_to_waveplates(euler)


def to_lab_angle(tau: float) -> float:
    """Convert an internal fast-axis angle to the lab mount angle.

    Lab mounts are read clockwise from the vertical axis, giving
    ``lab = pi/2 - internal`` wrapped to (-pi, pi]. Applied uniformly
    to half- and quarter-wave plates.
    """
    return wrap_angle(np.pi / 2 - tau)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between operators after global-phase alignment.

    The phase is fixed deterministically from the largest-magnitude
    entry of ``b``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) == 0.0:
        return float(np.linalg.norm(a - b))
    phase = a[idx] / b[idx]
    if abs(phase) == 0.0:
        return float(np.linalg.norm(a - b))
    phase = phase / abs(phase)
    return float(np.linalg.norm(a - phase * b))
