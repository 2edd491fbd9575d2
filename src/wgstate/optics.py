"""Jones-calculus waveplates, rotation gates and the angle-wrap helpers.

Rotation convention: ``rot(n, psi) = exp(-i psi n.sigma)`` rotates by an
angle 2*psi in the usual Bloch-sphere sense, so the standard rotation
gates are ``R_n(theta) = rot(n, theta/2)``.  Waveplate fast-axis angles
are measured in this internal frame; the physical mounts in the lab are
indexed clockwise from the vertical axis, related by
``lab = pi/2 - internal``.  The same conversion holds for half- and
quarter-wave plates (the relation is geometric, about the axis
orientation, not the retardance); ``measurement`` applies it in its
closed forms for the analyzer.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .qmath import I2, PAULIS

Q0 = np.array([[1, 0], [0, 1j]], dtype=complex)   # QWP with fast axis horizontal
H0 = np.array([[1, 0], [0, -1]], dtype=complex)   # HWP with fast axis horizontal


class WaveplateKind(str, Enum):
    QWP = "qwp"
    HWP = "hwp"


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
