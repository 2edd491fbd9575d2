"""Linear-optics generation of the tunable-weight two-qubit state.

The simulated train of elements: a polarizing beam splitter sends photon
2 into paths r2 (transmitted, H) and l2 (reflected, V); each arm holds a
half-wave plate; the l2 arm adds a z-rotation of the polarization (the
weight-tuning element) while r2 keeps the identity; the arms pick up
phases exp(-i varphi_r2), exp(-i varphi_l2); a 50:50 splitter recombines
them and detection is conditioned on output port p2.

The intermediate state lives in an 8-dimensional space ordered
(photon-1 polarization) x (path: r2, l2) x (photon-2 polarization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import WaveplateKind, rotation_gate, waveplate_jones, wrap_interval
from .qmath import DensityMatrix, PureState2Q


class DegeneratePostselectionError(RuntimeError):
    """Post-selection on port p2 retained (numerically) no amplitude."""


@dataclass(frozen=True)
class GenerationConfig:
    """Element settings for one run of the generation train.

    ``hwp_r2``/``hwp_l2`` are fast-axis angles (radians, internal frame)
    of the arm half-wave plates, ``phi_prime_12`` the z-rotation angle
    applied in l2, and ``varphi_prime`` the arm-phase difference
    varphi_r2 - varphi_l2 (varphi_l2 is fixed to zero; only the
    difference is physical).
    """

    hwp_r2: float
    hwp_l2: float
    phi_prime_12: float
    varphi_prime: float

    def __post_init__(self):
        for name in ("hwp_r2", "hwp_l2", "phi_prime_12", "varphi_prime"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing weight plus Gaussian jitter of the arm-phase difference."""

    depolarizing_p: float = 0.0
    phase_jitter_sigma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.depolarizing_p <= 1.0:
            raise ValueError("depolarizing_p must lie in [0, 1]")
        if not self.phase_jitter_sigma >= 0.0:
            raise ValueError("phase_jitter_sigma must be >= 0")


@dataclass(frozen=True)
class GenerationResult:
    state: PureState2Q
    postselect_probability: float


def weighted_graph_state(phi12: float) -> PureState2Q:
    """Two-qubit graph state with edge weight ``phi12``.

    Amplitudes (1, 1, 1, exp(i phi12))/2, i.e. the phi12-powered
    controlled-Z gate applied to |+>|+>.
    """
    return PureState2Q(np.array([1, 1, 1, np.exp(1j * phi12)], dtype=complex) / 2)


def mzi_phase_condition(phi12: float) -> float:
    """Arm-phase difference that makes the recombined state's relative phase vanish.

    Returns (phi12 - pi)/2 - pi wrapped to [-pi, pi); with the arm
    z-rotation set to phi12 - pi this choice yields the ideal
    weighted graph state at the p2 port.
    """
    raw = (phi12 - np.pi) / 2 - np.pi
    return wrap_interval(raw, -np.pi, np.pi, closed="low")


def canonical_config(phi12: float) -> GenerationConfig:
    """Element settings that generate ``weighted_graph_state(phi12)``."""
    return GenerationConfig(
        hwp_r2=np.pi / 8,
        hwp_l2=np.pi / 8,
        phi_prime_12=phi12 - np.pi,
        varphi_prime=mzi_phase_condition(phi12),
    )


def simulate_generation(cfg: GenerationConfig) -> GenerationResult:
    """Propagate |Phi-> through the generation train and post-select port p2.

    Returns the renormalized two-qubit polarization state and the
    post-selection probability. Configurations whose p2 amplitude
    vanishes raise :class:`DegeneratePostselectionError`.
    """
    # |Phi-> = (|H1,H2> - |V1,V2>)/sqrt(2) split by the PBS:
    # transmitted H -> path r2 (index 0), reflected V -> path l2 (index 1).
    psi = np.zeros((2, 2, 2), dtype=complex)   # (pol1, path, pol2)
    psi[0, 0, 0] = 1 / np.sqrt(2)
    psi[1, 1, 1] = -1 / np.sqrt(2)

    # per-arm polarization optics and arm phases (varphi_l2 fixed to 0)
    arm_r2 = np.exp(-1j * cfg.varphi_prime) * waveplate_jones(WaveplateKind.HWP, cfg.hwp_r2)
    arm_l2 = rotation_gate("z", cfg.phi_prime_12) @ waveplate_jones(WaveplateKind.HWP, cfg.hwp_l2)
    psi[:, 0, :] = psi[:, 0, :] @ arm_r2.T
    psi[:, 1, :] = psi[:, 1, :] @ arm_l2.T

    # 50:50 recombination: |r2> -> (|p2>+|q2>)/sqrt2, |l2> -> (|p2>-|q2>)/sqrt2
    out = np.empty_like(psi)
    out[:, 0, :] = (psi[:, 0, :] + psi[:, 1, :]) / np.sqrt(2)   # port p2
    out[:, 1, :] = (psi[:, 0, :] - psi[:, 1, :]) / np.sqrt(2)   # port q2

    p2_block = out[:, 0, :].reshape(4)   # (pol1, pol2) amplitudes at p2
    prob = float(np.linalg.norm(p2_block) ** 2)
    if prob < 1e-12:
        raise DegeneratePostselectionError(
            "no amplitude survives post-selection on port p2")
    return GenerationResult(state=PureState2Q(p2_block), postselect_probability=prob)


def apply_noise(state: PureState2Q, nm: NoiseModel) -> DensityMatrix:
    """Mix the state with arm-phase jitter and a depolarizing floor.

    rho = (1 - p) * E_delta[|psi(delta)><psi(delta)|] + p * I/4, where
    delta ~ N(0, sigma^2) jitters the arm-phase difference, which
    multiplies the photon-1 |V> branch by exp(i delta). The Gaussian
    average is exact: E[exp(i delta)] = exp(-sigma^2 / 2), a real factor
    on the H1/V1 coherences. Above sigma = 40 it is taken as 0.0, which
    float64 rounds it to from sigma ~ 38.6 on, so any finite sigma is
    accepted and a huge one dephases fully.
    """
    amps = state.amplitudes
    rho = np.outer(amps, amps.conj())
    sigma = nm.phase_jitter_sigma
    # exp(-sigma**2 / 2) is 0.0 in float64 from sigma ~ 38.6 on, and squaring
    # a huge Python float raises OverflowError
    damping = 0.0 if sigma > 40 else np.exp(-sigma ** 2 / 2)
    rho[:2, 2:] *= damping
    rho[2:, :2] *= damping
    p = nm.depolarizing_p
    mixed = (1 - p) * rho + p * np.eye(4) / 4
    mixed = (mixed + mixed.conj().T) / 2
    return DensityMatrix(mixed)
