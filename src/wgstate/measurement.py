"""Local product observables and their physical waveplate realizations.

An observable here is a product of two single-photon +/-1 observables,
measured by projecting each photon onto one of two orthogonal states
("+" transmitted, "-" reflected at the analyzing PBS). Identity factors
are measured in the H/V basis with both outcomes weighted +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._optimize import LazyOptimizer
from .optics import WaveplateKind, waveplate_jones_lab, wrap_interval
from .qmath import KET_H, POLARIZATION_KETS, as_density, tensor

minimize = LazyOptimizer("minimize")

OUTCOME_PAIRS = ("++", "+-", "-+", "--")

# eigenvectors (+ then -) of each single-qubit Pauli label in the H/V basis;
# the identity label measures H/V with both signs +1
_PAULI_BASES = {
    "I": (POLARIZATION_KETS["H"], POLARIZATION_KETS["V"]),
    "X": (POLARIZATION_KETS["D"], POLARIZATION_KETS["A"]),
    "Y": (POLARIZATION_KETS["L"], POLARIZATION_KETS["R"]),
    "Z": (POLARIZATION_KETS["H"], POLARIZATION_KETS["V"]),
}


class WaveplateSolverError(RuntimeError):
    """No waveplate pair reached the target overlap for a projector."""


def axis_state(beta: float, alpha: float, outcome: str) -> np.ndarray:
    """Single-qubit basis state along the Bloch direction (beta, alpha).

    "+" gives cos(b/2)|0> + sin(b/2)e^{ia}|1>; "-" the orthogonal
    -sin(b/2)|0> + cos(b/2)e^{ia}|1>.
    """
    c, s = np.cos(beta / 2), np.sin(beta / 2)
    ph = np.exp(1j * alpha)
    if outcome == "+":
        return np.array([c, s * ph], dtype=complex)
    if outcome == "-":
        return np.array([-s, c * ph], dtype=complex)
    raise ValueError(f"outcome must be '+' or '-', got {outcome!r}")


@dataclass(frozen=True, eq=False)
class Observable:
    """Two-photon product observable with per-outcome +/-1 weights.

    ``plus_kets``/``minus_kets`` hold the transmitted/reflected
    projector states per photon; ``signs`` the per-photon outcome signs
    (identity factors contribute +1 on both outcomes). ``label``
    records how the observable was built.
    """

    plus_kets: tuple[np.ndarray, np.ndarray]
    minus_kets: tuple[np.ndarray, np.ndarray]
    signs: tuple[dict, dict]
    label: str = ""
    axis_angles: Optional[tuple[float, float, float, float]] = None
    pauli_labels: Optional[tuple[str, str]] = None

    @property
    def weights(self) -> dict:
        """Outcome-pair -> +/-1 map, e.g. {'++': 1, '+-': -1, ...}."""
        return {o1 + o2: self.signs[0][o1] * self.signs[1][o2]
                for o1 in "+-" for o2 in "+-"}

    def matrix(self) -> np.ndarray:
        """The observable as a 4x4 Hermitian operator."""
        ops = []
        for plus, minus, sign in zip(self.plus_kets, self.minus_kets, self.signs):
            ops.append(sign["+"] * np.outer(plus, plus.conj())
                       + sign["-"] * np.outer(minus, minus.conj()))
        return tensor(ops[0], ops[1])

    def projectors(self) -> dict:
        """Outcome-pair -> rank-one 4x4 projector."""
        kets = {"+": self.plus_kets, "-": self.minus_kets}
        out = {}
        for o1 in "+-":
            for o2 in "+-":
                v = tensor(kets[o1][0], kets[o2][1])
                out[o1 + o2] = np.outer(v, v.conj())
        return out


def pauli_observable(a1: str, a2: str) -> Observable:
    """Product of single-qubit Pauli (or identity) labels, e.g. ('Z', 'Y')."""
    for a in (a1, a2):
        if a not in _PAULI_BASES:
            raise ValueError(f"unknown Pauli label {a!r}")
    signs = tuple({"+": 1, "-": 1} if a == "I" else {"+": 1, "-": -1}
                  for a in (a1, a2))
    return Observable(
        plus_kets=(_PAULI_BASES[a1][0], _PAULI_BASES[a2][0]),
        minus_kets=(_PAULI_BASES[a1][1], _PAULI_BASES[a2][1]),
        signs=signs,
        label=f"{a1}(x){a2}",
        pauli_labels=(a1, a2),
    )


def general_axis_observable(beta1: float, alpha1: float,
                            beta2: float, alpha2: float) -> Observable:
    """Product of two general-axis +/-1 observables on the Bloch sphere."""
    return Observable(
        plus_kets=(axis_state(beta1, alpha1, "+"), axis_state(beta2, alpha2, "+")),
        minus_kets=(axis_state(beta1, alpha1, "-"), axis_state(beta2, alpha2, "-")),
        signs=({"+": 1, "-": -1}, {"+": 1, "-": -1}),
        label=(f"axis(b1={np.degrees(beta1):.2f},a1={np.degrees(alpha1):.2f},"
               f"b2={np.degrees(beta2):.2f},a2={np.degrees(alpha2):.2f}) deg"),
        axis_angles=(beta1, alpha1, beta2, alpha2),
    )


def outcome_probabilities(state, obs: Observable) -> np.ndarray:
    """Probabilities of the four outcome pairs (++, +-, -+, --)."""
    rho = as_density(state)
    kets1 = {"+": obs.plus_kets[0], "-": obs.minus_kets[0]}
    kets2 = {"+": obs.plus_kets[1], "-": obs.minus_kets[1]}
    probs = []
    for o1 in "+-":
        for o2 in "+-":
            v = tensor(kets1[o1], kets2[o2])
            probs.append(np.real(v.conj() @ rho @ v))
    probs = np.clip(np.array(probs), 0.0, None)
    return probs / probs.sum()


@dataclass(frozen=True, eq=False)
class CountRecord:
    """Coincidence counts of the four outcome pairs for one acquisition."""

    counts: np.ndarray
    duration: float = 10.0

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64).reshape(4)
        if (c < 0).any():
            raise ValueError("counts must be non-negative")
        if not (np.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"duration must be finite and >= 0, got {self.duration!r}")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def simulate_counts(probs, rate: float, duration: float, seed: int) -> CountRecord:
    """Poisson-sample the four coincidence counts for one acquisition.

    Each count is drawn with mean rate * duration * p_k, deterministic
    for a given seed.
    """
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("outcome probabilities must sum to 1")
    if rate < 0 or duration < 0:
        raise ValueError("rate and duration must be >= 0")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate * duration * probs)
    return CountRecord(counts=counts, duration=duration)


@dataclass(frozen=True)
class ProjectorSetting:
    """Lab waveplate angles realizing one single-photon projector."""

    hwp_deg: float
    qwp_deg: float
    outcome: str
    residual: float = 0.0


@dataclass(frozen=True, eq=False)
class TomographySetting:
    """One row of the 16-setting two-photon tomography plan."""

    label: str                       # e.g. "DxD"
    kets: tuple[np.ndarray, np.ndarray]
    h1: float
    q1: float
    h2: float
    q2: float

    def projector_state(self) -> np.ndarray:
        return tensor(self.kets[0], self.kets[1])


# the standard 16-setting two-photon projection plan with lab waveplate
# angles (degrees); the analyzer chain is PBS( HWP( QWP( . ) ) )
_TOMO_PLAN = [
    ("V", "V", 45.0, 0.0, 45.0, 0.0),
    ("V", "H", 45.0, 0.0, 0.0, 0.0),
    ("H", "H", 0.0, 0.0, 0.0, 0.0),
    ("H", "V", 0.0, 0.0, 45.0, 0.0),
    ("L", "V", -22.5, 0.0, 45.0, 0.0),
    ("L", "H", -22.5, 0.0, 0.0, 0.0),
    ("D", "H", -22.5, 45.0, 0.0, 0.0),
    ("D", "V", -22.5, 45.0, 45.0, 0.0),
    ("D", "L", -22.5, 45.0, -22.5, 0.0),
    ("D", "D", -22.5, 45.0, -22.5, 45.0),
    ("L", "D", -22.5, 0.0, -22.5, 45.0),
    ("V", "D", 45.0, 0.0, -22.5, 45.0),
    ("H", "D", 0.0, 0.0, -22.5, 45.0),
    ("H", "R", 0.0, 0.0, 22.5, 0.0),
    ("V", "R", 45.0, 0.0, 22.5, 0.0),
    ("L", "R", -22.5, 0.0, 22.5, 0.0),
]

_ORTHOGONAL = {"H": "V", "V": "H", "D": "A", "A": "D", "L": "R", "R": "L"}


def tomography_settings() -> list[TomographySetting]:
    """The 16 projective settings used for two-photon state tomography."""
    out = []
    for s1, s2, h1, q1, h2, q2 in _TOMO_PLAN:
        out.append(TomographySetting(
            label=f"{s1}x{s2}",
            kets=(POLARIZATION_KETS[s1], POLARIZATION_KETS[s2]),
            h1=h1, q1=q1, h2=h2, q2=q2,
        ))
    return out


def setting_outcome_kets(setting: TomographySetting) -> dict:
    """Outcome-pair -> product ket for a tomography setting (+ transmitted)."""
    labels = setting.label.split("x")
    kets = {}
    for o1, s1 in zip("+-", (labels[0], _ORTHOGONAL[labels[0]])):
        for o2, s2 in zip("+-", (labels[1], _ORTHOGONAL[labels[1]])):
            kets[o1 + o2] = tensor(POLARIZATION_KETS[s1], POLARIZATION_KETS[s2])
    return kets


def analyzer_overlap(hwp_deg: float, qwp_deg: float, ket) -> float:
    """Transmission probability of ``ket`` through QWP, HWP then PBS(H).

    Angles are lab-frame degrees; the photon traverses the QWP first.
    """
    op = (waveplate_jones_lab(WaveplateKind.HWP, np.radians(hwp_deg))
          @ waveplate_jones_lab(WaveplateKind.QWP, np.radians(qwp_deg)))
    return float(abs(np.vdot(KET_H, op @ np.asarray(ket, dtype=complex))) ** 2)


def _overlap_grid(h_deg, q_deg, ket) -> np.ndarray:
    """Vectorized |<H| HWP(h) QWP(q) |ket>|^2 over broadcastable lab angles."""
    h = np.radians(np.asarray(h_deg, float))
    q = np.radians(np.asarray(q_deg, float))
    sq, cq = np.sin(q), np.cos(q)
    # QWP(q) |ket> expressed through the internal-frame matrix at pi/2 - q
    a = (sq**2 + 1j * cq**2) * ket[0] + sq * cq * (1 - 1j) * ket[1]
    b = sq * cq * (1 - 1j) * ket[0] + (cq**2 + 1j * sq**2) * ket[1]
    # first row of HWP(h) in the lab frame is (-cos 2h, sin 2h)
    amp = -np.cos(2 * h) * a + np.sin(2 * h) * b
    return np.abs(amp) ** 2


# below this degree of linear polarization a state counts as circular
_CIRCULAR_TOL = 1e-9


def solve_projector_waveplates(beta: float, alpha: float, outcome: str,
                               residual_tol: float = 1e-8) -> ProjectorSetting:
    """Lab waveplate angles mapping the (beta, alpha, outcome) state to |H>.

    Closed form (Simon & Mukunda, Phys. Lett. A 143, 165, 1990): a QWP
    with its fast axis on either axis of the state's polarization
    ellipse leaves a linear polarization, which the HWP at half its
    angle (mod 90 deg) turns onto H. A circular state is made linear by
    any QWP axis; |h| + |q| along that family is piecewise linear, so its
    minimum sits at a kink, q = 0 or h = 0. Candidates that miss full
    transmission by more than ``residual_tol`` are dropped, and
    :class:`WaveplateSolverError` is raised if none is left. Of the rest
    the one with the smallest |h| + |q| is returned, ties broken toward
    positive angles; angles are in degrees wrapped to (-90, 90] and
    ``residual`` is max(0, 1 - transmission).
    """
    ket = axis_state(beta, alpha, outcome)
    psi, linear = _ellipse_azimuth_deg(ket)
    if linear < _CIRCULAR_TOL:
        # the kinks: q = 0, and q = +-45 deg, where the QWP alone gives H
        # (so h = 0) or V
        qwps = (0.0, 45.0, -45.0)
    else:
        # lab angles of the fast axis along the major and the minor axis
        qwps = (90.0 - psi, -psi)
    solutions = []
    for q in map(_wrap_plate_deg, qwps):
        chi, _ = _ellipse_azimuth_deg(
            waveplate_jones_lab(WaveplateKind.QWP, np.radians(q)) @ ket)
        for h in map(_wrap_plate_deg, (90.0 - chi / 2, 180.0 - chi / 2)):
            residual = 1.0 - float(_overlap_grid(h, q, ket))
            if residual <= residual_tol:
                solutions.append((h, q, max(0.0, residual)))
    if not solutions:
        raise WaveplateSolverError(
            f"no waveplate pair reached residual {residual_tol:g} for "
            f"beta={beta:.4f}, alpha={alpha:.4f}, outcome={outcome!r}")
    h, q, residual = min(solutions,
                         key=lambda s: (round(abs(s[0]) + abs(s[1]), 6),
                                        -np.sign(s[0]), -np.sign(s[1])))
    return ProjectorSetting(hwp_deg=h, qwp_deg=q, outcome=outcome, residual=residual)


def _ellipse_azimuth_deg(ket) -> tuple[float, float]:
    """Azimuth of the polarization ellipse (internal frame, degrees, from H
    toward V) and the degree of linear polarization hypot(S1, S2)."""
    a, b = ket
    s1 = abs(a) ** 2 - abs(b) ** 2
    s2 = 2 * (np.conj(a) * b).real
    return 0.5 * float(np.degrees(np.arctan2(s2, s1))), float(np.hypot(s1, s2))


def _wrap_plate_deg(angle: float) -> float:
    """Wrap a plate angle to (-90, 90]; plate action has period 180 deg."""
    wrapped = wrap_interval(angle, -90.0, 90.0)
    return 0.0 if wrapped == 0 else wrapped
