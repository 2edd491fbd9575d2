"""Local product observables and their physical waveplate realizations.

An observable here is a product A = (a . sigma) (x) (b . sigma) of two
single-photon +/-1 observables, held as its two Pauli coefficient rows a
and b over (I, X, Y, Z). Each factor is measured by projecting its photon
onto one of two orthogonal states ("+" transmitted, "-" reflected at the
analyzing PBS). Identity factors are measured in the H/V basis with both
outcomes weighted +1. Outcome probabilities are read off the state's Pauli
correlation matrix (``qmath.pauli_correlations``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .optics import PHASE_CUT_TOL, canonical_phase, wrap_interval
from .qmath import PAULI_PRODUCTS, as_density, pauli_correlations

# bench/spans.py's OPTIMIZERS rebinds this name and nothing calls it; ROADMAP item 5 deletes it
minimize = None

OUTCOME_PAIRS = ("++", "+-", "-+", "--")

# Pauli coefficient row of each single-qubit label over (I, X, Y, Z)
_PAULI_ROWS = dict(zip("IXYZ", np.eye(4)))


class WaveplateSolverError(RuntimeError):
    """No waveplate pair reached the target overlap for a projector."""


def _unit_vector(beta, alpha):
    """Bloch vectors (sin b cos a, sin b sin a, cos b) on a last axis."""
    sb = np.sin(beta)
    return np.stack([sb * np.cos(alpha), sb * np.sin(alpha), np.cos(beta)], axis=-1)


def _axis_angles(n) -> tuple[float, float]:
    """(beta, alpha) of a Bloch vector, with beta in [0, pi] and alpha in
    (-pi, pi]: +pi on the +-pi cut (``optics.canonical_phase``), and 0 at
    a pole, where hypot(n_x, n_y) < ``PHASE_CUT_TOL``."""
    rho = np.hypot(n[0], n[1])
    alpha = canonical_phase(np.arctan2(n[1], n[0])) if rho >= PHASE_CUT_TOL else 0.0
    return float(np.arctan2(rho, n[2])), alpha


def _analyzer_axis(row) -> np.ndarray:
    """Bloch axis along which a factor with Pauli coefficient row ``row``
    is analysed: its own, or z for an identity factor."""
    return np.array([0.0, 0.0, 1.0]) if row[0] else row[1:]


def axis_state(beta, alpha, outcome) -> np.ndarray:
    """Single-qubit basis states along the Bloch directions (beta, alpha).

    "+" gives cos(b/2)|0> + sin(b/2)e^{ia}|1>; "-" the orthogonal
    -sin(b/2)|0> + cos(b/2)e^{ia}|1>. The arguments are scalars or arrays
    of one shape, and the amplitudes sit on a new first axis, as
    :func:`analyzer_overlap` reads them.
    """
    outcome = np.asarray(outcome)
    if not set(outcome.ravel().tolist()) <= {"+", "-"}:
        raise ValueError(f"outcome must be '+' or '-', got {outcome.tolist()!r}")
    plus = outcome == "+"
    c, s = np.cos(np.divide(beta, 2)), np.sin(np.divide(beta, 2))
    return np.array([np.where(plus, c, -s), np.where(plus, s, c) * np.exp(1j * np.asarray(alpha))])


@dataclass(frozen=True, eq=False)
class Observable:
    """Two-photon product observable A = sum_ij a_i b_j sigma_i (x) sigma_j.

    ``coefficients`` holds the read-only Pauli coefficient rows (a, b) over
    (I, X, Y, Z), shape (2, 4). Each row is the identity (1, 0, 0, 0) or a
    unit Bloch axis (0, m), so every factor squares to I and A^2 = I.
    ``label`` records how the observable was built.
    """

    coefficients: np.ndarray
    label: str = ""
    axis_angles: Optional[tuple[float, float, float, float]] = None
    pauli_labels: Optional[tuple[str, str]] = None

    def __post_init__(self):
        rows = np.array(self.coefficients, dtype=float).reshape(2, 4)
        rows.flags.writeable = False
        object.__setattr__(self, "coefficients", rows)

    @property
    def weights(self) -> dict:
        """Outcome-pair -> +/-1 map, e.g. {'++': 1, '+-': -1, ...}."""
        signs = [{"+": 1, "-": 1 if row[0] else -1} for row in self.coefficients]
        return {o1 + o2: signs[0][o1] * signs[1][o2] for o1 in "+-" for o2 in "+-"}

    def matrix(self) -> np.ndarray:
        """The observable as a 4x4 Hermitian operator."""
        return np.tensordot(np.outer(*self.coefficients), PAULI_PRODUCTS, 2)


def pauli_observable(a1: str, a2: str) -> Observable:
    """Product of single-qubit Pauli (or identity) labels, e.g. ('Z', 'Y')."""
    for a in (a1, a2):
        if a not in _PAULI_ROWS:
            raise ValueError(f"unknown Pauli label {a!r}")
    return Observable(coefficients=np.array([_PAULI_ROWS[a1], _PAULI_ROWS[a2]]),
                      label=f"{a1}(x){a2}", pauli_labels=(a1, a2))


def general_axis_observable(beta1: float, alpha1: float,
                            beta2: float, alpha2: float) -> Observable:
    """Product of two general-axis +/-1 observables on the Bloch sphere:
    rows (0, sin b cos a, sin b sin a, cos b)."""
    axes = _unit_vector(np.array([beta1, beta2]), np.array([alpha1, alpha2]))
    return Observable(
        coefficients=np.hstack([np.zeros((2, 1)), axes]),
        label=(f"axis(b1={np.degrees(beta1):.2f},a1={np.degrees(alpha1):.2f},"
               f"b2={np.degrees(beta2):.2f},a2={np.degrees(alpha2):.2f}) deg"),
        axis_angles=(beta1, alpha1, beta2, alpha2),
    )


def outcome_probabilities(state, obs: Observable) -> np.ndarray:
    """Probabilities of the four outcome pairs (++, +-, -+, --).

    The outcome s = +/-1 of a factor projects onto (I + s m . sigma)/2,
    with m its analyzer axis (:func:`_analyzer_axis`), so the pair (s1, s2) has
    probability (1, s1 m1) T (1, s2 m2) / 4 for the state's Pauli
    correlation matrix T.
    """
    sides = [np.hstack([np.ones((2, 1)), np.outer([1, -1], _analyzer_axis(row))])
             for row in obs.coefficients]
    corr = pauli_correlations(as_density(state))
    probs = np.clip(np.einsum("ai,ij,bj->ab", sides[0], corr, sides[1]).ravel() / 4, 0.0, None)
    return probs / probs.sum()


def checked_counts(counts, shape: tuple) -> np.ndarray:
    """Outcome-pair counts as a read-only int64 copy of ``shape``; raises
    ValueError for counts that are not integers or real floats (bool, str,
    complex, None), any other shape, a count that is not finite or not a
    whole number (2.0 is one, 1.7 is not), a negative count, or counts that
    int64 cannot hold: one of 2**63 or more, or a total of 2**63 or more."""
    given = np.asarray(counts)
    kind = given.dtype.kind
    odd = [x for x in given.flat if isinstance(x, bool) or not isinstance(
        x, (int, float, np.integer, np.floating))] if kind == "O" else []
    if odd or kind not in "iufO":
        raise ValueError("counts must be integers or real floats, got "
                         + (repr(odd[0]) if odd else f"dtype {given.dtype}"))
    # the cast wraps or warns out of range: check first, exactly, on Python numbers
    values = given.ravel().tolist() if kind != "i" else []
    nonfinite = [x for x in values if not -np.inf < x < np.inf]
    if nonfinite:
        raise ValueError(f"counts must be finite, got {float(nonfinite[0])!r}")
    if values and (min(values) < -2 ** 63 or max(values) >= 2 ** 63):
        raise ValueError("a count lies outside int64: counts must be below 2**63")
    c = np.array(given, dtype=np.int64)
    if c.shape != shape:
        raise ValueError(f"counts must have shape {shape}, got {c.shape}")
    if kind in "fO" and (c != given).any():
        raise ValueError(f"counts must be whole numbers, got {float(given[c != given][0])!r}")
    if (c < 0).any():
        raise ValueError("counts must be non-negative")
    # the int64 sum wraps past 2**63; the exact one is taken only where it may
    if c.size and int(c.max()) * c.size >= 2 ** 63 and sum(c.ravel().tolist()) >= 2 ** 63:
        raise ValueError("counts must total below 2**63, the int64 limit")
    c.flags.writeable = False
    return c


def checked_durations(durations, shape: tuple = ()) -> np.ndarray:
    """Acquisition times in seconds as a read-only float array of ``shape``
    (one value applies to all); raises ValueError unless each is finite
    and >= 0."""
    d = np.broadcast_to(np.array(durations, dtype=float), shape)
    bad = ~(np.isfinite(d) & (d >= 0))
    if bad.any():
        raise ValueError(f"duration must be finite and >= 0, got {float(d[bad][0])!r}")
    return d


def _check_rate_and_duration(rate: float, duration: float) -> None:
    """Raise ValueError unless a count rate and an acquisition time are
    each finite and >= 0, and so is their product, the mean total count."""
    if not 0 <= rate < np.inf:
        raise ValueError(f"rate must be finite and >= 0, got {float(rate)!r}")
    checked_durations(duration)
    if float(rate) * float(duration) == np.inf:
        raise ValueError("rate * duration must be finite, got inf")


def simulate_counts(probs, rate: float, duration: float, seed: int) -> np.ndarray:
    """Poisson-sample the four coincidence counts for one acquisition.

    Each count is drawn with mean rate * duration * p_k, deterministic
    for a given seed; the result is a read-only (4,) int64 array.
    """
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("outcome probabilities must sum to 1")
    _check_rate_and_duration(rate, duration)
    return checked_counts(np.random.default_rng(seed).poisson(rate * duration * probs), (4,))


@dataclass(frozen=True)
class ProjectorSetting:
    """Lab waveplate angles realizing one single-photon projector."""

    hwp_deg: float
    qwp_deg: float
    outcome: str
    residual: float = 0.0


def _qwp_action(qwp_deg, ket) -> tuple:
    """Amplitudes of QWP(q) |ket> for lab angles q in degrees, through the
    internal-frame matrix at pi/2 - q; broadcasts over angles and kets."""
    ket = np.asarray(ket, dtype=complex)
    q = np.radians(np.asarray(qwp_deg, float))
    sq, cq = np.sin(q), np.cos(q)
    off = sq * cq * (1 - 1j)
    return ((sq**2 + 1j * cq**2) * ket[0] + off * ket[1],
            off * ket[0] + (cq**2 + 1j * sq**2) * ket[1])


def analyzer_overlap(hwp_deg, qwp_deg, ket) -> np.ndarray:
    """Transmission probability |<H| HWP(h) QWP(q) |ket>|^2 of ``ket``
    (amplitudes on its first axis) through QWP, HWP then PBS(H), over
    broadcastable lab angles in degrees; the photon traverses the QWP first."""
    a, b = _qwp_action(qwp_deg, ket)
    h = np.radians(np.asarray(hwp_deg, float))
    # first row of HWP(h) in the lab frame is (-cos 2h, sin 2h)
    return np.abs(-np.cos(2 * h) * a + np.sin(2 * h) * b) ** 2


# below this degree of linear polarization a state counts as circular
_CIRCULAR_TOL = 1e-9


def solve_projector_batch(betas, alphas, outcomes,
                          residual_tol: float = 1e-8) -> list[ProjectorSetting]:
    """Lab waveplate angles mapping each (beta, alpha, outcome) state to |H>.

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

    All rows are solved at once, with one :func:`analyzer_overlap` call.
    """
    kets = axis_state(betas, alphas, outcomes)
    qwps, owners = [], []
    for row, (psi, linear) in enumerate(zip(*(v.tolist() for v in _ellipse_azimuth_deg(kets)))):
        # a circular state's kinks: q = 0, and q = +-45 deg, where the QWP alone gives
        # H (so h = 0) or V; else the fast axis along the major and the minor axis
        candidates = (0.0, 45.0, -45.0) if linear < _CIRCULAR_TOL else (90.0 - psi, -psi)
        qwps += map(_wrap_plate_deg, candidates)
        owners += [row] * len(candidates)
    owned = kets[:, owners]
    hwps = [[_wrap_plate_deg(90.0 - c), _wrap_plate_deg(180.0 - c)]
            for c in (_ellipse_azimuth_deg(_qwp_action(qwps, owned))[0] / 2).tolist()]
    residuals = (1.0 - analyzer_overlap(hwps, np.array(qwps)[:, None], owned[..., None])).tolist()
    found = [[] for _ in outcomes]
    for row, q, hs, rs in zip(owners, qwps, hwps, residuals):
        found[row] += [(h, q, max(0.0, r)) for h, r in zip(hs, rs) if r <= residual_tol]
    settings = []
    for solutions, beta, alpha, outcome in zip(found, betas, alphas, outcomes):
        if not solutions:
            raise WaveplateSolverError(
                f"no waveplate pair reached residual {residual_tol:g} for "
                f"beta={beta:.4f}, alpha={alpha:.4f}, outcome={outcome!r}")
        h, q, residual = min(solutions, key=lambda s: (round(abs(s[0]) + abs(s[1]), 6),
                                                       -np.sign(s[0]), -np.sign(s[1])))
        settings.append(ProjectorSetting(h, q, outcome, residual))
    return settings


def solve_projector_waveplates(beta: float, alpha: float, outcome: str,
                               residual_tol: float = 1e-8) -> ProjectorSetting:
    """Waveplates of one projector: the one-row :func:`solve_projector_batch`."""
    return solve_projector_batch([beta], [alpha], [outcome], residual_tol)[0]


def _ellipse_azimuth_deg(ket) -> tuple:
    """Azimuth of the polarization ellipse (internal frame, degrees, from H
    toward V) and the degree of linear polarization hypot(S1, S2); elementwise."""
    a, b = ket
    s1 = np.abs(a) ** 2 - np.abs(b) ** 2
    s2 = 2 * (np.conj(a) * b).real
    return 0.5 * np.degrees(np.arctan2(s2, s1)), np.hypot(s1, s2)


def _wrap_plate_deg(angle: float) -> float:
    """Wrap a plate angle to (-90, 90]; plate action has period 180 deg."""
    wrapped = wrap_interval(angle, -90.0, 90.0)
    return 0.0 if wrapped == 0 else wrapped
