"""Phase sensing with the weighted graph state: encoding, information bounds
and optimal-measurement searches.

The encoded phase enters through U(theta) = R_x(theta) (x) R_z(theta),
generated by H = (X (x) 1 + 1 (x) Z)/2. Estimator quality for an
observable A is summarized by the single-shot variance (DA)^2 and the
slope of <A> with respect to theta; their ratio (DA)^2 / |d<A>/dtheta|^2
is the phase variance of the method-of-moments estimator.

A product observable A = sum_ij a_i b_j sigma_i (x) sigma_j has <A> = a . T b
and d<A>/dtheta = a . D b for the Pauli correlation matrices T of the encoded
state rho and D of its derivative -i[H, rho] (``qmath.pauli_correlations``);
as A^2 = I, (DA)^2 = 1 - <A>^2. :func:`sense` and both searches read these
figures at the phase ``theta_star``, with the exact slope; the two-point
slope of a sensing run, from counts at theta* +- h, is
``stats.bootstrap_sensing``'s. As both figures are bilinear in the Bloch
vectors (a, b) of a general-axis product, every stationary point of a
function of the two is a singular pair of K(tau) = cos tau T + sin tau D
for one angle tau; :func:`general_axis_search` scans that family at 33
angles in [0, pi/2], which the state's reflection symmetry
P K(tau) Q = K(pi - tau) makes enough, and root-finds tau from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import Observable, _axis_angles, general_axis_observable, pauli_observable
from .optics import rotation_gate
from .qmath import I2, X, Z, PureState2Q, as_density, pauli_correlations, tensor
from .stategen import weighted_graph_state

# bench/spans.py's OPTIMIZERS rebinds these and nothing calls them; ROADMAP item 5 deletes them
minimize = differential_evolution = None

GENERATOR = (tensor(X, I2) + tensor(I2, Z)) / 2

DERIVATIVE_FLOOR = 1e-9


class DerivativeVanishesError(ArithmeticError):
    """The observable's slope is numerically zero: the estimator variance diverges."""


class SearchError(RuntimeError):
    """An observable search failed to produce a usable optimum."""


@dataclass(frozen=True)
class SensingResult:
    expectation: float
    derivative_magnitude: float
    single_shot_variance: float
    estimator_variance: float


def encoding_unitary(theta: float) -> np.ndarray:
    """R_x(theta) on photon 1 together with R_z(theta) on photon 2."""
    return tensor(rotation_gate("x", theta), rotation_gate("z", theta))


def qfi_closed_form(phi12: float) -> float:
    """Quantum Fisher information of the weight-phi12 state under the encoding.

    Equals (11 - 6 cos phi12 - cos^2 phi12)/4; independent of the
    encoded phase.
    """
    c = np.cos(phi12)
    return float((11 - 6 * c - c * c) / 4)


def qfi_numeric(state: PureState2Q) -> float:
    """4 Var(H) of a pure state for the encoding generator H."""
    psi = state.amplitudes if isinstance(state, PureState2Q) else np.asarray(state, dtype=complex)
    hpsi = GENERATOR @ psi
    mean = np.real(np.vdot(psi, hpsi))
    second = np.real(np.vdot(hpsi, hpsi))
    return float(4 * (second - mean ** 2))


def limits() -> tuple[float, float]:
    """(standard quantum limit, Heisenberg limit) for two qubits."""
    return 0.5, 0.25


def _correlations(state, theta: float) -> np.ndarray:
    """Pauli correlation matrices (T, D) (2, 4, 4) of the encoded state
    rho = U(theta) rho U(theta)^dag and of its derivative -i[H, rho]; the
    state is pure or mixed. A non-finite theta raises ValueError."""
    if not np.isfinite(theta):
        raise ValueError(f"theta_star must be finite, got {theta!r}")
    u = encoding_unitary(theta)
    rho = u @ as_density(state) @ u.conj().T
    return pauli_correlations(np.stack([rho, -1j * (GENERATOR @ rho - rho @ GENERATOR)]))


def sense(state, obs: Observable, theta_star: float = 0.0) -> SensingResult:
    """Evaluate an observable's phase-estimation figures at the phase
    ``theta_star``.

    <A> = a . T b and the exact slope a . D b come from the correlation
    matrices of the encoded state (pure or mixed), and (DA)^2 = 1 - <A>^2.
    A slope below ``DERIVATIVE_FLOOR`` raises
    :class:`DerivativeVanishesError` rather than returning an unusable
    number.
    """
    a, b = obs.coefficients
    return _sensing_result(*(float(a @ m @ b) for m in _correlations(state, theta_star)))


def _sensing_result(exp_val: float, deriv: float) -> SensingResult:
    """The figures of <A> and its slope, or DerivativeVanishesError below
    DERIVATIVE_FLOOR."""
    var = 1.0 - exp_val ** 2
    if abs(deriv) < DERIVATIVE_FLOOR:
        raise DerivativeVanishesError(
            f"|d<A>/dtheta| = {abs(deriv):.3e} below floor {DERIVATIVE_FLOOR:g}")
    return SensingResult(
        expectation=exp_val,
        derivative_magnitude=abs(deriv),
        single_shot_variance=var,
        estimator_variance=var / deriv ** 2,
    )


# Pauli products within this estimator variance of the best are re-ranked
TIE_TOLERANCE = 1e-6


def pauli_search(phi12: float, theta_star: float = 0.0) -> tuple[Observable, SensingResult]:
    """Exhaustive search over the 16 Pauli products for the lowest phase
    variance at ``theta_star``.

    The expectation and slope of sigma_i (x) sigma_j are the entries T_ij
    and D_ij of the encoded state's correlation matrices. Candidates
    within ``TIE_TOLERANCE`` of the minimum variance are re-ranked
    deterministically: largest |slope| first, then positive slope, then
    smaller expectation, then enumeration order (I, X, Y, Z per factor).
    """
    exp_vals, derivs = _correlations(weighted_graph_state(phi12), theta_star).reshape(2, 16)
    variances = 1.0 - exp_vals ** 2
    usable = np.abs(derivs) >= DERIVATIVE_FLOOR
    estimates = np.where(usable, variances, np.inf) / np.where(usable, derivs, 1.0) ** 2
    if not np.isfinite(estimates.min()):
        raise SearchError("every Pauli product has vanishing slope")
    ties = np.flatnonzero(estimates <= estimates.min() + TIE_TOLERANCE)
    # keys rounded well below TIE_TOLERANCE so float noise cannot reorder
    k = min(ties, key=lambda k: (-round(abs(derivs[k]), 9), -round(derivs[k], 9),
                                 round(exp_vals[k], 9)))
    obs = pauli_observable("IXYZ"[k // 4], "IXYZ"[k % 4])
    return obs, SensingResult(expectation=float(exp_vals[k]),
                              derivative_magnitude=float(abs(derivs[k])),
                              single_shot_variance=float(variances[k]),
                              estimator_variance=float(estimates[k]))


# the search minimizes var/s^2 + PENALTY_WEIGHT/|s|, then spends up to
# VARIANCE_TOLERANCE of estimator variance on a larger slope
PENALTY_WEIGHT = 0.02
VARIANCE_TOLERANCE = 1e-4


# the start scan: (cos tau, sin tau) at tau = k pi/64 for k = 0 ... 32.
# K(tau + pi) = -K(tau) has the pairs of K(tau) up to sign, and the state's
# reflection symmetry P K(tau) Q = K(pi - tau) maps each pair at pi - tau
# to one at tau with the same slope, so these angles cover the family
_SCAN = np.array([[math.cos(k * math.pi / 64), math.sin(k * math.pi / 64)] for k in range(33)])
# the minimum's root-find ends when the fixed-point gap is this small, and
# the slope push when the variance on the branch is this close to the cap;
# either ends when its step or bracket on tau is narrower than _ANGLE_TOL,
# and after _ROOT_STEPS angles (the push then unconverged)
_GAP_TOL = 1e-15
_CAP_TOL = 1e-11
_ANGLE_TOL = 1e-14
_ROOT_STEPS = 100
# each reported Bloch vector is signed so that the first of (n_z, -n_x, -n_y)
# larger than this in magnitude is positive
_SIGN_TOL = 1e-12


def _penalized(exp_val, deriv):
    """var/s^2 + PENALTY_WEIGHT/|s| with var = 1 - <A>^2; elementwise."""
    slope = np.maximum(np.abs(deriv), 1e-12)
    return (1.0 - exp_val ** 2) / slope ** 2 + PENALTY_WEIGHT / slope


def _variance(e, d):
    """The estimator variance (1 - e^2)/s^2 at <A> = e and slope d, with
    s = |d| floored at 1e-12."""
    return (1.0 - e * e) / max(abs(d), 1e-12) ** 2


def _stationary_angle(e, d):
    """The angle tau at which a pair with <A> = e and slope d, s = |d| of
    sign sigma, is a stationary point of v + PENALTY_WEIGHT/s if it is a
    singular pair of K(tau): the objective's gradient is
    (-2e grad <A> - sigma (2 (1 - e^2)/s + PENALTY_WEIGHT) grad d)/s^2."""
    s = max(abs(d), 1e-12)
    sigma = 1.0 if d >= 0 else -1.0
    return math.atan2(-sigma * (2 * (1 - e * e) / s + PENALTY_WEIGHT), -2 * e)


def _pair(axes, u, vt, i):
    """Singular pair i (m1, m2) = (u[:, i], vt[i]) of an SVD, as
    (m1, m2, <A>, slope) with <A> = m1 . T m2 and the slope m1 . D m2 for
    the axis blocks axes = (T, D)."""
    m1, m2 = u[:, i], vt[i]
    e, d = (axes @ m2 @ m1).tolist()
    return m1, m2, e, d


def _pair_at(axes, tau, n1):
    """The singular pair of K(tau) = cos tau T + sin tau D whose first
    vector overlaps most with n1 in magnitude, as :func:`_pair` gives it:
    one SVD of a 3 x 3 matrix."""
    u, _, vt = np.linalg.svd(math.cos(tau) * axes[0] + math.sin(tau) * axes[1])
    return _pair(axes, u, vt, np.argmax(np.abs(n1 @ u)))


def _fixed_point_gap(tau, pair):
    """The angle of :func:`_stationary_angle` at pair (n1, n2, <A>, slope),
    less tau, wrapped to (-pi/2, pi/2]: K(tau + pi) = -K(tau) has the same
    pairs."""
    return math.pi / 2 - (math.pi / 2 - _stationary_angle(*pair[2:]) + tau) % math.pi


def _penalized_minimum(axes, tau, pair):
    """The minimum of v + PENALTY_WEIGHT/s on the branch of pair, a singular
    pair (n1, n2, <A>, slope) of K(tau): the pair of K at a root of the
    fixed-point gap h (:func:`_fixed_point_gap`), where it is stationary.

    The first step is that of the fixed-point iteration, tau + h, and later
    ones are secant steps through the last two angles. At each angle the
    branch is the singular pair whose n1 overlaps most with the last one.
    The root-find ends when |h| is within ``_GAP_TOL``, when a step is
    within ``_ANGLE_TOL``, or when two steps in a row do not lower the
    least |h| so far: there h is at its round-off, which reaches 1e-10
    where singular values of K lie close. Returns the pair of least |h|
    and its angle.
    """
    gap = _fixed_point_gap(tau, pair)
    best, least, step, stalls = (pair, tau), abs(gap), gap, 0
    for _ in range(_ROOT_STEPS):
        if least <= _GAP_TOL or abs(step) <= _ANGLE_TOL or stalls == 2:
            break
        tau += step
        pair = _pair_at(axes, tau, pair[0])
        last, gap = gap, _fixed_point_gap(tau, pair)
        if abs(gap) < least:
            best, least, stalls = (pair, tau), abs(gap), 0
        else:
            stalls += 1
        step = step * gap / (last - gap) if gap != last else 0.0
    return best


def _branch_push(axes, x, cap):
    """The largest slope whose estimator variance v stays within ``cap``,
    searched from the minimizer x = (n1, n2, <A>, slope), and whether it
    converged.

    The largest slope of all, the top singular value of D at its singular
    vectors, is taken if its variance is within the cap. Otherwise the
    push follows the minimizers of v + w/s as the weight w grows from
    ``PENALTY_WEIGHT``. Each is a singular pair of K(tau) for an angle tau
    that runs monotonically from the minimizer's own, tau0, to -sigma pi/2,
    with sigma the sign of the slope n1 . D n2. At each angle the branch is
    the singular pair whose n1 overlaps most with that of the last pair
    under the cap. If the branch crosses the cap by -sigma pi/2, the angle
    at which v reaches it is bracketed and found by secant steps, bisected
    when a step leaves the bracket. Returns the pair at the cap, or that of
    the last angle under it when the bracket closes; the push has not
    converged if the branch does not cross the cap.
    """
    u, _, vt = np.linalg.svd(axes[1])
    top = _pair(axes, u, vt, 0)
    if _variance(*top[2:]) <= cap:
        return top, True
    e, d = x[2:]
    sigma = 1.0 if d >= 0 else -1.0
    # the bracket: the angles of the last pair under the cap and of the
    # first over it, in either order
    under = _stationary_angle(e, d)
    under_gap = _variance(e, d) - cap
    # the pairs of K(-sigma pi/2) = -sigma D are those of D
    over = -sigma * math.pi / 2
    over_gap = _variance(*_pair(axes, u, vt, np.argmax(np.abs(x[0] @ u)))[2:]) - cap
    if over_gap <= 0:
        return x, False
    # the first secant step is taken across the bracket, and later ones
    # from the last two angles
    (t0, g0), (t1, g1) = (over, over_gap), (under, under_gap)
    for _ in range(_ROOT_STEPS):
        tau = t1 - g1 * (t1 - t0) / (g1 - g0) if g1 != g0 else over
        if not min(under, over) < tau < max(under, over):
            tau = (under + over) / 2
        pair = _pair_at(axes, tau, x[0])
        gap = _variance(*pair[2:]) - cap
        if abs(gap) <= _CAP_TOL:
            return pair, True
        if gap < 0:
            under, x = tau, pair
        else:
            over = tau
        if abs(over - under) <= _ANGLE_TOL:
            return x, True
        (t0, g0), (t1, g1) = (t1, g1), (tau, gap)
    return x, False


def _signed(n) -> np.ndarray:
    """The Bloch vector n or -n, whichever has the first of (n_z, -n_x, -n_y)
    larger than ``_SIGN_TOL`` in magnitude positive; n itself if none is."""
    for c in (n[2], -n[0], -n[1]):
        if abs(c) > _SIGN_TOL:
            return n if c > 0 else -n
    return n


def general_axis_search(phi12: float, theta_star: float = 0.0
                        ) -> tuple[Observable, SensingResult]:
    """Deterministic search over local general-axis products.

    The contract: minimize the penalized objective (estimator variance
    plus ``PENALTY_WEIGHT / |slope|``) over the two Bloch vectors n1 and
    n2, then take the largest slope whose estimator variance stays within
    ``VARIANCE_TOLERANCE`` of that minimum. <A> = n1 . T n2 and the slope
    n1 . D n2 are bilinear in the axis blocks T and D of the correlation
    matrices, so every stationary point of a function of the two is a
    singular pair of K(tau) = cos tau T + sin tau D for some angle tau.

    The objective is evaluated on the 99 singular pairs of K at the 33
    angles k pi/64 in [0, pi/2], the earlier pair kept on a tie. The state
    has a reflection symmetry: P T Q = -T and P D Q = D for the
    reflections P = diag(1, 1, -1) and
    Q = [[-cos phi12, -sin phi12, 0], [-sin phi12, cos phi12, 0], [0, 0, -1]]
    at theta* = 0 (conjugated by the encoding's rotations elsewhere), so
    P K(tau) Q = K(pi - tau). Each pair at pi - tau is thus a pair at tau
    reflected, with the same slope and -<A>, and with K(tau + pi) = -K(tau)
    these angles cover the whole family. From the best pair a secant
    root-find in tau (:func:`_penalized_minimum`) follows its branch to the
    angle where the pair is stationary. The slope push
    (:func:`_branch_push`) is a root-find in tau along the same family; it
    is accepted if it converged, which puts it under the cap or within
    ``_CAP_TOL`` of it, at a larger slope. Each angle costs one SVD of a
    3 x 3 matrix; no Newton or scipy solver runs.
    Each reported Bloch vector is signed so that the first of (n_z, -n_x,
    -n_y) beyond 1e-12 is positive, and reported as polar angles with beta
    in [0, pi] and alpha in (-pi, pi]. The figures come from the same
    correlation matrices by the rules of :func:`sense`, which raise
    :class:`DerivativeVanishesError` on a zero slope.
    """
    corr = _correlations(weighted_graph_state(phi12), theta_star)
    axes = np.ascontiguousarray(corr[:, 1:, 1:])
    u, _, vt = np.linalg.svd((_SCAN @ axes.reshape(2, 9)).reshape(-1, 3, 3))
    # <A> and the slope of pair i at angle k: the diagonal of U^T T V, U^T D V
    e, d = np.diagonal(u.swapaxes(1, 2) @ axes[:, None] @ vt.swapaxes(1, 2), axis1=2, axis2=3)
    # np.argmin keeps the earlier pair on a tie
    k, i = divmod(int(np.argmin(_penalized(e, d))), 3)
    x, _ = _penalized_minimum(axes, k * math.pi / 64, _pair(axes, u[k], vt[k], i))

    # push the slope as far as the variance tolerance allows
    variance, slope = _variance(*x[2:]), abs(x[3])
    cap = variance + VARIANCE_TOLERANCE
    pushed, converged = _branch_push(axes, x, cap)
    if converged and abs(pushed[3]) > slope:
        x = pushed

    obs = general_axis_observable(*_axis_angles(_signed(x[0])), *_axis_angles(_signed(x[1])))
    a, b = obs.coefficients
    return obs, _sensing_result(*(float(a @ m @ b) for m in corr))
