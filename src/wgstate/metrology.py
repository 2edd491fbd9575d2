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
function of the two is a singular pair of cos tau T + sin tau D for one
angle tau; :func:`general_axis_search` searches on that family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optimize import LazyOptimizer, sphere_newton
from .measurement import Observable, _axis_angles, general_axis_observable, pauli_observable
from .optics import rotation_gate
from .qmath import I2, X, Z, PureState2Q, as_density, pauli_correlations, tensor
from .stategen import weighted_graph_state

minimize = LazyOptimizer("minimize")
differential_evolution = LazyOptimizer("differential_evolution")

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


# the start scan: the singular pairs of K(tau) = cos tau T + sin tau D at
# tau = k pi/64 for k = 0 ... 63; K(tau + pi) = -K(tau) has the same pairs
# up to sign, so these angles cover the whole family
_SCAN_ANGLES = np.arange(64) * np.pi / 64
# the slope push ends when the variance on the branch is this close to the
# cap, or when the bracket on tau is this narrow; unconverged after
# _ROOT_STEPS angles
_CAP_TOL = 1e-11
_ANGLE_TOL = 1e-14
_ROOT_STEPS = 100
# each reported Bloch vector is signed so that the first of (n_z, -n_x, -n_y)
# larger than this in magnitude is positive
_SIGN_TOL = 1e-12


def _axis_blocks(corr) -> np.ndarray:
    """6 x 6 matrices B = [[0, M], [M^T, 0]] of the 3 x 3 axis blocks
    M = T[1:, 1:], D[1:, 1:] of the correlation matrices corr = (T, D), so that
    <A> = n1 . T n2 and d<A>/dtheta = n1 . D n2 for the product
    observable A = (n1 . sigma) (x) (n2 . sigma): both are x . B x / 2 at
    x = (n1, n2), with gradient B x."""
    blocks = np.zeros((2, 6, 6))
    blocks[:, :3, 3:] = corr[:, 1:, 1:]
    blocks[:, 3:, :3] = blocks[:, :3, 3:].transpose(0, 2, 1)
    return blocks


def _penalized(exp_val, deriv):
    """var/s^2 + PENALTY_WEIGHT/|s| with var = 1 - <A>^2; elementwise."""
    slope = np.maximum(np.abs(deriv), 1e-12)
    return (1.0 - exp_val ** 2) / slope ** 2 + PENALTY_WEIGHT / slope


def _figure_jets(blocks, x):
    """<A> = n1 . T n2 and s = |n1 . D n2| at rows x = (n1, n2) (m, 2, 3),
    each vector read at unit norm, for the blocks of _axis_blocks.
    Returns the unit rows (m, 6), the values (2, m), their gradients B x
    (2, m, 6) and the sign of n1 . D n2; the Hessians are the constant
    blocks, that of s times the sign."""
    x = x.reshape(-1, 2, 3)
    x = (x / np.sqrt(np.einsum("mki,mki->mk", x, x))[..., None]).reshape(-1, 6)
    grad = x @ blocks
    value = np.einsum("mi,ami->am", x[:, :3], grad[..., :3])
    # d|S| = sign(S) dS
    sign = np.where(value[1] < 0, -1.0, 1.0)
    value[1] = np.maximum(sign * value[1], 1e-12)
    grad[1] *= sign[:, None]
    return x, value, grad, sign


def _pair_values(pairs, axes):
    """(<A>, n1 . D n2) (2, ...) at unit pairs (..., 2, 3) of (n1, n2), for
    the axis blocks axes = (T, D) (2, 3, 3)."""
    return np.einsum("...i,aij,...j->a...", pairs[..., 0, :], axes, pairs[..., 1, :])


def _figures(pairs, axes):
    """The estimator variance v = (1 - <A>^2)/s^2 and the slope magnitude
    s = |n1 . D n2| at unit pairs (..., 2, 3)."""
    e, d = _pair_values(pairs, axes)
    s = np.maximum(np.abs(d), 1e-12)
    return (1.0 - e * e) / s ** 2, s


def _scalarized(blocks, weight):
    """v + weight/s as a ``sphere_newton`` objective over rows (n1, n2);
    weight = PENALTY_WEIGHT gives the penalized objective."""
    def fun(x, rows=None, derivatives=True):
        x, (e, s), grads, sign = _figure_jets(blocks, x)
        u = 1.0 - e * e
        value = u / s ** 2 + weight / s
        if not derivatives:
            return value
        # first and second partial derivatives in (<A>, s)
        first = np.array([-2 * e, -(2 * u / s + weight)]) / s ** 2
        second = np.array([[-2 * s, 4 * e], [4 * e, 6 * u / s + 2 * weight]]) / s ** 3
        r = first[0] * e + first[1] * s
        jac = grads.transpose(1, 0, 2)
        # with the spheres' curvature term -r I
        hess = (first[0][:, None, None] * blocks[0] + (first[1] * sign)[:, None, None] * blocks[1]
                + jac.transpose(0, 2, 1) @ second.transpose(2, 0, 1) @ jac
                - r[:, None, None] * np.eye(6))
        return (value, first[0][:, None] * grads[0] + first[1][:, None] * grads[1] - r[:, None] * x,
                hess)
    return fun


def _family(axes, tau):
    """K(tau) = cos tau T + sin tau D (..., 3, 3) at the angles tau (...,)
    for the axis blocks axes = (T, D)."""
    tau = np.asarray(tau)[..., None, None]
    return np.cos(tau) * axes[0] + np.sin(tau) * axes[1]


def _singular_pairs(k):
    """The three singular pairs (n1, n2) of each matrix of k (..., 3, 3), as
    unit pairs (..., 3, 2, 3), the largest singular value first."""
    u, _, vt = np.linalg.svd(k)
    return np.stack([u.swapaxes(-1, -2), vt], axis=-2)


def _on_branch(pairs, last):
    """The index, among pairs (3, 2, 3), of the pair whose n1 overlaps most
    with that of the pair last (2, 3)."""
    return np.argmax(np.abs(pairs[:, 0] @ last[0]))


def _branch_push(axes, x, cap):
    """The largest slope whose estimator variance v stays within ``cap``,
    searched from the minimizer x (2, 3), and whether it converged.

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
    top = _singular_pairs(axes[1])
    top_variance = _figures(top, axes)[0]
    if top_variance[0] <= cap:
        return top[0], True
    e, d = _pair_values(x, axes)
    sigma = 1.0 if d >= 0 else -1.0
    # the bracket: the angles of the last pair under the cap and of the
    # first over it, in either order
    under = np.arctan2(-sigma * (2 * (1 - e * e) / abs(d) + PENALTY_WEIGHT), -2 * e)
    under_gap = _figures(x, axes)[0] - cap
    # the pairs of K(-sigma pi/2) = -sigma D are those of D
    over = -sigma * np.pi / 2
    over_gap = top_variance[_on_branch(top, x)] - cap
    if over_gap <= 0:
        return x, False
    # the first secant step is taken across the bracket, and later ones
    # from the last two angles
    (t0, g0), (t1, g1) = (over, over_gap), (under, under_gap)
    for _ in range(_ROOT_STEPS):
        tau = t1 - g1 * (t1 - t0) / (g1 - g0) if g1 != g0 else over
        if not min(under, over) < tau < max(under, over):
            tau = (under + over) / 2
        pairs = _singular_pairs(_family(axes, tau))
        pair = pairs[_on_branch(pairs, x)]
        gap = _figures(pair, axes)[0] - cap
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
    The objective is evaluated on the 192 singular pairs of K at the 64
    angles k pi/64, and a damped Newton run on the product of the two unit
    spheres (``sphere_newton``) starts from the best pair, the earlier pair
    on a tie; each step uses the exact tangent gradient and Hessian. The
    slope push (:func:`_branch_push`) is a root-find in tau along the
    family, which runs no Newton solver; it is accepted if it converged
    within the cap at a larger slope. No scipy solver runs. Each reported
    Bloch vector is signed so that the first of (n_z, -n_x, -n_y) beyond
    1e-12 is positive, and reported as polar angles with beta in [0, pi]
    and alpha in (-pi, pi]. The figures come from the same correlation
    matrices by the rules of :func:`sense`, which raise
    :class:`DerivativeVanishesError` on a zero slope.
    """
    corr = _correlations(weighted_graph_state(phi12), theta_star)
    blocks = _axis_blocks(corr)
    axes = blocks[:, :3, 3:]
    pairs = _singular_pairs(_family(axes, _SCAN_ANGLES)).reshape(-1, 2, 3)
    # np.argmin keeps the earlier pair on a tie
    start = pairs[np.argmin(_penalized(*_pair_values(pairs, axes)))]
    objective = _scalarized(blocks, PENALTY_WEIGHT)
    x, _, _ = sphere_newton(objective, start[None])
    value = objective(x, derivatives=False)
    if not np.isfinite(value[0]):
        raise SearchError(f"search diverged; objective {value[0]!r}")

    # push the slope as far as the variance tolerance allows
    x = x[0]
    variance, slope = _figures(x, axes)
    cap = variance + VARIANCE_TOLERANCE
    pushed, converged = _branch_push(axes, x, cap)
    pushed_variance, pushed_slope = _figures(pushed, axes)
    if converged and pushed_variance <= cap + 1e-9 and pushed_slope > slope:
        x = pushed

    obs = general_axis_observable(*_axis_angles(_signed(x[0])), *_axis_angles(_signed(x[1])))
    a, b = obs.coefficients
    return obs, _sensing_result(*(float(a @ m @ b) for m in corr))
