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
``stats.bootstrap_sensing``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optimize import LazyOptimizer, bordered_hessian, sphere_newton, tangent_projector
from .measurement import (Observable, _axis_angles, _unit_vector, general_axis_observable,
                          pauli_observable)
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


# start grid: Bloch vectors at the polar angles (i + 1/2) pi/12 of the
# upper hemisphere, which skips the pole and the mirrored -n copies of each
# axis (A(-n1, n2) = -A(n1, n2)), times 12 azimuths
_GRID = _unit_vector(*np.meshgrid((np.arange(6) + 0.5) * np.pi / 12,
                                  np.arange(12) * np.pi / 6 - np.pi, indexing="ij")).reshape(72, 3)


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


def _figures(blocks, x):
    """The estimator variance v = (1 - <A>^2)/s^2, its tangent gradient,
    the slope magnitude s and its tangent gradient at each row of x.

    The gradient B x of n1 . M n2 has the part (n1 . M n2) n_i along each
    vector n_i, so that of a function f(<A>, s) is r x, with
    r = f_<A> <A> + f_s s; the tangent gradient is its gradient less r x.
    """
    x, (e, s), grad, _ = _figure_jets(blocks, x)
    v = (1.0 - e * e) / s ** 2
    v_e, v_s = -2 * e / s ** 2, -2 * v / s
    v_grad = v_e[:, None] * grad[0] + v_s[:, None] * grad[1] - (v_e * e + v_s * s)[:, None] * x
    return v, v_grad, s, grad[1] - s[:, None] * x


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


_PUSH_STEPS = 60
# the push ends when the minimizer's variance is this close to the cap, or
# when the bracket on log w is this narrow
_PUSH_TOL = 1e-10
_BRACKET_TOL = 1e-12
# log w grows by at most _WEIGHT_STRIDE per step while no w above the cap
# is known
_WEIGHT_STRIDE = 3.0


def _push_slope(blocks, x, cap):
    """The largest slope whose estimator variance v stays within ``cap``,
    searched from the minimizer x (1, 2, 3), and whether it converged.

    The largest slope of all, the top singular value of D at its
    singular vectors, is taken if its variance is within the cap.
    Otherwise v + w/s is minimized with w chosen so that the minimizer's
    variance reaches the cap. w is found by Newton steps on log w, kept
    inside a bracket and bisected when a step leaves it. The derivative
    dv/dw = grad v . H^-1 grad s / s^2 comes from the projected Hessian
    P H P and the tangent gradients at the minimizer (implicit
    differentiation of its stationarity condition on the spheres).
    Returns the minimizer at the cap, or else that of the largest w whose
    variance stays under it.
    """
    u, _, vt = np.linalg.svd(blocks[1, :3, 3:])
    top = np.stack([u[:, 0], vt[0]])[None]
    if _figures(blocks, top)[0][0] <= cap:
        return top, True
    log_w, low, high = np.log(PENALTY_WEIGHT), -np.inf, np.inf
    converged = True
    best = x, converged
    for _ in range(_PUSH_STEPS):
        v, v_g, s, s_g = (q[0] for q in _figures(blocks, x))
        gap = v - cap
        if abs(gap) <= _PUSH_TOL:
            return x, converged
        if gap < 0:
            low, best = log_w, (x, converged)
        else:
            high = log_w
        if high - low <= _BRACKET_TOL:
            return best
        weight = np.exp(log_w)
        hess = bordered_hessian(_scalarized(blocks, weight)(x)[2][0], tangent_projector(x)[0])
        dv = weight * v_g @ np.linalg.solve(hess, s_g) / s ** 2
        step = log_w - gap / dv if dv > 0 else np.nan
        if np.isinf(high):
            log_w = min(step if step > low else np.inf, low + _WEIGHT_STRIDE)
        else:
            log_w = step if low < step < high else (low + high) / 2
        x, (converged,), _ = sphere_newton(_scalarized(blocks, np.exp(log_w)), x)
    return best


def general_axis_search(phi12: float, theta_star: float = 0.0
                        ) -> tuple[Observable, SensingResult]:
    """Deterministic search over local general-axis products.

    The contract: minimize the penalized objective (estimator variance
    plus ``PENALTY_WEIGHT / |slope|``) over the two Bloch vectors n1 and
    n2, then take the largest slope whose estimator variance stays within
    ``VARIANCE_TOLERANCE`` of that minimum. The objective is evaluated on
    a fixed 72 x 72 grid of axis pairs, and a damped Newton run on the
    product of the two unit spheres (``sphere_newton``) starts from the
    best pair, the earlier pair on a tie. The slope push takes the top
    singular value of D if its variance is within the cap; otherwise it
    minimizes v + w/|slope| from the minimum, with the weight w raised
    until the minimizer's estimator variance v reaches the cap. The push
    is accepted if it converged within the cap at a larger slope. Every
    Newton step uses the exact tangent gradient and Hessian of
    <A> = n1 . T n2 and d<A>/dtheta = n1 . D n2 on the axis blocks of the
    correlation matrices, which are bilinear, so their Hessians are
    constant; no scipy solver runs. The axes are reported as polar angles
    with beta in [0, pi] and alpha in (-pi, pi], and their figures come
    from the same correlation matrices by the rules of :func:`sense`,
    which raise :class:`DerivativeVanishesError` on a zero slope.
    """
    corr = _correlations(weighted_graph_state(phi12), theta_star)
    blocks = _axis_blocks(corr)
    correlation, slope = blocks[:, :3, 3:]
    grid = _penalized(_GRID @ correlation @ _GRID.T, _GRID @ slope @ _GRID.T)
    # np.argmin keeps the earlier pair on a tie
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    objective = _scalarized(blocks, PENALTY_WEIGHT)
    x, _, _ = sphere_newton(objective, np.stack([_GRID[i], _GRID[j]])[None])
    value = objective(x, derivatives=False)
    if not np.isfinite(value[0]):
        raise SearchError(f"search diverged; objective {value[0]!r}")

    # push the slope as far as the variance tolerance allows
    variance, _, slope, _ = _figures(blocks, x)
    cap = variance[0] + VARIANCE_TOLERANCE
    pushed, converged = _push_slope(blocks, x, cap)
    pushed_variance, _, pushed_slope, _ = _figures(blocks, pushed)
    if converged and pushed_variance[0] <= cap + 1e-9 and pushed_slope[0] > slope[0]:
        x = pushed

    obs = general_axis_observable(*_axis_angles(x[0, 0]), *_axis_angles(x[0, 1]))
    a, b = obs.coefficients
    return obs, _sensing_result(*(float(a @ m @ b) for m in corr))
