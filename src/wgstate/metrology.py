"""Phase sensing with the weighted graph state: encoding, information bounds
and optimal-measurement searches.

The encoded phase enters through U(theta) = R_x(theta) (x) R_z(theta),
generated by H = (X (x) 1 + 1 (x) Z)/2. Estimator quality for an
observable A is summarized by the single-shot variance (DA)^2 and the
slope of <A> with respect to theta; their ratio (DA)^2 / |d<A>/dtheta|^2
is the phase variance of the method-of-moments estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._optimize import LazyOptimizer
from .measurement import Observable, general_axis_observable, pauli_observable
from .optics import canonical_phase, rotation_gate
from .qmath import I2, X, Y, Z, PureState2Q, as_density, tensor
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
class SensingConfig:
    """Operating point for a sensing run.

    ``theta_star`` is the phase around which the derivative is taken and
    ``h`` the two-point finite-difference shift (radians).
    """

    phi12: float
    theta_star: float = 0.0
    h: float = np.radians(5.0)

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("finite-difference shift h must be > 0")


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


def _encoded_density(state, theta: float) -> np.ndarray:
    u = encoding_unitary(theta)
    return u @ as_density(state) @ u.conj().T


def _signed_metrics(state, obs: Observable, cfg: SensingConfig,
                    mode: str = "analytic"):
    """(expectation, signed slope, single-shot variance) at theta_star."""
    a = obs.matrix()
    rho = _encoded_density(state, cfg.theta_star)
    exp_val = float(np.real(np.trace(a @ rho)))
    var = float(np.real(np.trace(a @ a @ rho)) - exp_val ** 2)
    if mode == "analytic":
        comm = 1j * (GENERATOR @ a - a @ GENERATOR)
        deriv = float(np.real(np.trace(comm @ rho)))
    elif mode == "finite_difference":
        e_plus = np.real(np.trace(a @ _encoded_density(state, cfg.theta_star + cfg.h)))
        e_minus = np.real(np.trace(a @ _encoded_density(state, cfg.theta_star - cfg.h)))
        deriv = float((e_plus - e_minus) / (2 * cfg.h))
    else:
        raise ValueError(f"unknown derivative mode {mode!r}")
    return exp_val, deriv, var


def sense(state, obs: Observable, cfg: SensingConfig,
          mode: str = "analytic",
          derivative_floor: float = DERIVATIVE_FLOOR) -> SensingResult:
    """Evaluate an observable's phase-estimation figures at the operating point.

    ``mode`` selects the exact slope (commutator with the generator) or
    the symmetric two-point finite difference with shift ``cfg.h``. A
    slope below ``derivative_floor`` raises
    :class:`DerivativeVanishesError` rather than returning an unusable
    number.
    """
    exp_val, deriv, var = _signed_metrics(state, obs, cfg, mode)
    if abs(deriv) < derivative_floor:
        raise DerivativeVanishesError(
            f"|d<A>/dtheta| = {abs(deriv):.3e} below floor {derivative_floor:g}")
    return SensingResult(
        expectation=exp_val,
        derivative_magnitude=abs(deriv),
        single_shot_variance=var,
        estimator_variance=var / deriv ** 2,
    )


_PAULI_ORDER = ("I", "X", "Y", "Z")


def pauli_search(phi12: float, cfg: SensingConfig | None = None,
                 tie_tolerance: float = 1e-6) -> tuple[Observable, SensingResult]:
    """Exhaustive search over the 16 Pauli products for the lowest phase variance.

    Candidates within ``tie_tolerance`` of the minimum variance are
    re-ranked deterministically: largest |slope| first, then positive
    slope, then smaller expectation, then enumeration order
    (I, X, Y, Z per factor).
    """
    cfg = cfg or SensingConfig(phi12=phi12)
    state = weighted_graph_state(phi12)
    entries = []
    for a1, a2 in product(_PAULI_ORDER, repeat=2):
        obs = pauli_observable(a1, a2)
        exp_val, deriv, var = _signed_metrics(state, obs, cfg)
        est = var / deriv ** 2 if abs(deriv) >= DERIVATIVE_FLOOR else np.inf
        entries.append((obs, exp_val, deriv, var, est))
    best_var = min(e[4] for e in entries)
    if not np.isfinite(best_var):
        raise SearchError("every Pauli product has vanishing slope")
    ties = [e for e in entries if e[4] <= best_var + tie_tolerance]
    # keys rounded well below tie_tolerance so float noise cannot reorder
    obs, exp_val, deriv, var, est = min(
        ties, key=lambda e: (-round(abs(e[2]), 9), -round(e[2], 9), round(e[1], 9)))
    return obs, SensingResult(expectation=exp_val,
                              derivative_magnitude=abs(deriv),
                              single_shot_variance=var,
                              estimator_variance=est)


# the search minimizes var/s^2 + PENALTY_WEIGHT/|s|, then spends up to
# VARIANCE_TOLERANCE of estimator variance on a larger slope
PENALTY_WEIGHT = 0.02
VARIANCE_TOLERANCE = 1e-4

# start grid: polar angles at the midpoints (i + 1/2) pi/12 of the upper
# hemisphere, which skips the pole and the mirrored -n copies of each axis
# (A(pi - beta, alpha + pi) = -A(beta, alpha)), times 12 azimuths
_GRID_BETA, _GRID_ALPHA = (g.ravel() for g in np.meshgrid(
    (np.arange(6) + 0.5) * np.pi / 12, np.arange(12) * np.pi / 6 - np.pi,
    indexing="ij"))


def _canonical_axis(beta: float, alpha: float) -> tuple[float, float]:
    """The same axis with beta in [0, pi] and alpha in (-pi, pi]; an angle
    on the +-pi cut is reported as +pi (``optics.canonical_phase``)."""
    beta = canonical_phase(beta)
    if beta < 0:
        beta, alpha = -beta, alpha + np.pi
    return beta, canonical_phase(alpha)


def _bloch(beta, alpha):
    """Unit vector n = (sin b cos a, sin b sin a, cos b) and its partial
    derivatives, stacked as n, n_b, n_a, n_bb, n_ba, n_aa: shape (6, 3, ...)."""
    sb, cb, sa, ca = np.sin(beta), np.cos(beta), np.sin(alpha), np.cos(alpha)
    zero = np.zeros_like(sb)
    return np.array([[sb * ca, sb * sa, cb],
                     [cb * ca, cb * sa, -sb],
                     [-sb * sa, sb * ca, zero],
                     [-sb * ca, -sb * sa, -cb],
                     [-cb * sa, cb * ca, zero],
                     [-sb * ca, -sb * sa, zero]])


def _axis_correlations(phi12: float, theta_star: float):
    """3 x 3 matrices C and D with <A> = n1 . C n2 and d<A>/dtheta = n1 . D n2
    for the product observable A = (n1 . sigma) (x) (n2 . sigma)."""
    psi = encoding_unitary(theta_star) @ weighted_graph_state(phi12).amplitudes
    # at theta_star the slope is the commutator expectation in the
    # encoded state: d<A>/dtheta = -2 Im <H psi | A psi>
    hpsi = (GENERATOR @ psi).reshape(2, 2)
    psi = psi.reshape(2, 2)
    sigma = np.array([X, Y, Z])
    # (sigma_i (x) sigma_j) psi for every pair (i, j)
    apsi = np.einsum("iab,bd,jcd->ijac", sigma, psi, sigma)
    corr = np.real(np.einsum("ac,ijac->ij", psi.conj(), apsi))
    slope = -2 * np.imag(np.einsum("ac,ijac->ij", hpsi.conj(), apsi))
    return corr, slope


def _penalized(exp_val, deriv):
    """var/s^2 + PENALTY_WEIGHT/|s| with var = 1 - <A>^2; elementwise."""
    slope = np.maximum(np.abs(deriv), 1e-12)
    return (1.0 - exp_val ** 2) / slope ** 2 + PENALTY_WEIGHT / slope


# the rows of the _bloch stacks of axis 1 and axis 2 whose product
# n1' . M n2' is each gradient and Hessian entry of n1 . M n2 over
# (beta1, alpha1, beta2, alpha2)
_GRAD_ROWS = np.array([1, 2, 0, 0]), np.array([0, 0, 1, 2])
_HESS_ROWS = (np.array([[3, 4, 1, 1], [4, 5, 2, 2], [1, 2, 0, 0], [1, 2, 0, 0]]),
              np.array([[0, 0, 1, 2], [0, 0, 1, 2], [1, 1, 3, 4], [2, 2, 4, 5]]))


def _figure_jets(matrices, params):
    """<A> = n1 . C n2 and s = |d<A>/dtheta| = |n1 . D n2| for
    matrices = (C, D), at each row (beta1, alpha1, beta2, alpha2) of
    params: values (2, m), gradients (2, m, 4) and Hessians (2, m, 4, 4)."""
    jet = _bloch(params[:, 0::2], params[:, 1::2]).transpose(3, 2, 0, 1)
    # every product n1' . M n2' of a derivative of n1 with one of n2
    products = jet[0] @ matrices[:, None] @ jet[1].transpose(0, 2, 1)
    value = products[..., 0, 0]
    grad = products[..., _GRAD_ROWS[0], _GRAD_ROWS[1]]
    hess = products[..., _HESS_ROWS[0], _HESS_ROWS[1]]
    # d|S| = sign(S) dS
    sign = np.where(value[1] < 0, -1.0, 1.0)
    value[1] = np.maximum(sign * value[1], 1e-12)
    grad[1] *= sign[:, None]
    hess[1] *= sign[:, None, None]
    return value, grad, hess


def _figures(matrices, params):
    """The estimator variance v = (1 - <A>^2)/s^2, its gradient, the slope
    magnitude s and its gradient at each row of four angles."""
    (e, s), grad, _ = _figure_jets(matrices, params)
    v = (1.0 - e * e) / s ** 2
    v_grad = -2 * (e[:, None] * grad[0] + (v * s)[:, None] * grad[1]) / (s ** 2)[:, None]
    return v, v_grad, s, grad[1]


def _scalarized(matrices, weight):
    """v + weight/s over rows of four angles, returning (values, gradients,
    Hessians); weight = PENALTY_WEIGHT gives the penalized objective."""
    def fun(params):
        (e, s), grads, hessians = _figure_jets(matrices, params)
        u = 1.0 - e * e
        # first and second partial derivatives in (<A>, s)
        first = np.array([-2 * e, -(2 * u / s + weight)]) / s ** 2
        second = np.array([[-2 * s, 4 * e], [4 * e, 6 * u / s + 2 * weight]]) / s ** 3
        jac = grads.transpose(1, 0, 2)
        return (u / s ** 2 + weight / s,
                first[0][:, None] * grads[0] + first[1][:, None] * grads[1],
                first[0][:, None, None] * hessians[0] + first[1][:, None, None] * hessians[1]
                + jac.transpose(0, 2, 1) @ second.transpose(2, 0, 1) @ jac)
    return fun


# Newton steps solve with |H|: the Hessian's eigenvalues by magnitude,
# raised to at least _EIGEN_FLOOR times the largest
_EIGEN_FLOOR = 1e-8
_NEWTON_ITERATIONS = 50
# a Newton decrement g . |H|^-1 g (about twice the distance to the
# minimum) below this, relative to the value, is converged
_DECREMENT_TOL = 1e-20
_ARMIJO = 1e-4
_EPS = np.finfo(float).eps


def _newton(fun, x):
    """Damped Newton minimization of ``fun`` from each row of x (m, n);
    fun maps rows to (values (m,), gradients (m, n), Hessians (m, n, n)).

    Each step is -|H|^-1 g, which descends wherever g is non-zero, and is
    halved until it meets the Armijo condition (Nocedal & Wright,
    Numerical Optimization, 2nd ed., ch. 3). Every row stops on its own
    Newton decrement g . |H|^-1 g, or when the decrease its step could
    still give is below the round-off of its value. Returns the final
    rows, their values, the eigenvalues and eigenvectors of |H| at each,
    and which rows converged.
    """
    x = np.array(x, dtype=float)
    value, grad, hess = fun(x)
    moving = np.ones(len(x), dtype=bool)
    for _ in range(_NEWTON_ITERATIONS):
        lam, vec = np.linalg.eigh(hess)
        lam = np.abs(lam)
        lam = np.maximum(lam, _EIGEN_FLOOR * lam.max(axis=1, keepdims=True))
        step = -np.einsum("kij,kj->ki", vec, np.einsum("kji,kj->ki", vec, grad) / lam)
        decrement = -np.einsum("ki,ki->k", grad, step)
        scale = np.maximum(np.abs(value), 1.0)
        moving &= decrement > _DECREMENT_TOL * scale
        if not moving.any():
            break
        t = moving.astype(float)
        searching = moving.copy()
        while searching.any():
            trial = x + t[:, None] * step
            t_value, t_grad, t_hess = fun(trial)
            # the Armijo condition, less the round-off of the value
            ok = searching & (t_value <= value - _ARMIJO * t * decrement + 4 * _EPS * scale)
            x[ok], value[ok], grad[ok], hess[ok] = trial[ok], t_value[ok], t_grad[ok], t_hess[ok]
            searching &= ~ok
            t[searching] /= 2
            stalled = searching & (t * decrement <= _EPS * scale)
            moving &= ~stalled
            searching &= ~stalled
    return x, value, (lam, vec), decrement <= _DECREMENT_TOL * scale


_PUSH_STEPS = 60
# the push ends when the minimizer's variance is this close to the cap, or
# when the bracket on log w is this narrow
_PUSH_TOL = 1e-10
_BRACKET_TOL = 1e-12
# log w grows by at most _WEIGHT_STRIDE per step while no w above the cap
# is known
_WEIGHT_STRIDE = 3.0


def _polar_angles(n):
    """(beta, alpha) of a unit vector."""
    return np.arctan2(np.hypot(n[0], n[1]), n[2]), np.arctan2(n[1], n[0])


def _push_slope(matrices, x, eig, cap):
    """The largest slope whose estimator variance v stays within ``cap``,
    searched from the one-row minimizer x, and whether it converged.

    The largest slope of all, the top singular value of D at its
    singular vectors, is taken if its variance is within the cap.
    Otherwise v + w/s is minimized with w chosen so that the minimizer's
    variance reaches the cap. w is found by Newton steps on log w, kept
    inside a bracket and bisected when a step leaves it. The derivative
    dv/dw = grad v . H^-1 grad s / s^2 comes from the Hessian factored at
    the minimizer (implicit differentiation of its stationarity
    condition). Returns the minimizer at the cap, or else that of the
    largest w whose variance stays under it.
    """
    u, _, vt = np.linalg.svd(matrices[1])
    top = np.array([[*_polar_angles(u[:, 0]), *_polar_angles(vt[0])]])
    if _figures(matrices, top)[0][0] <= cap:
        return top, True
    log_w, low, high = np.log(PENALTY_WEIGHT), -np.inf, np.inf
    converged = True
    best = x, converged
    for _ in range(_PUSH_STEPS):
        v, v_g, s, s_g = (q[0] for q in _figures(matrices, x))
        gap = v - cap
        if abs(gap) <= _PUSH_TOL:
            return x, converged
        if gap < 0:
            low, best = log_w, (x, converged)
        else:
            high = log_w
        if high - low <= _BRACKET_TOL:
            return best
        lam, vec = eig[0][0], eig[1][0]
        dv = np.exp(log_w) * ((v_g @ vec) / lam) @ (vec.T @ s_g) / s ** 2
        step = log_w - gap / dv if dv > 0 else np.nan
        if np.isinf(high):
            log_w = min(step if step > low else np.inf, low + _WEIGHT_STRIDE)
        else:
            log_w = step if low < step < high else (low + high) / 2
        x, _, eig, (converged,) = _newton(_scalarized(matrices, np.exp(log_w)), x)
    return best


# Newton starts from the best _STARTS grid pairs: the best pair's basin
# can hold a worse local minimum (at phi12 = 3.03, theta* = 0 the two best
# pairs end on the beta1 = 0 pole, 2.9e-5 above the third)
_STARTS = 4


def general_axis_search(phi12: float, cfg: SensingConfig | None = None
                        ) -> tuple[Observable, SensingResult]:
    """Deterministic search over local general-axis products.

    The contract: minimize the penalized objective (estimator variance
    plus ``PENALTY_WEIGHT / |slope|``) over the four Bloch angles, then
    take the largest slope whose estimator variance stays within
    ``VARIANCE_TOLERANCE`` of that minimum. The objective is evaluated on
    a fixed 72 x 72 grid of axis pairs. One batched damped Newton run
    starts from the four best pairs, and the lowest minimum wins, the
    earlier pair on a tie. The slope push takes the top singular value of
    D if its variance is within the cap; otherwise it minimizes
    v + w/|slope| from the minimum, with the weight w raised until the
    minimizer's estimator variance v reaches the cap. The push is
    accepted if it converged within the cap at a larger slope. Every
    Newton step uses the exact gradient and Hessian of <A> = n1 . C n2
    and d<A>/dtheta = n1 . D n2, built from the second derivatives of
    the Bloch vectors; no scipy solver runs. The angles are reported
    with beta in [0, pi] and alpha in (-pi, pi].
    """
    cfg = cfg or SensingConfig(phi12=phi12)
    matrices = np.array(_axis_correlations(phi12, cfg.theta_star))

    n = _bloch(_GRID_BETA, _GRID_ALPHA)[0]
    grid = _penalized(n.T @ matrices[0] @ n, n.T @ matrices[1] @ n)
    # the _STARTS best pairs, the earlier pair first on a tie
    flat = grid.ravel()
    near = np.flatnonzero(flat <= np.partition(flat, _STARTS - 1)[_STARTS - 1])
    i, j = np.unravel_index(near[np.argsort(flat[near], kind="stable")][:_STARTS], grid.shape)
    starts = np.stack([_GRID_BETA[i], _GRID_ALPHA[i], _GRID_BETA[j], _GRID_ALPHA[j]], axis=1)
    ends, value, (lam, vec), _ = _newton(_scalarized(matrices, PENALTY_WEIGHT), starts)
    if not np.isfinite(value).any():
        raise SearchError(f"search diverged; objectives {value!r}")
    k = np.flatnonzero(value <= np.nanmin(value) * (1 + 1e-12))[0]
    x = ends[k:k + 1]

    # push the slope as far as the variance tolerance allows
    variance, _, slope, _ = _figures(matrices, x)
    cap = variance[0] + VARIANCE_TOLERANCE
    pushed, converged = _push_slope(matrices, x, (lam[k:k + 1], vec[k:k + 1]), cap)
    pushed_variance, _, pushed_slope, _ = _figures(matrices, pushed)
    if converged and pushed_variance[0] <= cap + 1e-9 and pushed_slope[0] > slope[0]:
        x = pushed

    x = x[0]
    angles = (*_canonical_axis(x[0], x[1]), *_canonical_axis(x[2], x[3]))
    (exp_val, slope), _, _ = _figure_jets(matrices, np.array([angles]))
    exp_val, slope = float(exp_val[0]), float(slope[0])
    if slope < DERIVATIVE_FLOOR:
        raise SearchError("search converged to a zero-slope observable")
    var = 1.0 - exp_val ** 2
    result = SensingResult(expectation=exp_val,
                           derivative_magnitude=slope,
                           single_shot_variance=var,
                           estimator_variance=var / slope ** 2)
    return general_axis_observable(*angles), result
