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
    derivatives dn/dbeta and dn/dalpha, component index first."""
    sb, cb, sa, ca = np.sin(beta), np.cos(beta), np.sin(alpha), np.cos(alpha)
    return (np.array([sb * ca, sb * sa, cb]),
            np.array([cb * ca, cb * sa, -sb]),
            np.array([-sb * sa, sb * ca, np.zeros_like(sb)]))


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


def general_axis_search(phi12: float, cfg: SensingConfig | None = None
                        ) -> tuple[Observable, SensingResult]:
    """Deterministic search over local general-axis products.

    The contract: minimize the penalized objective (estimator variance
    plus ``PENALTY_WEIGHT / |slope|``) over the four Bloch angles, then
    take the largest slope whose estimator variance stays within
    ``VARIANCE_TOLERANCE`` of that minimum. The objective is evaluated on
    a fixed 72 x 72 grid of axis pairs; one unbounded L-BFGS-B run starts
    from the best pair, and an unbounded SLSQP step pushes the slope
    under the variance cap. Both solvers get the exact gradients of
    <A> = n1 . C n2 and d<A>/dtheta = n1 . D n2. The angles are reported
    with beta in [0, pi] and alpha in (-pi, pi].
    """
    from scipy.optimize import NonlinearConstraint

    cfg = cfg or SensingConfig(phi12=phi12)
    corr, slope_matrix = _axis_correlations(phi12, cfg.theta_star)

    def jet(params):
        """(<A>, its gradient, d<A>/dtheta, its gradient) over the four angles."""
        n1, *dn1 = _bloch(params[0], params[1])
        n2, *dn2 = _bloch(params[2], params[3])

        def bilinear(m):
            m_n2, n1_m = m @ n2, n1 @ m
            return float(n1 @ m_n2), np.array([dn1[0] @ m_n2, dn1[1] @ m_n2,
                                               n1_m @ dn2[0], n1_m @ dn2[1]])

        return (*bilinear(corr), *bilinear(slope_matrix))

    def objective(params):
        exp_val, exp_grad, deriv, deriv_grad = jet(params)
        slope = max(abs(deriv), 1e-12)
        # d|S| = sign(S) dS
        grad = (-2 * exp_val * exp_grad - (2 * (1.0 - exp_val ** 2) / slope + PENALTY_WEIGHT)
                * np.sign(deriv) * deriv_grad) / slope ** 2
        return float(_penalized(exp_val, deriv)), grad

    def est_var(params):
        exp_val, _, deriv, _ = jet(params)
        return (1.0 - exp_val ** 2) / max(deriv ** 2, 1e-300)

    def est_var_grad(params):
        exp_val, exp_grad, deriv, deriv_grad = jet(params)
        sq = max(deriv ** 2, 1e-300)
        return -2 * (exp_val * exp_grad + (1.0 - exp_val ** 2) * deriv / sq * deriv_grad) / sq

    def neg_abs_slope(params):
        _, _, deriv, deriv_grad = jet(params)
        return -abs(deriv), -np.sign(deriv) * deriv_grad

    n = _bloch(_GRID_BETA, _GRID_ALPHA)[0]
    grid = _penalized(n.T @ corr @ n, n.T @ slope_matrix @ n)
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    start = np.array([_GRID_BETA[i], _GRID_ALPHA[i], _GRID_BETA[j], _GRID_ALPHA[j]])
    res = minimize(objective, start, jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 1000})
    if not np.isfinite(res.fun):
        raise SearchError(f"search diverged; best objective {res.fun!r}")
    x = res.x

    # push the slope as far as the variance tolerance allows
    cap = est_var(x) + VARIANCE_TOLERANCE
    slope_ref = minimize(
        neg_abs_slope, x, jac=True, method="SLSQP",
        constraints=[NonlinearConstraint(est_var, -np.inf, cap, jac=est_var_grad)],
        options={"maxiter": 200, "ftol": 1e-12})
    if (slope_ref.success and est_var(slope_ref.x) <= cap + 1e-9
            and -slope_ref.fun > abs(jet(x)[2])):
        x = slope_ref.x

    angles = (*_canonical_axis(x[0], x[1]), *_canonical_axis(x[2], x[3]))
    exp_val, _, deriv, _ = jet(angles)
    if abs(deriv) < DERIVATIVE_FLOOR:
        raise SearchError("search converged to a zero-slope observable")
    var = 1.0 - exp_val ** 2
    result = SensingResult(expectation=exp_val,
                           derivative_magnitude=abs(deriv),
                           single_shot_variance=var,
                           estimator_variance=var / deriv ** 2)
    return general_axis_observable(*angles), result
