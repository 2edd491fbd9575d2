"""Sixteen-setting two-photon tomography with maximum-likelihood
reconstruction and Monte Carlo error bars.

A dataset is one (16, 4) array of counts: for each setting, the four
outcome pairs of both analyzer ports of both photons. Reconstruction
fits a Cholesky-parameterized density matrix rho(T) = T^dag T /
Tr(T^dag T), which is physical by construction, to all 64 outcome
counts under a Gaussian (default) or exact Poisson likelihood. A damped
Newton solver on the exact Hessian fits a whole stack of datasets at
once, so a Monte Carlo report fits the observed counts and every
resample in one solve, and reads their fidelities and concurrences from
one stacked call each; each fit takes the steps it takes alone
(:func:`_rows_times`). Each fit starts from the least-squares inversion
of its outcome ratios, projected onto the PSD cone. The photon-flux
normalization is estimated from the four rectilinear-basis settings,
whose outcomes partition unity.

The likelihood does not depend on the scale of its parameter row t, so
its gradient g and Hessian H satisfy H t = -g and g^T t = 0 at a unit
t, and :func:`sphere_newton` fits on the unit sphere in R^16. Each
Newton step solves the bordered system B = H + t g^T + g t^T + t t^T,
which equals P H P + t t^T for the tangent projector P = I - t t^T, by
Cholesky. A fit whose B is not positive definite takes the step from
the eigenvalues of P H P = B - t t^T by magnitude instead, and the
other fits of its stack keep their Cholesky steps.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .measurement import (_check_rate_and_duration, _poisson_counts, checked_counts,
                          checked_durations)
from .qmath import (PAULI_PRODUCTS, POLARIZATION_KETS, DensityMatrix, PureState2Q, as_density,
                    concurrence, fidelity, tensor)
from .stats import DegenerateDataError

# bench/spans.py's OPTIMIZERS rebinds this name and nothing calls it; ROADMAP item 5 deletes it
minimize = None

_RECTILINEAR_ROWS = slice(0, 4)   # V(x)V, V(x)H, H(x)H, H(x)V
_DIAG = np.diag_indices(4)
_LOWER = np.tril_indices(4, -1)   # (1,0), (2,0), (2,1), (3,0), (3,1), (3,2)


class ReconstructionError(RuntimeError):
    """Likelihood optimization failed to converge."""


@dataclass(frozen=True)
class TomographySetting:
    """One row of the 16-setting two-photon tomography plan."""

    label: str                       # e.g. "DxD"
    h1: float
    q1: float
    h2: float
    q2: float


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


# built once: the settings are frozen, and each call returns a new list of them
_SETTINGS = tuple(TomographySetting(f"{s1}x{s2}", *angles) for s1, s2, *angles in _TOMO_PLAN)


def tomography_settings() -> list[TomographySetting]:
    """The 16 projective settings used for two-photon state tomography."""
    return list(_SETTINGS)


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """Counts of the 16 settings, in the order of tomography_settings().

    ``counts`` is stored as a read-only (16, 4) int64 array, one row of
    outcome-pair counts (++, +-, -+, --) per setting, and ``durations`` as
    the 16 acquisition times in seconds; one value applies to all. A
    setting with counts needs a positive duration.
    """

    counts: np.ndarray
    durations: np.ndarray = 10.0

    def __post_init__(self):
        object.__setattr__(self, "counts", checked_counts(self.counts, (16, 4)))
        object.__setattr__(self, "durations", checked_durations(self.durations, (16,)))
        idle = np.flatnonzero((self.durations == 0) & (self.counts.sum(axis=1) > 0))
        if idle.size:
            label = tomography_settings()[idle[0]].label
            raise ValueError(f"setting {idle[0]} ({label}) has counts but a duration of 0")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """The point estimate ``rho`` and its figures, and the mean and the
    standard deviation of each figure over the Monte Carlo samples."""

    rho: DensityMatrix
    fidelity_to_target: float
    fidelity_stdev: float
    concurrence: float
    concurrence_stdev: float
    mc_samples: int
    point_fidelity: float
    point_concurrence: float


# (16, 4, 4) product kets of the outcome pairs (++, +-, -+, --) of each
# setting; "+" is the plan's state, transmitted, "-" its orthogonal one
_KETS = np.array([[tensor(POLARIZATION_KETS[k1], POLARIZATION_KETS[k2])
                   for k1 in (s1, _ORTHOGONAL[s1]) for k2 in (s2, _ORTHOGONAL[s2])]
                  for s1, s2, *_ in _TOMO_PLAN])
# row-vectorized projectors: row . M.ravel() = <v|M|v> = Tr(M |v><v|)
_PROJECTORS = np.einsum("ski,skj->skij", _KETS.conj(), _KETS).reshape(64, 16)
# two-qubit Pauli basis, and the least-squares map to its coefficients
# from the 64 outcome ratios
_PAULI_BASIS = PAULI_PRODUCTS.reshape(16, 4, 4) / 2
_LEAST_SQUARES = np.linalg.pinv((_PROJECTORS @ _PAULI_BASIS.reshape(16, 16).T).real)
_START_MIX = 0.03   # fraction of I/4 in the start of a fit


def simulate_tomography(state, rate: float, duration: float, seed: int = 0,
                        poisson: bool = False) -> TomographyDataset:
    """Counts for the 16 settings from a known state.

    Exact mode stores rate * duration * p rounded to integers; Poisson
    mode draws each outcome count with that mean, deterministically for
    a given seed.
    """
    _check_rate_and_duration(rate, duration)
    rho = as_density(state)
    probs = np.clip(np.real(np.einsum("ski,ij,skj->sk", _KETS.conj(), rho, _KETS)), 0, None)
    means = rate * duration * probs
    counts = _poisson_counts(means, rate, duration, seed) if poisson else np.rint(means)
    return TomographyDataset(counts, duration)


def _t_matrix(t: np.ndarray) -> np.ndarray:
    """Lower-triangular T of parameter vectors (..., 16): the real
    diagonal, then (real, imaginary) pairs in _LOWER order."""
    t_mat = np.zeros(t.shape[:-1] + (4, 4), dtype=complex)
    t_mat[..., _DIAG[0], _DIAG[1]] = t[..., :4]
    t_mat[..., _LOWER[0], _LOWER[1]] = t[..., 4::2] + 1j * t[..., 5::2]
    return t_mat


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    t_mat = _t_matrix(t)
    rho = np.swapaxes(t_mat.conj(), -1, -2) @ t_mat
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _cholesky_params(rho: np.ndarray) -> np.ndarray:
    """Unit parameter vectors of positive-definite matrices (m, 4, 4):
    T = J L^dag J for the Cholesky factor L of J rho J (J reverses the
    basis) is lower triangular with T^dag T = rho."""
    lower = np.linalg.cholesky(rho[:, ::-1, ::-1])
    t_mat = np.swapaxes(lower.conj(), -1, -2)[:, ::-1, ::-1]
    params = np.empty((len(rho), 16))
    params[:, :4] = t_mat[:, _DIAG[0], _DIAG[1]].real
    params[:, 4::2] = t_mat[:, _LOWER[0], _LOWER[1]].real
    params[:, 5::2] = t_mat[:, _LOWER[0], _LOWER[1]].imag
    return params / np.linalg.norm(params, axis=1, keepdims=True)


def _quadratic_forms() -> np.ndarray:
    """(64, 16, 16) real symmetric Q_k with Tr(Pi_k T^dag T) = t^T Q_k t
    over the 16 real parameters t (and Tr(T^dag T) = t^T t)."""
    basis = _t_matrix(np.eye(16))                      # T of each unit parameter
    gram = np.einsum("iba,jbc->ijac", basis.conj(), basis).reshape(16, 16, 16)
    q = np.einsum("kx,ijx->kij", _PROJECTORS, gram).real
    return (q + np.swapaxes(q, 1, 2)) / 2


_Q = _quadratic_forms()


def _rectilinear_flux(counts: np.ndarray) -> np.ndarray:
    """Photon flux of each dataset in a (m, 16, 4) stack, estimated from
    the rectilinear settings, whose outcomes partition unity."""
    return counts[:, _RECTILINEAR_ROWS].sum(axis=(1, 2)) / 4.0


# per-outcome likelihood phi(p) for the observed ratio r > 0 of an
# outcome: p, r -> (phi(p) - phi(r), phi'(p), phi''(p)). Both terms are
# written relative to the saturated fit p = r, which keeps them small
# and exact near the minimum.
def _gaussian_terms(p, r):
    return (p - r) ** 2 / (2 * p), (1 - (r / p) ** 2) / 2, r ** 2 / p ** 3


def _poisson_terms(p, r):
    delta = p - r
    return delta - r * np.log1p(delta / np.where(r > 0, r, 1.0)), 1 - r / p, r / p ** 2


# likelihood -> (terms, floor clamped onto the predicted probability of
# an outcome with counts)
_LIKELIHOODS = {"gaussian": (_gaussian_terms, 1e-9), "poisson": (_poisson_terms, 1e-12)}


def _rows_times(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """x @ matrix for rows x (m, n), a lone row paired with a copy of
    itself. numpy hands a lone row to BLAS as a matrix-vector product,
    which rounds differently from the matrix-matrix product of a stack,
    and over a fit to a rank-deficient optimum that difference grows to
    ~1e-10. Paired, a lone fit rounds as it does in a stack wherever BLAS
    rounds each row of a product alone: OpenBLAS's SkylakeX kernels do,
    its Haswell and Prescott kernels do not."""
    if len(x) == 1:
        return (np.concatenate([x, x]) @ matrix)[:1]
    return x @ matrix


class _Likelihood:
    """The negative log-likelihood of a stack of datasets (m, 16, 4) as a
    function of one real T-parameter row per dataset.

    With p_k = t^T Q_k t / s and s = t^T t, the objective is
    f = flux * sum_k phi(p_k, r_k) over the 64 outcomes k of the 16
    settings, for the observed ratios r_k = n_k / flux, so rescaling
    every count leaves the minimizer unchanged. The
    parameterization is the Cholesky T-matrix of James, Kwiat, Munro &
    White (PRA 64, 052312, 2001). Its derivatives are
    grad p_k = 2 (Q_k t - p_k t) / s and
    hess p_k = 2 (Q_k - p_k I) / s - 2 (grad p_k t^T + t grad p_k^T) / s.
    An outcome without counts contributes phi(p, 0) = p / 2 (Gaussian)
    or p (Poisson), smooth down to p = 0; only an outcome with counts
    needs the floor, below which its term is constant.

    A call returns f with the terms it was built from (t, s, Q_k t, p_k
    and the per-outcome terms, stacked by row), and :meth:`derivatives`
    forms the gradient and the Hessian of any rows of such terms, so a
    rejected trial point costs one evaluation and no derivative work.
    """

    # Q_k stacked, C-contiguous, for t -> (Q_k t)_k; flattened for sum_k w_k Q_k
    q_columns = np.ascontiguousarray(_Q.reshape(-1, 16).T)
    q_rows = _Q.reshape(64, 256)

    def __init__(self, counts: np.ndarray, likelihood: str):
        if likelihood not in _LIKELIHOODS:
            raise ValueError(f"unknown likelihood {likelihood!r}")
        self.phi, self.floor = _LIKELIHOODS[likelihood]
        self.flux = _rectilinear_flux(counts)
        if (self.flux <= 0).any():
            raise DegenerateDataError("rectilinear settings recorded no counts")
        self.ratios = counts.reshape(len(counts), 64) / self.flux[:, None]
        self.observed = self.ratios > 0

    def __call__(self, t: np.ndarray, rows: np.ndarray):
        """f at parameter rows t of the datasets ``rows``, and the terms
        from which :meth:`derivatives` forms the gradient and the Hessian."""
        flux, ratios, observed = self.flux[rows], self.ratios[rows], self.observed[rows]
        m = len(t)
        s = np.einsum("mi,mi->m", t, t)
        qt = _rows_times(t, self.q_columns).reshape(m, -1, 16)   # Q_k t
        p = np.einsum("mki,mi->mk", qt, t) / s[:, None]
        # an outcome without counts takes any positive stand-in, and its
        # term is linear in p with the slope phi'(., 0)
        clamped = observed & (p <= self.floor)
        value, d1, d2 = self.phi(np.where(observed, np.maximum(p, self.floor), 1.0), ratios)
        f = flux * np.where(observed, value, d1 * p).sum(axis=1)
        return f, (t, s, qt, p, flux, clamped, d1, d2)

    def derivatives(self, terms):
        """The gradient and the Hessian of the rows of ``terms``, each term
        stacked by row; its rows may come from several evaluations."""
        t, s, qt, p, flux, clamped, d1, d2 = terms
        m = len(t)
        # with u_k = Q_k t - p_k t, grad p_k = 2 u_k / s: the weights take
        # the factors 2/s and 4/s^2 of the gradient and of the Gauss-Newton
        # term, and a clamped outcome weighs nothing
        keep = np.where(clamped, 0.0, (2 * flux / s)[:, None])
        w1, w2 = keep * d1, keep * (2 / s)[:, None] * d2
        u = qt - p[..., None] * t[:, None, :]
        grad = np.einsum("mk,mki->mi", w1, u)
        # sum_k w1_k (Q_k - p_k I), the p_k I terms taken off a view of the diagonal
        b = _rows_times(w1, self.q_rows).reshape(m, 16, 16)
        np.einsum("mii->mi", b)[...] -= np.einsum("mk,mk->m", w1, p)[:, None]
        gt = grad[:, :, None] * t[:, None, :]
        hess = (np.swapaxes(u * w2[..., None], 1, 2) @ u
                + b - 2 * (gt + np.swapaxes(gt, 1, 2)) / s[:, None, None])
        return grad, hess


def _start(nll: _Likelihood) -> np.ndarray:
    """Unit T-parameter rows (m, 16) that start the fit of ``nll``: the
    least-squares inversion of its 64 outcome ratios, clipped to the PSD cone
    (Smolin, Gambetta & Smith, PRL 108, 070502, 2012), mixed with
    _START_MIX of I/4. The mixture keeps the start positive definite and
    off the p = 0 barrier of an observed outcome, where Newton steps only
    halve the objective. The clipped trace is at least the mean outcome
    sum of a setting, and the likelihood refuses data where that is zero."""
    coeffs = _rows_times(nll.ratios, _LEAST_SQUARES.T)
    vals, vecs = np.linalg.eigh(_rows_times(coeffs, _PAULI_BASIS.reshape(16, 16)).reshape(-1, 4, 4))
    rho = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return _cholesky_params((1 - _START_MIX) * rho + _START_MIX * np.eye(4) / 4)


_NEWTON_MAX_ITER = 200
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# Newton decrement g^T H^-1 g, relative to 1 + f, below which a row takes
# its last step in full and stops: there the decrease the line search
# would test is near the round-off of f (f >= 0 for every caller, so the
# relative scale is well defined), and Newton's quadratic convergence
# leaves an error of order the decrement squared
_DECREMENT_TOL = 1e-12
# relative floor on the eigenvalues of the projected Hessian
_EIGEN_FLOOR = 1e-12


def _bordered_step(grad, bordered):
    """-(P H P)^-1 g from a solve with the bordered system. Raises
    LinAlgError unless every row is positive definite: the Cholesky
    factorization is that test, and the step comes from one general
    solve, since numpy has no triangular solve to reuse the factor."""
    np.linalg.cholesky(bordered)
    return -np.linalg.solve(bordered, grad[..., None])[..., 0]


def _eigen_step(grad, projected):
    """-V |L|^-1 V^T g for P H P = V L V^T, with the eigenvalues L taken by
    magnitude and floored at _EIGEN_FLOOR of the largest: a descent step
    where P H P is indefinite or singular."""
    lam, vecs = np.linalg.eigh(projected)
    lam = np.abs(lam)
    lam = np.maximum(lam, _EIGEN_FLOOR * lam.max(axis=1, keepdims=True))
    return -np.einsum("mij,mj->mi", vecs, np.einsum("mji,mj->mi", vecs, grad) / lam)


def _newton_step(grad, hess, x):
    """The tangent Newton step of each unit row x: :func:`_bordered_step`
    where every row is positive definite, and otherwise the solve with the
    bordered system for each row that its own Cholesky factorization finds
    positive definite, and :func:`_eigen_step` for the others. A row thus
    takes the step it takes alone, whatever the other rows of its batch.

    The bordered system B = H + x v^T + v x^T with v = g + x / 2 is
    H + x g^T + g x^T + x x^T. Where H x = -g and g^T x = 0 it maps tangent
    vectors to tangent vectors and x to x, and it is positive definite
    where P H P = B - x x^T is on the tangent space, so a solve with it is
    the tangent Newton step."""
    xv = x[:, :, None] * (grad + x / 2)[:, None, :]
    bordered = hess + xv + np.swapaxes(xv, 1, 2)
    try:
        return _bordered_step(grad, bordered)
    except np.linalg.LinAlgError:
        pass
    definite = np.ones(len(grad), dtype=bool)
    for i, row in enumerate(bordered):
        try:
            np.linalg.cholesky(row)
        except np.linalg.LinAlgError:
            definite[i] = False
    step = np.empty_like(grad)
    step[definite] = -np.linalg.solve(bordered[definite], grad[definite, :, None])[..., 0]
    normal = x[~definite]
    step[~definite] = _eigen_step(grad[~definite], bordered[~definite]
                                  - normal[:, :, None] * normal[:, None, :])
    return step


def sphere_newton(fun, x):
    """Damped Newton minimization of a scale-invariant objective from each
    row of x (m, d), a point on the unit sphere in R^d.

    ``fun(rows, index)`` takes unit points (m', d) and their row numbers
    ``index`` in x. It returns the values (m',) and a tuple of terms:
    new arrays stacked by row, which the solver may overwrite row by row.
    ``fun.derivatives(terms)`` returns the Euclidean gradients (m', d) and
    Hessians (m', d, d) of the rows of ``terms``, assembled from the
    evaluations of one iteration: the full step's, with the rows that pass
    at a halving written over it.
    The objective must not depend on the scale of its argument, so that
    H x = -g and g^T x = 0 at unit x.

    Each trial point is the retracted step (x + alpha s) / |x + alpha s|,
    evaluated once; its value decides the Armijo test, halving alpha from
    1 until it passes. The full step is halving 0 of at most
    _MAX_HALVINGS, so a row that fails them all stalls. The gradient and
    the Hessian are formed only for the rows that pass, from the terms of
    their evaluation, in one call per iteration, and carry into the next
    Newton step: a rejected trial costs one value and no derivatives. Each
    step solves P H P s = -g in the tangent space (P = I - x x^T projects
    out the normal x) by :func:`_newton_step`. This is the Riemannian
    Newton method with the normalizing retraction (Absil, Mahony &
    Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 6).
    Every row stops on its own Newton decrement, taking its last step in
    full without evaluating it.

    The active rows are kept compacted: their points, values, steps,
    slopes, gradients and row numbers shrink together when a row stops on
    its decrement or stalls, and a row's result is written only when it
    leaves the loop. Returns the final rows (m, d), which rows converged,
    and the gradients at the last accepted points of the rows that did
    not: those whose line search stalled, or that reached the iteration
    cap.
    """
    points = np.array(x, dtype=float)
    m, d = points.shape
    final = np.empty_like(points)
    index = np.arange(m)   # the row numbers of the active points
    converged = np.ones(m, dtype=bool)
    final_grad = np.empty((m, d))
    f, terms = fun(points, index)
    grad, hess = fun.derivatives(terms)
    for _ in range(_NEWTON_MAX_ITER):
        step = _newton_step(grad, hess, points)
        step -= np.einsum("mi,mi->m", step, points)[:, None] * points
        slope = np.einsum("mi,mi->m", grad, step)
        last = -slope <= _DECREMENT_TOL * (1 + f)
        if last.any():
            new = points[last] + step[last]
            final[index[last]] = new / np.linalg.norm(new, axis=-1, keepdims=True)
            keep = ~last
            points, f, step, slope, grad, index = (
                a[keep] for a in (points, f, step, slope, grad, index))
        # the full step's evaluation holds the point, the value and the terms
        # of every row, and a row that passes at a halving writes its own
        pending = np.arange(len(f))   # the rows still searching
        alpha = 1.0
        for halving in range(_MAX_HALVINGS):
            if not pending.size:
                break
            trial = points[pending] + alpha * step[pending]
            trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
            trial_f, trial_terms = fun(trial, index[pending])
            ok = trial_f <= f[pending] + _ARMIJO * alpha * slope[pending]
            if not halving:
                new_points, f_new, terms = trial, trial_f, trial_terms
            else:
                for kept, fresh in zip((new_points, f_new, *terms),
                                       (trial, trial_f, *trial_terms)):
                    kept[pending[ok]] = fresh[ok]
            pending = pending[~ok]
            alpha /= 2
        if pending.size:
            stalled = index[pending]
            converged[stalled] = False
            final_grad[stalled] = grad[pending]
            final[stalled] = points[pending]
            if pending.size == len(f):
                break
            keep = np.ones(len(f), dtype=bool)
            keep[pending] = False
            new_points, f_new, index, *terms = (
                a[keep] for a in (new_points, f_new, index, *terms))
        elif not len(f):   # every row took its last step
            break
        points, f = new_points, f_new
        grad, hess = fun.derivatives(terms)
    else:
        converged[index] = False
        final_grad[index] = grad
        final[index] = points
    return final, converged, final_grad[~converged]



def _fit(counts: np.ndarray, likelihood: str) -> np.ndarray:
    """Unit T-parameter rows (m, 16) of the MLE of each dataset in a
    (m, 16, 4) count stack, each fit started by :func:`_start` from the
    least-squares inversion of its outcome ratios.

    The objective does not depend on the scale of t, so t^T g = 0 for its
    gradient g, and differentiating that gives H t = -g for its Hessian
    H. That is the premise of ``sphere_newton``'s bordered system, so the
    likelihood's Euclidean derivatives serve it unchanged, with no
    curvature term to add. Each trial point is evaluated once, and
    derivatives are formed only for the datasets whose step is taken. A
    dataset whose line search stalls, or that reaches the iteration cap,
    is accepted only if the gradient at its last accepted point is
    negligible on the scale of its flux.
    """
    nll = _Likelihood(counts, likelihood)
    t, converged, grad = sphere_newton(nll, _start(nll))
    _accept_unconverged(grad, nll.flux[~converged])
    return t


def _accept_unconverged(grad: np.ndarray, flux: np.ndarray) -> None:
    """Raise unless every gradient is negligible on the scale of its
    dataset's flux."""
    norms = np.linalg.norm(grad, axis=1)
    bad = norms > 1e-4 * np.maximum(flux, 1.0)
    if bad.any():
        raise ReconstructionError(
            f"likelihood optimization did not converge; final gradient norm "
            f"{norms[bad].max():.3e}")


def mle_reconstruct(data: TomographyDataset, likelihood: str = "gaussian") -> DensityMatrix:
    """Maximum-likelihood density matrix for a tomography dataset.

    The fit reads all four outcome-pair counts of every setting. The
    Gaussian likelihood weighs squared residuals by the expected counts;
    the Poisson option is the exact counting likelihood. A damped Newton
    solver minimizes it on the exact gradient and Hessian in the
    Cholesky parameters, starting from the least-squares inversion of
    the outcome ratios, clipped to the PSD cone and mixed with 3% of the
    maximally mixed state.
    """
    counts = data.counts
    if counts.sum() <= 0:
        raise DegenerateDataError("dataset contains no counts")
    return DensityMatrix(_rho_from_params(_fit(counts[None], likelihood))[0])


def monte_carlo_report(data: TomographyDataset, target: PureState2Q,
                       n: int = 100, seed: int = 0,
                       likelihood: str = "gaussian") -> ReconstructionReport:
    """Reconstruction with Poisson-resampled error bars.

    Each of the ``n`` samples redraws every recorded count from a
    Poisson law with the observed value as mean (sample streams are
    SeedSequence(seed) children in order). The observed counts and all
    samples are fitted together, each on all four outcome pairs of every
    setting as in :func:`mle_reconstruct`, and
    the fidelity-to-target and the concurrence of all n + 1 fits come
    from one stacked call each. The report carries the point estimate
    with its two figures, and the mean and standard deviation of each
    figure over the samples. A sample whose rectilinear settings drew no
    counts raises DegenerateDataError naming it.
    """
    if n < 2:
        raise ValueError("need at least two Monte Carlo samples")
    counts = data.counts
    if counts.sum() <= 0:
        raise DegenerateDataError("dataset contains no counts")
    # allocated before the n seeds are spawned, so an oversized n fails at once
    stack = np.empty((n + 1, 16, 4), dtype=np.int64)
    stack[0] = counts
    for row, seq in zip(stack[1:], np.random.SeedSequence(seed).spawn(n)):
        row[:] = np.random.default_rng(seq).poisson(counts)
    flux = _rectilinear_flux(stack)
    empty = np.flatnonzero(flux[1:] <= 0)
    if flux[0] > 0 and empty.size:
        raise DegenerateDataError(
            f"Monte Carlo resample {empty[0] + 1} of {n}: rectilinear settings "
            f"recorded no counts (the data's rectilinear settings recorded "
            f"{counts[_RECTILINEAR_ROWS].sum()})")
    rhos = _rho_from_params(_fit(stack, likelihood))
    fids, concs = fidelity(rhos, target), concurrence(rhos)
    return ReconstructionReport(
        rho=DensityMatrix(rhos[0]),
        fidelity_to_target=float(np.mean(fids[1:])),
        fidelity_stdev=float(np.std(fids[1:], ddof=1)),
        concurrence=float(np.mean(concs[1:])),
        concurrence_stdev=float(np.std(concs[1:], ddof=1)),
        mc_samples=n,
        point_fidelity=float(fids[0]),
        point_concurrence=float(concs[0]),
    )


CSV_FIELDS = ["setting_index", "projector_label", "h1", "q1", "h2", "q2",
              "counts", "duration"]


def dataset_csv(data: TomographyDataset) -> str:
    """A dataset as CSV text: the counts column packs ``n_pp;n_pm;n_mp;n_mm``,
    and a duration is the shortest text that reads back as the same float."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_FIELDS)
    for idx, (s, counts, duration) in enumerate(zip(tomography_settings(), data.counts,
                                                    data.durations)):
        writer.writerow([idx, s.label, f"{s.h1:g}", f"{s.q1:g}", f"{s.h2:g}", f"{s.q2:g}",
                         ";".join(map(str, counts)),
                         np.format_float_positional(duration, trim="-")])
    return text.getvalue()


def read_dataset_csv(path) -> TomographyDataset:
    """Read a dataset in the format of :func:`dataset_csv`. The first row
    is the header: it names every column of ``CSV_FIELDS``, in any order
    and beside any others (a name given twice is read from its last
    column). Each later row holds one setting in as many fields as the
    header has, in any order of settings; blank lines are skipped."""
    settings = tomography_settings()
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        column = {name: i for i, name in enumerate(header)}
        missing = set(CSV_FIELDS) - column.keys()
        if missing:
            raise ValueError(f"malformed dataset CSV: missing columns {sorted(missing)}")
        at_index, at_label, at_counts, at_duration = (
            column[name] for name in ("setting_index", "projector_label", "counts", "duration"))
        for fields in reader:
            if not fields:
                continue
            try:
                idx = int(fields[at_index])
                counts = [int(c) for c in fields[at_counts].split(";")]
                duration = float(fields[at_duration])
                malformed = len(fields) != len(header) or not 0 <= idx < 16 or len(counts) != 4
            except (IndexError, ValueError):
                malformed = True
            if malformed:
                raise ValueError(f"malformed dataset CSV row at line {reader.line_num}: {fields}")
            if idx in rows:
                raise ValueError(f"malformed dataset CSV: setting {idx} appears twice")
            if fields[at_label] != settings[idx].label:
                raise ValueError(
                    f"row {idx} label {fields[at_label]!r} does not match "
                    f"the standard plan ({settings[idx].label!r})")
            rows[idx] = counts, duration
    if len(rows) != 16:
        raise ValueError(f"malformed dataset CSV: found {len(rows)} of 16 settings")
    counts, durations = zip(*(rows[i] for i in range(16)))
    return TomographyDataset(counts, durations)
