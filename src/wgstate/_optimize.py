"""The package's one Newton solver, and deferred access to
``scipy.optimize`` kept as tracer seams.

:func:`sphere_newton` minimizes over the unit sphere. Its one caller is
the tomography fit, on the sphere in R^16 (the general-axis search runs
no Newton solver). Its Newton step factors the bordered tangent system
P H P + (I - P) (:func:`bordered_hessian`), with P = I - x x^T, by
Cholesky and solves it. A row that is not positive definite there takes
the step from the eigenvalues of P H P by magnitude instead, and the
other rows of its batch keep their Cholesky steps.

No ``wgstate`` code calls a scipy solver. The five bindings
``measurement.minimize``, ``tomography.minimize``, ``metrology.minimize``,
``metrology.differential_evolution`` and ``stats.least_squares`` are
uncalled. They stay because ``bench/spans.py`` rebinds every name in its
``OPTIMIZERS`` list, and they go when the tracer stops rebinding module
names (ROADMAP item 5). A ``LazyOptimizer`` imports ``scipy.optimize``
only when called, so no command loads it.
"""

from __future__ import annotations

import importlib

import numpy as np

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


def tangent_projector(x):
    """I - x x^T at unit rows x (m, d): the projectors (m, d, d) onto
    their tangent spaces."""
    return np.eye(x.shape[1]) - x[:, :, None] * x[:, None, :]


def bordered_hessian(hess, proj):
    """P H P + (I - P) over leading axes: the Hessian on the tangent spaces,
    with the identity on the normal directions. It maps tangent vectors to
    tangent vectors, and it is positive definite where P H P is on the
    tangent spaces, so a solve with it is the tangent Newton step."""
    return proj @ hess @ proj + np.eye(proj.shape[-1]) - proj


def _bordered_step(grad, bordered):
    """-(P H P)^-1 g from a solve with the bordered system. Raises
    LinAlgError unless every row is positive definite: the Cholesky
    factorization is that test, and the step comes from one general
    solve, since numpy has no triangular solve to reuse the factor."""
    np.linalg.cholesky(bordered)
    return -np.linalg.solve(bordered, grad[..., None])[..., 0]


def _eigen_step(grad, hess, proj):
    """-V |L|^-1 V^T g for P H P = V L V^T, with the eigenvalues L taken by
    magnitude and floored at _EIGEN_FLOOR of the largest: a descent step
    where P H P is indefinite or singular."""
    lam, vecs = np.linalg.eigh(proj @ hess @ proj)
    lam = np.abs(lam)
    lam = np.maximum(lam, _EIGEN_FLOOR * lam.max(axis=1, keepdims=True))
    return -np.einsum("mij,mj->mi", vecs, np.einsum("mji,mj->mi", vecs, grad) / lam)


def _newton_step(grad, hess, proj):
    """The tangent Newton step of each row: :func:`_bordered_step` where
    every row is positive definite, and otherwise the solve with the
    bordered system for each row that its own Cholesky factorization finds
    positive definite, and :func:`_eigen_step` for the others. A row thus
    takes the step it takes alone, whatever the other rows of its batch.
    The bordered system is built once, for both paths."""
    bordered = bordered_hessian(hess, proj)
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
    step[~definite] = _eigen_step(grad[~definite], hess[~definite], proj[~definite])
    return step


def sphere_newton(fun, x):
    """Damped Newton minimization from each row of x (m, d), a point on
    the unit sphere in R^d.

    ``fun(rows, index, derivatives=True)`` takes points (m', d) and their
    row numbers ``index`` in x. It returns the values (m',) and, with
    ``derivatives``, the tangent gradients (m', d) and the Hessians
    (m', d, d) with the sphere's curvature term. The line search calls it
    without derivatives at points off the sphere, so it must read each
    row at unit norm.

    Each step solves P H P s = -g in the tangent space (P = I - x x^T
    projects out the normal x): by a Cholesky factorization of the
    bordered system P H P + (I - P) where a row is positive definite
    there, and otherwise with the eigenvalues of P H P taken by magnitude
    and floored (:func:`_newton_step`). It backtracks to the Armijo
    condition and retracts onto the sphere by normalizing (Absil, Mahony
    & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
    ch. 6). Every row stops on its own Newton decrement. Returns the
    final rows (m, d), which rows converged, and the final gradients of
    the rows that did not: those whose line search stalled, or that
    reached the iteration cap.
    """
    x = np.array(x, dtype=float)
    m, d = x.shape
    active = np.arange(m)
    converged = np.ones(m, dtype=bool)
    final_grad = np.empty((m, d))
    for _ in range(_NEWTON_MAX_ITER):
        xa = x[active]
        f, grad, hess = fun(xa, active)
        step = _newton_step(grad, hess, tangent_projector(xa))
        step -= np.einsum("mi,mi->m", step, xa)[:, None] * xa
        slope = np.einsum("mi,mi->m", grad, step)
        alpha = np.ones(len(active))
        last = -slope <= _DECREMENT_TOL * (1 + f)
        moved = last.copy()
        search = np.flatnonzero(~last)
        for _ in range(_MAX_HALVINGS):
            if not search.size:
                break
            trial = xa[search] + alpha[search, None] * step[search]
            trial_f = fun(trial, active[search], derivatives=False)
            ok = trial_f <= f[search] + _ARMIJO * alpha[search] * slope[search]
            moved[search[ok]] = True
            search = search[~ok]
            alpha[search] /= 2
        new = (xa + alpha[:, None] * step)[moved]
        x[active[moved]] = new / np.linalg.norm(new, axis=-1, keepdims=True)
        converged[active[~moved]] = False
        final_grad[active[~moved]] = grad[~moved]
        active = active[moved & ~last]
        if not active.size:
            break
    else:
        converged[active] = False
        final_grad[active] = fun(x[active], active)[1]
    return x, converged, final_grad[~converged]


class LazyOptimizer:
    """Stands in for ``scipy.optimize.<name>``: imports scipy.optimize on
    the first call and forwards every call to the function of that name."""

    __slots__ = ("__name__",)

    def __init__(self, name: str):
        self.__name__ = name

    def __call__(self, *args, **kwargs):
        optimize = importlib.import_module("scipy.optimize")
        return getattr(optimize, self.__name__)(*args, **kwargs)
