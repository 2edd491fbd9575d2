"""The package's one Newton solver, and deferred access to
``scipy.optimize`` kept as tracer seams.

:func:`sphere_newton` minimizes over products of unit spheres: the
Cholesky parameters of tomography on one sphere in R^16, and the two
Bloch vectors of the general-axis search on two spheres in R^3.

No ``wgstate`` code calls a scipy solver. The five bindings
``measurement.minimize``, ``tomography.minimize``, ``metrology.minimize``,
``metrology.differential_evolution`` and ``stats.least_squares`` are
uncalled. They stay because ``bench/spans.py`` rebinds every name in its
``OPTIMIZERS`` list, and they go when the tracer stops rebinding module
names (ROADMAP item 3). A ``LazyOptimizer`` imports ``scipy.optimize``
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
    """I - blockdiag(x_i x_i^T) at rows x (m, k, d) on k unit spheres: the
    projectors (m, k d, k d) onto their tangent spaces."""
    m, k, d = x.shape
    flat = x.reshape(m, k * d)
    sphere = np.arange(k * d) // d
    return np.eye(k * d) - flat[:, :, None] * flat[:, None, :] * (sphere[:, None] == sphere)


def sphere_newton(fun, x):
    """Damped Newton minimization from each row of x (m, k, d), a point on
    the product of k unit spheres in R^d.

    ``fun(rows, index, derivatives=True)`` takes points flattened to
    (m', k d) and their row numbers ``index`` in x. It returns the values
    (m',) and, with ``derivatives``, the tangent gradients (m', k d) and
    the Hessians (m', k d, k d) with the spheres' curvature term. The line
    search calls it without derivatives at points off the spheres, so it
    must read each block of a row at unit norm.

    Each step solves in the tangent space with the eigenvalues of P H P
    (P projects out the normal x_i of every sphere) taken by magnitude and
    floored, backtracks to the Armijo condition and retracts onto the
    spheres by normalizing each block (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008, ch. 6). Every row
    stops on its own Newton decrement. Returns the final rows (m, k, d),
    which rows converged, and the final gradients of the rows that did
    not: those whose line search stalled, or that reached the iteration
    cap.
    """
    x = np.array(x, dtype=float)
    m, k, d = x.shape
    active = np.arange(m)
    converged = np.ones(m, dtype=bool)
    final_grad = np.empty((m, k * d))
    for _ in range(_NEWTON_MAX_ITER):
        xa = x[active]
        flat = xa.reshape(len(active), k * d)
        f, grad, hess = fun(flat, active)
        proj = tangent_projector(xa)
        lam, vecs = np.linalg.eigh(proj @ hess @ proj)
        lam = np.abs(lam)
        lam = np.maximum(lam, _EIGEN_FLOOR * lam.max(axis=1, keepdims=True))
        step = -np.einsum("mij,mj->mi", vecs, np.einsum("mji,mj->mi", vecs, grad) / lam)
        step -= (np.einsum("mkd,mkd->mk", step.reshape(xa.shape), xa)[..., None]
                 * xa).reshape(flat.shape)
        slope = np.einsum("mi,mi->m", grad, step)
        alpha = np.ones(len(active))
        last = -slope <= _DECREMENT_TOL * (1 + f)
        moved = last.copy()
        search = np.flatnonzero(~last)
        for _ in range(_MAX_HALVINGS):
            if not search.size:
                break
            trial = flat[search] + alpha[search, None] * step[search]
            trial_f = fun(trial, active[search], derivatives=False)
            ok = trial_f <= f[search] + _ARMIJO * alpha[search] * slope[search]
            moved[search[ok]] = True
            search = search[~ok]
            alpha[search] /= 2
        new = (flat + alpha[:, None] * step).reshape(xa.shape)[moved]
        x[active[moved]] = new / np.linalg.norm(new, axis=-1, keepdims=True)
        converged[active[~moved]] = False
        final_grad[active[~moved]] = grad[~moved]
        active = active[moved & ~last]
        if not active.size:
            break
    else:
        converged[active] = False
        final_grad[active] = fun(x[active].reshape(len(active), k * d), active)[1]
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
