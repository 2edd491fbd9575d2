"""The package's one Newton solver, and deferred access to
``scipy.optimize`` kept as tracer seams.

:func:`sphere_newton` minimizes a scale-invariant objective over the
unit sphere. Its one caller is the tomography fit, on the sphere in
R^16 (the general-axis search runs no Newton solver). Scale invariance
gives H x = -g and g^T x = 0 at a unit point x, so the Newton step
solves the bordered system B = H + x g^T + g x^T + x x^T, which equals
P H P + x x^T for the tangent projector P = I - x x^T, by Cholesky. A
row that is not positive definite there takes the step from the
eigenvalues of P H P = B - x x^T by magnitude instead, and the other
rows of its batch keep their Cholesky steps. The objective is evaluated
once at each trial point, and its gradient and Hessian are formed only
at the points where a step is taken.

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
    1 until it passes. The gradient and the Hessian are formed only for
    the rows that pass, from the terms of their evaluation, in one call
    per iteration, and carry into the next Newton step: a rejected trial
    costs one value and no derivatives. Each step solves P H P s = -g in
    the tangent space (P = I - x x^T projects out the normal x) by
    :func:`_newton_step`. This is the Riemannian Newton method with the
    normalizing retraction (Absil, Mahony & Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008, ch. 6). Every row stops on its
    own Newton decrement, taking its last step in full without evaluating
    it. Returns the final rows (m, d), which rows converged, and the
    gradients at the last accepted points of the rows that did not: those
    whose line search stalled, or that reached the iteration cap.
    """
    x = np.array(x, dtype=float)
    m, d = x.shape
    active = np.arange(m)
    converged = np.ones(m, dtype=bool)
    final_grad = np.empty((m, d))
    f, terms = fun(x, active)
    grad, hess = fun.derivatives(terms)
    for _ in range(_NEWTON_MAX_ITER):
        xa = x[active]
        step = _newton_step(grad, hess, xa)
        step -= np.einsum("mi,mi->m", step, xa)[:, None] * xa
        slope = np.einsum("mi,mi->m", grad, step)
        last = -slope <= _DECREMENT_TOL * (1 + f)
        new = xa[last] + step[last]
        x[active[last]] = new / np.linalg.norm(new, axis=-1, keepdims=True)
        # the full step's evaluation holds the value and the terms of every
        # row that searches, and a row that passes at a halving writes its own
        rows = np.flatnonzero(~last)
        pending = np.arange(len(rows))   # positions in rows still searching
        alpha = 1.0
        for halving in range(_MAX_HALVINGS):
            if not pending.size:
                break
            search = rows[pending]
            trial = xa[search] + alpha * step[search]
            trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
            trial_f, trial_terms = fun(trial, active[search])
            ok = trial_f <= f[search] + _ARMIJO * alpha * slope[search]
            x[active[search[ok]]] = trial[ok]
            if not halving:
                f_new, terms = trial_f, trial_terms
            else:
                for kept, fresh in zip((f_new, *terms), (trial_f, *trial_terms)):
                    kept[pending[ok]] = fresh[ok]
            pending = pending[~ok]
            alpha /= 2
        stalled = rows[pending]
        converged[active[stalled]] = False
        final_grad[active[stalled]] = grad[stalled]
        moved = np.ones(len(rows), dtype=bool)
        moved[pending] = False
        if not moved.any():
            break
        if pending.size:
            f_new, *terms = [a[moved] for a in (f_new, *terms)]
        active, f = active[rows[moved]], f_new
        grad, hess = fun.derivatives(terms)
    else:
        converged[active] = False
        final_grad[active] = grad
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
