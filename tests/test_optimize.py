"""The tomography fit's Newton solver, ``tomography.sphere_newton``, on a
Rayleigh quotient; the scipy.optimize import, which no command makes; and
the names ``bench/spans.py`` rebinds, which must stay module globals."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wgstate import tomography

ROOT = Path(__file__).resolve().parent.parent


def tracer_optimizers():
    """The (module, name) pairs of ``OPTIMIZERS`` in bench/spans.py, read
    from the file without importing it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "OPTIMIZERS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no OPTIMIZERS")


@pytest.mark.parametrize("module, name", tracer_optimizers())
def test_every_name_the_tracer_rebinds_resolves(module, name):
    # the tracer reads each name with getattr and rebinds it to a wrapper
    assert module.startswith("wgstate.")
    assert hasattr(importlib.import_module(module), name)


# runs the commands in order through cli.main in one interpreter and prints,
# on its last line, whether scipy.optimize was loaded after each
SCRIPT = """
import json, sys
from wgstate.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    if main(argv + ["--no-timestamp"]) != 0:
        sys.exit(f"{argv} failed")
    loaded.append("scipy.optimize" in sys.modules)
print(json.dumps(loaded))
"""

COMMANDS = [
    ["state", "--phi12", "1.0", "--out", "direct.json"],
    ["state", "--phi12", "1.0", "--pipeline", "--out", "pipeline.json"],
    ["state", "--phi12", "1.0", "--noise", "0.1", "0.05", "--out", "noise.json"],
    ["qfi", "--grid", "5", "--out", "q.csv"],
    ["sense", "--phi12", "1.0", "--observable", "IY", "--out", "pauli"],
    ["sense", "--phi12", "1.0", "--observable", "axis:90,0,90,90", "--out", "axis"],
    ["tomo", "simulate", "--phi12", "1.0", "--poisson", "--out", "d.csv"],
    ["tomo", "reconstruct", "--in", "d.csv", "--phi12", "1.0", "--mc", "4",
     "--out", "r.json"],
    ["optimize", "--kind", "pauli", "--phi12", "1.0", "--out", "pauli.json"],
]


# the general search and the fringe fit, which loaded scipy.optimize while
# they ran its solvers, run last
@pytest.mark.parametrize("last", [
    ["optimize", "--kind", "general", "--phi12", "1.0", "--out", "general.json"],
    ["fringe", "--out", "f"],
], ids=["optimize-general", "fringe"])
def test_no_command_loads_scipy_optimize(tmp_path, last):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    commands = COMMANDS + [last]
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert dict(zip(map(" ".join, commands), loaded)) == {
        " ".join(argv): False for argv in commands}


def tangent(proj, v):
    return np.einsum("mij,mj->mi", proj, v)


def projector(x):
    """I - x x^T: the projectors onto the tangent spaces of unit rows x."""
    return np.eye(x.shape[1]) - x[:, :, None] * x[:, None, :]


def cholesky_step(grad, hess, x):
    """The Cholesky step on the bordered system written as P H P + (I - P)."""
    proj = projector(x)
    return tomography._bordered_step(grad, proj @ hess @ proj + np.eye(x.shape[1]) - proj)


def test_cholesky_step_equals_eigenvalue_step():
    # the Hessian of a scale-invariant objective at unit x, H x = -g:
    # P H P = P A P is positive definite on the tangent spaces where A >= I
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 16))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    proj = projector(x)
    a = rng.normal(size=(7, 16, 16))
    grad = tangent(proj, rng.normal(size=(7, 16)))
    xg = x[:, :, None] * grad[:, None, :]
    hess = proj @ (a @ np.swapaxes(a, 1, 2) + np.eye(16)) @ proj - xg - np.swapaxes(xg, 1, 2)
    step = tomography._newton_step(grad, hess, x)
    eigen = tomography._eigen_step(grad, proj @ hess @ proj)
    # sphere_newton projects each step onto the tangent space
    assert np.abs(tangent(proj, step) - tangent(proj, eigen)).max() <= 1e-12
    assert np.abs(step - tangent(proj, step)).max() <= 1e-12
    assert np.abs(step - cholesky_step(grad, hess, x)).max() <= 1e-12


# f(x) = x^T A x / x^T x on the unit sphere in R^4: its minimum is 1, at +-e1,
# and near e4 its tangent Hessian 2 P (A - f I) P is negative definite
RAYLEIGH = np.diag([1.0, 2.0, 3.0, 4.0])


class Rayleigh:
    """The objective with its Euclidean gradient and Hessian."""

    def __call__(self, rows, index):
        s = np.einsum("mi,mi->m", rows, rows)
        ax = rows @ RAYLEIGH
        f = np.einsum("mi,mi->m", ax, rows) / s
        return f, (rows, s, ax, f)

    def derivatives(self, terms):
        rows, s, ax, f = terms
        grad = 2 * (ax - f[:, None] * rows) / s[:, None]
        gx = grad[:, :, None] * rows[:, None, :]
        hess = 2 * (RAYLEIGH - f[:, None, None] * np.eye(4)) - 2 * (gx + np.swapaxes(gx, 1, 2))
        return grad, hess / s[:, None, None]


rayleigh = Rayleigh()


def rayleigh_derivatives(rows):
    return rayleigh.derivatives(rayleigh(rows, None)[1])


def test_indefinite_row_falls_back_and_every_row_reaches_its_minimum(monkeypatch):
    starts = np.array([[1.0, 0.2, 0.1, 0.3],     # near the minimum
                       [0.05, 0.1, 0.2, 1.0],    # near the maximum
                       [0.3, 1.0, 0.2, 0.1]])    # near a saddle
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    grad, hess = rayleigh_derivatives(starts)
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_step(grad, hess, starts)
    fallbacks = []
    eigen_step = tomography._eigen_step

    def counting(*args):
        fallbacks.append(len(args[0]))
        return eigen_step(*args)

    monkeypatch.setattr(tomography, "_eigen_step", counting)
    x, converged, _ = tomography.sphere_newton(rayleigh, starts)
    assert fallbacks and converged.all()
    for row, start in zip(x, starts):
        alone, (done,), _ = tomography.sphere_newton(rayleigh, start[None])
        assert done
        assert np.abs(row - alone[0]).max() <= 1e-10
        assert rayleigh(row[None], None)[0][0] == pytest.approx(1.0, abs=1e-14)


def test_definite_rows_keep_their_cholesky_steps_beside_an_indefinite_one():
    # the first and third starts are positive definite on their tangent
    # spaces, the second (near the maximum) is not
    starts = np.array([[1.0, 0.2, 0.1, 0.3],
                       [0.05, 0.1, 0.2, 1.0],
                       [0.9, 0.3, 0.2, 0.1]])
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    grad, hess = rayleigh_derivatives(starts)
    step = tomography._newton_step(grad, hess, starts)
    for i in range(3):
        alone = tomography._newton_step(grad[i:i + 1], hess[i:i + 1], starts[i:i + 1])
        assert np.array_equal(step[i], alone[0])
    for i in (0, 2):
        oracle = cholesky_step(grad[i:i + 1], hess[i:i + 1], starts[i:i + 1])
        assert np.abs(step[i] - oracle[0]).max() <= 1e-12
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_step(grad[1:2], hess[1:2], starts[1:2])
    # the eigenvalue step of P H P, up to the normal component that
    # sphere_newton projects out
    proj = projector(starts[1:2])
    eigen = tomography._eigen_step(grad[1:2], proj @ hess[1:2] @ proj)
    assert np.abs(tangent(proj, step[1:2] - eigen)).max() <= 1e-12


STARTS = np.array([[1.0, 0.2, 0.1, 0.3],     # near the minimum
                   [0.05, 0.1, 0.2, 1.0],    # near the maximum
                   [0.3, 1.0, 0.2, 0.1]])    # near a saddle
STARTS /= np.linalg.norm(STARTS, axis=1, keepdims=True)


class Stalling(Rayleigh):
    """Every trial of row ``stalled`` fails the Armijo test; each
    derivative call is logged by its points."""

    def __init__(self, stalled=-1):
        self.stalled, self.evaluations, self.derived = stalled, 0, []

    def __call__(self, rows, index):
        f, terms = super().__call__(rows, index)
        self.evaluations += 1
        if self.evaluations > 1:
            f = np.where(index == self.stalled, np.inf, f)
        return f, terms

    def derivatives(self, terms):
        self.derived.append(terms[0].copy())
        return super().derivatives(terms)


def test_stalled_row_ends_unconverged_with_the_gradient_at_its_last_point():
    objective = Stalling(1)
    x, converged, final_grad = tomography.sphere_newton(objective, STARTS)
    assert converged.tolist() == [True, False, True]
    assert np.array_equal(x[1], STARTS[1])
    assert np.array_equal(final_grad, rayleigh_derivatives(STARTS)[0][1:2])
    # its 40 halvings were value-only: beside the other two rows, it
    # took derivatives once, at its start
    others = Stalling()
    alone, _, _ = tomography.sphere_newton(others, STARTS[[0, 2]])
    assert np.abs(x[[0, 2]] - alone).max() <= 1e-10
    assert (len(np.concatenate(objective.derived))
            == len(np.concatenate(others.derived)) + 1)


class Indexed(Stalling):
    """Stalling, with the row numbers of each evaluation logged."""

    def __init__(self, stalled=-1):
        super().__init__(stalled)
        self.calls = []

    def __call__(self, rows, index):
        self.calls.append(index.tolist())
        return super().__call__(rows, index)


def test_rows_that_stop_stall_and_search_in_one_iteration_match_their_lone_runs():
    # in the first iteration row 0 stops on its decrement, row 1 stalls, and
    # row 2 fails its full step, passes at the first halving and goes on
    starts = np.array([[1.0, 1e-7, 0.0, 0.0],
                       [0.3, 1.0, 0.2, 0.1],
                       [-0.6354, 0.3135, 0.289, 0.6438]])
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    objective = Indexed(1)
    x, converged, final_grad = tomography.sphere_newton(objective, starts)
    assert objective.calls[:4] == [[0, 1, 2], [1, 2], [1, 2], [1]]
    assert [len(points) for points in objective.derived[:2]] == [3, 1]
    assert converged.tolist() == [True, False, True]
    assert np.array_equal(x[1], starts[1])
    assert np.array_equal(final_grad, rayleigh_derivatives(starts[1:2])[0])
    lone = [Stalling(), Stalling(0), Stalling()]
    for row, alone in enumerate(lone):
        x_alone, converged_alone, _ = tomography.sphere_newton(alone, starts[row:row + 1])
        assert np.array_equal(x[row], x_alone[0])
        assert converged_alone[0] == converged[row]
    # row 2 alone takes the derivatives of each of its iterations in the stack
    assert [len(alone.derived) for alone in lone] == [1, 1, len(objective.derived)]


def test_rows_at_the_iteration_cap_end_unconverged_with_their_last_gradients(monkeypatch):
    monkeypatch.setattr(tomography, "_NEWTON_MAX_ITER", 2)
    x, converged, final_grad = tomography.sphere_newton(rayleigh, STARTS)
    assert not converged.any()
    assert not (x == STARTS).all(axis=1).any()
    assert np.array_equal(final_grad, rayleigh_derivatives(x)[0])
