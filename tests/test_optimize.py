"""The Newton step of ``sphere_newton``, and the lazy scipy.optimize
bindings: no command loads scipy.optimize, and every binding stays a
patchable module global."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from wgstate import _optimize

ROOT = Path(__file__).resolve().parent.parent

TARGET = np.array([1.0, -2.0])


def squared_distance(x):
    return float(((np.asarray(x) - TARGET) ** 2).sum())


def offsets(x):
    return np.asarray(x) - TARGET


# a small problem for each scipy function the package binds
PROBLEMS = {
    "minimize": ((squared_distance, [0.0, 0.0]), {"method": "BFGS"}),
    "differential_evolution": ((squared_distance, [(-3.0, 3.0)] * 2),
                               {"seed": 1, "maxiter": 5, "popsize": 5, "polish": False}),
    "least_squares": ((offsets, [0.0, 0.0]), {"method": "lm"}),
}


@pytest.mark.parametrize("module, name", [
    ("wgstate.tomography", "minimize"),
    ("wgstate.measurement", "minimize"),
    ("wgstate.metrology", "minimize"),
    ("wgstate.metrology", "differential_evolution"),
    ("wgstate.stats", "least_squares"),
])
def test_binding_runs_the_scipy_function_of_its_name(module, name):
    args, kwargs = PROBLEMS[name]
    result = getattr(importlib.import_module(module), name)(*args, **kwargs)
    direct = getattr(scipy.optimize, name)(*args, **kwargs)
    assert np.array_equal(result.x, direct.x)
    assert (result.nfev, result.message) == (direct.nfev, direct.message)


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


def cholesky_step(grad, hess, proj):
    return _optimize._bordered_step(grad, _optimize.bordered_hessian(hess, proj))


def test_cholesky_step_equals_eigenvalue_step():
    # P H P is positive definite on the tangent spaces where H >= I
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 16))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    proj = _optimize.tangent_projector(x)
    a = rng.normal(size=(7, 16, 16))
    hess = a @ np.swapaxes(a, 1, 2) + np.eye(16)
    grad = tangent(proj, rng.normal(size=(7, 16)))
    cholesky = cholesky_step(grad, hess, proj)
    eigen = _optimize._eigen_step(grad, hess, proj)
    # sphere_newton projects each step onto the tangent space
    assert np.abs(tangent(proj, cholesky) - tangent(proj, eigen)).max() <= 1e-12
    assert np.abs(cholesky - tangent(proj, cholesky)).max() <= 1e-12


# f(x) = x^T A x / x^T x on the unit sphere in R^4: its minimum is 1, at +-e1,
# and near e4 its tangent Hessian 2 P (A - f I) P is negative definite
RAYLEIGH = np.diag([1.0, 2.0, 3.0, 4.0])


def rayleigh(rows, index, derivatives=True):
    s = np.einsum("mi,mi->m", rows, rows)
    ax = rows @ RAYLEIGH
    f = np.einsum("mi,mi->m", ax, rows) / s
    if not derivatives:
        return f
    grad = 2 * (ax - f[:, None] * rows) / np.sqrt(s)[:, None]
    return f, grad, 2 * (RAYLEIGH - f[:, None, None] * np.eye(4))


def test_indefinite_row_falls_back_and_every_row_reaches_its_minimum(monkeypatch):
    starts = np.array([[1.0, 0.2, 0.1, 0.3],     # near the minimum
                       [0.05, 0.1, 0.2, 1.0],    # near the maximum
                       [0.3, 1.0, 0.2, 0.1]])    # near a saddle
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    proj = _optimize.tangent_projector(starts)
    _f, grad, hess = rayleigh(starts, np.arange(3))
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_step(grad, hess, proj)
    fallbacks = []
    eigen_step = _optimize._eigen_step

    def counting(*args):
        fallbacks.append(len(args[0]))
        return eigen_step(*args)

    monkeypatch.setattr(_optimize, "_eigen_step", counting)
    x, converged, _ = _optimize.sphere_newton(rayleigh, starts)
    assert fallbacks and converged.all()
    for row, start in zip(x, starts):
        alone, (done,), _ = _optimize.sphere_newton(rayleigh, start[None])
        assert done
        assert np.abs(row - alone[0]).max() <= 1e-10
        assert rayleigh(row[None], None, derivatives=False)[0] == pytest.approx(1.0, abs=1e-14)


def test_definite_rows_keep_their_cholesky_steps_beside_an_indefinite_one():
    # the first and third starts are positive definite on their tangent
    # spaces, the second (near the maximum) is not
    starts = np.array([[1.0, 0.2, 0.1, 0.3],
                       [0.05, 0.1, 0.2, 1.0],
                       [0.9, 0.3, 0.2, 0.1]])
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    proj = _optimize.tangent_projector(starts)
    _f, grad, hess = rayleigh(starts, np.arange(3))
    step = _optimize._newton_step(grad, hess, proj)
    for i in (0, 2):
        alone = cholesky_step(grad[i:i + 1], hess[i:i + 1], proj[i:i + 1])
        assert np.array_equal(step[i], alone[0])
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_step(grad[1:2], hess[1:2], proj[1:2])
    assert np.array_equal(step[1], _optimize._eigen_step(grad[1:2], hess[1:2], proj[1:2])[0])
