"""The lazy scipy.optimize bindings: no command loads scipy.optimize, and
every binding stays a patchable module global."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

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
