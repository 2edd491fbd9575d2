"""Tests of the benchmark itself: every output check accepts a real output
and rejects a corrupted one, the benchmark's independent physics agrees
with the package, and a minimal run of each workload prints exactly the
metric names of BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, KnownDefect  # noqa: E402
from wgstate.cli import main  # noqa: E402
from wgstate.measurement import analyzer_overlap  # noqa: E402
from wgstate.stategen import NoiseModel, apply_noise, weighted_graph_state  # noqa: E402
from wgstate.tomography import simulate_tomography  # noqa: E402


def run_cli(tmp_path, monkeypatch, *argv):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv) + ["--seed", "3", "--no-timestamp"]) == 0


def rejects(check, payload, mutate):
    broken = json.loads(json.dumps(payload))
    mutate(broken)
    with pytest.raises(CheckFailed):
        check(broken)


# ---------------------------------------------------------------- checks

@pytest.mark.parametrize("kind,k", [("pauli", 8), ("pauli", 2), ("general", 5)])
def test_optimize_check(tmp_path, monkeypatch, kind, k):
    run_cli(tmp_path, monkeypatch, "optimize", "--kind", kind, "--phi12",
            repr(k * math.pi / 8), "--out", "o.json")
    payload = checks.load_json(tmp_path / "o.json")

    def check(p):
        checks.check_optimize(p, k * math.pi / 8, kind, k)

    check(payload)
    if kind == "general":
        broken = json.loads(json.dumps(payload))
        broken["derivative_magnitude"] += 0.03
        with pytest.raises(KnownDefect):
            check(broken)
    rejects(check, payload, lambda p: p.update(estimator_variance=p["estimator_variance"] + 0.02))
    rejects(check, payload, lambda p: p.update(
        estimator_variance=0.9 / checks.qfi(k * math.pi / 8)))
    rejects(check, payload, lambda p: p["waveplates"]["photon1_plus"].update(
        hwp_deg=p["waveplates"]["photon1_plus"]["hwp_deg"] + 0.5))
    rejects(check, payload, lambda p: p["waveplates"]["photon2_minus"].update(qwp_deg=-90.0))


def test_reconstruct_check(tmp_path, monkeypatch):
    op, _ = workloads.tomo_reconstruct_op(np.random.default_rng(4), True, 1500.0, "poisson")
    op.prepare(tmp_path)
    run_cli(tmp_path, monkeypatch, *op.argv[:-3])
    op.check(tmp_path)
    payload = checks.load_json(tmp_path / "rec.json")

    def with_rho(p, rho):
        p["density_matrix"] = [[[v.real, v.imag] for v in row] for row in rho]

    def non_psd(p):
        with_rho(p, np.diag([0.6, 0.5, 0.1, -0.2]).astype(complex))

    def non_hermitian(p):
        rho = checks.matrix_from_pairs(p["density_matrix"])
        rho[0, 1] += 0.01
        with_rho(p, rho)

    def far(p):
        with_rho(p, np.diag([1.0, 0, 0, 0]).astype(complex))

    recheck = (lambda p: checks.check_reconstruct(
        p, checks.matrix_from_pairs(payload["density_matrix"]), 1500.0, 4))
    recheck(payload)
    rejects(recheck, payload, non_psd)
    rejects(recheck, payload, non_hermitian)
    rejects(recheck, payload, far)
    rejects(recheck, payload, lambda p: p["concurrence"].update(stdev=float("nan")))


def test_sense_check(tmp_path, monkeypatch):
    phi = 3 * math.pi / 4
    run_cli(tmp_path, monkeypatch, "sense", "--phi12", repr(phi), "--observable", "ZY",
            "--replicates", "500", "--out", "s")
    payload = checks.load_json(tmp_path / "s.json")

    def check(p):
        checks.check_sense(p, phi)

    check(payload)
    rejects(check, payload, lambda p: p["ideal"].update(
        estimator_variance=0.99 / checks.qfi(phi)))
    rejects(check, payload, lambda p: p["derivative"].update(
        ci95=p["derivative"]["ci95"][::-1]))
    rejects(check, payload, lambda p: p["expectation"].update(mean=float("inf")))


def test_qfi_check(tmp_path, monkeypatch):
    run_cli(tmp_path, monkeypatch, "qfi", "--grid", "7", "--out", "q.csv")
    checks.check_qfi(tmp_path / "q.csv", 7)
    lines = (tmp_path / "q.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[3] = ",".join(cells)
    (tmp_path / "q.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        checks.check_qfi(tmp_path / "q.csv", 7)


@pytest.mark.parametrize("extra,noise", [((), None), (("--pipeline",), None),
                                         (("--noise", "0.2", "0.5"), (0.2, 0.5))])
def test_state_check(tmp_path, monkeypatch, extra, noise):
    phi = 1.1
    run_cli(tmp_path, monkeypatch, "state", "--phi12", repr(phi), *extra, "--out", "s.json")
    payload = checks.load_json(tmp_path / "s.json")

    def check(p):
        checks.check_state(p, phi, noise)

    check(payload)
    if noise is None:
        rejects(check, payload, lambda p: p.update(concurrence=p["concurrence"] + 1e-6))
    else:
        rejects(check, payload, lambda p: p.update(
            fidelity_to_ideal=p["fidelity_to_ideal"] - 1e-6))


def test_fringe_check(tmp_path, monkeypatch):
    run_cli(tmp_path, monkeypatch, "fringe", "--steps", "30", "--exact", "--out", "f")
    payload = checks.load_json(tmp_path / "f.json")

    def check(p):
        checks.check_fringe(p, 30, 1.0, exact=True)

    check(payload)
    broken = json.loads(json.dumps(payload))
    broken["fit"]["c"] = -math.pi
    with pytest.raises(KnownDefect):
        check(broken)
    rejects(check, payload, lambda p: p["fit"].update(c=3.5))
    rejects(check, payload, lambda p: p.update(visibility=p["visibility"] - 1e-6))


def test_shifted_exact_fringe_passes(tmp_path, monkeypatch):
    """Timed exact sweeps start away from 0, so their fit is off the wrap."""
    op, _ = workloads.random_exact_fringe(np.random.default_rng(2), steps=24, contrast=1.0)
    run_cli(tmp_path, monkeypatch, *op.argv[:-3])
    op.check(tmp_path)
    assert "--varphi-range" in op.argv


def test_empty_resample_probe_has_counts(tmp_path):
    """The probe's exit 3 is the defect, not the documented answer to a
    dataset whose rectilinear settings recorded nothing."""
    op = workloads.empty_resample_probe()
    op.prepare(tmp_path)
    with open(tmp_path / "data.csv") as fh:
        rows = list(csv.DictReader(fh))[:4]
    assert sum(int(r["counts"].split(";")[0]) for r in rows) > 0


def test_dataset_check(tmp_path, monkeypatch):
    run_cli(tmp_path, monkeypatch, "tomo", "simulate", "--phi12", "2.0", "--rate", "15",
            "--duration", "10", "--out", "t.csv")
    checks.check_dataset_csv(tmp_path / "t.csv", 150.0, exact=True)
    with pytest.raises(CheckFailed):
        checks.check_dataset_csv(tmp_path / "t.csv", 160.0, exact=True)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[6] = "-1;" + cells[6].split(";", 1)[1]
    lines[2] = ",".join(cells)
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        checks.check_dataset_csv(tmp_path / "t.csv", 150.0, exact=False)


# ---------------------------------------- independent physics vs the package

def test_waveplate_convention_matches_package():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h, q = rng.uniform(-90, 90, 2)
        ket = checks.axis_ket(*rng.uniform(0, np.pi, 2), "-")
        assert checks.analyzer_transmission(h, q, ket) == pytest.approx(
            analyzer_overlap(h, q, ket), abs=1e-12)


def test_noise_model_matches_package():
    rho = apply_noise(weighted_graph_state(0.7), NoiseModel(0.15, 0.4)).matrix
    assert np.allclose(rho, checks.noisy_density(0.7, 0.15, 0.4), atol=1e-12)


def test_dataset_generator_matches_package(tmp_path):
    rho = checks.noisy_density(2.2, 0.1, 0.2)
    expected = simulate_tomography(rho, 150.0, 10.0).counts
    assert np.array_equal(np.rint(1500.0 * workloads.outcome_probabilities(rho)), expected)


# --------------------------------------------------------------- tracing

def test_self_time_subtracts_children():
    spans_list = [["cli.main", 0.0, 10.0, -1, 0, None],
                  ["tomography.monte_carlo_report", 1.0, 9.0, 0, 0, None],
                  ["tomography.mle_reconstruct", 2.0, 4.0, 1, 0, None],
                  ["tomography.minimize", 2.5, 3.5, 2, 0, (100, 10, 1.0, True)],
                  ["tomography.mle_reconstruct", 5.0, 8.0, 1, 0, None],
                  ["tomography.minimize", 5.5, 6.0, 4, 0, (50, 5, 2.0, False)],
                  ["tomography.minimize", 6.0, 7.5, 4, 0, (70, 7, 0.5, False)]]
    m = spans.per_layer_metrics(spans_list, 1, 1e-8)
    assert m["cli.self_ms"] == pytest.approx(2e3)
    assert m["tomography.monte_carlo_report.self_ms"] == pytest.approx(3e3)
    assert m["tomography.fit_point.p50_ms"] == pytest.approx(2e3)
    assert m["tomography.fit_resample.p50_ms"] == pytest.approx(3e3)
    assert m["tomography.nll_evals_per_fit"] == 110
    assert m["tomography.fallback_starts"] == 1
    assert m["tomography.unconverged_accepts"] == 1


def test_tracer_restores_bindings():
    import wgstate.cli
    import wgstate.tomography
    before = (wgstate.cli.monte_carlo_report, wgstate.tomography.minimize)
    tracer = spans.Tracer()
    tracer.install()
    assert wgstate.cli.monte_carlo_report is not before[0]
    assert wgstate.tomography.minimize is not before[1]
    tracer.uninstall()
    assert (wgstate.cli.monte_carlo_report, wgstate.tomography.minimize) == before


def test_parse_importtime():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:       300 |        400 | site",
        "import time:      2000 |       2000 |       scipy.optimize._x",
        "import time:      1000 |       3000 |     scipy.optimize",
        "import time:       500 |       3500 |   wgstate.qmath",
        "import time:       500 |       4000 | wgstate",
        "import time:       250 |        250 | wgstate.cli",
    ])
    assert spans.parse_importtime(sample) == {
        "import.wgstate_ms": 4.25, "import.scipy_optimize_ms": 3.0, "import.modules": 5}


# ------------------------------------------------------------ whole runs

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_minimal_run_emits_declared_metrics(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert result["attempted"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sense", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
