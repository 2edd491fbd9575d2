"""Benchmark of the ``wgstate`` command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is a closed loop in one worker process: one CLI op
at a time through ``wgstate.cli.main(argv)``, the next after the previous
one completes, no extra threads. Every op's output is checked outside the
timed interval; after the timed loop each run also runs its workload's
defect probes (see ``workloads.defect_probes``) and reports their outcome.

End-to-end times are given at a reference host speed. The host's speed
drifts by +-25% over tens of seconds, so a fixed pure-Python loop
(``calibrate``) is timed before every op and after every set-up, and each
wall-clock figure is scaled by the loop's median time over its reference
time. The wall-clock figures and the host speed are in the provenance.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics: it alternates untraced and traced ops of the same kind,
records spans around every call into a ``wgstate`` module on the traced
ones, and writes the spans to ``.bench_out/`` when the run ends.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it records the provenance of the run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import CheckFailed, KnownDefect

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5          # setup_s is the median of this many fresh set-ups
# the host's speed drifts by +-25% over tens of seconds, so every time is
# scaled by how long a fixed loop takes at that moment (see calibrate)
CALIB_LOOPS = 50_000
CALIB_REF_S = 0.0035       # the loop's time at the reference host speed
OP_TIMEOUT_S = 120
RUN_DEADLINE_S = 170       # a run ends, with or without a result, before 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# command kinds as the workloads name them; <kind>.p50_ms per command
KIND_NAMES = ("state", "qfi", "optimize_pauli", "optimize_general", "sense",
              "tomo_simulate", "tomo_reconstruct", "fringe")
PER_LAYER_UNITS = {
    "import.wgstate_ms": "ms", "import.scipy_optimize_ms": "ms",
    "import.modules": "count",
    **{f"{kind}.p50_ms": "ms" for kind in KIND_NAMES},
    "cli.self_ms": "ms/op", "cli.bytes_written": "B/op", "cli.commands": "count",
    "tomography.mle_reconstruct.calls": "count/op",
    "tomography.mle_reconstruct.busy_ms": "ms/op",
    "tomography.fit_point.p50_ms": "ms", "tomography.fit_resample.p50_ms": "ms",
    "tomography.nll_evals_per_fit": "count/fit",
    "tomography.lbfgs_iters_per_fit": "count/fit",
    "tomography.fallback_starts": "count/op",
    "tomography.unconverged_accepts": "count/op",
    "tomography.monte_carlo_report.self_ms": "ms/op",
    "tomography.simulate_tomography.busy_ms": "ms/op",
    "tomography.dataset_csv.busy_ms": "ms/op",
    "metrology.general_axis_search.calls": "count/op",
    "metrology.general_axis_search.busy_ms": "ms/op",
    "metrology.general_axis_search.self_ms": "ms/op",
    "metrology.de.nfev": "count/op", "metrology.de.busy_ms": "ms/op",
    "metrology.refine.nfev": "count/op", "metrology.refine.busy_ms": "ms/op",
    "metrology.pauli_search.busy_ms": "ms/op", "metrology.sense.busy_ms": "ms/op",
    "measurement.solve_projector_waveplates.calls": "count/op",
    "measurement.solve_projector_waveplates.busy_ms": "ms/op",
    "measurement.solver.starts": "count/op", "measurement.solver.nfev": "count/op",
    "measurement.solver.useful_frac": "fraction",
    "measurement.outcome_probabilities.busy_ms": "ms/op",
    "stats.bootstrap.calls": "count/op", "stats.bootstrap.busy_ms": "ms/op",
    "stats.cosine_fit.busy_ms": "ms/op", "stats.cosine_fit.nfev": "count/op",
    "stategen.apply_noise.busy_ms": "ms/op",
    "stategen.simulate_generation.busy_ms": "ms/op",
    "qmath.calls": "count/op", "qmath.busy_ms": "ms/op",
    "optics.calls": "count/op", "optics.busy_ms": "ms/op",
    "trace.overhead_frac": "fraction",
}


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now. It runs no program code,
    so it measures the host's current speed and nothing else."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_LOOPS):
        total += i * i
    return time.perf_counter() - start


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path and single-threaded BLAS, so each workload
    stays one closed loop on one core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


# ------------------------------------------------------------------- worker

class OpRunner:
    """Runs one op in its own directory and returns its record."""

    def __init__(self, workdir: Path):
        import wgstate.cli
        self.workdir = workdir
        self.count = 0
        self.tracer = None
        self.cli = wgstate.cli

    def run(self, op, traced: bool = False) -> dict:
        d = self.workdir / f"op{self.count}"
        self.count += 1
        d.mkdir()
        if op.prepare:
            op.prepare(d)
        inputs = {p.name for p in d.iterdir()}
        calib = calibrate()
        rc, seconds, detail = self._in_process(op, d, traced)
        record = {"kind": op.kind, "pos": op.pos, "s": seconds, "calib": calib,
                  "ok": False, "known": False,
                  "bytes": sum(p.stat().st_size for p in d.iterdir() if p.name not in inputs)}
        if rc != 0:
            record["error"] = f"exit {rc}: {detail.strip()[-300:]}"
            record["known"] = (op.known_exit is not None and rc == op.known_exit[0]
                               and op.known_exit[1] in detail)
        else:
            try:
                op.check(d)
                record["ok"] = True
            except KnownDefect as exc:
                record["known"] = True
                record["error"] = f"known defect: {exc}"
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                record["error"] = f"check: {type(exc).__name__}: {exc}"
        if not record["ok"]:
            record["argv"] = op.argv
        shutil.rmtree(d)
        return record

    def _in_process(self, op, d: Path, traced: bool):
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(d)
        if traced:
            self.tracer.op_id = self.count
            self.tracer.install()
        try:
            with redirect_stdout(out), redirect_stderr(out):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(list(op.argv))
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:   # an escaped error fails the op
                    rc = f"raised {exc!r}"
                seconds = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
            os.chdir(cwd)
        return rc, seconds, out.getvalue()


def command_stats(records: list) -> dict:
    """Per command: sample count, median, and the highest of the 90th,
    99th and 99.9th percentiles with at least ten samples beyond it."""
    out = {}
    for kind in sorted({r["kind"] for r in records}):
        ms = sorted(1e3 * r["s"] for r in records if r["kind"] == kind)
        entry = {"n": len(ms), "p50_ms": statistics.median(ms)}
        for p in (99.9, 99.0, 90.0):
            if len(ms) * (1 - p / 100) >= 10:
                entry[f"p{p:g}_ms"] = statistics.quantiles(ms, n=1000)[int(p * 10) - 1]
                break
        out[kind] = entry
    return out


def importtime_probe() -> dict:
    from spans import parse_importtime
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wgstate.cli"],
                          env=child_env(), capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, cwd=ROOT)
    return parse_importtime(proc.stderr)


def worker(args) -> dict:
    import workloads
    workdir = ROOT / ".bench_work" / f"w{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = OpRunner(workdir)
        for op in workloads.warmup_ops(args.workload):
            runner.run(op)
        imports = importtime_probe() if args.trace else {}
        ready = time.monotonic()
        calib = statistics.median(calibrate() for _ in range(15))
        if args.setup_only:
            return {"ready": ready, "calib": calib}
        if args.trace:
            result = traced_loop(args, runner, workloads, imports)
        else:
            result = timed_loop(args, runner, workloads)
        result["defect_probes"] = {name: probe_outcome(runner.run(op))
                                   for name, op in workloads.defect_probes(args.workload).items()}
        return {"ready": ready, "calib": calib, **result}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_outcome(record: dict) -> str:
    if record["known"]:
        return "reproduced"
    return "passed" if record["ok"] else f"failed otherwise: {record['error']}"


def _loop(args, min_ops: int, step):
    """Call ``step`` until --seconds have passed and at least ``min_ops``
    (one whole pass of the workload's cycle) have run."""
    begin = time.monotonic()
    done = 0
    while time.monotonic() - begin < args.seconds or done < min_ops:
        step()
        done += 1


def timed_loop(args, runner, workloads) -> dict:
    stream = workloads.timed_ops(args.workload, args.seed)
    records = []
    _loop(args, workloads.cycle_length(args.workload),
          lambda: records.append(runner.run(next(stream))))
    host_speed = CALIB_REF_S / statistics.median(r["calib"] for r in records)
    wall = mix_ops_per_s(records)
    metrics = {
        "ops_per_s": wall / host_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"records": records, "commands": command_stats(records), "metrics": metrics,
            "wall": {"ops_per_s": wall, "host_speed": host_speed}}


def mix_ops_per_s(records: list) -> float:
    """Ops per second of the workload's fixed mix: the ops of one cycle over
    the sum of each cycle position's mean latency, so a cycle left
    unfinished when the time is up does not tilt the mix."""
    by_pos: dict = {}
    for r in records:
        by_pos.setdefault(r["pos"], []).append(r["s"])
    return len(by_pos) / sum(statistics.fmean(v) for v in by_pos.values())


def traced_loop(args, runner, workloads, imports) -> dict:
    import inspect
    import wgstate.measurement
    from spans import Tracer, per_layer_metrics
    runner.tracer = Tracer()
    plain = workloads.timed_ops(args.workload, args.seed)
    traced = workloads.timed_ops(args.workload, args.seed, branch=1)
    untraced_records, traced_records = [], []

    def step():
        untraced_records.append(runner.run(next(plain)))
        traced_records.append(runner.run(next(traced), traced=True))

    _loop(args, workloads.cycle_length(args.workload), step)
    spans = runner.tracer.spans
    n = len(traced_records)
    residual_tol = inspect.signature(
        wgstate.measurement.solve_projector_waveplates).parameters["residual_tol"].default
    stats = command_stats(untraced_records)
    metrics = dict(imports)
    for kind in KIND_NAMES:
        metrics[f"{kind}.p50_ms"] = stats.get(kind, {}).get("p50_ms", 0.0)
    metrics.update(per_layer_metrics(spans, n, residual_tol))
    metrics["cli.bytes_written"] = sum(r["bytes"] for r in traced_records) / n
    metrics["cli.commands"] = n
    # tracing overhead: traced over untraced time of the same op kinds,
    # i.e. untraced over traced ops_per_s, minus one
    metrics["trace.overhead_frac"] = (sum(r["s"] for r in traced_records)
                                      / sum(r["s"] for r in untraced_records) - 1)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "result"],
                   "spans": spans}, fh)
    return {"records": untraced_records + traced_records, "commands": stats,
            "metrics": metrics}


# ------------------------------------------------------------------- parent

def spawn_worker(args, setup_only: bool, deadline: float) -> tuple:
    """Run one worker process; it and every process it started are killed
    as a group if the run's deadline passes."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("worker passed the run's deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready"] - start, result


def provenance(args, result: dict) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    failures = [r for r in result["records"] if not r["ok"]]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: child_env().get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit, "commands": result["commands"],
        "defect_probes": result["defect_probes"],
        # the end-to-end times as the wall clock read them, and the host speed
        # they were scaled by (reference = 1)
        "wall": result.get("wall"),
        "failures": [{k: r[k] for k in ("kind", "error", "argv")} for r in failures[:10]],
    }


def run_workload(args) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    repeats = 1 if args.trace else SETUP_REPEATS
    for i in range(repeats):
        setup, result = spawn_worker(args, i < repeats - 1, deadline)
        setups.append((setup, setup * CALIB_REF_S / result["calib"]))
    records = result["records"]
    metrics = result["metrics"]
    if args.trace:
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END
        metrics["setup_s"] = statistics.median(ref for _wall, ref in setups)
        result["wall"]["setup_s"] = statistics.median(wall for wall, _ref in setups)
    failed = [r for r in records if not r["ok"]]
    final = {
        # no timed op is expected to fail; known defects show in the probes
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    prov = provenance(args, result)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"provenance": prov, "result": final}, fh, indent=1)
    for r in failed[:5]:
        print(f"failed {r['kind']}: {r['error']}", file=sys.stderr)
    for name, outcome in prov["defect_probes"].items():
        print(f"defect probe {name}: {outcome}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tomo-mc", "design", "sense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "wgstate" / "cli.py").is_file():
        print(f"error: no wgstate sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
