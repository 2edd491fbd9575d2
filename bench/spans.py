"""Spans around the calls into each ``wgstate`` module, recorded from
outside the package by rebinding module attributes.

Every public function of every ``wgstate`` module is wrapped at each of its
bindings, because ``from .x import f`` copies the name into the importing
module (``cli.monte_carlo_report`` and ``tomography.monte_carlo_report`` are
separate bindings of one function). The scipy optimiser entry points each
module binds are wrapped too, and their spans keep the evaluation and
iteration counts of the result. A span is (name, start, end, parent index,
op id); spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import statistics
import time

MODULES = ("wgstate", "wgstate.cli", "wgstate.qmath", "wgstate.optics",
           "wgstate.stategen", "wgstate.measurement", "wgstate.metrology",
           "wgstate.stats", "wgstate.tomography")
# (module, attribute) of the optimiser each module calls; span name = layer.attribute
OPTIMIZERS = (("wgstate.tomography", "minimize"),
              ("wgstate.metrology", "differential_evolution"),
              ("wgstate.metrology", "minimize"),
              ("wgstate.measurement", "minimize"),
              ("wgstate.stats", "least_squares"))

NAME, START, END, PARENT, OP, RESULT = range(6)


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` rebind and
    restore every wrapped module attribute."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.op_id = -1

    def _wrap(self, name: str, fn, keep_result: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RESULT] = "error"
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if keep_result:
                span[RESULT] = (int(getattr(result, "nfev", 0)),
                                int(getattr(result, "nit", 0) or 0),
                                float(result.fun) if _scalar(result.fun) else None,
                                bool(result.success))
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for mod_name in MODULES:
            module = importlib.import_module(mod_name)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("wgstate")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj, False)
                self._rebind(module, attr, wrappers[obj])
        for mod_name, attr in OPTIMIZERS:
            module = importlib.import_module(mod_name)
            layer = mod_name.rsplit(".", 1)[-1]
            self._rebind(module, attr, self._wrap(f"{layer}.{attr}", getattr(module, attr), True))

    def _rebind(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _scalar(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return True


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(spans: list, n_ops: int, residual_tol: float) -> dict:
    """Per-layer counts and times from a list of spans, normalised per
    traced op (``n_ops``) unless the name says per fit or is a median."""
    n = max(n_ops, 1)
    child = [0.0] * len(spans)
    kids: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
            kids.setdefault(s[PARENT], []).append(i)

    def dur(s):
        return s[END] - s[START]

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def busy(*names):
        return 1e3 * sum(dur(spans[i]) for name in names for i in named(name)) / n

    def self_ms(*names):
        return 1e3 * sum(dur(spans[i]) - child[i] for name in names for i in named(name)) / n

    def calls(*names):
        return sum(len(named(name)) for name in names) / n

    def results(name):
        return [spans[i][RESULT] for i in named(name) if isinstance(spans[i][RESULT], tuple)]

    def outer(layer):
        """Spans of a layer not nested in another span of that layer."""
        return [s for s in spans if layer_of(s[NAME]) == layer
                and (s[PARENT] < 0 or layer_of(spans[s[PARENT]][NAME]) != layer)]

    def p50_ms(durations):
        return 1e3 * statistics.median(durations) if durations else 0.0

    # fits: the first fit in a Monte Carlo report is the point estimate on
    # the observed counts, the rest are its resamples
    fits = named("tomography.mle_reconstruct")
    point, resample = [], []
    mc_seen = set()
    for i in fits:
        parent = spans[i][PARENT]
        is_mc = parent >= 0 and spans[parent][NAME] == "tomography.monte_carlo_report"
        if is_mc and parent in mc_seen:
            resample.append(dur(spans[i]))
        else:
            point.append(dur(spans[i]))
            mc_seen.add(parent)
    fit_results = [[spans[k][RESULT] for k in kids.get(i, ())
                    if isinstance(spans[k][RESULT], tuple)] for i in fits]
    n_fits = max(len(fits), 1)
    # a fit that returned although its best start did not converge was
    # accepted on the small-gradient rule
    unconverged = sum(1 for i, rs in zip(fits, fit_results)
                      if rs and spans[i][RESULT] != "error"
                      and not min(rs, key=lambda r: r[2])[3])
    tomo_min = results("tomography.minimize")
    solver = results("measurement.minimize")

    cli_layer = [i for i, s in enumerate(spans) if layer_of(s[NAME]) == "cli"]
    qmath = outer("qmath")
    optics = outer("optics")
    return {
        "cli.self_ms": 1e3 * sum(dur(spans[i]) - child[i] for i in cli_layer) / n,
        "tomography.mle_reconstruct.calls": calls("tomography.mle_reconstruct"),
        "tomography.mle_reconstruct.busy_ms": busy("tomography.mle_reconstruct"),
        "tomography.fit_point.p50_ms": p50_ms(point),
        "tomography.fit_resample.p50_ms": p50_ms(resample),
        "tomography.nll_evals_per_fit": sum(r[0] for r in tomo_min) / n_fits,
        "tomography.lbfgs_iters_per_fit": sum(r[1] for r in tomo_min) / n_fits,
        "tomography.fallback_starts": max(len(tomo_min) - len(fits), 0) / n,
        "tomography.unconverged_accepts": unconverged / n,
        "tomography.monte_carlo_report.self_ms": self_ms("tomography.monte_carlo_report"),
        "tomography.simulate_tomography.busy_ms": busy("tomography.simulate_tomography"),
        "tomography.dataset_csv.busy_ms": busy("tomography.write_dataset_csv",
                                               "tomography.read_dataset_csv"),
        "metrology.general_axis_search.calls": calls("metrology.general_axis_search"),
        "metrology.general_axis_search.busy_ms": busy("metrology.general_axis_search"),
        "metrology.general_axis_search.self_ms": self_ms("metrology.general_axis_search"),
        "metrology.de.nfev": sum(r[0] for r in results("metrology.differential_evolution")) / n,
        "metrology.de.busy_ms": busy("metrology.differential_evolution"),
        "metrology.refine.nfev": sum(r[0] for r in results("metrology.minimize")) / n,
        "metrology.refine.busy_ms": busy("metrology.minimize"),
        "metrology.pauli_search.busy_ms": busy("metrology.pauli_search"),
        "metrology.sense.busy_ms": busy("metrology.sense"),
        "measurement.solve_projector_waveplates.calls":
            calls("measurement.solve_projector_waveplates"),
        "measurement.solve_projector_waveplates.busy_ms":
            busy("measurement.solve_projector_waveplates"),
        "measurement.solver.starts": len(solver) / n,
        "measurement.solver.nfev": sum(r[0] for r in solver) / n,
        "measurement.solver.useful_frac":
            (sum(1 for r in solver if r[2] is not None and r[2] <= residual_tol)
             / len(solver)) if solver else 0.0,
        "measurement.outcome_probabilities.busy_ms": busy("measurement.outcome_probabilities"),
        "stats.bootstrap.calls": calls(*BOOTSTRAP),
        "stats.bootstrap.busy_ms": busy(*BOOTSTRAP),
        "stats.cosine_fit.busy_ms": busy("stats.cosine_fit"),
        "stats.cosine_fit.nfev": sum(r[0] for r in results("stats.least_squares")) / n,
        "stategen.apply_noise.busy_ms": busy("stategen.apply_noise"),
        "stategen.simulate_generation.busy_ms": busy("stategen.simulate_generation"),
        "qmath.calls": len(qmath) / n,
        "qmath.busy_ms": 1e3 * sum(dur(s) for s in qmath) / n,
        "optics.calls": len(optics) / n,
        "optics.busy_ms": 1e3 * sum(dur(s) for s in optics) / n,
    }


BOOTSTRAP = ("stats.bootstrap_expectation", "stats.bootstrap_variance",
             "stats.bootstrap_derivative", "stats.bootstrap_ratio")


# ------------------------------------------------------------ import profile

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Import metrics from ``python -X importtime -c "import wgstate.cli"``.

    Lines come children first; a line at nesting depth 0 closes one
    top-level import, which owns the lines since the previous one.
    ``import.wgstate_ms`` sums the top-level ``wgstate*`` imports and
    ``import.modules`` counts the modules they pulled in.
    """
    total_us, modules, scipy_opt_us = 0, 0, 0
    pending = 0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)) - 1, m.group(4)
        pending += 1
        if name == "scipy.optimize" and not scipy_opt_us:
            scipy_opt_us = cumulative
        if depth == 0:
            if name.split(".")[0] == "wgstate":
                total_us += cumulative
                modules += pending
            pending = 0
    return {"import.wgstate_ms": total_us / 1e3,
            "import.scipy_optimize_ms": scipy_opt_us / 1e3,
            "import.modules": modules}
