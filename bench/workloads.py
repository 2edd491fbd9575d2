"""The benchmark workloads as endless, seeded streams of CLI ops.

Each workload repeats a fixed cycle of op kinds; the parameters of every
op are drawn from the workload seed, so the same seed gives the same
inputs. A stream keeps a record of the argument lists it has produced and
never repeats one, so memoising a whole command cannot pass for a
speed-up. Warm-up ops use inputs the timed streams cannot produce
(weights above pi, grids and step counts outside the timed ranges).

No timed op is expected to fail. Inputs on which the program is known to
fail are kept out of the timed streams and run instead as fixed defect
probes (``defect_probes``), once per run, so each defect shows in every
run rather than at random.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from checks import (PAULI_TABLE, check_dataset_csv, check_fringe,
                    check_optimize, check_qfi, check_reconstruct, check_sense,
                    check_state, graph_state, load_json, noisy_density)

TOMO_MC_SAMPLES = 4
# counts per setting of the low-count datasets: at ~10, one Monte Carlo
# resample in a few hundred empties the rectilinear transmitted counts and
# aborts the command (see defect_probes); at 30 that chance is ~1e-8 per op
LOW_COUNTS = 30.0
OFF_GRID = (3.2, 3.3)   # warm-up weights, above the timed range [0, pi]


# every op factory returns (Op, key): the key identifies the op's input
@dataclass
class Op:
    """One CLI call. ``argv`` names its files relative to the op's own
    directory; ``prepare`` writes its inputs there (untimed) and ``check``
    verifies its outputs there (untimed, raises CheckFailed)."""

    kind: str
    argv: list
    check: Callable[[Path], None]
    prepare: Optional[Callable[[Path], None]] = None
    pos: int = 0            # position in the workload's cycle
    # (exit code, message) of a documented program defect this op can hit
    known_exit: Optional[tuple] = None


def _common(seed: int) -> list:
    return ["--seed", str(seed), "--no-timestamp"]


# ----------------------------------------------------------------- tomo-mc

# the standard 16-setting plan: (photon-1 state, photon-2 state, lab plate
# angles h1, q1, h2, q2 in degrees), as the dataset CSV records it
TOMO_PLAN = [
    ("V", "V", 45.0, 0.0, 45.0, 0.0), ("V", "H", 45.0, 0.0, 0.0, 0.0),
    ("H", "H", 0.0, 0.0, 0.0, 0.0), ("H", "V", 0.0, 0.0, 45.0, 0.0),
    ("L", "V", -22.5, 0.0, 45.0, 0.0), ("L", "H", -22.5, 0.0, 0.0, 0.0),
    ("D", "H", -22.5, 45.0, 0.0, 0.0), ("D", "V", -22.5, 45.0, 45.0, 0.0),
    ("D", "L", -22.5, 45.0, -22.5, 0.0), ("D", "D", -22.5, 45.0, -22.5, 45.0),
    ("L", "D", -22.5, 0.0, -22.5, 45.0), ("V", "D", 45.0, 0.0, -22.5, 45.0),
    ("H", "D", 0.0, 0.0, -22.5, 45.0), ("H", "R", 0.0, 0.0, 22.5, 0.0),
    ("V", "R", 45.0, 0.0, 22.5, 0.0), ("L", "R", -22.5, 0.0, 22.5, 0.0),
]
_S = 1 / math.sqrt(2)
KETS = {"H": (1, 0), "V": (0, 1), "D": (_S, _S), "A": (_S, -_S),
        "L": (_S, 1j * _S), "R": (_S, -1j * _S)}
ORTHOGONAL = {"H": "V", "V": "H", "D": "A", "A": "D", "L": "R", "R": "L"}


def outcome_probabilities(rho: np.ndarray) -> np.ndarray:
    """(16, 4) probabilities of the outcome pairs ++, +-, -+, -- per setting;
    '+' transmits the setting's state, '-' its orthogonal partner."""
    probs = np.empty((16, 4))
    for i, (s1, s2, *_) in enumerate(TOMO_PLAN):
        for j, (t1, t2) in enumerate(((s1, s2), (s1, ORTHOGONAL[s2]),
                                      (ORTHOGONAL[s1], s2),
                                      (ORTHOGONAL[s1], ORTHOGONAL[s2]))):
            v = np.kron(np.array(KETS[t1], dtype=complex), np.array(KETS[t2], dtype=complex))
            probs[i, j] = max(float(np.real(v.conj() @ rho @ v)), 0.0)
    return probs


def write_dataset(path: Path, counts: np.ndarray, duration: float) -> None:
    """A dataset CSV in the layout ``wgstate tomo`` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting_index", "projector_label", "h1", "q1", "h2",
                         "q2", "counts", "duration"])
        for i, ((s1, s2, h1, q1, h2, q2), row) in enumerate(zip(TOMO_PLAN, counts)):
            writer.writerow([i, f"{s1}x{s2}", f"{h1:g}", f"{q1:g}", f"{h2:g}",
                             f"{q2:g}", ";".join(str(int(c)) for c in row),
                             f"{duration:g}"])


def tomo_reconstruct_op(rng, mixed: bool, per_setting: float, likelihood: str,
                        phi_range=(0.0, math.pi), mc: int = TOMO_MC_SAMPLES) -> tuple:
    phi = float(rng.uniform(*phi_range))
    if mixed:
        rho = noisy_density(phi, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.1, 0.6)))
    else:
        psi = graph_state(phi)
        rho = np.outer(psi, psi.conj())
    counts = rng.poisson(per_setting * outcome_probabilities(rho))
    seed = int(rng.integers(2 ** 31))

    def prepare(d):
        write_dataset(d / "data.csv", counts, 10.0)

    def check(d):
        check_reconstruct(load_json(d / "rec.json"), rho, per_setting, mc)

    argv = ["tomo", "reconstruct", "--in", "data.csv", "--phi12", repr(phi),
            "--mc", str(mc), "--likelihood", likelihood,
            "--out", "rec.json"] + _common(seed)
    op = Op("tomo_reconstruct", argv, check, prepare,
            known_exit=(3, "rectilinear settings recorded no counts"))
    # the dataset is part of the input
    return op, argv + [counts.tobytes().hex()]


def tomo_mc_cycle(rng):
    # purity x counts per setting x likelihood, the input properties the
    # MLE cost depends on (Gaussian fits cost ~1.5x Poisson ones)
    return [tomo_reconstruct_op(rng, mixed, n, lik) for mixed in (False, True)
            for n in (1500.0, LOW_COUNTS) for lik in ("gaussian", "poisson")]


def tomo_mc_warmup(rng):
    return [tomo_reconstruct_op(rng, True, 1500.0, "gaussian", OFF_GRID)]


# ------------------------------------------------------------------ design

def optimize_op(phi: float, kind: str, seed: int, k: Optional[int] = None) -> tuple:
    """An ``optimize`` call at weight ``phi``; ``k`` names a table weight
    k pi/8 whose acceptance row the result must match."""
    argv = ["optimize", "--kind", kind, "--phi12", repr(phi), "--out", "opt.json"] + _common(seed)

    def check(d):
        check_optimize(load_json(d / "opt.json"), phi, kind, k)

    return Op(f"optimize_{kind}", argv, check), argv


def table_op(k: int, kind: str, seed: int) -> tuple:
    return optimize_op(k * math.pi / 8, kind, seed, k)


# cheap and costly weights alternate, so a partial pass costs about what a
# whole one does
DESIGN_ORDER = (0, 8, 1, 7, 2, 6, 3, 5, 4)


def design_cycle(rng):
    """Per weight k pi/8: a Pauli search there, checked against its table
    row, and a general search at a weight drawn within pi/16 of it. The
    general search's slope depends on its seed: at some seeds it lands off
    the table at a matching variance (see defect_probes), so timed general
    searches stay off the table weights and get the physical checks only."""
    ops = []
    for k in DESIGN_ORDER:
        phi = abs(k * math.pi / 8 + float(rng.uniform(-1, 1)) * math.pi / 16)
        phi = min(phi, 2 * math.pi - phi)       # reflected into [0, pi]
        ops.append(optimize_op(phi, "general", int(rng.integers(2 ** 31))))
        ops.append(table_op(k, "pauli", int(rng.integers(2 ** 31))))
    return ops


def design_warmup(rng):
    return [optimize_op(OFF_GRID[0], kind, int(rng.integers(2 ** 31)))
            for kind in ("general", "pauli")]


# ------------------------------------------------------------------- sense

def _pauli_spec(k: int) -> str:
    a, b = PAULI_TABLE[k][0]
    return f"{a},{b}" if a == "I" else a + b


def sense_op(rng, phi: float, spec: str) -> tuple:
    seed = int(rng.integers(2 ** 31))
    argv = ["sense", "--phi12", repr(phi), "--observable", spec, "--out", "run"] + _common(seed)
    return Op("sense", argv, lambda d: check_sense(load_json(d / "run.json"), phi)), argv


def sense_axis_op(rng, phi_range=(0.0, math.pi)) -> tuple:
    b1, b2 = rng.uniform(10.0, 170.0, 2)
    a1, a2 = rng.uniform(-180.0, 180.0, 2)
    spec = "axis:" + ",".join(repr(float(v)) for v in (b1, a1, b2, a2))
    return sense_op(rng, float(rng.uniform(*phi_range)), spec)


def fringe_op(rng, exact: bool, steps: int, contrast: float,
              start: float = 0.0) -> tuple:
    """A sweep of one full period from ``start``. The fitted phase c is
    ``start`` + pi (wrapped), so only a sweep from 0 puts an exact fit on
    the +-pi wrap where the program's defect shows."""
    rate = float(rng.uniform(50.0, 500.0))
    duration = float(rng.uniform(1.0, 20.0))
    stop = start + 2 * math.pi
    argv = ["fringe", "--steps", str(steps), "--contrast", repr(contrast),
            "--rate", repr(rate), "--duration", repr(duration), "--out", "fr"]
    if start:
        argv += ["--varphi-range", repr(start), repr(stop)]
    if exact:
        argv.append("--exact")
    argv += _common(int(rng.integers(2 ** 31)))

    def check(d):
        check_fringe(load_json(d / "fr.json"), steps, contrast, exact, start, stop)

    return Op("fringe", argv, check), argv


def random_exact_fringe(rng, steps=None, contrast=None) -> tuple:
    """An exact sweep from a phase drawn away from 0 (mod 2 pi)."""
    steps = int(rng.integers(4, 81)) if steps is None else steps
    contrast = float(rng.uniform(0.3, 1.0)) if contrast is None else contrast
    return fringe_op(rng, True, steps, contrast, float(rng.uniform(0.1, 2 * math.pi - 0.1)))


def state_op(rng, mode: str, phi_range=(0.0, math.pi)) -> tuple:
    phi = float(rng.uniform(*phi_range))
    argv = ["state", "--phi12", repr(phi), "--out", "state.json"]
    noise = None
    if mode == "pipeline":
        argv.append("--pipeline")
    elif mode == "noise":
        noise = (float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.8)))
        argv += ["--noise", repr(noise[0]), repr(noise[1])]
    argv += _common(int(rng.integers(2 ** 31)))
    return Op("state", argv, lambda d: check_state(load_json(d / "state.json"), phi, noise)), argv


def qfi_op(rng, grid_range=(2, 201)) -> tuple:
    grid = int(rng.integers(*grid_range))
    argv = ["qfi", "--grid", str(grid), "--out", "qfi.csv"] + _common(int(rng.integers(2 ** 31)))
    return Op("qfi", argv, lambda d: check_qfi(d / "qfi.csv", grid)), argv


def tomo_simulate_op(rng, mode: str, phi_range=(0.0, math.pi)) -> tuple:
    phi = float(rng.uniform(*phi_range))
    rate = float(rng.integers(5, 300))
    duration = float(rng.integers(1, 20))
    argv = ["tomo", "simulate", "--phi12", repr(phi), "--rate", repr(rate),
            "--duration", repr(duration), "--out", "tomo.csv"]
    if mode == "poisson":
        argv.append("--poisson")
    elif mode == "noise":
        argv += ["--noise", repr(float(rng.uniform(0.0, 0.5))),
                 repr(float(rng.uniform(0.0, 0.8)))]
    argv += _common(int(rng.integers(2 ** 31)))

    def check(d):
        check_dataset_csv(d / "tomo.csv", rate * duration, exact=mode != "poisson")

    return Op("tomo_simulate", argv, check), argv


def sense_cycle(rng):
    k = int(rng.integers(9))
    return [
        sense_op(rng, k * math.pi / 8, _pauli_spec(k)),
        sense_axis_op(rng),
        fringe_op(rng, False, int(rng.integers(8, 61)), float(rng.uniform(0.5, 1.0))),
        random_exact_fringe(rng),
        # the CLI golden case (24 exact steps, contrast 1), shifted in phase
        random_exact_fringe(rng, steps=24, contrast=1.0),
        state_op(rng, "direct"),
        state_op(rng, "pipeline"),
        state_op(rng, "noise"),
        qfi_op(rng),
        tomo_simulate_op(rng, "exact"),
        tomo_simulate_op(rng, "poisson"),
        tomo_simulate_op(rng, "noise"),
    ]


def sense_warmup(rng):
    return [sense_axis_op(rng, OFF_GRID), fringe_op(rng, False, 100, 0.9),
            state_op(rng, "pipeline", OFF_GRID), state_op(rng, "noise", OFF_GRID),
            qfi_op(rng, (300, 301)), tomo_simulate_op(rng, "noise", OFF_GRID)]


# ----------------------------------------------------------- defect probes

def fringe_wrap_probe() -> Op:
    """The CLI golden case, 24 exact steps over the default range: the fit
    sits on the wrap and ``cosine_fit`` returns c = -pi (ROADMAP 5a)."""
    argv = ["fringe", "--steps", "24", "--exact", "--out", "fr"] + _common(1)
    return Op("fringe", argv, lambda d: check_fringe(load_json(d / "fr.json"), 24, 1.0, True))


EMPTY_RESAMPLE_RNG = 1      # its dataset has two rectilinear transmitted counts


def empty_resample_probe() -> Op:
    """A pure-state dataset of ~2 counts per setting with 20 Monte Carlo
    samples: a resample whose rectilinear transmitted counts are all zero
    aborts ``tomo reconstruct`` with exit 3, although the data has some."""
    op, _key = tomo_reconstruct_op(np.random.default_rng(EMPTY_RESAMPLE_RNG), False, 2.0,
                                   "gaussian", mc=20)
    return op


def general_slope_probe() -> Op:
    """At this seed the general search returns slope 1.5218 at k = 5
    against the table's 1.50 +- 0.02, at a matching variance."""
    return table_op(5, "general", 1191741580)[0]


class Workload(NamedTuple):
    cycle: Callable          # rng -> one pass of the timed mix, [(Op, key)]
    warmup: Callable         # rng -> warm-up ops, [(Op, key)]
    probes: tuple            # defect probes of the workload's commands


WORKLOADS = {
    "tomo-mc": Workload(tomo_mc_cycle, tomo_mc_warmup, (empty_resample_probe,)),
    "design": Workload(design_cycle, design_warmup, (general_slope_probe,)),
    "sense": Workload(sense_cycle, sense_warmup, (fringe_wrap_probe,)),
}


def cycle_length(name: str) -> int:
    """Ops in one pass of the workload's mix."""
    return len(WORKLOADS[name].cycle(np.random.default_rng(0)))


def warmup_ops(name: str) -> list:
    """One untimed op per command kind, on inputs the timed stream never
    draws (weights above pi, grids and step counts outside its ranges).
    They are the same for every workload seed, so every set-up does the
    same work."""
    rng = np.random.default_rng(1)
    return [op for op, _key in WORKLOADS[name].warmup(rng)]


def timed_ops(name: str, seed: int, branch: int = 0):
    """Endless stream of the workload's mix; no argument list repeats.
    Streams of different ``branch`` draw disjoint inputs from one seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2 + branch]))
    seen = set()
    while True:
        for pos, (op, key) in enumerate(WORKLOADS[name].cycle(rng)):
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                op.pos = pos
                yield op


def defect_probes(name: str) -> dict:
    """Probe name -> Op: fixed inputs on which the program fails with a
    documented defect. Each run runs them once, outside the timed loop and
    the op counts, and reports whether the defect still shows."""
    return {probe.__name__.removesuffix("_probe"): probe()
            for probe in WORKLOADS[name].probes}
