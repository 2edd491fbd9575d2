"""Output checks for each benchmarked ``wgstate`` command.

Every tolerance comes from the physics or from the acceptance tables, not
from golden bytes, so a check holds for any workload seed and for any
change of RNG stream or optimiser inside the program. A check raises
:class:`CheckFailed` with a reason; it returns nothing on success.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Optional

import numpy as np

# acceptance tables at the weights k*pi/8 (theta_star = 0, shift 5 deg):
# Pauli: k -> (labels, expectation, |slope|, estimator variance)
PAULI_TABLE = {
    8: (("Z", "Y"), 0.00, 2.00, 0.25),
    7: (("Z", "Y"), -0.19, 1.92, 0.26),
    6: (("Z", "Y"), -0.35, 1.71, 0.30),
    5: (("Z", "Y"), -0.46, 1.38, 0.41),
    4: (("Z", "Y"), -0.50, 1.00, 0.75),
    3: (("Y", "Y"), 0.31, 0.92, 1.06),
    2: (("I", "Y"), 0.35, 0.85, 1.20),
    1: (("I", "Y"), 0.19, 0.96, 1.04),
    0: (("I", "Y"), 0.00, 1.00, 1.00),
}
PAULI_TOL = 0.01
# general axis: k -> (|slope|, estimator variance)
GENERAL_AXIS_TABLE = {
    8: (2.00, 0.25), 7: (1.92, 0.26), 6: (1.69, 0.28), 5: (1.50, 0.32),
    4: (1.34, 0.39), 3: (1.17, 0.51), 2: (1.05, 0.69), 1: (1.05, 0.90),
    0: (1.00, 1.00),
}
GENERAL_VARIANCE_TOL = 0.01
GENERAL_SLOPE_TOL = 0.02

PHYSICAL_ATOL = 1e-9        # Hermiticity, trace and eigenvalue floor of rho
OVERLAP_FLOOR = 1 - 1e-8    # waveplate pair must transmit its projector
EXACT_ATOL = 1e-9           # closed-form identities

# Bloch axes (beta, alpha) measured for each Pauli label; I is read in H/V
PAULI_AXES = {"I": (0.0, 0.0), "Z": (0.0, 0.0),
              "X": (math.pi / 2, 0.0), "Y": (math.pi / 2, math.pi / 2)}


class CheckFailed(Exception):
    """An output violates a physical law or an acceptance tolerance."""


class KnownDefect(CheckFailed):
    """A failure with the signature of a documented program defect:
    ``cosine_fit`` returning c = -pi, outside its documented (-pi, pi], or
    a general-axis search whose variance matches the table while the slope
    it picks among variance-tied points lies off it. The op still counts
    as failed; only such failures leave the run's ``correct`` verdict
    true."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def qfi(phi12: float) -> float:
    c = math.cos(phi12)
    return (11 - 6 * c - c * c) / 4


def graph_state(phi12: float) -> np.ndarray:
    return np.array([1, 1, 1, np.exp(1j * phi12)], dtype=complex) / 2


def noisy_density(phi12: float, p: float, sigma: float) -> np.ndarray:
    """Graph state with Gaussian arm-phase jitter and a depolarising floor.

    Averaging exp(i delta), delta ~ N(0, sigma^2), damps the coherences
    between the photon-1 H and V blocks by exp(-sigma^2 / 2).
    """
    psi = graph_state(phi12)
    rho = np.outer(psi, psi.conj())
    damping = math.exp(-sigma * sigma / 2)
    rho[:2, 2:] *= damping
    rho[2:, :2] *= damping
    return (1 - p) * rho + p * np.eye(4) / 4


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def matrix_from_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    require(arr.shape == (4, 4, 2), f"density matrix has shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def check_physical(rho: np.ndarray) -> None:
    require(np.all(np.isfinite(rho)), "density matrix is not finite")
    require(np.max(np.abs(rho - rho.conj().T)) <= PHYSICAL_ATOL,
            "density matrix is not Hermitian")
    require(abs(np.trace(rho) - 1) <= PHYSICAL_ATOL, "trace differs from 1")
    require(np.linalg.eigvalsh(rho).min() >= -PHYSICAL_ATOL,
            "density matrix has a negative eigenvalue")


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ------------------------------------------------------------------ state

def check_state(payload: dict, phi12: float, noise=None) -> None:
    """Pure states: concurrence |sin(phi/2)| and unit fidelity to the ideal.
    Noisy states: physical rho with the closed-form fidelity
    (1 - p)(1 + exp(-sigma^2/2))/2 + p/4."""
    require(payload.get("phi12") == phi12, "phi12 not echoed")
    if noise is None:
        amps = np.asarray(payload["amplitudes"], dtype=float)
        psi = amps[:, 0] + 1j * amps[:, 1]
        require(abs(np.linalg.norm(psi) - 1) <= EXACT_ATOL, "state not normalised")
        require(abs(payload["concurrence"] - abs(math.sin(phi12 / 2))) <= EXACT_ATOL,
                f"concurrence {payload['concurrence']!r} != |sin(phi/2)|")
        require(abs(payload["fidelity_to_ideal"] - 1) <= EXACT_ATOL,
                f"fidelity to ideal {payload['fidelity_to_ideal']!r} != 1")
    else:
        p, sigma = noise
        rho = matrix_from_pairs(payload["density_matrix"])
        check_physical(rho)
        expected = (1 - p) * (1 + math.exp(-sigma * sigma / 2)) / 2 + p / 4
        require(abs(payload["fidelity_to_ideal"] - expected) <= EXACT_ATOL,
                f"fidelity {payload['fidelity_to_ideal']!r} != {expected!r}")
        require(0 <= payload["concurrence"] <= 1, "concurrence outside [0, 1]")


# -------------------------------------------------------------------- qfi

def check_qfi(path, grid: int) -> None:
    """Every row satisfies F_Q = (11 - 6 cos phi - cos^2 phi)/4 on a
    uniform grid over [0, pi]."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == grid, f"{len(rows)} rows, expected {grid}")
    for i, row in enumerate(rows):
        phi = float(row["phi12"])
        fq = float(row["F_Q"])
        require(abs(phi - math.pi * i / (grid - 1)) <= EXACT_ATOL, f"row {i} weight {phi}")
        require(abs(fq - qfi(phi)) <= EXACT_ATOL, f"row {i}: F_Q {fq} != closed form")
        require(abs(float(row["QCRB"]) * fq - 1) <= EXACT_ATOL, f"row {i}: QCRB != 1/F_Q")
        require(float(row["SQL"]) == 0.5 and float(row["HL"]) == 0.25,
                f"row {i}: limits")


# --------------------------------------------------------------- optimize

def _jones(kind: str, lab_deg: float) -> np.ndarray:
    """Waveplate mounted at a lab angle (read from vertical, so the fast
    axis sits at 90 deg - lab from horizontal)."""
    t = math.radians(90.0 - lab_deg)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    plate = np.diag([1, 1j]) if kind == "qwp" else np.diag([1, -1])
    return rot @ plate @ rot.T


def axis_ket(beta: float, alpha: float, outcome: str) -> np.ndarray:
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    ph = np.exp(1j * alpha)
    return np.array([c, s * ph] if outcome == "+" else [-s, c * ph], dtype=complex)


def analyzer_transmission(hwp_deg: float, qwp_deg: float, ket) -> float:
    """|<H| HWP QWP |ket>|^2: the photon meets the QWP first, then the
    HWP, then a polariser transmitting H."""
    out = _jones("hwp", hwp_deg) @ _jones("qwp", qwp_deg) @ np.asarray(ket, dtype=complex)
    return float(abs(out[0]) ** 2)


def check_waveplates(payload: dict) -> None:
    obs = payload["observable"]
    if "axis_angles_deg" in obs:
        b1, a1, b2, a2 = (math.radians(v) for v in obs["axis_angles_deg"])
        axes = [(b1, a1), (b2, a2)]
    else:
        axes = [PAULI_AXES[label] for label in obs["pauli_labels"]]
    plates = payload["waveplates"]
    require(len(plates) == 4, "expected four waveplate pairs")
    for photon, (beta, alpha) in enumerate(axes, start=1):
        for outcome, name in (("+", "plus"), ("-", "minus")):
            pair = plates[f"photon{photon}_{name}"]
            h, q = pair["hwp_deg"], pair["qwp_deg"]
            require(-90 < h <= 90 and -90 < q <= 90,
                    f"photon{photon}_{name}: angles ({h}, {q}) outside (-90, 90]")
            overlap = analyzer_transmission(h, q, axis_ket(beta, alpha, outcome))
            require(overlap >= OVERLAP_FLOOR,
                    f"photon{photon}_{name}: transmission {overlap!r} < 1 - 1e-8")


def check_optimize(payload: dict, phi: float, kind: str, k: Optional[int] = None) -> None:
    """The estimator variance respects the quantum Cramer-Rao bound and
    every waveplate pair realises its projector; at phi = k pi/8 the
    result also matches the acceptance table."""
    require(payload["kind"] == kind, "kind not echoed")
    var = payload["estimator_variance"]
    slope = payload["derivative_magnitude"]
    require(finite(var, slope, payload["expectation"]), "non-finite figures")
    require(var >= 1 / qfi(phi) - EXACT_ATOL, f"variance {var} below 1/F_Q")
    require(abs(payload["qcrb"] * qfi(phi) - 1) <= EXACT_ATOL, "qcrb != 1/F_Q")
    check_waveplates(payload)
    if k is None:
        return
    if kind == "pauli":
        labels, e_t, d_t, v_t = PAULI_TABLE[k]
        require(tuple(payload["observable"].get("pauli_labels", ())) == labels,
                f"k={k}: operator {payload['observable'].get('pauli_labels')}")
        require(abs(payload["expectation"] - e_t) <= PAULI_TOL
                and abs(slope - d_t) <= PAULI_TOL and abs(var - v_t) <= PAULI_TOL,
                f"k={k}: ({payload['expectation']:.4f}, {slope:.4f}, {var:.4f}) "
                f"off the Pauli table")
    else:
        d_t, v_t = GENERAL_AXIS_TABLE[k]
        require(abs(var - v_t) <= GENERAL_VARIANCE_TOL,
                f"k={k}: variance {var:.4f} vs {v_t}")
        if abs(slope - d_t) > GENERAL_SLOPE_TOL:
            raise KnownDefect(f"k={k}: slope {slope:.4f} vs {d_t} at a matching variance")


# ------------------------------------------------------------------ sense

def check_sense(payload: dict, phi12: float) -> None:
    """The ideal estimator variance respects 1/F_Q; every bootstrap
    interval is finite and ordered."""
    ideal = payload["ideal"]["estimator_variance"]
    require(finite(ideal), "ideal variance not finite")
    require(ideal >= 1 / qfi(phi12) - EXACT_ATOL,
            f"ideal variance {ideal} below 1/F_Q = {1 / qfi(phi12)}")
    for name in ("expectation", "single_shot_variance", "derivative",
                 "estimator_variance"):
        block = payload[name]
        lo, hi = block["ci95"]
        require(finite(block["mean"], lo, hi), f"{name}: non-finite")
        require(lo <= hi, f"{name}: CI [{lo}, {hi}] not ordered")


# ----------------------------------------------------------------- fringe

def fringe_visibility(steps: int, contrast: float, start: float, stop: float) -> float:
    phases = start + (stop - start) * np.arange(steps) / steps
    law = 1 + contrast * np.cos(phases)
    return float((law.max() - law.min()) / (law.max() + law.min()))


def check_fringe(payload: dict, steps: int, contrast: float, exact: bool,
                 start: float = 0.0, stop: float = 2 * math.pi) -> None:
    """Exact sweeps: the visibility equals the contrast seen on the sampled
    phases. Always: the fitted phase c lies in (-pi, pi]."""
    fit = payload["fit"]
    vis = payload["visibility"]
    require(finite(vis, *fit.values()), "non-finite fit")
    if exact:
        expected = fringe_visibility(steps, contrast, start, stop)
        require(abs(vis - expected) <= EXACT_ATOL, f"visibility {vis!r} != {expected!r}")
    else:
        require(0 <= vis <= 1, f"visibility {vis} outside [0, 1]")
    c = fit["c"]
    if c == -math.pi:
        raise KnownDefect("cosine_fit returned c = -pi, outside (-pi, pi]")
    require(-math.pi < c <= math.pi, f"fit phase c = {c!r} outside (-pi, pi]")


# ------------------------------------------------------------- tomography

def check_dataset_csv(path, per_setting: float, exact: bool) -> None:
    """16 settings of four non-negative counts; an exact dataset rounds
    rate * duration * p per outcome, so each setting sums to rate *
    duration within the rounding of four numbers."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == 16, f"{len(rows)} settings, expected 16")
    for row in rows:
        counts = [int(c) for c in row["counts"].split(";")]
        require(len(counts) == 4 and min(counts) >= 0, f"bad counts {row['counts']!r}")
        if exact:
            require(abs(sum(counts) - per_setting) <= 2,
                    f"setting {row['setting_index']}: total {sum(counts)} "
                    f"vs {per_setting}")


def check_reconstruct(payload: dict, rho_true: np.ndarray, per_setting: float,
                      mc: int) -> None:
    """rho is physical and within 3/sqrt(counts per setting) trace distance
    of the generating state (the Poisson error of one setting's
    frequencies); the Monte Carlo spreads are finite."""
    rho = matrix_from_pairs(payload["density_matrix"])
    check_physical(rho)
    tol = min(1.0, 3 / math.sqrt(per_setting))
    dist = trace_distance(rho, rho_true)
    require(dist <= tol, f"trace distance {dist:.4f} to the generating state > {tol:.4f}")
    require(payload["mc_samples"] == mc, "mc_samples not echoed")
    for name in ("fidelity_to_target", "concurrence"):
        block = payload[name]
        require(finite(block["mean"], block["stdev"]) and block["stdev"] >= 0,
                f"{name}: non-finite Monte Carlo figures")
