"""Sixteen-setting two-photon tomography with maximum-likelihood
reconstruction and Monte Carlo error bars.

Each setting records a four-outcome CountRecord (both analyzer ports of
both photons). Reconstruction optimizes a Cholesky-parameterized
density matrix rho(T) = T^dag T / Tr(T^dag T), which is physical by
construction, against a Gaussian (default) or exact Poisson likelihood.
The photon-flux normalization is estimated from the four
rectilinear-basis settings, whose outcomes partition unity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .measurement import CountRecord, setting_outcome_kets, tomography_settings
from .qmath import (I2, X, Y, Z, DensityMatrix, PureState2Q, as_density, concurrence,
                    fidelity, tensor)
from .stats import DegenerateDataError

_RECTILINEAR_ROWS = slice(0, 4)   # V(x)V, V(x)H, H(x)H, H(x)V
_DIAG = np.diag_indices(4)
_LOWER = np.tril_indices(4, -1)   # (1,0), (2,0), (2,1), (3,0), (3,1), (3,2)


class ReconstructionError(RuntimeError):
    """Likelihood optimization failed to converge."""


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """CountRecords for the 16 settings, aligned to tomography_settings()."""

    records: tuple

    def __post_init__(self):
        records = tuple(self.records)
        if len(records) != 16:
            raise ValueError(f"expected 16 records, got {len(records)}")
        if not all(isinstance(r, CountRecord) for r in records):
            raise TypeError("records must be CountRecord instances")
        object.__setattr__(self, "records", records)

    @property
    def counts(self) -> np.ndarray:
        """(16, 4) array of outcome counts."""
        return np.array([r.counts for r in self.records], dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    rho: DensityMatrix
    fidelity_to_target: float
    fidelity_stdev: float
    concurrence: float
    concurrence_stdev: float
    mc_samples: int


def _outcome_ket_stack() -> np.ndarray:
    """(16, 4, 4) product kets of all outcome pairs per setting."""
    stack = []
    for setting in tomography_settings():
        kets = setting_outcome_kets(setting)
        stack.append([kets["++"], kets["+-"], kets["-+"], kets["--"]])
    return np.array(stack)


_KETS = _outcome_ket_stack()                       # (16, 4, 4)
# row-vectorized projectors: row . M.ravel() = <v|M|v> = Tr(M |v><v|)
_PROJ_ALL = np.einsum("ski,skj->skij", _KETS.conj(), _KETS).reshape(64, 16)
_PROJ_TRANSMITTED = _PROJ_ALL.reshape(16, 4, 16)[:, 0, :]
# two-qubit Pauli basis of linear inversion and the map from its
# coefficients to the transmitted-port probabilities
_PAULI_BASIS = np.array([tensor(p, q) / 2 for p in (I2, X, Y, Z) for q in (I2, X, Y, Z)])
_INVERSION_MATRIX = _PROJ_TRANSMITTED @ _PAULI_BASIS.reshape(16, 16).T


def simulate_tomography(state, rate: float, duration: float, seed: int = 0,
                        poisson: bool = False) -> TomographyDataset:
    """Counts for the 16 settings from a known state.

    Exact mode stores rate * duration * p rounded to integers; Poisson
    mode draws each outcome count with that mean, deterministically for
    a given seed.
    """
    if rate < 0 or duration < 0:
        raise ValueError("rate and duration must be >= 0")
    rho = as_density(state)
    rng = np.random.default_rng(seed)
    records = []
    for kets in _KETS:
        probs = np.clip(np.real(np.einsum("ki,ij,kj->k", kets.conj(), rho, kets)), 0, None)
        means = rate * duration * probs
        counts = rng.poisson(means) if poisson else np.rint(means).astype(np.int64)
        records.append(CountRecord(counts=counts, duration=duration))
    return TomographyDataset(records=tuple(records))


def _cholesky_params(rho: np.ndarray) -> np.ndarray:
    t_mat = np.linalg.cholesky(rho + 1e-12 * np.eye(4))
    params = np.empty(16)
    params[:4] = t_mat[_DIAG].real
    params[4::2] = t_mat[_LOWER].real
    params[5::2] = t_mat[_LOWER].imag
    return params


def _t_matrix(t: np.ndarray) -> np.ndarray:
    """Lower-triangular T of the parameter vector: the real diagonal,
    then (real, imaginary) pairs in _LOWER order."""
    t_mat = np.zeros((4, 4), dtype=complex)
    t_mat[_DIAG] = t[:4]
    t_mat[_LOWER] = t[4::2] + 1j * t[5::2]
    return t_mat


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    t_mat = _t_matrix(t)
    rho = t_mat.conj().T @ t_mat
    return rho / np.trace(rho).real


def _linear_inversion(counts16: np.ndarray) -> np.ndarray:
    """Dual-basis inversion of the transmitted-port counts, PSD-projected."""
    n_total = counts16[_RECTILINEAR_ROWS].sum()
    if n_total <= 0:
        raise DegenerateDataError("rectilinear settings recorded no counts")
    coeffs = np.linalg.solve(_INVERSION_MATRIX, counts16 / n_total)
    rho = np.tensordot(coeffs, _PAULI_BASIS, axes=1)
    rho = (rho + rho.conj().T) / 2
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals.real, 1e-6, None)
    rho = (vecs * vals) @ vecs.conj().T
    return rho / np.trace(rho).real


# per-outcome likelihood in probability space: p, ratios -> (sum of the
# terms, derivative of each term in its p)
def _gaussian_terms(p, ratios):
    return np.sum((p - ratios) ** 2 / (2 * p)), (1 - (ratios / p) ** 2) / 2


def _poisson_terms(p, ratios):
    return np.sum(p - ratios * np.log(p)), 1 - ratios / p


# likelihood -> (terms, floor clamped onto the predicted probabilities)
_LIKELIHOODS = {"gaussian": (_gaussian_terms, 1e-9), "poisson": (_poisson_terms, 1e-12)}


def _objective(counts: np.ndarray, likelihood: str, outcomes: str):
    """The fit's objective, t -> (negative log-likelihood, its gradient),
    and the photon flux that normalizes it.

    With rho = T^dag T / tau, tau = Tr(T^dag T), and g_k = df/dp_k, the
    differential is df = Tr(C (dT^dag T + T^dag dT)) for
    C = (B - Tr(B rho) I) / tau and B = sum_k g_k Pi_k, so
    df/dRe T_rc = 2 Re(T C)_rc and df/dIm T_rc = 2 Im(T C)_rc
    (James, Kwiat, Munro & White, PRA 64, 052312, 2001).
    """
    if outcomes == "all":
        observed = counts.ravel()
        proj = _PROJ_ALL
        flux = counts[_RECTILINEAR_ROWS].sum() / 4.0
    elif outcomes == "transmitted":
        observed = counts[:, 0]
        proj = _PROJ_TRANSMITTED
        flux = counts[_RECTILINEAR_ROWS, 0].sum()
    else:
        raise ValueError(f"unknown outcomes mode {outcomes!r}")
    if flux <= 0:
        raise DegenerateDataError("rectilinear settings recorded no counts")
    if likelihood not in _LIKELIHOODS:
        raise ValueError(f"unknown likelihood {likelihood!r}")
    terms, floor = _LIKELIHOODS[likelihood]
    # the objective is written in probability space and normalized by the
    # flux, so rescaling every count leaves the minimizer unchanged
    ratios = observed / flux
    # the value of the saturated fit p = ratios; without it the Poisson
    # objective carries a constant of ~flux * sum(r log r), and L-BFGS-B's
    # relative ftol then stops up to ~1e-6 away from the minimizer in rho
    saturated = terms(np.maximum(ratios, floor), ratios)[0]

    def nll(t):
        t_mat = _t_matrix(t)
        gram = t_mat.conj().T @ t_mat
        tau = np.trace(gram).real
        rho = gram / tau
        raw = (proj @ rho.ravel()).real
        value, dp = terms(np.maximum(raw, floor), ratios)
        # a clamped probability is constant in the parameters
        g = np.where(raw > floor, flux * dp, 0.0)
        # row k of proj is Pi_k^T flattened
        b = (g @ proj).reshape(4, 4).T
        tc = 2 * t_mat @ ((b - (g @ raw) * np.eye(4)) / tau)
        grad = np.empty(16)
        grad[:4] = tc[_DIAG].real
        grad[4::2] = tc[_LOWER].real
        grad[5::2] = tc[_LOWER].imag
        return float(flux * (value - saturated)), grad

    return nll, flux


def mle_reconstruct(data: TomographyDataset, likelihood: str = "gaussian",
                    outcomes: str = "all") -> DensityMatrix:
    """Maximum-likelihood density matrix for a tomography dataset.

    ``outcomes="all"`` fits the full four-outcome records;
    ``outcomes="transmitted"`` uses only each setting's transmitted-pair
    count (the classic 16-number reconstruction). The Gaussian
    likelihood weighs squared residuals by the expected counts; the
    Poisson option is the exact counting likelihood. L-BFGS-B minimizes
    it with the analytic gradient in the Cholesky parameters. It starts
    from the linear-inversion estimate, which needs transmitted counts in
    the rectilinear settings, and from the maximally mixed state when
    that is missing or does not converge.
    """
    counts = data.counts.astype(float)
    if counts.sum() <= 0:
        raise DegenerateDataError("dataset contains no counts")
    nll, flux = _objective(counts, likelihood, outcomes)

    starts = [_cholesky_params(np.eye(4) / 4)]
    # linear inversion reads the transmitted counts only, which a sparse
    # resample can leave empty in the rectilinear settings
    if counts[_RECTILINEAR_ROWS, 0].sum() > 0:
        starts.insert(0, _cholesky_params(_linear_inversion(counts[:, 0])))
    best = None
    for start in starts:
        res = minimize(nll, start, jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-9})
        if best is None or res.fun < best.fun:
            best = res
        if start is starts[0] and res.success:
            break
    # the near-machine ftol makes L-BFGS-B end in a stalled line search
    # routinely; converged-in-practice means the remaining gradient is
    # negligible on the scale of the recorded flux
    grad_norm = float(np.linalg.norm(best.jac))
    if not best.success and grad_norm > 1e-4 * max(flux, 1.0):
        raise ReconstructionError(
            f"likelihood optimization did not converge; final gradient norm "
            f"{grad_norm:.3e}")
    return DensityMatrix(_rho_from_params(best.x))


def monte_carlo_report(data: TomographyDataset, target: PureState2Q,
                       n: int = 100, seed: int = 0,
                       likelihood: str = "gaussian",
                       outcomes: str = "all") -> ReconstructionReport:
    """Reconstruction with Poisson-resampled error bars.

    Each of the ``n`` samples redraws every recorded count from a
    Poisson law with the observed value as mean (sample streams are
    SeedSequence(seed) children in order) and is reconstructed
    independently; the report carries the mean and standard deviation of
    fidelity-to-target and concurrence over the samples.
    """
    if n < 2:
        raise ValueError("need at least two Monte Carlo samples")
    rho_hat = mle_reconstruct(data, likelihood=likelihood, outcomes=outcomes)
    fids, concs = [], []
    counts = data.counts
    durations = [r.duration for r in data.records]
    for seq in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(seq)
        resampled = rng.poisson(counts)
        dataset = TomographyDataset(records=tuple(
            CountRecord(counts=row, duration=dur)
            for row, dur in zip(resampled, durations)))
        rho = mle_reconstruct(dataset, likelihood=likelihood, outcomes=outcomes)
        fids.append(fidelity(rho, target))
        concs.append(concurrence(rho))
    return ReconstructionReport(
        rho=rho_hat,
        fidelity_to_target=float(np.mean(fids)),
        fidelity_stdev=float(np.std(fids, ddof=1)),
        concurrence=float(np.mean(concs)),
        concurrence_stdev=float(np.std(concs, ddof=1)),
        mc_samples=n,
    )


CSV_FIELDS = ["setting_index", "projector_label", "h1", "q1", "h2", "q2",
              "counts", "duration"]


def write_dataset_csv(path, data: TomographyDataset) -> None:
    """Serialize a dataset; the counts column packs the four outcome
    counts as ``n_pp;n_pm;n_mp;n_mm``."""
    settings = tomography_settings()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for idx, (setting, record) in enumerate(zip(settings, data.records)):
            writer.writerow([
                idx, setting.label,
                f"{setting.h1:g}", f"{setting.q1:g}",
                f"{setting.h2:g}", f"{setting.q2:g}",
                ";".join(str(int(c)) for c in record.counts),
                f"{record.duration:g}",
            ])


def read_dataset_csv(path) -> TomographyDataset:
    """Read a dataset written by :func:`write_dataset_csv`."""
    settings = tomography_settings()
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(CSV_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"malformed dataset CSV: missing columns {sorted(missing)}")
        for row in reader:
            try:
                idx = int(row["setting_index"])
                counts = [int(c) for c in row["counts"].split(";")]
                duration = float(row["duration"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"malformed dataset CSV row: {row!r}") from exc
            if not 0 <= idx < 16 or len(counts) != 4:
                raise ValueError(f"malformed dataset CSV row: {row!r}")
            if idx in rows:
                raise ValueError(f"malformed dataset CSV: setting {idx} appears twice")
            if row["projector_label"] != settings[idx].label:
                raise ValueError(
                    f"row {idx} label {row['projector_label']!r} does not match "
                    f"the standard plan ({settings[idx].label!r})")
            rows[idx] = CountRecord(counts=np.array(counts), duration=duration)
    if len(rows) != 16:
        raise ValueError(f"malformed dataset CSV: found {len(rows)} of 16 settings")
    return TomographyDataset(records=tuple(rows[i] for i in range(16)))
