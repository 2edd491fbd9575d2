"""Sixteen-setting two-photon tomography with maximum-likelihood
reconstruction and Monte Carlo error bars.

A dataset is one (16, 4) array of counts: for each setting, the four
outcome pairs of both analyzer ports of both photons. Reconstruction
fits a Cholesky-parameterized density matrix rho(T) = T^dag T /
Tr(T^dag T), which is physical by construction, to a Gaussian (default)
or exact Poisson likelihood. A damped Newton solver on the exact Hessian
fits a whole stack of datasets at once, so a Monte Carlo report fits the
observed counts and every resample in one solve. The photon-flux
normalization is estimated from the four rectilinear-basis settings,
whose outcomes partition unity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._optimize import LazyOptimizer, sphere_newton
from .measurement import (checked_counts, checked_durations, setting_outcome_kets,
                          tomography_settings)
from .qmath import (I2, X, Y, Z, DensityMatrix, PureState2Q, as_density, concurrence,
                    fidelity, tensor)
from .stats import DegenerateDataError

minimize = LazyOptimizer("minimize")

_RECTILINEAR_ROWS = slice(0, 4)   # V(x)V, V(x)H, H(x)H, H(x)V
_DIAG = np.diag_indices(4)
_LOWER = np.tril_indices(4, -1)   # (1,0), (2,0), (2,1), (3,0), (3,1), (3,2)


class ReconstructionError(RuntimeError):
    """Likelihood optimization failed to converge."""


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """Counts of the 16 settings, in the order of tomography_settings().

    ``counts`` is stored as a read-only (16, 4) int64 array, one row of
    outcome-pair counts (++, +-, -+, --) per setting, and ``durations`` as
    the 16 acquisition times in seconds; one value applies to all.
    """

    counts: np.ndarray
    durations: np.ndarray = 10.0

    def __post_init__(self):
        object.__setattr__(self, "counts", checked_counts(self.counts, (16, 4)))
        object.__setattr__(self, "durations", checked_durations(self.durations, (16,)))

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
    probs = np.clip(np.real(np.einsum("ski,ij,skj->sk", _KETS.conj(), rho, _KETS)), 0, None)
    means = rate * duration * probs
    counts = (np.random.default_rng(seed).poisson(means) if poisson
              else np.rint(means).astype(np.int64))
    return TomographyDataset(counts, duration)


def _t_matrix(t: np.ndarray) -> np.ndarray:
    """Lower-triangular T of parameter vectors (..., 16): the real
    diagonal, then (real, imaginary) pairs in _LOWER order."""
    t_mat = np.zeros(t.shape[:-1] + (4, 4), dtype=complex)
    t_mat[..., _DIAG[0], _DIAG[1]] = t[..., :4]
    t_mat[..., _LOWER[0], _LOWER[1]] = t[..., 4::2] + 1j * t[..., 5::2]
    return t_mat


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    t_mat = _t_matrix(t)
    rho = np.swapaxes(t_mat.conj(), -1, -2) @ t_mat
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _cholesky_params(rho: np.ndarray) -> np.ndarray:
    """Unit parameter vectors of positive-definite matrices (m, 4, 4):
    T = J L^dag J for the Cholesky factor L of J rho J (J reverses the
    basis) is lower triangular with T^dag T = rho."""
    lower = np.linalg.cholesky(rho[:, ::-1, ::-1])
    t_mat = np.swapaxes(lower.conj(), -1, -2)[:, ::-1, ::-1]
    params = np.empty((len(rho), 16))
    params[:, :4] = t_mat[:, _DIAG[0], _DIAG[1]].real
    params[:, 4::2] = t_mat[:, _LOWER[0], _LOWER[1]].real
    params[:, 5::2] = t_mat[:, _LOWER[0], _LOWER[1]].imag
    return params / np.linalg.norm(params, axis=1, keepdims=True)


def _quadratic_forms() -> np.ndarray:
    """(64, 16, 16) real symmetric Q_k with Tr(Pi_k T^dag T) = t^T Q_k t
    over the 16 real parameters t (and Tr(T^dag T) = t^T t)."""
    basis = _t_matrix(np.eye(16))                      # T of each unit parameter
    gram = np.einsum("iba,jbc->ijac", basis.conj(), basis).reshape(16, 16, 16)
    q = np.einsum("kx,ijx->kij", _PROJ_ALL, gram).real
    return (q + np.swapaxes(q, 1, 2)) / 2


_Q_ALL = _quadratic_forms()
_Q_TRANSMITTED = _Q_ALL[::4]


def _linear_inversion(transmitted: np.ndarray) -> np.ndarray:
    """Dual-basis inversion of transmitted-port counts (m, 16) whose
    rectilinear settings hold counts, projected onto the PSD cone."""
    n_total = transmitted[:, _RECTILINEAR_ROWS].sum(axis=1, keepdims=True)
    coeffs = np.linalg.solve(_INVERSION_MATRIX, (transmitted / n_total).T).T
    rho = np.tensordot(coeffs, _PAULI_BASIS, axes=1)
    rho = (rho + np.swapaxes(rho.conj(), 1, 2)) / 2
    vals, vecs = np.linalg.eigh(rho)
    rho = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _start(counts: np.ndarray) -> np.ndarray:
    """Start of each fit: linear inversion mixed with 30% of I/4, or I/4
    alone where the rectilinear settings hold no transmitted counts.
    The mixture keeps the start off the p = 0 barrier of an observed
    outcome, where Newton steps only halve the objective."""
    transmitted = counts[:, :, 0].astype(float)
    rho = np.tile(np.eye(4, dtype=complex) / 4, (len(counts), 1, 1))
    inverted = transmitted[:, _RECTILINEAR_ROWS].sum(axis=1) > 0
    if inverted.any():
        rho[inverted] = 0.7 * _linear_inversion(transmitted[inverted]) + 0.3 * rho[inverted]
    return _cholesky_params(rho)


def _rectilinear_flux(counts: np.ndarray, outcomes: str) -> np.ndarray:
    """Photon flux of each dataset in a (m, 16, 4) stack, estimated from
    the rectilinear settings, whose outcomes partition unity."""
    if outcomes == "all":
        return counts[:, _RECTILINEAR_ROWS].sum(axis=(1, 2)) / 4.0
    if outcomes == "transmitted":
        return counts[:, _RECTILINEAR_ROWS, 0].sum(axis=1).astype(float)
    raise ValueError(f"unknown outcomes mode {outcomes!r}")


# per-outcome likelihood phi(p) for the observed ratio r > 0 of an
# outcome: p, r -> (phi(p) - phi(r), phi'(p), phi''(p)). Both terms are
# written relative to the saturated fit p = r, which keeps them small
# and exact near the minimum.
def _gaussian_terms(p, r):
    return (p - r) ** 2 / (2 * p), (1 - (r / p) ** 2) / 2, r ** 2 / p ** 3


def _poisson_terms(p, r):
    delta = p - r
    return delta - r * np.log1p(delta / np.where(r > 0, r, 1.0)), 1 - r / p, r / p ** 2


# likelihood -> (terms, floor clamped onto the predicted probability of
# an outcome with counts)
_LIKELIHOODS = {"gaussian": (_gaussian_terms, 1e-9), "poisson": (_poisson_terms, 1e-12)}


class _Likelihood:
    """The negative log-likelihood of a stack of datasets (m, 16, 4) as a
    function of one real T-parameter row per dataset.

    With p_k = t^T Q_k t / s and s = t^T t, the objective is
    f = flux * sum_k phi(p_k, r_k) for the observed ratios r_k, so
    rescaling every count leaves the minimizer unchanged. The
    parameterization is the Cholesky T-matrix of James, Kwiat, Munro &
    White (PRA 64, 052312, 2001). Its derivatives are
    grad p_k = 2 (Q_k t - p_k t) / s and
    hess p_k = 2 (Q_k - p_k I) / s - 2 (grad p_k t^T + t grad p_k^T) / s.
    An outcome without counts contributes phi(p, 0) = p / 2 (Gaussian)
    or p (Poisson), smooth down to p = 0; only an outcome with counts
    needs the floor, below which its term is constant.
    """

    def __init__(self, counts: np.ndarray, likelihood: str, outcomes: str):
        if likelihood not in _LIKELIHOODS:
            raise ValueError(f"unknown likelihood {likelihood!r}")
        self.terms, self.floor = _LIKELIHOODS[likelihood]
        self.flux = _rectilinear_flux(counts, outcomes)
        if (self.flux <= 0).any():
            raise DegenerateDataError("rectilinear settings recorded no counts")
        if outcomes == "all":
            observed, self.q = counts.reshape(len(counts), 64), _Q_ALL
        else:
            observed, self.q = counts[:, :, 0], _Q_TRANSMITTED
        self.ratios = observed / self.flux[:, None]
        self.observed = self.ratios > 0

    def __call__(self, t: np.ndarray, rows: np.ndarray, derivatives: bool = True):
        """f at parameter rows t of the datasets ``rows``; with
        ``derivatives``, (f, gradient, Hessian)."""
        flux, ratios, observed = self.flux[rows], self.ratios[rows], self.observed[rows]
        s = np.einsum("mi,mi->m", t, t)
        qt = (t @ self.q.reshape(-1, 16).T).reshape(len(t), -1, 16)   # Q_k t
        p = np.einsum("mki,mi->mk", qt, t) / s[:, None]
        # an outcome without counts takes any positive stand-in, and its
        # term is linear in p with the slope phi'(., 0)
        clamped = observed & (p <= self.floor)
        value, d1, d2 = self.terms(np.where(observed, np.maximum(p, self.floor), 1.0), ratios)
        f = flux * np.where(observed, value, d1 * p).sum(axis=1)
        if not derivatives:
            return f
        w1 = np.where(clamped, 0.0, flux[:, None] * d1)
        w2 = np.where(clamped, 0.0, flux[:, None] * d2)
        dp = 2 * (qt - p[..., None] * t[:, None, :]) / s[:, None, None]
        grad = np.einsum("mk,mki->mi", w1, dp)
        b = (w1 @ self.q.reshape(len(self.q), -1)).reshape(-1, 16, 16)   # sum_k w1_k Q_k
        b -= np.einsum("mk,mk->m", w1, p)[:, None, None] * np.eye(16)
        gt = grad[:, :, None] * t[:, None, :]
        hess = (np.swapaxes(dp * w2[..., None], 1, 2) @ dp
                + 2 * (b - gt - np.swapaxes(gt, 1, 2)) / s[:, None, None])
        return f, grad, hess


def _fit(counts: np.ndarray, likelihood: str, outcomes: str) -> np.ndarray:
    """Unit T-parameter rows (m, 16) of the MLE of each dataset in a
    (m, 16, 4) count stack.

    The objective does not depend on the scale of t, so its gradient is
    tangent to the unit sphere and the direction of t is an exact null
    direction of its Hessian (H t = -grad f): ``sphere_newton`` runs on
    it unchanged, with no curvature term to add. A dataset whose line
    search stalls, or that reaches the iteration cap, is accepted only if
    its final gradient is negligible on the scale of its flux.
    """
    nll = _Likelihood(counts, likelihood, outcomes)
    t, converged, grad = sphere_newton(nll, _start(counts)[:, None])
    _accept_unconverged(grad, nll.flux[~converged])
    return t[:, 0]


def _accept_unconverged(grad: np.ndarray, flux: np.ndarray) -> None:
    """Raise unless every gradient is negligible on the scale of its
    dataset's flux."""
    norms = np.linalg.norm(grad, axis=1)
    bad = norms > 1e-4 * np.maximum(flux, 1.0)
    if bad.any():
        raise ReconstructionError(
            f"likelihood optimization did not converge; final gradient norm "
            f"{norms[bad].max():.3e}")


def mle_reconstruct(data: TomographyDataset, likelihood: str = "gaussian",
                    outcomes: str = "all") -> DensityMatrix:
    """Maximum-likelihood density matrix for a tomography dataset.

    ``outcomes="all"`` fits the full four-outcome records;
    ``outcomes="transmitted"`` uses only each setting's transmitted-pair
    count (the classic 16-number reconstruction). The Gaussian
    likelihood weighs squared residuals by the expected counts; the
    Poisson option is the exact counting likelihood. A damped Newton
    solver minimizes it on the exact gradient and Hessian in the
    Cholesky parameters, starting from the linear-inversion estimate
    mixed with the maximally mixed state (from the maximally mixed state
    alone when the rectilinear settings hold no transmitted counts).
    """
    counts = data.counts
    if counts.sum() <= 0:
        raise DegenerateDataError("dataset contains no counts")
    return DensityMatrix(_rho_from_params(_fit(counts[None], likelihood, outcomes))[0])


def monte_carlo_report(data: TomographyDataset, target: PureState2Q,
                       n: int = 100, seed: int = 0,
                       likelihood: str = "gaussian",
                       outcomes: str = "all") -> ReconstructionReport:
    """Reconstruction with Poisson-resampled error bars.

    Each of the ``n`` samples redraws every recorded count from a
    Poisson law with the observed value as mean (sample streams are
    SeedSequence(seed) children in order). The observed counts and all
    samples are fitted together, each as in :func:`mle_reconstruct`; the
    report carries the point estimate and the mean and standard
    deviation of fidelity-to-target and concurrence over the samples. A
    sample whose rectilinear settings drew no counts raises
    DegenerateDataError naming it.
    """
    if n < 2:
        raise ValueError("need at least two Monte Carlo samples")
    counts = data.counts
    if counts.sum() <= 0:
        raise DegenerateDataError("dataset contains no counts")
    # allocated before the n seeds are spawned, so an oversized n fails at once
    stack = np.empty((n + 1, 16, 4), dtype=np.int64)
    stack[0] = counts
    for row, seq in zip(stack[1:], np.random.SeedSequence(seed).spawn(n)):
        row[:] = np.random.default_rng(seq).poisson(counts)
    flux = _rectilinear_flux(stack, outcomes)
    empty = np.flatnonzero(flux[1:] <= 0)
    if flux[0] > 0 and empty.size:
        raise DegenerateDataError(
            f"Monte Carlo resample {empty[0] + 1} of {n}: rectilinear settings "
            f"recorded no counts (the data's rectilinear settings recorded "
            f"{counts[_RECTILINEAR_ROWS].sum()})")
    rhos = _rho_from_params(_fit(stack, likelihood, outcomes))
    fids = [fidelity(rho, target) for rho in rhos[1:]]
    concs = [concurrence(rho) for rho in rhos[1:]]
    return ReconstructionReport(
        rho=DensityMatrix(rhos[0]),
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
        for idx, (s, counts, duration) in enumerate(zip(settings, data.counts, data.durations)):
            writer.writerow([idx, s.label, f"{s.h1:g}", f"{s.q1:g}", f"{s.h2:g}", f"{s.q2:g}",
                             ";".join(map(str, counts)), f"{duration:g}"])


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
            rows[idx] = counts, duration
    if len(rows) != 16:
        raise ValueError(f"malformed dataset CSV: found {len(rows)} of 16 settings")
    counts, durations = zip(*(rows[i] for i in range(16)))
    return TomographyDataset(counts, durations)
