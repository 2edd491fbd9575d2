"""Sixteen-setting two-photon tomography with maximum-likelihood
reconstruction and Monte Carlo error bars.

A dataset is one (16, 4) array of counts: for each setting, the four
outcome pairs of both analyzer ports of both photons. Reconstruction
fits a Cholesky-parameterized density matrix rho(T) = T^dag T /
Tr(T^dag T), which is physical by construction, to all 64 outcome
counts under a Gaussian (default) or exact Poisson likelihood. A damped
Newton solver on the exact Hessian fits a whole stack of datasets at
once, so a Monte Carlo report fits the observed counts and every
resample in one solve, and reads their fidelities and concurrences from
one stacked call each; each fit takes the steps it takes alone
(:func:`_rows_times`). Each fit starts from the least-squares inversion
of its outcome ratios, projected onto the PSD cone. The photon-flux
normalization is estimated from the four rectilinear-basis settings,
whose outcomes partition unity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._optimize import LazyOptimizer, sphere_newton
from .measurement import checked_counts, checked_durations
from .qmath import (PAULI_PRODUCTS, POLARIZATION_KETS, DensityMatrix, PureState2Q, as_density,
                    concurrence, fidelity, tensor)
from .stats import DegenerateDataError

minimize = LazyOptimizer("minimize")

_RECTILINEAR_ROWS = slice(0, 4)   # V(x)V, V(x)H, H(x)H, H(x)V
_DIAG = np.diag_indices(4)
_LOWER = np.tril_indices(4, -1)   # (1,0), (2,0), (2,1), (3,0), (3,1), (3,2)


class ReconstructionError(RuntimeError):
    """Likelihood optimization failed to converge."""


@dataclass(frozen=True)
class TomographySetting:
    """One row of the 16-setting two-photon tomography plan."""

    label: str                       # e.g. "DxD"
    h1: float
    q1: float
    h2: float
    q2: float


# the standard 16-setting two-photon projection plan with lab waveplate
# angles (degrees); the analyzer chain is PBS( HWP( QWP( . ) ) )
_TOMO_PLAN = [
    ("V", "V", 45.0, 0.0, 45.0, 0.0),
    ("V", "H", 45.0, 0.0, 0.0, 0.0),
    ("H", "H", 0.0, 0.0, 0.0, 0.0),
    ("H", "V", 0.0, 0.0, 45.0, 0.0),
    ("L", "V", -22.5, 0.0, 45.0, 0.0),
    ("L", "H", -22.5, 0.0, 0.0, 0.0),
    ("D", "H", -22.5, 45.0, 0.0, 0.0),
    ("D", "V", -22.5, 45.0, 45.0, 0.0),
    ("D", "L", -22.5, 45.0, -22.5, 0.0),
    ("D", "D", -22.5, 45.0, -22.5, 45.0),
    ("L", "D", -22.5, 0.0, -22.5, 45.0),
    ("V", "D", 45.0, 0.0, -22.5, 45.0),
    ("H", "D", 0.0, 0.0, -22.5, 45.0),
    ("H", "R", 0.0, 0.0, 22.5, 0.0),
    ("V", "R", 45.0, 0.0, 22.5, 0.0),
    ("L", "R", -22.5, 0.0, 22.5, 0.0),
]

_ORTHOGONAL = {"H": "V", "V": "H", "D": "A", "A": "D", "L": "R", "R": "L"}


def tomography_settings() -> list[TomographySetting]:
    """The 16 projective settings used for two-photon state tomography."""
    return [TomographySetting(f"{s1}x{s2}", *angles) for s1, s2, *angles in _TOMO_PLAN]


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """Counts of the 16 settings, in the order of tomography_settings().

    ``counts`` is stored as a read-only (16, 4) int64 array, one row of
    outcome-pair counts (++, +-, -+, --) per setting, and ``durations`` as
    the 16 acquisition times in seconds; one value applies to all. A
    setting with counts needs a positive duration.
    """

    counts: np.ndarray
    durations: np.ndarray = 10.0

    def __post_init__(self):
        object.__setattr__(self, "counts", checked_counts(self.counts, (16, 4)))
        object.__setattr__(self, "durations", checked_durations(self.durations, (16,)))
        idle = np.flatnonzero((self.durations == 0) & (self.counts.sum(axis=1) > 0))
        if idle.size:
            label = tomography_settings()[idle[0]].label
            raise ValueError(f"setting {idle[0]} ({label}) has counts but a duration of 0")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """The point estimate ``rho`` and its figures, and the mean and the
    standard deviation of each figure over the Monte Carlo samples."""

    rho: DensityMatrix
    fidelity_to_target: float
    fidelity_stdev: float
    concurrence: float
    concurrence_stdev: float
    mc_samples: int
    point_fidelity: float
    point_concurrence: float


# (16, 4, 4) product kets of the outcome pairs (++, +-, -+, --) of each
# setting; "+" is the plan's state, transmitted, "-" its orthogonal one
_KETS = np.array([[tensor(POLARIZATION_KETS[k1], POLARIZATION_KETS[k2])
                   for k1 in (s1, _ORTHOGONAL[s1]) for k2 in (s2, _ORTHOGONAL[s2])]
                  for s1, s2, *_ in _TOMO_PLAN])
# row-vectorized projectors: row . M.ravel() = <v|M|v> = Tr(M |v><v|)
_PROJECTORS = np.einsum("ski,skj->skij", _KETS.conj(), _KETS).reshape(64, 16)
# two-qubit Pauli basis, and the least-squares map to its coefficients
# from the 64 outcome ratios
_PAULI_BASIS = PAULI_PRODUCTS.reshape(16, 4, 4) / 2
_LEAST_SQUARES = np.linalg.pinv((_PROJECTORS @ _PAULI_BASIS.reshape(16, 16).T).real)
_START_MIX = 0.03   # fraction of I/4 in the start of a fit


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
    q = np.einsum("kx,ijx->kij", _PROJECTORS, gram).real
    return (q + np.swapaxes(q, 1, 2)) / 2


_Q = _quadratic_forms()


def _rectilinear_flux(counts: np.ndarray) -> np.ndarray:
    """Photon flux of each dataset in a (m, 16, 4) stack, estimated from
    the rectilinear settings, whose outcomes partition unity."""
    return counts[:, _RECTILINEAR_ROWS].sum(axis=(1, 2)) / 4.0


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


def _rows_times(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """x @ matrix for rows x (m, n), a lone row paired with a copy of
    itself. numpy hands a lone row to BLAS as a matrix-vector product,
    which rounds differently from the matrix-matrix product of a stack,
    and over a fit to a rank-deficient optimum that difference grows to
    ~1e-10. Paired, a lone fit rounds as it does in a stack wherever BLAS
    rounds each row of a product alone: OpenBLAS's SkylakeX kernels do,
    its Haswell and Prescott kernels do not."""
    if len(x) == 1:
        return (np.concatenate([x, x]) @ matrix)[:1]
    return x @ matrix


class _Likelihood:
    """The negative log-likelihood of a stack of datasets (m, 16, 4) as a
    function of one real T-parameter row per dataset.

    With p_k = t^T Q_k t / s and s = t^T t, the objective is
    f = flux * sum_k phi(p_k, r_k) over the 64 outcomes k of the 16
    settings, for the observed ratios r_k = n_k / flux, so rescaling
    every count leaves the minimizer unchanged. The
    parameterization is the Cholesky T-matrix of James, Kwiat, Munro &
    White (PRA 64, 052312, 2001). Its derivatives are
    grad p_k = 2 (Q_k t - p_k t) / s and
    hess p_k = 2 (Q_k - p_k I) / s - 2 (grad p_k t^T + t grad p_k^T) / s.
    An outcome without counts contributes phi(p, 0) = p / 2 (Gaussian)
    or p (Poisson), smooth down to p = 0; only an outcome with counts
    needs the floor, below which its term is constant.
    """

    # Q_k stacked, C-contiguous, for t -> (Q_k t)_k; flattened for sum_k w_k Q_k
    q_columns = np.ascontiguousarray(_Q.reshape(-1, 16).T)
    q_rows = _Q.reshape(64, 256)

    def __init__(self, counts: np.ndarray, likelihood: str):
        if likelihood not in _LIKELIHOODS:
            raise ValueError(f"unknown likelihood {likelihood!r}")
        self.terms, self.floor = _LIKELIHOODS[likelihood]
        self.flux = _rectilinear_flux(counts)
        if (self.flux <= 0).any():
            raise DegenerateDataError("rectilinear settings recorded no counts")
        self.ratios = counts.reshape(len(counts), 64) / self.flux[:, None]
        self.observed = self.ratios > 0

    def __call__(self, t: np.ndarray, rows: np.ndarray, derivatives: bool = True):
        """f at parameter rows t of the datasets ``rows``; with
        ``derivatives``, (f, gradient, Hessian)."""
        flux, ratios, observed = self.flux[rows], self.ratios[rows], self.observed[rows]
        m = len(t)
        s = np.einsum("mi,mi->m", t, t)
        qt = _rows_times(t, self.q_columns).reshape(m, -1, 16)   # Q_k t
        p = np.einsum("mki,mi->mk", qt, t) / s[:, None]
        # an outcome without counts takes any positive stand-in, and its
        # term is linear in p with the slope phi'(., 0)
        clamped = observed & (p <= self.floor)
        value, d1, d2 = self.terms(np.where(observed, np.maximum(p, self.floor), 1.0), ratios)
        f = flux * np.where(observed, value, d1 * p).sum(axis=1)
        if not derivatives:
            return f
        # with u_k = Q_k t - p_k t, grad p_k = 2 u_k / s: the weights take
        # the factors 2/s and 4/s^2 of the gradient and of the Gauss-Newton
        # term, and a clamped outcome weighs nothing
        keep = np.where(clamped, 0.0, (2 * flux / s)[:, None])
        w1, w2 = keep * d1, keep * (2 / s)[:, None] * d2
        u = qt - p[..., None] * t[:, None, :]
        grad = np.einsum("mk,mki->mi", w1, u)
        # sum_k w1_k (Q_k - p_k I), the p_k I terms taken off a view of the diagonal
        b = _rows_times(w1, self.q_rows).reshape(m, 16, 16)
        np.einsum("mii->mi", b)[...] -= np.einsum("mk,mk->m", w1, p)[:, None]
        gt = grad[:, :, None] * t[:, None, :]
        hess = (np.swapaxes(u * w2[..., None], 1, 2) @ u
                + b - 2 * (gt + np.swapaxes(gt, 1, 2)) / s[:, None, None])
        return f, grad, hess


def _start(nll: _Likelihood) -> np.ndarray:
    """Unit T-parameter rows (m, 16) that start the fit of ``nll``: the
    least-squares inversion of its 64 outcome ratios, clipped to the PSD cone
    (Smolin, Gambetta & Smith, PRL 108, 070502, 2012), mixed with
    _START_MIX of I/4. The mixture keeps the start positive definite and
    off the p = 0 barrier of an observed outcome, where Newton steps only
    halve the objective. The clipped trace is at least the mean outcome
    sum of a setting, and the likelihood refuses data where that is zero."""
    coeffs = _rows_times(nll.ratios, _LEAST_SQUARES.T)
    vals, vecs = np.linalg.eigh(_rows_times(coeffs, _PAULI_BASIS.reshape(16, 16)).reshape(-1, 4, 4))
    rho = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return _cholesky_params((1 - _START_MIX) * rho + _START_MIX * np.eye(4) / 4)


def _fit(counts: np.ndarray, likelihood: str) -> np.ndarray:
    """Unit T-parameter rows (m, 16) of the MLE of each dataset in a
    (m, 16, 4) count stack, each fit started by :func:`_start` from the
    least-squares inversion of its outcome ratios.

    The objective does not depend on the scale of t, so its gradient is
    tangent to the unit sphere and the direction of t is an exact null
    direction of its Hessian (H t = -grad f): ``sphere_newton`` runs on
    it unchanged, with no curvature term to add. A dataset whose line
    search stalls, or that reaches the iteration cap, is accepted only if
    its final gradient is negligible on the scale of its flux.
    """
    nll = _Likelihood(counts, likelihood)
    t, converged, grad = sphere_newton(nll, _start(nll)[:, None])
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


def mle_reconstruct(data: TomographyDataset, likelihood: str = "gaussian") -> DensityMatrix:
    """Maximum-likelihood density matrix for a tomography dataset.

    The fit reads all four outcome-pair counts of every setting. The
    Gaussian likelihood weighs squared residuals by the expected counts;
    the Poisson option is the exact counting likelihood. A damped Newton
    solver minimizes it on the exact gradient and Hessian in the
    Cholesky parameters, starting from the least-squares inversion of
    the outcome ratios, clipped to the PSD cone and mixed with 3% of the
    maximally mixed state.
    """
    counts = data.counts
    if counts.sum() <= 0:
        raise DegenerateDataError("dataset contains no counts")
    return DensityMatrix(_rho_from_params(_fit(counts[None], likelihood))[0])


def monte_carlo_report(data: TomographyDataset, target: PureState2Q,
                       n: int = 100, seed: int = 0,
                       likelihood: str = "gaussian") -> ReconstructionReport:
    """Reconstruction with Poisson-resampled error bars.

    Each of the ``n`` samples redraws every recorded count from a
    Poisson law with the observed value as mean (sample streams are
    SeedSequence(seed) children in order). The observed counts and all
    samples are fitted together, each on all four outcome pairs of every
    setting as in :func:`mle_reconstruct`, and
    the fidelity-to-target and the concurrence of all n + 1 fits come
    from one stacked call each. The report carries the point estimate
    with its two figures, and the mean and standard deviation of each
    figure over the samples. A sample whose rectilinear settings drew no
    counts raises DegenerateDataError naming it.
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
    flux = _rectilinear_flux(stack)
    empty = np.flatnonzero(flux[1:] <= 0)
    if flux[0] > 0 and empty.size:
        raise DegenerateDataError(
            f"Monte Carlo resample {empty[0] + 1} of {n}: rectilinear settings "
            f"recorded no counts (the data's rectilinear settings recorded "
            f"{counts[_RECTILINEAR_ROWS].sum()})")
    rhos = _rho_from_params(_fit(stack, likelihood))
    fids, concs = fidelity(rhos, target), concurrence(rhos)
    return ReconstructionReport(
        rho=DensityMatrix(rhos[0]),
        fidelity_to_target=float(np.mean(fids[1:])),
        fidelity_stdev=float(np.std(fids[1:], ddof=1)),
        concurrence=float(np.mean(concs[1:])),
        concurrence_stdev=float(np.std(concs[1:], ddof=1)),
        mc_samples=n,
        point_fidelity=float(fids[0]),
        point_concurrence=float(concs[0]),
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
