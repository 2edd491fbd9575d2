"""Bin-bootstrap statistics for coincidence data, fringe contrast and
cosine fitting.

Counts for one measurement setting come in L acquisition bins of four
outcome-pair counts each. A bootstrap replicate redraws L bins with
replacement, pools them, and evaluates the weighted-count estimator
E = sum_k w_k N_k / sum_k N_k. A bootstrap draws mu >= 100 replicates
from a master seed; point estimates are replicate means and confidence
intervals are empirical percentiles at level CI_LEVEL (95%).

A sensing run has three settings: the operating point and the phases
shifted by +-h. ``bootstrap_sensing`` resamples each of them once and
derives the expectation, the single-shot variance 1 - E^2, the slope and
the estimator variance from those same replicates, so replicate b of
every statistic comes from one draw of the data (Efron & Tibshirani,
An Introduction to the Bootstrap, 1993). The squared slope under the
estimator variance is floored at SLOPE_SQ_FLOOR (1e-12).

Replicates are drawn and pooled in chunks of _CHUNK_ENTRIES bin indices
(rows x bins), in float64: every temporary stays below glibc's 128 KiB
mmap threshold, and sums of integers below 2**53 are exact, so L times
the largest bin total must stay below 2**53. The draws come in the order
of one (mu, L) draw, with redraws of all-empty replicates after them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import OUTCOME_PAIRS, checked_counts, checked_durations
from .optics import canonical_phase

# bench/spans.py's OPTIMIZERS rebinds this name and nothing calls it; ROADMAP item 5 deletes it
least_squares = None

REDRAW_CAP = 100
# level of the percentile intervals
CI_LEVEL = 0.95
# floor on a replicate's squared slope in the estimator variance
SLOPE_SQ_FLOOR = 1e-12
# drawn bin indices (rows x bins) per resampling chunk: each chunk's int64
# and float64 temporaries take 96 KiB, below glibc's 128 KiB mmap threshold
_CHUNK_ENTRIES = 12288
# pooled counts below this are exact in float64
_EXACT_LIMIT = 2 ** 53


class DegenerateDataError(ValueError):
    """Input counts cannot support the requested statistic."""


class CosineFitError(RuntimeError):
    """The cosine fit did not converge, or what it fitted is no fringe."""


@dataclass(frozen=True, eq=False)
class BinnedCounts:
    """L >= 2 acquisition bins of one measurement setting.

    ``counts`` is stored as a read-only (L, 4) int64 array of outcome-pair
    counts (++, +-, -+, --), one row per bin, and each bin lasts
    ``duration`` seconds.
    """

    counts: np.ndarray
    duration: float = 10.0

    def __post_init__(self):
        counts = checked_counts(self.counts, (len(self.counts), 4))
        if len(counts) < 2:
            raise ValueError("need at least two acquisition bins")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "duration", float(checked_durations(self.duration)))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    samples: np.ndarray
    mean: float
    ci_low: float
    ci_high: float
    n_clamped: int = 0


@dataclass(frozen=True)
class FitResult:
    a: float
    b: float
    c: float
    d: float
    residual: float


def _weight_vector(weights) -> np.ndarray:
    if isinstance(weights, dict):
        return np.array([weights[o] for o in OUTCOME_PAIRS], dtype=float)
    w = np.asarray(weights, dtype=float).reshape(4)
    return w


def _resampled_estimators(counts: np.ndarray, w: np.ndarray,
                          mu: int, rng) -> np.ndarray:
    """mu replicates of the pooled weighted-count estimator.

    The (mu, 4) pooled counts and the (mu,) totals are allocated first,
    then filled in chunks of _CHUNK_ENTRIES drawn bin indices (rows x
    bins; one row per chunk when L is larger): each chunk's draws become
    float64 bin multiplicities (one ``bincount``), pooled by one
    (rows, L) @ (L, 4) product and one (rows, L) @ (L,) product for the
    totals. Up to 12,288 bins no temporary reaches glibc's 128 KiB mmap
    threshold, so no call maps fresh pages. The sums are integers below
    2**53, which float64 holds exactly whatever the summation order; L
    times the largest bin total reaching 2**53 raises ValueError. A
    bounded ``Generator.integers`` gives the same stream drawn at once
    or in pieces, so the replicates equal those of one (mu, L) draw.
    Replicates whose resampled total is zero are redrawn after all
    primary draws, up to REDRAW_CAP passes; persistent zero totals raise
    DegenerateDataError.
    """
    n_bins = counts.shape[0]
    counts = counts.astype(float)
    bin_totals = counts.sum(axis=1)
    if n_bins * bin_totals.max() >= _EXACT_LIMIT:
        raise ValueError(f"{n_bins} bins of up to {bin_totals.max():.6g} counts pool "
                         f"to 2**53 or more, past exact float64 sums")
    totals = np.empty((mu, 4))
    nu = np.empty(mu)
    rows = max(1, _CHUNK_ENTRIES // n_bins)
    offsets = n_bins * np.arange(rows)[:, None]

    def pool(totals, nu):
        for start in range(0, len(nu), rows):
            stop = min(start + rows, len(nu))
            idx = rng.integers(0, n_bins, size=(stop - start, n_bins))
            idx += offsets[:stop - start]
            mult = np.bincount(idx.ravel(), minlength=idx.size)
            mult = mult.reshape(idx.shape).astype(float)
            np.matmul(mult, counts, out=totals[start:stop])
            np.matmul(mult, bin_totals, out=nu[start:stop])

    pool(totals, nu)
    redraws = 0
    while (bad := np.flatnonzero(nu == 0)).size:
        if redraws >= REDRAW_CAP:
            raise DegenerateDataError("resampled totals stayed zero after redraw cap")
        redrawn, redrawn_nu = np.empty((bad.size, 4)), np.empty(bad.size)
        pool(redrawn, redrawn_nu)
        totals[bad], nu[bad] = redrawn, redrawn_nu
        redraws += 1
    return (totals @ w) / nu


def _summarize(samples: np.ndarray, ci_level: float,
               n_clamped: int = 0) -> BootstrapResult:
    samples = np.sort(samples)
    tail = 100 * (1 - ci_level) / 2
    # np.percentile's "linear" rule and its lerp, read off the sorted samples
    last = len(samples) - 1
    index = last * (np.array([tail, 100 - tail]) / 100)
    below = np.minimum(np.floor(index), last).astype(int)
    low, high, t = samples[below], samples[np.minimum(below + 1, last)], index - below
    lo, hi = np.where(t >= 0.5, high - (high - low) * (1 - t), low + (high - low) * t)
    return BootstrapResult(samples=samples, mean=float(samples.mean()),
                           ci_low=float(lo), ci_high=float(hi),
                           n_clamped=n_clamped)


def _replicates(tables, weights, mu: int, seed: int) -> list:
    """mu replicates of the weighted-count estimator of each count table,
    table k resampled with child k of the master seed; raises ValueError
    for mu below 100 and DegenerateDataError for a table with no counts."""
    if mu < 100:
        raise ValueError(f"mu must be >= 100, got {mu}")
    if any(counts.sum() == 0 for counts in tables):
        raise DegenerateDataError("a setting has no counts")
    w = _weight_vector(weights)
    children = np.random.SeedSequence(seed).spawn(len(tables))
    return [_resampled_estimators(counts, w, mu, np.random.default_rng(child))
            for counts, child in zip(tables, children)]


def bootstrap_expectation(bins: BinnedCounts, weights, *, mu: int = 10000,
                          seed: int = 0) -> BootstrapResult:
    """Bin bootstrap of the expectation-value estimator: mu >= 100
    replicates from child 0 of the master seed."""
    samples, = _replicates([bins.counts], weights, mu, seed)
    return _summarize(samples, CI_LEVEL)


@dataclass(frozen=True)
class SensingBootstrap:
    """The four statistics of a sensing run, from one set of replicates."""

    expectation: BootstrapResult
    single_shot_variance: BootstrapResult
    derivative: BootstrapResult
    estimator_variance: BootstrapResult


def bootstrap_sensing(bins_center: BinnedCounts, bins_plus: BinnedCounts,
                      bins_minus: BinnedCounts, h: float, weights, *,
                      mu: int = 10000, seed: int = 0) -> SensingBootstrap:
    """Bin bootstrap of a sensing run at the operating point and +-h.

    Each setting is resampled mu >= 100 times, from children 0, 1 and 2
    of the master seed. Replicate b gives E_c, the slope (E_+ - E_-) / (2h)
    and the estimator variance (1 - E_c^2) / |slope|^2 from the b-th
    resample of each setting. The squared slope in the denominator is
    clamped from below at ``SLOPE_SQ_FLOOR`` and the number of clamped
    replicates is reported.
    """
    if not h > 0:
        raise ValueError(f"shift h must be > 0, got {h!r}")
    e_center, e_plus, e_minus = _replicates(
        [b.counts for b in (bins_center, bins_plus, bins_minus)], weights, mu, seed)
    variance = 1.0 - e_center ** 2
    slope = (e_plus - e_minus) / (2 * h)
    slope_sq = slope ** 2
    return SensingBootstrap(
        expectation=_summarize(e_center, CI_LEVEL),
        single_shot_variance=_summarize(variance, CI_LEVEL),
        derivative=_summarize(slope, CI_LEVEL),
        estimator_variance=_summarize(
            variance / np.maximum(slope_sq, SLOPE_SQ_FLOOR), CI_LEVEL,
            n_clamped=int((slope_sq < SLOPE_SQ_FLOOR).sum())))


def visibility(n_max: float, n_min: float) -> float:
    """Fringe contrast (N_max - N_min) / (N_max + N_min); raises
    ValueError unless the counts are finite with N_max >= N_min >= 0."""
    if not (np.isfinite(n_max) and np.isfinite(n_min)):
        raise ValueError(f"counts must be finite, got {float(n_max)!r} and {float(n_min)!r}")
    if n_min < 0 or n_max < n_min:
        raise ValueError("need n_max >= n_min >= 0")
    if n_max <= 0:
        raise DegenerateDataError("no counts: visibility undefined")
    return float((n_max - n_min) / (n_max + n_min))


def _cosine(x, a, b, c, d):
    return a * np.cos(b * x + c) + d


_FIT_ITERATIONS = 100
_FIT_FTOL = 1e-8
_EPS = np.finfo(float).eps


def _projection(xs, ys, b):
    """Least-squares coefficients (A, B, d) of A cos bx + B sin bx + d at a
    fixed frequency b, the residual y - model, and Kaufman's Jacobian of
    that residual in b."""
    basis = np.stack([np.cos(b * xs), np.sin(b * xs), np.ones_like(xs)], axis=1)
    u, sv, vt = np.linalg.svd(basis, full_matrices=False)
    # a column that vanishes on the samples (sin bx at b = 0 or pi/dx) is dropped
    keep = sv > sv[0] * len(xs) * _EPS
    u, sv, vt = u[:, keep], sv[keep], vt[keep]
    coef = vt.T @ ((u.T @ ys) / sv)
    residual = ys - u @ (u.T @ ys)
    # d basis/db @ coef, projected off the basis
    slope = xs * (coef[1] * basis[:, 0] - coef[0] * basis[:, 1])
    return coef, residual, -(slope - u @ (u.T @ slope))


def cosine_fit(xs, ys) -> FitResult:
    """Least-squares fit of a cos(b x + c) + d to fringe data.

    At a fixed frequency b the model A cos bx + B sin bx + d is linear, so
    the fit is a variable projection (Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413, 1973): a linear least-squares solve for each b, and
    Gauss-Newton on b alone with Kaufman's Jacobian (BIT 15, 49, 1975).
    b starts from the dominant discrete-Fourier component of the
    detrended data (assuming uniform spacing), which makes the fit
    deterministic. The output is canonical: b >= 0 and a <= 0, with c
    wrapped to (-pi, pi] by ``optics.canonical_phase``, so a c on the
    +-pi cut is reported as exactly +pi whichever way rounding falls. On
    samples spaced dx apart, b and 2 pi/dx - b give the same values, so
    there b is reported in [0, pi/dx]. Within half a Fourier bin, pi/(N dx),
    of the Nyquist frequency pi/dx the sine term nearly vanishes on the
    samples; there :class:`CosineFitError` is raised when the standard error
    of its coefficient exceeds the range of the data. Non-finite data, and
    equal first two xs, raise ValueError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 4:
        raise ValueError("need at least four points to fit four parameters")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("xs and ys must be finite")

    dx = xs[1] - xs[0]
    if dx == 0:
        raise ValueError("the first two xs must differ: their spacing sets the start frequency")
    detrended = ys - ys.mean()
    spectrum = np.fft.rfft(detrended)
    if np.abs(spectrum[1:]).max() > 0:
        b = 2 * np.pi * (int(np.argmax(np.abs(spectrum[1:]))) + 1) / (len(xs) * dx)
    else:
        b = 1.0

    # the cost is periodic in b on evenly spaced samples: a step is kept
    # within one Fourier bin of the span, where the start already lies
    max_step = 2 * np.pi / np.ptp(xs)
    _, residual, jac = _projection(xs, ys, b)
    cost = residual @ residual
    for _ in range(_FIT_ITERATIONS):
        step = -(jac @ residual) / (jac @ jac) if jac @ jac > 0 else 0.0
        step = min(max(step, -max_step), max_step)
        # halve the Gauss-Newton step until the residual falls
        while abs(step) > 4 * _EPS * max(abs(b), 1.0):
            _, trial_residual, trial_jac = _projection(xs, ys, b + step)
            if trial_residual @ trial_residual < cost:
                break
            step /= 2
        else:
            break
        b += step
        residual, jac = trial_residual, trial_jac
        cost, previous = residual @ residual, cost
        # the cost also falls without bound towards b = 0 on data that
        # hold less than a period; stop where it no longer falls
        if previous - cost <= _FIT_FTOL * previous:
            break
    else:
        raise CosineFitError(
            f"cosine fit did not converge; best residual {np.sqrt(cost / len(xs)):.3e}")

    b = abs(b)
    nyquist = np.inf
    if dx > 0 and np.allclose(np.diff(xs), dx, rtol=1e-9, atol=0):
        nyquist = np.pi / dx
        b %= 2 * nyquist
        b = min(b, 2 * nyquist - b)
    (cos_coef, sin_coef, d), residual, _ = _projection(xs, ys, b)
    # near b = pi/dx the sine column is nearly flat on the samples: the data
    # fix its coefficient only if their noise is small against its norm
    if nyquist - b < nyquist / len(xs):
        sine = np.sin(b * xs)
        q = np.linalg.qr(np.stack([np.cos(b * xs), np.ones_like(xs)], axis=1))[0]
        if (np.sqrt(residual @ residual / max(len(xs) - 4, 1))
                > np.ptp(ys) * np.linalg.norm(sine - q @ (q.T @ sine))):
            raise CosineFitError(
                f"fitted frequency {b:.6g} lies within half a Fourier bin of the Nyquist "
                f"frequency {nyquist:.6g}, where the noise leaves its amplitude unidentified")
    # A cos bx + B sin bx = a cos(bx + c) with a = -hypot(A, B) <= 0
    a, c = -np.hypot(cos_coef, sin_coef), canonical_phase(np.arctan2(sin_coef, -cos_coef))
    rms = float(np.sqrt(np.mean((_cosine(xs, a, b, c, d) - ys) ** 2)))
    return FitResult(a=float(a), b=float(b), c=float(c), d=float(d), residual=rms)
