"""Bin-bootstrap statistics for coincidence data, fringe contrast and
cosine fitting.

Counts for one measurement setting come in L acquisition bins of four
outcome-pair counts each. A bootstrap replicate redraws L bins with
replacement, pools them, and evaluates the weighted-count estimator
E = sum_k w_k N_k / sum_k N_k. Point estimates are replicate means and
confidence intervals are empirical percentiles.

A sensing run has three settings: the operating point and the phases
shifted by +-h. ``bootstrap_sensing`` resamples each of them once and
derives the expectation, the single-shot variance 1 - E^2, the slope and
the estimator variance from those same replicates, so replicate b of
every statistic comes from one draw of the data (Efron & Tibshirani,
An Introduction to the Bootstrap, 1993).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optimize import LazyOptimizer
from .measurement import OUTCOME_PAIRS, checked_counts, checked_durations
from .optics import canonical_phase

least_squares = LazyOptimizer("least_squares")

REDRAW_CAP = 100


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


@dataclass(frozen=True)
class BootstrapConfig:
    mu: int = 10000
    epsilon: float = 1e-12
    seed: int = 0
    ci_level: float = 0.95

    def __post_init__(self):
        if self.mu < 100:
            raise ValueError("mu must be >= 100")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if not 0 < self.ci_level < 1:
            raise ValueError("ci_level must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    samples: np.ndarray
    mean: float
    ci_low: float
    ci_high: float
    n_clamped: int = 0

    @property
    def ci(self) -> tuple[float, float]:
        return self.ci_low, self.ci_high


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


def _pooled(idx: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Pooled counts of each row of drawn bin indices: ``counts[idx].sum(axis=1)``.

    Each row's draws become bin multiplicities, so the pooling is one
    (rows, L) @ (L, 4) product. The sums are int64 and therefore exact, so
    the result does not depend on the summation order.
    """
    rows = idx.shape[0]
    n_bins = counts.shape[0]
    flat = (idx + n_bins * np.arange(rows)[:, None]).ravel()
    mult = np.bincount(flat, minlength=rows * n_bins).reshape(rows, n_bins)
    return mult @ counts


def _resampled_estimators(counts: np.ndarray, w: np.ndarray,
                          mu: int, rng) -> np.ndarray:
    """mu replicates of the pooled weighted-count estimator.

    Replicates whose resampled total is zero are redrawn, up to
    REDRAW_CAP passes; persistent zero totals raise DegenerateDataError.
    """
    n_bins = counts.shape[0]
    idx = rng.integers(0, n_bins, size=(mu, n_bins))
    totals = _pooled(idx, counts)
    nu = totals.sum(axis=1)
    redraws = 0
    while (nu == 0).any():
        if redraws >= REDRAW_CAP:
            raise DegenerateDataError("resampled totals stayed zero after redraw cap")
        bad = nu == 0
        redraw = rng.integers(0, n_bins, size=(int(bad.sum()), n_bins))
        totals[bad] = _pooled(redraw, counts)
        nu = totals.sum(axis=1)
        redraws += 1
    return (totals @ w) / nu


def _summarize(samples: np.ndarray, ci_level: float,
               n_clamped: int = 0) -> BootstrapResult:
    samples = np.sort(samples)
    tail = 100 * (1 - ci_level) / 2
    lo, hi = np.percentile(samples, [tail, 100 - tail])
    return BootstrapResult(samples=samples, mean=float(samples.mean()),
                           ci_low=float(lo), ci_high=float(hi),
                           n_clamped=n_clamped)


def bootstrap_expectation(bins: BinnedCounts, weights,
                          cfg: BootstrapConfig) -> BootstrapResult:
    """Bin bootstrap of the expectation-value estimator."""
    counts = bins.counts
    if counts.sum() == 0:
        raise DegenerateDataError("no counts recorded")
    w = _weight_vector(weights)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    samples = _resampled_estimators(counts, w, cfg.mu, rng)
    return _summarize(samples, cfg.ci_level)


@dataclass(frozen=True)
class SensingBootstrap:
    """The four statistics of a sensing run, from one set of replicates."""

    expectation: BootstrapResult
    single_shot_variance: BootstrapResult
    derivative: BootstrapResult
    estimator_variance: BootstrapResult


def bootstrap_sensing(bins_center: BinnedCounts, bins_plus: BinnedCounts,
                      bins_minus: BinnedCounts, h: float, weights,
                      cfg: BootstrapConfig) -> SensingBootstrap:
    """Bin bootstrap of a sensing run at the operating point and +-h.

    Each setting is resampled once, from children 0, 1 and 2 of the
    master seed. Replicate b gives E_c, the slope (E_+ - E_-) / (2h) and
    the estimator variance (1 - E_c^2) / |slope|^2 from the b-th resample
    of each setting. The squared slope in the denominator is clamped from
    below by ``cfg.epsilon`` and the number of clamped replicates is
    reported.
    """
    if h <= 0:
        raise ValueError("shift h must be > 0")
    tables = [b.counts for b in (bins_center, bins_plus, bins_minus)]
    if any(counts.sum() == 0 for counts in tables):
        raise DegenerateDataError("a setting has no counts")
    w = _weight_vector(weights)
    children = np.random.SeedSequence(cfg.seed).spawn(3)
    e_center, e_plus, e_minus = (
        _resampled_estimators(counts, w, cfg.mu, np.random.default_rng(child))
        for counts, child in zip(tables, children))
    variance = 1.0 - e_center ** 2
    slope = (e_plus - e_minus) / (2 * h)
    slope_sq = slope ** 2
    return SensingBootstrap(
        expectation=_summarize(e_center, cfg.ci_level),
        single_shot_variance=_summarize(variance, cfg.ci_level),
        derivative=_summarize(slope, cfg.ci_level),
        estimator_variance=_summarize(
            variance / np.maximum(slope_sq, cfg.epsilon), cfg.ci_level,
            n_clamped=int((slope_sq < cfg.epsilon).sum())))


def visibility(n_max: float, n_min: float) -> float:
    """Fringe contrast (N_max - N_min) / (N_max + N_min)."""
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
    there b is reported in [0, pi/dx].
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 4:
        raise ValueError("need at least four points to fit four parameters")

    dx = xs[1] - xs[0]
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
    if dx > 0 and np.allclose(np.diff(xs), dx, rtol=1e-9, atol=0):
        alias = 2 * np.pi / dx
        b %= alias
        b = min(b, alias - b)
    (cos_coef, sin_coef, d), _, _ = _projection(xs, ys, b)
    # A cos bx + B sin bx = a cos(bx + c) with a = -hypot(A, B) <= 0
    a, c = -np.hypot(cos_coef, sin_coef), canonical_phase(np.arctan2(sin_coef, -cos_coef))
    rms = float(np.sqrt(np.mean((_cosine(xs, a, b, c, d) - ys) ** 2)))
    return FitResult(a=float(a), b=float(b), c=float(c), d=float(d), residual=rms)
