"""Binning two score samples into aligned histograms and reading off delta.

The binning follows the auditing convention: k bins of equal width h over
[a, b], except that the first bin extends to -infinity and the last to
+infinity, so every sample lands somewhere. Interior boundaries are
left-closed/right-open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import DiscreteDistribution, alpha_from_eps, hockey_stick, symmetric_delta
from .errors import DegenerateSamplesError
from .mechanisms import _require_positive_finite
from .profiles import PrivacyProfile

SCOTT_GAUSSIAN_CONSTANT = 2.0 * 3.0 ** (1.0 / 3.0) * math.pi ** (1.0 / 6.0)
# auto_spec's [a, b] runs between these pooled quantiles
QUANTILE_MARGIN = 0.001


@dataclass(frozen=True)
class BinningSpec:
    """k equal-width bins on [a, b] with open-ended extreme bins."""

    a: float
    b: float
    k: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite a < b, got a={self.a!r} b={self.b!r}")
        if self.k < 2:
            raise ValueError("k must be >= 2")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.k

    def breakpoints(self) -> np.ndarray:
        """The k-1 finite boundaries a+h, ..., b-h."""
        return self.a + self.h * np.arange(1, self.k)

    def bin_indices(self, samples) -> np.ndarray:
        """0-based bin index per sample; interior bins are [edge, next_edge)."""
        return np.searchsorted(self.breakpoints(), np.asarray(samples, dtype=float),
                               side="right")


@dataclass(frozen=True)
class HistogramEstimate:
    """Per-bin relative frequencies of a sample pair on a shared binning."""

    spec: BinningSpec
    p_hat: DiscreteDistribution
    q_hat: DiscreteDistribution
    n: int

    def __post_init__(self):
        if len(self.p_hat) != self.spec.k or len(self.q_hat) != self.spec.k:
            raise ValueError("histogram length must equal spec.k")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def scott_width_gaussian(sigma_hat: float, n: int) -> float:
    """MSE-optimal width for normal data: 2 * 3^(1/3) * pi^(1/6) * sigma * n^(-1/3)."""
    if sigma_hat <= 0 or n < 1:
        raise ValueError("need sigma_hat > 0 and n >= 1")
    return SCOTT_GAUSSIAN_CONSTANT * sigma_hat * n ** (-1.0 / 3.0)


def build_histograms(samples_p, samples_q, spec: BinningSpec) -> HistogramEstimate:
    sp = np.asarray(samples_p, dtype=float)
    sq = np.asarray(samples_q, dtype=float)
    if sp.ndim != 1 or sq.ndim != 1 or sp.size == 0:
        raise ValueError("samples must be non-empty 1-D sequences")
    if sp.size != sq.size:
        raise ValueError(f"sample counts differ: {sp.size} vs {sq.size} "
                         "(equal counts per side are required)")
    if not (np.all(np.isfinite(sp)) and np.all(np.isfinite(sq))):
        raise ValueError("samples must be finite")
    n = sp.size
    p_counts = np.bincount(spec.bin_indices(sp), minlength=spec.k)
    q_counts = np.bincount(spec.bin_indices(sq), minlength=spec.k)
    return HistogramEstimate(spec,
                             DiscreteDistribution(p_counts / n),
                             DiscreteDistribution(q_counts / n), n)


def estimate_delta_symmetric(hist: HistogramEstimate, eps: float) -> float:
    """max over both directions; the estimator used for audit profiles."""
    return symmetric_delta(hist.p_hat, hist.q_hat, eps)


def estimate_profile(hist: HistogramEstimate, eps_grid) -> PrivacyProfile:
    """Tabulate the symmetric estimated delta over an eps grid."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    forward, backward = hockey_stick(hist.p_hat, hist.q_hat, alpha_from_eps(eps_grid))
    return PrivacyProfile.envelope(eps_grid, np.maximum(forward, backward))


def auto_spec(samples_p, samples_q, *, k: int | None = None,
              width: float | None = None) -> BinningSpec:
    """Choose [a, b] from pooled sample quantiles and the bin count from k or width.

    ``a`` and ``b`` are the pooled 0.1% / 99.9% quantiles (robust to
    outliers; the open-ended extreme bins absorb the tails). ``k`` fixes the
    bin count, ``width`` the bin width; with neither, the Scott rule sets the
    width from the pooled sample standard deviation. Giving both raises.
    """
    if k is not None and width is not None:
        raise ValueError("give k or width, not both")
    if width is not None:
        _require_positive_finite(width=width)
    sp = np.asarray(samples_p, dtype=float)
    sq = np.asarray(samples_q, dtype=float)
    if sp.size == 0 or sq.size == 0:
        raise ValueError("samples must be non-empty")
    pooled = np.concatenate([sp, sq])
    a, b = np.quantile(pooled, [QUANTILE_MARGIN, 1.0 - QUANTILE_MARGIN])
    if not a < b:
        raise DegenerateSamplesError(
            "degenerate samples: zero spread between the chosen quantiles")
    if k is not None:
        return BinningSpec(float(a), float(b), int(k))
    if width is None:
        width = scott_width_gaussian(float(pooled.std(ddof=1)), sp.size)
    return BinningSpec(float(a), float(b), max(2, int(math.ceil((b - a) / width))))
