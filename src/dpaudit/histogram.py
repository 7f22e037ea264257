"""Binning two score samples into aligned histograms and reading off delta.

The binning follows the auditing convention: k bins of equal width h over
[a, b], except that the first bin extends to -infinity and the last to
+infinity, so every sample lands somewhere. Interior boundaries are
left-closed/right-open.

Choosing the bins and counting into them read each sample on its own,
block by block, and never pool them, so extra memory stays O(block). A
sample's part of the choice is ``binning_side``, run in lock-step with the
other sample's: the sides swap their few smallest and largest values and
their sums, and for the Scott rule their blocked squared-deviation sums
about the pooled mean, and then each makes the same choice. Its part of
the count is ``bin_counts``, and ``HistogramEstimate.from_counts`` merges
the two. ``auto_spec`` and ``build_histograms`` run these in turn in one
process; the CLI runs each side in the process that reads its score file
(``scores.both``), so no process holds both samples. The edges a and b are
the pooled 0.1% / 99.9% quantiles, equal bit for bit to ``np.quantile`` of
the concatenated samples: numpy's linear rule reads two adjacent order
statistics of the union, and those lie among the few smallest (or largest)
values of each side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import (DiscreteDistribution, _count_at_or_below, alpha_from_eps,
                       hockey_stick, symmetric_delta)
from .errors import DegenerateSamplesError
from .mechanisms import _require_positive_finite
from .profiles import PrivacyProfile
from .scores import both

SCOTT_GAUSSIAN_CONSTANT = 2.0 * 3.0 ** (1.0 / 3.0) * math.pi ** (1.0 / 6.0)
# auto_spec's [a, b] runs between these pooled quantiles
QUANTILE_MARGIN = 0.001
# values per block in the blocked passes; temporaries stay O(block)
BIN_BLOCK = 2 ** 16


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
        if not math.isfinite(self.h):
            raise ValueError(f"need a finite bin width (b - a) / k, got {self.h!r}")

    @property
    def h(self) -> float:
        # in Python floats a span past the float64 range is inf, without a warning
        return (float(self.b) - float(self.a)) / self.k

    def breakpoints(self) -> np.ndarray:
        """The k-1 finite boundaries a+h, ..., b-h."""
        return self.a + self.h * np.arange(1, self.k)

    def bin_indices(self, samples) -> np.ndarray:
        """0-based bin index per sample; interior bins are [edge, next_edge).

        Equal to ``searchsorted(breakpoints(), samples, "right")``, found by
        arithmetic and checked against the breakpoints' own float expression.
        """
        x = np.asarray(samples, dtype=float)
        return _count_at_or_below(x.ravel(), self.a, self.h, 1, self.k - 1).reshape(x.shape)


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

    @classmethod
    def from_counts(cls, spec: BinningSpec, counts_p, counts_q) -> "HistogramEstimate":
        """The estimate of two equal-size samples from their counts per bin."""
        n = int(np.sum(counts_p))
        return cls(spec, DiscreteDistribution(counts_p / n), DiscreteDistribution(counts_q / n), n)


def scott_width_gaussian(sigma_hat: float, n: int) -> float:
    """MSE-optimal width for normal data: 2 * 3^(1/3) * pi^(1/6) * sigma * n^(-1/3)."""
    _require_positive_finite(sigma_hat=sigma_hat)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n!r}")
    return SCOTT_GAUSSIAN_CONSTANT * sigma_hat * n ** (-1.0 / 3.0)


def _finite_blocks(x: np.ndarray, size: int):
    """Consecutive slices of ``x``; raises on the first block holding a NaN or inf."""
    for start in range(0, x.size, size):
        block = x[start:start + size]
        if not np.all(np.isfinite(block)):
            raise ValueError("samples must be finite")
        yield block


def bin_counts(samples, spec: BinningSpec) -> np.ndarray:
    """One sample's count per bin of ``spec``, counted block by block."""
    count = np.zeros(spec.k, dtype=np.int64)
    for block in _finite_blocks(np.asarray(samples, dtype=float), BIN_BLOCK):
        count += np.bincount(spec.bin_indices(block), minlength=spec.k)
    return count


def build_histograms(samples_p, samples_q, spec: BinningSpec) -> HistogramEstimate:
    sp = np.asarray(samples_p, dtype=float)
    sq = np.asarray(samples_q, dtype=float)
    if sp.ndim != 1 or sq.ndim != 1 or sp.size == 0:
        raise ValueError("samples must be non-empty 1-D sequences")
    if sp.size != sq.size:
        raise ValueError(f"sample counts differ: {sp.size} vs {sq.size} "
                         "(equal counts per side are required)")
    return HistogramEstimate.from_counts(spec, bin_counts(sp, spec), bin_counts(sq, spec))


def estimate_delta_symmetric(hist: HistogramEstimate, eps: float) -> float:
    """max over both directions; the estimator used for audit profiles."""
    return symmetric_delta(hist.p_hat, hist.q_hat, eps)


def estimate_profile(hist: HistogramEstimate, eps_grid) -> PrivacyProfile:
    """Tabulate the symmetric estimated delta over an eps grid."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    forward, backward = hockey_stick(hist.p_hat, hist.q_hat, alpha_from_eps(eps_grid))
    return PrivacyProfile.envelope(eps_grid, np.maximum(forward, backward))


def _tails(x: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The ``keep`` smallest and ``keep`` largest values of ``x`` (all of them
    when it is shorter), unsorted, and its sum, from one blocked pass.

    Blocks are at least ``keep`` long, so each partition handles at most
    twice a block and the pass stays linear in ``x.size``.
    """
    low = high = x[:0]
    total = 0.0
    for block in _finite_blocks(x, max(BIN_BLOCK, keep)):
        # an inf or NaN total leaves auto_spec's Scott width non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            total += float(np.sum(block))
        # partition each fresh concatenation in place, then copy the kept
        # values out so that no block-sized buffer outlives its step
        low = np.concatenate([low, block])
        if low.size > keep:
            low.partition(keep - 1)
            low = low[:keep].copy()
        high = np.concatenate([high, block])
        if high.size > keep:
            high.partition(high.size - keep)
            high = high[high.size - keep:].copy()
    return low, high, total


def _square_sums(x: np.ndarray, mean: float) -> list[float]:
    """Per block of ``x``, the sum of squared deviations about ``mean``."""
    # an inf or NaN sum leaves the Scott width non-finite, which binning_side reports
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _finite_blocks(x, BIN_BLOCK):
            deviation = block - mean
            sums.append(float(np.sum(np.square(deviation, out=deviation))))
    return sums


def binning_side(samples, sizes: tuple[int, int], k: int | None = None,
                 width: float | None = None):
    """One sample's part in choosing the bins it shares with another sample.

    A generator for :func:`scores.both`, run in lock-step with the other
    sample's side; ``sizes`` holds both sample sizes, p's first. Each
    ``yield`` hands over what the choice needs from this sample and gets
    back both samples' parts: first its ``keep`` smallest and largest
    values and its sum (``_tails``), then, for the Scott rule, its blocked
    squared-deviation sums about the pooled mean. Both sides then make the
    same choice, :func:`auto_spec`'s, and return the same
    :class:`BinningSpec`.
    """
    if k is not None and width is not None:
        raise ValueError("give k or width, not both")
    if width is not None:
        _require_positive_finite(width=width)
    if 0 in sizes:
        raise ValueError("samples must be non-empty")
    x = np.asarray(samples, dtype=float).ravel()
    n_pooled = sum(sizes)
    # np.quantile's linear rule: v = (N - 1) p, read the pooled ranks floor(v) and one above
    low_v, high_v = ((n_pooled - 1) * p for p in (QUANTILE_MARGIN, 1.0 - QUANTILE_MARGIN))
    # every pooled rank below `keep` is among the kept lows, every rank of N - keep and up
    # among the kept highs
    keep = max(math.floor(low_v) + 2, n_pooled - math.floor(high_v))
    lows, highs, totals = zip(*(yield _tails(x, keep)))
    low, high = np.sort(np.concatenate(lows)), np.sort(np.concatenate(highs))

    def pooled_quantile(v):
        j = math.floor(v)
        below, above = (float(low[r] if r < keep else high[r - n_pooled]) for r in (j, j + 1))
        # np.quantile's lerp with the same weight t, in Python floats, so numpy.ma
        # is never imported: from the nearer end, as numpy's _lerp does
        t = v - j
        return above - (above - below) * (1 - t) if t >= 0.5 else below + (above - below) * t

    a, b = pooled_quantile(low_v), pooled_quantile(high_v)
    if not a < b:
        raise DegenerateSamplesError(
            "degenerate samples: zero spread between the chosen quantiles")
    if not math.isfinite(b - a):
        raise DegenerateSamplesError(
            f"the chosen quantiles {a!r} and {b!r} lie too far apart to bin")
    if k is not None:
        if not k <= n_pooled:  # so memory is bounded by the input, as for a width
            raise ValueError(f"bin count k = {k!r} is more than the {n_pooled} pooled samples")
        return BinningSpec(a, b, int(k))
    if width is None:
        squares = yield _square_sums(x, (totals[0] + totals[1]) / n_pooled)
        try:
            # fsum is exact, so the order of the blocks and of the sides does not matter
            total = math.fsum(squares[0] + squares[1])
        except OverflowError:  # finite block sums whose total passes the float64 range
            total = math.inf
        sigma = math.sqrt(total / (n_pooled - 1))
        width = scott_width_gaussian(sigma, sizes[0]) if math.isfinite(sigma) else math.inf
        if not math.isfinite(width):
            raise DegenerateSamplesError(
                "the Scott bin width overflows: the samples' sum or spread exceeds float64")
    elif not (b - a) / float(width) <= n_pooled:  # so memory is bounded by the input
        raise ValueError(f"bin width {float(width)!r} is too small for the span [{a!r}, {b!r}]: "
                         f"it gives more bins than the {n_pooled} pooled samples")
    return BinningSpec(a, b, max(2, int(math.ceil((b - a) / width))))


def auto_spec(samples_p, samples_q, *, k: int | None = None,
              width: float | None = None) -> BinningSpec:
    """Choose [a, b] from pooled sample quantiles and the bin count from k or width.

    ``a`` and ``b`` are the pooled 0.1% / 99.9% quantiles (robust to
    outliers; the open-ended extreme bins absorb the tails). ``k`` fixes the
    bin count, ``width`` the bin width; with neither, the Scott rule sets the
    width from the pooled sample standard deviation and p's sample size.
    Giving both raises, and so do a NaN or inf in either sample and a k or
    width that gives more bins than pooled samples. Quantiles that coincide, or
    give no finite span or width, raise :class:`DegenerateSamplesError`.

    The samples are never concatenated: the two :func:`binning_side` calls
    run in turn in this process. ``np.quantile``'s linear rule interpolates
    between the pooled order statistics j and j + 1, j = floor((N - 1) p).
    One blocked pass per side keeps the few smallest and largest values,
    where both lie, and numpy's interpolation between them is repeated with
    the same weight, so ``a`` and ``b`` equal the quantiles of the
    concatenated samples exactly. The Scott deviation is summed block by
    block about the pooled mean, within a few ulp of the pooled
    ``std(ddof=1)``.
    """
    sp = np.asarray(samples_p, dtype=float).ravel()
    sq = np.asarray(samples_q, dtype=float).ravel()
    sizes = (sp.size, sq.size)
    spec, _ = both(binning_side, (sp, sizes, k, width), (sq, sizes, k, width), fork=False)
    return spec
