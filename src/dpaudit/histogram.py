"""Binning two score samples into aligned histograms and reading off delta.

The binning follows the auditing convention: k bins of equal width h over
[a, b], except that the first bin extends to -infinity and the last to
+infinity, so every sample lands somewhere. Interior boundaries are
left-closed/right-open.

Choosing the bins and counting into them read each sample on its own,
block by block, and never pool them, so extra memory stays O(block). A
sample is an array, a ``scores.ScoreSource``, which is drawn afresh on
each pass, or a ``scores.HeldScores``, a score file whose one pass is its
parse; each is read in the same blocks, so all give the same bins. A held
file is counted from the float32 copy it keeps, 4 bytes a score: a value
whose float32 equals a neighbouring breakpoint's float32 is counted from
its exact value, parsed again from the file (``_held_counts``), and a file
that changed meanwhile raises ``ScoreFileError``, which the CLI exits 3 on.
A sample's part of the choice is ``binning_side``, run in lock-step with
the other sample's: in one exchange the sides swap their sizes, their few
smallest and largest values and, for the Scott rule, their count, mean and
squared deviation, merged over their blocks (Chan, Golub & LeVeque), and
then each makes the same choice. Its part of the count is ``bin_counts``, and
``HistogramEstimate.from_counts`` merges the two. ``auto_spec`` and
``build_histograms`` run these in turn in one process; the CLI runs each
side in the process that reads or draws it (``scores.both``), so no process
holds both samples. The edges a and b are the pooled 0.1% / 99.9%
quantiles, equal bit for bit to ``np.quantile`` of the concatenated
samples: numpy's linear rule reads two adjacent order statistics of the
union, and those lie among the few smallest (or largest) values of each
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discrete import (_COUNT_CHUNK, DiscreteDistribution, _count_at_or_below,
                       alpha_from_eps, hockey_stick, symmetric_delta)
from .errors import DegenerateSamplesError
from .mechanisms import _require_positive_finite
from .profiles import PrivacyProfile
from .scores import HeldScores, ScoreSource, both

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


def _finite_blocks(x, size: int):
    """Consecutive blocks of ``size`` values of ``x``, the last one shorter:
    slices of an array, or a source's blocks cut and joined at the same
    bounds. Raises on the first block holding a NaN or inf."""
    if isinstance(x, (ScoreSource, HeldScores)):
        blocks = _rechunked(x.blocks(), size)
    else:
        x = np.asarray(x, dtype=float)
        blocks = (x[start:start + size] for start in range(0, x.size, size))
    for block in blocks:
        if not np.all(np.isfinite(block)):
            raise ValueError("samples must be finite")
        yield block


def _rechunked(blocks, size: int):
    """``blocks`` cut and joined into blocks of ``size`` values, the last one
    shorter. A block that ends between bounds leaves its tail in a buffer that
    the next blocks fill, since the source may overwrite the block itself."""
    buffer, held = np.empty(size), 0
    for block in blocks:
        start = 0
        if held:
            start = min(size - held, block.size)
            buffer[held:held + start] = block[:start]
            held += start
            if held < size:
                continue
            yield buffer
        while block.size - start >= size:
            yield block[start:start + size]
            start += size
        held = block.size - start
        buffer[:held] = block[start:]
    if held:
        yield buffer[:held]


def counted(samples, spec: BinningSpec) -> tuple[ScoreSource, np.ndarray]:
    """``samples`` as a source that adds each block, as it passes, to its
    count per bin of ``spec``, and that count, which one pass over the source
    fills. A block holding a NaN or inf raises before it is passed on, so the
    source is known finite."""
    count = np.zeros(spec.k, dtype=np.int64)

    def blocks():
        for block in _finite_blocks(samples, BIN_BLOCK):
            np.add(count, np.bincount(spec.bin_indices(block), minlength=spec.k), out=count)
            yield block

    return ScoreSource(len(samples), blocks, finite=True), count


def bin_counts(samples, spec: BinningSpec) -> np.ndarray:
    """One sample's count per bin of ``spec``, counted block by block."""
    if isinstance(samples, HeldScores):
        return _held_counts(samples, spec)
    source, count = counted(samples, spec)
    for _ in source.blocks():
        pass
    return count


def _held_counts(held: HeldScores, spec: BinningSpec) -> np.ndarray:
    """``bin_counts`` of a parsed file from its float32 values.

    Each float32 value y is counted in float64(y)'s bin, unless the float32
    of the breakpoint at or below it, or of the one above it, equals y.
    Rounding to float32 is monotone, so a breakpoint between the exact value
    x and y rounds to y, and the bin of every other y is x's. The flagged
    values, few unless the values sit on the breakpoints, are counted again
    from their exact values (``HeldScores.exact``), chunk by chunk, so
    temporaries stay O(``_COUNT_CHUNK``) and one parse block.
    """
    values = held.values
    if values.dtype != np.float32:  # a file held exact
        return bin_counts(values, spec)
    count = np.zeros(spec.k, dtype=np.int64)
    # breakpoints past the float32 range round to an infinity
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, values.size, _COUNT_CHUNK):
            y = values[lo:lo + _COUNT_CHUNK]
            j = _count_at_or_below(y.astype(float), spec.a, spec.h, 1, spec.k - 1)
            np.add.at(count, j, 1)
            # breakpoints j and j + 1, as a + h * j, the breakpoints' own expression
            node = np.multiply(j, spec.h)
            node += spec.a
            near = (node.astype(np.float32) == y) & (j > 0)
            np.multiply(j + 1, spec.h, out=node)
            node += spec.a
            near |= (node.astype(np.float32) == y) & (j < spec.k - 1)
            if near.any():
                at = np.flatnonzero(near)
                np.subtract.at(count, j[at], 1)
                np.add.at(count, spec.bin_indices(held.exact(at + lo)), 1)
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


class SideSummary(NamedTuple):
    """What choosing the bins needs from one sample (:func:`_tails`)."""

    size: int
    low: np.ndarray
    high: np.ndarray
    moments: tuple | None


def _tails(x, keep: int, scott: bool) -> SideSummary:
    """The size of ``x``, its ``keep`` smallest and ``keep`` largest values
    (all of them when it is shorter), unsorted, from one blocked pass, and
    under the Scott rule its (count, mean, squared deviation about the mean),
    else None.

    Blocks are at least ``keep`` long, so each partition handles at most
    twice a block and the pass stays linear in the size of ``x``. The moments
    of each block are merged in pairs (:func:`_merged`).
    """
    low = high = np.empty(0)
    moments = []
    size = 0
    for block in _finite_blocks(x, max(BIN_BLOCK, keep)):
        size += block.size
        if scott:
            # an inf or NaN moment leaves the Scott width non-finite, which
            # binning_side reports
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(np.sum(block)) / block.size
                deviation = block - mean
                moments.append((block.size, mean,
                                float(np.sum(np.square(deviation, out=deviation)))))
        # once `keep` values are kept, only values past the kept extreme can
        # enter; partition each fresh concatenation in place, then copy the
        # kept values out so that no block-sized buffer outlives its step
        low = np.concatenate([low, block if low.size < keep else block[block < low.max()]])
        if low.size > keep:
            low.partition(keep - 1)
            low = low[:keep].copy()
        high = np.concatenate([high, block if high.size < keep else block[block > high.min()]])
        if high.size > keep:
            high.partition(high.size - keep)
            high = high[high.size - keep:].copy()
    return SideSummary(size, low, high, _merged(moments) if scott and moments else None)


def _merged(moments: list) -> tuple:
    """One (count, mean, squared deviation) of the values behind ``moments``,
    merged in pairs, neighbour with neighbour, by the update of Chan, Golub &
    LeVeque (1983). Python floats turn an overflow into inf or NaN, never an
    error."""
    while len(moments) > 1:
        moments = [_merge(*moments[i:i + 2]) if i + 1 < len(moments) else moments[i]
                   for i in range(0, len(moments), 2)]
    return moments[0]


def _merge(first: tuple, second: tuple) -> tuple:
    (n_a, mean_a, square_a), (n_b, mean_b, square_b) = first, second
    n = n_a + n_b
    step = mean_b - mean_a
    return n, mean_a + step * (n_b / n), square_a + square_b + step * step * (n_a * n_b / n)


def _quantile_ranks(n_pooled: int) -> tuple[float, float, int]:
    """np.quantile's linear rule reads the pooled ranks floor(v) and one above,
    v = (N - 1) p, at both margins; returns both v and ``keep``: every pooled
    rank below it is among each side's ``keep`` smallest values, and every
    rank of N - keep and up among the largest. ``keep`` grows with N."""
    low_v, high_v = ((n_pooled - 1) * p for p in (QUANTILE_MARGIN, 1.0 - QUANTILE_MARGIN))
    return low_v, high_v, max(math.floor(low_v) + 2, n_pooled - math.floor(high_v))


def binning_side(samples, sizes: tuple[int, int], k: int | None = None,
                 width: float | None = None):
    """One sample's part in choosing the bins it shares with another sample.

    A generator for :func:`scores.both`, run in lock-step with the other
    sample's side; ``sizes`` holds both sample sizes, p's first, or upper
    bounds on them, and ``samples`` is an array, a ``ScoreSource`` or a
    ``HeldScores``, read in one pass. Its one ``yield`` hands over what the
    choice needs from this sample, a :class:`SideSummary`, and gets back
    both samples' summaries: their sizes, their few smallest and largest
    values and, for the Scott rule, their count, mean and squared deviation
    (``_tails``). Both sides then check the rule and the sizes and make the
    same choice, :func:`auto_spec`'s, and return the same
    :class:`BinningSpec`.
    """
    if not isinstance(samples, (ScoreSource, HeldScores)):
        samples = np.asarray(samples, dtype=float).ravel()
    scott = k is None and width is None
    summaries = yield _tails(samples, _quantile_ranks(sum(sizes))[2], scott)
    if k is not None and width is not None:
        raise ValueError("give k or width, not both")
    if width is not None:
        _require_positive_finite(width=width)
    sizes = tuple(summary.size for summary in summaries)
    if 0 in sizes:
        raise ValueError("samples must be non-empty")
    n_pooled = sum(sizes)
    # each side kept at least `keep` values at either end, more from an upper bound
    low_v, high_v, keep = _quantile_ranks(n_pooled)
    low = np.sort(np.concatenate([summary.low for summary in summaries]))
    high = np.sort(np.concatenate([summary.high for summary in summaries]))

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
    if scott:
        # p's moments first, so both sides merge the same two in the same order
        sigma = math.sqrt(_merge(*(summary.moments for summary in summaries))[2]
                          / (n_pooled - 1))
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
    concatenated samples exactly. The Scott deviation comes from each
    block's count, mean and squared deviation about its own mean, merged in
    pairs, within a few ulp of the pooled ``std(ddof=1)``.
    """
    sp = np.asarray(samples_p, dtype=float).ravel()
    sq = np.asarray(samples_q, dtype=float).ravel()
    sizes = (sp.size, sq.size)
    spec, _ = both(binning_side, (sp, sizes, k, width), (sq, sizes, k, width), fork=False)
    return spec
