"""Synthetic canary simulators for one-shot and iterative white-box audits.

The one-shot release publishes the sum of n random unit-sphere canaries plus
Gaussian noise (plus an optional fixed-norm data vector); the audit scores
are inner products of held-in/held-out canaries with the release. Only the
scores are needed, so they are drawn from their exact law for every d: the
held-in canaries' Gram-Schmidt coordinates form a Bartlett factor with
min(n, d) columns (one more with a data vector), generated in row blocks,
and a held-out score is the release norm times the cosine of two uniform
directions. Memory is O(block * min(n, d)); no d-dimensional vector and no
n x n matrix is built (see :func:`one_shot_scores_gram`).

The white-box stream follows the per-iteration noisy-gradient protocol with
a fresh clip-norm canary per step included with probability q_c. Its scores
are drawn in O(T) from their exact law, which does not depend on d except
through an optional nuisance term (see :func:`whitebox_stream`). Each side
has its own random stream: the CLI draws, bins and writes each side in its
own process, and no process draws or holds the other side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import AuditConfig, AuditReport, histogram_audit
from .mechanisms import _require_positive_finite
from .scores import both

_ONE_SHOT_BLOCK = 128  # Bartlett factor rows per block; memory stays O(block * min(n, d))
_WHITEBOX_BLOCK = 2 ** 16  # white-box steps per block; temporaries stay O(block)
# drawn factor entries below which a forked child costs more than it saves:
# forked and in-turn draws tie near 3.3e6 entries (d = 2^21, n = 2500) on a
# 2-vCPU host; at 2e5 entries the fork alone takes longer than the draw
_FORK_MIN_ENTRIES = 3_300_000


@dataclass(frozen=True, kw_only=True)
class OneShotConfig:
    """One release, n train and n test canaries on the d-sphere."""

    d: int
    n: int = 1
    sigma: float
    x_norm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        _require_positive_finite(sigma=self.sigma)
        # written so that NaN fails the check
        if not 0 <= self.x_norm < math.inf:
            raise ValueError(f"x_norm must be finite and >= 0, got {self.x_norm!r}")


@dataclass(frozen=True, kw_only=True)
class WhiteBoxConfig:
    """Iterative noisy-sum release with per-step canaries."""

    iterations: int = 1000
    canary_prob: float = 1.0
    sigma: float
    clip: float = 1.0
    d: int
    seed: int = 0
    nuisance_norm: float = 0.0

    def __post_init__(self):
        if self.iterations < 1 or self.d < 1:
            raise ValueError("need iterations >= 1 and d >= 1")
        if not 0 < self.canary_prob <= 1:
            raise ValueError("canary_prob must lie in (0, 1]")
        _require_positive_finite(sigma=self.sigma, clip=self.clip)
        # written so that NaN fails the check
        if not 0 <= self.nuisance_norm < math.inf:
            raise ValueError(f"nuisance_norm must be finite and >= 0, got {self.nuisance_norm!r}")


def _cosines(rng: np.random.Generator, d: int, size: int) -> np.ndarray:
    """Cosines of ``size`` independent pairs of uniform directions in R^d.

    The cosine is 2B - 1 with B ~ Beta((d-1)/2, (d-1)/2); at d = 1 it is a
    fair sign, because Beta(0, 0) does not exist.
    """
    half = (d - 1) / 2.0
    b = rng.beta(half, half, size) if d > 1 else rng.integers(0, 2, size)
    return 2.0 * b - 1.0


def _factor_rows(d: int, start: int, stop: int, seed_seq,
                 buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows [start, stop) of the Bartlett factor and their inverse norms.

    Row i holds the Gram-Schmidt coordinates of the i-th of a sequence of
    i.i.d. N(0, I_d) vectors: N(0, 1) in columns [0, min(i, d)) and, when
    i < d, the diagonal sqrt(chi^2(d - i)). The block has min(stop, d) columns
    and is a view of ``buffer``, so every block reuses the same memory.
    """
    rng = np.random.default_rng(seed_seq)
    cols = min(stop, d)
    rows = buffer[:(stop - start) * cols].reshape(stop - start, cols)
    rng.standard_normal(out=rows)
    # only columns >= start can lie above the diagonal
    rows[:, start:][np.arange(stop - start)[:, None] < np.arange(cols - start)] = 0.0
    diag = np.arange(start, min(stop, d))
    rows[diag - start, diag] = np.sqrt(rng.chisquare(d - diag))
    return rows, 1.0 / np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _split(blocks: list, d: int) -> tuple[list, list]:
    """Blocks [0, m) and [m, B), cut where the entries drawn on each side are
    closest to half the total. A single block, or fewer than
    ``_FORK_MIN_ENTRIES`` drawn entries in all, leaves the second side empty."""
    drawn = np.cumsum([(stop - start) * min(stop, d) for start, stop, _ in blocks])
    if drawn[-1] < _FORK_MIN_ENTRIES:
        return blocks, []
    m = 1 + int(np.argmin(np.maximum(drawn, drawn[-1] - drawn)))
    return blocks[:m], blocks[m:]


def _block_buffer(blocks: list, d: int) -> np.ndarray:
    """One buffer for the largest of ``blocks``' factor blocks. Only the
    process that draws these blocks touches its pages, so a buffer made
    before a fork adds nothing to the other process's resident memory."""
    return np.empty(max(((stop - start) * min(stop, d) for start, stop, _ in blocks),
                        default=0))


def _release_sums(blocks: list, buffer: np.ndarray, d: int, x_norm: float,
                  release=None) -> list:
    """Pass one over ``blocks``: each block's weighted row sum (x_norm for the
    data row, 1 for a held-in row), added into ``release`` in block order, or
    returned one vector per block when no ``release`` is given."""
    sums = []
    for start, stop, seq in blocks:
        rows, inv_norm = _factor_rows(d, start, stop, seq, buffer)
        if start == 0 and x_norm > 0:
            inv_norm[0] *= x_norm
        block_sum = np.einsum("i,ij->j", inv_norm, rows)
        if release is None:
            sums.append(block_sum)
        else:
            release[:block_sum.size] += block_sum
    return sums


def _held_in_scores(blocks: list, buffer: np.ndarray, d: int,
                    release: np.ndarray) -> np.ndarray:
    """Pass two over ``blocks``: the held-in scores of their rows, in row order."""
    scores = np.empty(sum(stop - start for start, stop, _ in blocks))
    first = blocks[0][0] if blocks else 0
    for start, stop, seq in blocks:
        rows, inv_norm = _factor_rows(d, start, stop, seq, buffer)
        scores[start - first:stop - first] = np.einsum(
            "ij,j->i", rows, release[:rows.shape[1]]) * inv_norm
    return scores


def one_shot_scores_gram(cfg: OneShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Held-in and held-out one-shot scores, drawn from their exact law.

    Write the data vector (when x_norm > 0) and the n held-in canaries as
    t i.i.d. Gaussian directions and take their Bartlett factor L, which has
    R = min(t, d) columns. With its rows normalized, the release in that
    basis is u = L^T w + sigma xi with xi ~ N(0, I_R) and w the weights of the
    released sum (x_norm for the data row, 1 for each held-in row), so the
    held-in scores are L u. The factor is drawn in row blocks from per-block
    SeedSequence children: pass one sums the weighted rows into u, pass two
    draws the same blocks again and scores them. Memory is O(block * R), in
    one buffer per process that every block of both passes reuses, so the
    peak RSS does not depend on where the allocator would place a fresh block
    each time.

    From ``_FORK_MIN_ENTRIES`` drawn entries on, each pass runs on two cores:
    this process takes the first blocks and a forked child the rest, cut
    where the drawn entries are closest to half the total (:func:`_split`).
    The child's pass-one sums are added after this process's own, so u is
    summed in block order and every array is the same bit for bit as when the
    blocks run in turn. The child draws and sums with random fills and
    ``einsum`` only, never BLAS, whose thread pool not every BLAS build
    restarts after a fork.

    A held-out canary is a uniform direction independent of the release
    theta, so its score is |theta| (2B - 1) (see :func:`_cosines`), i.i.d.
    given |theta|^2 = |u|^2 + sigma^2 chi^2(d - R), the noise off the span.
    """
    extra = 1 if cfg.x_norm > 0 else 0
    t = extra + cfg.n
    starts = list(range(0, t, _ONE_SHOT_BLOCK))
    noise_seq, *seqs = np.random.SeedSequence(cfg.seed).spawn(len(starts) + 1)
    mine, theirs = ((blocks, _block_buffer(blocks, cfg.d))
                    for blocks in _split(list(zip(starts, [*starts[1:], t], seqs)), cfg.d))
    rng = np.random.default_rng(noise_seq)

    width = min(t, cfg.d)
    release = cfg.sigma * rng.standard_normal(width)
    # a child takes the second side's blocks, unless _split left it none
    child, fork = "one-shot sampler: the forked process", bool(theirs[0])
    _, sums = both(_release_sums, (*mine, cfg.d, cfg.x_norm, release),
                   (*theirs, cfg.d, cfg.x_norm), child=child, fork=fork)
    for block_sum in sums:
        release[:block_sum.size] += block_sum
    held_in = np.concatenate(both(_held_in_scores, (*mine, cfg.d, release),
                                  (*theirs, cfg.d, release), child=child, fork=fork))

    norm2 = release @ release
    if cfg.d > width:
        norm2 += cfg.sigma ** 2 * rng.chisquare(cfg.d - width)
    return held_in[extra:], np.sqrt(norm2) * _cosines(rng, cfg.d, cfg.n)


def one_shot_audit(cfg: OneShotConfig, audit_config: AuditConfig | None = None) -> AuditReport:
    """Run the histogram audit on the scores of :func:`one_shot_scores_gram`."""
    scores_p, scores_q = one_shot_scores_gram(cfg)
    return histogram_audit(scores_p, scores_q, audit_config, method="one-shot")


def whitebox_stream(cfg: WhiteBoxConfig,
                    side: int | None = None) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Per-iteration score pairs (O, O') of the white-box protocol.

    Each iteration draws a fresh unit canary u scaled to the clip norm; it
    joins the primed gradient sum with probability canary_prob. In the null
    model the clipped-gradient sum is zero (set nuisance_norm for a
    bounded-norm stress vector). The pairs come from their exact law in
    O(iterations) time: <g, u> ~ N(0, clip^2 sigma^2) for every u, so
    O = clip^2 sigma Z and O' = clip^2 sigma Z' + clip^2 Bernoulli(canary_prob),
    independent. A nuisance vector of norm nu adds clip nu (2B - 1) to each,
    where 2B - 1 is the cosine of two independent uniform directions in R^d
    (see :func:`_cosines`).

    Returns ``(O, O')``, or with ``side`` (0 or 1) only that entry of the
    pair, drawn alone from child ``side`` of the seed's ``SeedSequence``, so
    two processes can each draw one side and neither draws or holds both.
    """
    if side is None:
        return whitebox_stream(cfg, 0), whitebox_stream(cfg, 1)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[side])
    scores = np.empty(cfg.iterations)
    for start in range(0, cfg.iterations, _WHITEBOX_BLOCK):
        block = scores[start:start + _WHITEBOX_BLOCK]
        rng.standard_normal(out=block)
        block *= cfg.clip ** 2 * cfg.sigma
        if cfg.nuisance_norm > 0:
            block += _cosines(rng, cfg.d, block.size) * (cfg.clip * cfg.nuisance_norm)
        if side == 1:
            block[rng.random(block.size) < cfg.canary_prob] += cfg.clip ** 2
    return scores
