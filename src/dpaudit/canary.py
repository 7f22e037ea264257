"""Synthetic canary simulators for one-shot and iterative white-box audits.

The one-shot release publishes the sum of n random unit-sphere canaries plus
Gaussian noise (plus an optional fixed-norm data vector); the audit scores
are inner products of held-in/held-out canaries with the release. For large
d*n the direct simulation is streamed in blocks, and an exact-law sampler is
available that draws the scores from their joint distribution given the
canaries' Gram matrix (Wishart via the Bartlett factorization), which costs
O(n^2) instead of O(n*d).

The white-box stream follows the per-iteration noisy-gradient protocol with
a fresh clip-norm canary per step included with probability q_c. Its scores
are drawn in O(T) from their exact law, which does not depend on d except
through an optional nuisance term (see :func:`whitebox_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import AuditConfig, AuditReport, histogram_audit

# above this many canary-vector entries the direct one-shot path streams in
# blocks; the gram path takes over where even streaming would be slow
_DIRECT_ENTRY_LIMIT = 2 ** 27
_STREAM_BLOCK_ROWS = 64
_WHITEBOX_BLOCK = 2 ** 16  # white-box steps per block; temporaries stay O(block)


@dataclass(frozen=True)
class OneShotConfig:
    """One release, n train and n test canaries on the d-sphere."""

    d: int
    n: int
    sigma: float
    x_norm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.x_norm < 0:
            raise ValueError("x_norm must be >= 0")


@dataclass(frozen=True)
class WhiteBoxConfig:
    """Iterative noisy-sum release with per-step canaries."""

    iterations: int
    canary_prob: float
    sigma: float
    clip: float
    d: int
    seed: int = 0
    nuisance_norm: float = 0.0

    def __post_init__(self):
        if self.iterations < 1 or self.d < 1:
            raise ValueError("need iterations >= 1 and d >= 1")
        if not 0 < self.canary_prob <= 1:
            raise ValueError("canary_prob must lie in (0, 1]")
        if self.sigma <= 0 or self.clip <= 0:
            raise ValueError("sigma and clip must be positive")
        if self.nuisance_norm < 0:
            raise ValueError("nuisance_norm must be >= 0")


def sample_sphere(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform unit vectors on the (d-1)-sphere, one per row."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    vecs = rng.standard_normal((n, d))
    norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
    return vecs / norms[:, None]


def _streams(cfg: OneShotConfig):
    base, train, test = np.random.SeedSequence(cfg.seed).spawn(3)
    return base, train, test


def one_shot_release(cfg: OneShotConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize (theta, train_canaries, test_canaries).

    theta = X + sum(train canaries) + N(0, sigma^2 I). Memory is O(n*d);
    use :func:`one_shot_audit` for configurations too large to materialize.
    """
    base, train_ss, test_ss = _streams(cfg)
    rng = np.random.default_rng(base)
    x = cfg.x_norm * sample_sphere(cfg.d, 1, rng)[0] if cfg.x_norm > 0 else np.zeros(cfg.d)
    noise = rng.normal(0.0, cfg.sigma, cfg.d)
    train = sample_sphere(cfg.d, cfg.n, np.random.default_rng(train_ss))
    test = sample_sphere(cfg.d, cfg.n, np.random.default_rng(test_ss))
    theta = x + train.sum(axis=0) + noise
    return theta, train, test


def one_shot_scores(theta: np.ndarray, train_canaries: np.ndarray,
                    test_canaries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner products of each canary with the release, order preserved."""
    theta = np.asarray(theta, dtype=float)
    train = np.asarray(train_canaries, dtype=float)
    test = np.asarray(test_canaries, dtype=float)
    if train.ndim != 2 or test.ndim != 2 or train.shape[1] != theta.size or \
            test.shape[1] != theta.size:
        raise ValueError("canary dimensions must match the release vector")
    return train @ theta, test @ theta


def _unit_blocks(cfg: OneShotConfig, seed_seq):
    """The rows of sample_sphere(d, n) in blocks, as (raw rows, 1 / row norms)."""
    rng = np.random.default_rng(seed_seq)
    for start in range(0, cfg.n, _STREAM_BLOCK_ROWS):
        block = rng.standard_normal((min(_STREAM_BLOCK_ROWS, cfg.n - start), cfg.d))
        yield block, 1.0 / np.sqrt(np.einsum("ij,ij->i", block, block))


def _one_shot_scores_streamed(cfg: OneShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Same draws as release+scores, never holding more than a block of rows.

    Blocked generation consumes the normal source in the same sequential
    order as the one-call path, so the scores agree with release+scores up
    to floating-point rounding of the normalization.
    """
    base, train_ss, test_ss = _streams(cfg)
    rng = np.random.default_rng(base)
    x = cfg.x_norm * sample_sphere(cfg.d, 1, rng)[0] if cfg.x_norm > 0 else 0.0
    noise = rng.normal(0.0, cfg.sigma, cfg.d)
    theta = x + sum(inv @ block for block, inv in _unit_blocks(cfg, train_ss)) + noise

    def score_pass(seed_seq) -> np.ndarray:
        blocks = _unit_blocks(cfg, seed_seq)
        return np.concatenate([(block @ theta) * inv for block, inv in blocks])

    return score_pass(train_ss), score_pass(test_ss)


def one_shot_scores_gram(cfg: OneShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact-law one-shot scores without any d-dimensional state.

    Conditioned on the canaries, the score vector is Gaussian with mean G*e
    and covariance sigma^2 G, where G is the canaries' Gram matrix; G itself
    is a column-normalized Wishart(d) sample, drawn via the Bartlett
    factorization. Requires d >= 2n (+1 when a data vector is present).
    The draws differ from the direct path but follow the same distribution.
    """
    extra = 1 if cfg.x_norm > 0 else 0
    m = 2 * cfg.n + extra
    if cfg.d < m:
        raise ValueError(f"gram sampler needs d >= {m}; use the direct path")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    factor = np.zeros((m, m))
    for i in range(1, m):
        factor[i, :i] = rng.standard_normal(i)
    diag = np.sqrt(rng.chisquare(cfg.d - np.arange(m)))
    factor[np.arange(m), np.arange(m)] = diag
    xi = rng.standard_normal(m)

    inv_norm = 1.0 / np.sqrt(np.einsum("ij,ij->i", factor, factor))
    # weights of the released sum in the normalized-column basis: the data
    # vector (column 0 when present) scaled by x_norm, then the n train canaries
    weights = np.zeros(m)
    if extra:
        weights[0] = cfg.x_norm * inv_norm[0]
    weights[extra:extra + cfg.n] = inv_norm[extra:extra + cfg.n]
    mean_part = inv_norm * (factor @ (factor.T @ weights))
    noise_part = cfg.sigma * inv_norm * (factor @ xi)
    scores = mean_part + noise_part
    return scores[extra:extra + cfg.n], scores[extra + cfg.n:]


def one_shot_sample(cfg: OneShotConfig, method: str = "auto") -> tuple[np.ndarray, np.ndarray]:
    """Held-in and held-out one-shot scores: ``method`` "direct" streams the
    simulation (identical to release+scores), "gram" is the exact-law O(n^2)
    sampler, and "auto" takes gram once the canary matrix is large.
    """
    if method not in ("auto", "direct", "gram"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        entries = 2 * cfg.n * cfg.d
        gram_ok = cfg.d >= 2 * cfg.n + (1 if cfg.x_norm > 0 else 0)
        method = "gram" if (entries > _DIRECT_ENTRY_LIMIT and gram_ok) else "direct"
    if method == "gram":
        return one_shot_scores_gram(cfg)
    return _one_shot_scores_streamed(cfg)


def one_shot_audit(cfg: OneShotConfig, audit_config: AuditConfig | None = None, *,
                   method: str = "auto") -> AuditReport:
    """Run the histogram audit on the scores of :func:`one_shot_sample`."""
    scores_p, scores_q = one_shot_sample(cfg, method)
    return histogram_audit(scores_p, scores_q, audit_config, method="one-shot")


def whitebox_stream(cfg: WhiteBoxConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-iteration score pairs (O, O') of the white-box protocol.

    Each iteration draws a fresh unit canary u scaled to the clip norm; it
    joins the primed gradient sum with probability canary_prob. In the null
    model the clipped-gradient sum is zero (set nuisance_norm for a
    bounded-norm stress vector). The pairs come from their exact law in
    O(iterations) time: <g, u> ~ N(0, clip^2 sigma^2) for every u, so
    O = clip^2 sigma Z and O' = clip^2 sigma Z' + clip^2 Bernoulli(canary_prob),
    independent. A nuisance vector of norm nu adds clip nu (2B - 1) to each,
    where 2B - 1 is the cosine of two independent uniform directions in R^d:
    B ~ Beta((d-1)/2, (d-1)/2), and a fair 0/1 at d = 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    out = np.empty(cfg.iterations)
    out_primed = np.empty(cfg.iterations)
    half = (cfg.d - 1) / 2.0
    for start in range(0, cfg.iterations, _WHITEBOX_BLOCK):
        sl = slice(start, min(start + _WHITEBOX_BLOCK, cfg.iterations))
        for side in (out[sl], out_primed[sl]):
            rng.standard_normal(out=side)
            side *= cfg.clip ** 2 * cfg.sigma
            if cfg.nuisance_norm > 0:
                b = (rng.beta(half, half, side.size) if cfg.d > 1
                     else rng.integers(0, 2, side.size))
                side += (2.0 * b - 1.0) * (cfg.clip * cfg.nuisance_norm)
        held_in = out_primed[sl]
        held_in[rng.random(held_in.size) < cfg.canary_prob] += cfg.clip ** 2
    return out, out_primed


def whitebox_audit(cfg: WhiteBoxConfig, audit_config: AuditConfig | None = None) -> AuditReport:
    """Audit the white-box stream with the histogram pipeline.

    The per-iteration scores are two plain samples, so the report carries the
    histogram method tag; composition across iterations goes through
    ``pld.compose_profile`` on the report's histogram instead.
    """
    out, out_primed = whitebox_stream(cfg)
    return histogram_audit(out_primed, out, audit_config, method="histogram")
