"""Finite discrete distributions and divergences between them.

Everything in this module is pure and operates on immutable values; the
divergences are the measuring sticks the rest of the package is built on.
All of them go through one kernel, ``hockey_stick``, which sorts the bins by
likelihood ratio once and reads a whole alpha grid off prefix sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MASS_TOLERANCE = 1e-9
# values per pass of _count_at_or_below: its temporaries, one float and two
# bool arrays of this size, add under 0.1 MB to the RSS of binning 10^6 scores
# per side in a CLI process, where 2^14 added 0.25 MB
_COUNT_CHUNK = 2 ** 13

# exp(eps) overflows float64 just above 709; at alpha = e^700 every bin with
# q_j >= 1e-300 already drops out, so a larger eps changes nothing.
_EPS_OVERFLOW = 700.0


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _count_at_or_below(x: np.ndarray, origin: float, width: float, first: int,
                       n: int) -> np.ndarray:
    """``searchsorted(origin + width * np.arange(first, first + n), x, "right")``
    for a 1-D ``x``, without the node array; NaN counts past the end.

    The last node at or below each x is guessed from the quotient, then moved
    a node at a time until the nodes themselves, the same float expression,
    bracket x, so the count is exact. Besides the int64 result, temporaries
    stay O(``_COUNT_CHUNK``).
    """
    last = first + n - 1
    count = np.empty(x.size, dtype=np.int64)
    # the quotient may overflow, and nodes past either end, which the masks
    # drop, may be inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, x.size, _COUNT_CHUNK):
            xs, j = x[lo:lo + _COUNT_CHUNK], count[lo:lo + _COUNT_CHUNK]
            node = xs - origin
            node /= width
            np.floor(node, out=node)
            np.nan_to_num(node, copy=False, nan=last)
            # the guess of j, the last node at or below x (first - 1 for none)
            j[:] = np.clip(node, first - 1, last, out=node)
            while True:
                # nodes j and j + 1 as origin + width * j, the nodes' own expression
                np.multiply(j, width, out=node)
                node += origin
                down = (j >= first) & (node > xs)
                j += 1
                np.multiply(j, width, out=node)
                node += origin
                up = (j <= last) & (node <= xs)
                j -= 1
                if not (down.any() or up.any()):
                    break
                j += up
                j -= down
    count -= first - 1
    return count


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability vector over ordered bins.

    Masses must be non-negative and sum to 1 within ``MASS_TOLERANCE``.
    Use :meth:`normalized` to build one from unnormalized weights.
    """

    probs: np.ndarray = field()

    def __post_init__(self):
        arr = _as_readonly(self.probs)
        object.__setattr__(self, "probs", arr)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("probs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probs must be finite")
        if np.any(arr < 0):
            raise ValueError("probs must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(
                f"probs sum to {total!r}, outside 1 +/- {MASS_TOLERANCE}; "
                "use DiscreteDistribution.normalized to renormalize explicitly"
            )

    @classmethod
    def normalized(cls, values) -> "DiscreteDistribution":
        """Build a distribution from non-negative weights, renormalizing."""
        arr = np.asarray(values, dtype=float)
        total = arr.sum()
        if not 0 < total < math.inf:
            raise ValueError(f"values must have a positive finite total, got {float(total)!r}")
        return cls(arr / total)

    def __len__(self) -> int:
        return int(self.probs.size)


def _check_pair(p: DiscreteDistribution, q: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return p.probs, q.probs


def alpha_from_eps(eps):
    """exp(min(eps, 700)) elementwise: finite for any eps; a scalar gives a float."""
    alpha = np.exp(np.minimum(eps, _EPS_OVERFLOW))
    return float(alpha) if np.ndim(alpha) == 0 else alpha


def _prefix_sums(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """[0, v0, v0+v1, ...] of ``values`` taken in ``order``."""
    # a float64 running sum drifts by up to k ulp (8e-12 for 10**6 equal masses)
    running = np.cumsum(values[order], dtype=np.longdouble).astype(float)
    return np.concatenate(([0.0], running))


def hockey_stick(p: DiscreteDistribution, q: DiscreteDistribution,
                 alphas) -> tuple[np.ndarray, np.ndarray]:
    """``(sum_j [p_j - a q_j]_+, sum_j [q_j - a p_j]_+)`` for each finite a >= 0.

    p_j > a q_j exactly when r_j = log p_j - log q_j > log a (empty q_j: +inf,
    empty p_j: -inf), so after one sort by r each divergence is a prefix sum
    read off with ``searchsorted``: O((k + m) log k) time, O(k + m) memory.
    Both sums run in one fixed order per direction, so swapping p and q
    swaps the two results exactly.
    """
    pv, qv = _check_pair(p, q)
    alphas = np.asarray(alphas, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(pv) - np.log(qv)
        log_alpha = np.log(alphas)
    ratio[np.isnan(ratio)] = 0.0  # empty on both sides: adds nothing anywhere
    up = np.argsort(ratio, kind="stable")
    down = np.argsort(-ratio, kind="stable")
    sorted_ratio = ratio[up]
    above = pv.size - np.searchsorted(sorted_ratio, log_alpha, side="right")
    below = np.searchsorted(sorted_ratio, -log_alpha, side="left")
    forward = _prefix_sums(pv, down)[above] - alphas * _prefix_sums(qv, down)[above]
    backward = _prefix_sums(qv, up)[below] - alphas * _prefix_sums(pv, up)[below]
    return np.maximum(forward, 0.0), np.maximum(backward, 0.0)


def hs_divergence(p: DiscreteDistribution, q: DiscreteDistribution, alpha: float) -> float:
    """Hockey-stick divergence sum_j max(p_j - alpha*q_j, 0).

    ``alpha`` may be ``math.inf``, in which case the result is the total mass
    of ``p`` on bins where ``q`` vanishes (the large-alpha limit).
    """
    pv, qv = _check_pair(p, q)
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    if math.isinf(alpha):
        return float(pv[qv == 0].sum())
    return float(hockey_stick(p, q, alpha)[0])


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance; equals the hockey-stick divergence at alpha=1."""
    return hs_divergence(p, q, 1.0)


def symmetric_delta(p: DiscreteDistribution, q: DiscreteDistribution, eps: float) -> float:
    """max of the two directed hockey-stick divergences at alpha = exp(eps)."""
    return float(max(hockey_stick(p, q, alpha_from_eps(eps))))


def coarsen(p: DiscreteDistribution, merge_map) -> DiscreteDistribution:
    """Merge bins by summing masses.

    ``merge_map`` assigns each of the k input bins a group index in [0, m);
    the map must be surjective (every group receives at least one bin).
    """
    groups = np.asarray(merge_map, dtype=int)
    if groups.shape != (len(p),):
        raise ValueError(f"merge_map must have one entry per bin ({len(p)}), got shape {groups.shape}")
    if groups.size and groups.min() < 0:
        raise ValueError("group indices must be non-negative")
    m = int(groups.max()) + 1
    if m > len(p):
        raise ValueError("cannot map to more groups than bins")
    counts = np.bincount(groups, minlength=m)
    if np.any(counts == 0):
        raise ValueError("merge_map must be surjective onto [0, m)")
    merged = np.bincount(groups, weights=p.probs, minlength=m)
    return DiscreteDistribution.normalized(merged)
