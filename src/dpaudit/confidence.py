"""Frequentist confidence machinery for the histogram estimates.

The multinomial TV radius gives a simultaneous bound on how far an empirical
distribution can sit from its truth; propagating one radius per side through
the hockey-stick divergence yields two-sided (epsilon, delta) intervals.
Clopper-Pearson intervals back the threshold-attack baseline.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .discrete import alpha_from_eps


def canonne_radius(n: int, k: int, failure_prob: float) -> float:
    """TV radius tau with TV(empirical, true) <= tau at probability 1 - failure_prob.

    tau = max( sqrt(k/n), sqrt((2/n) * ln(2/failure_prob)) ).
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if not 0 < failure_prob < 1:
        raise ValueError("failure_prob must lie in (0, 1)")
    return max(math.sqrt(k / n), math.sqrt(2.0 * math.log(2.0 / failure_prob) / n))


def hs_interval(delta_hat, eps, tau_p: float, tau_q: float):
    """Two-sided bound on the true divergence given per-side TV radii.

    One radius bounds both sides of the estimate, so the slack is
    (1 + e^eps) * max(tau_p, tau_q) in each direction; the caller splits the
    failure budget across the two samples. ``delta_hat`` and ``eps`` may be
    arrays (bounds elementwise); scalars give a pair of floats.
    """
    delta_hat = np.asarray(delta_hat, dtype=float)
    if not np.all((delta_hat >= 0) & (delta_hat <= 1)):
        raise ValueError("delta_hat must lie in [0, 1]")
    slack = (1.0 + alpha_from_eps(eps)) * max(tau_p, tau_q)
    lo, hi = np.maximum(0.0, delta_hat - slack), np.minimum(1.0, delta_hat + slack)
    return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)


def clopper_pearson(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Exact binomial confidence interval via Beta quantiles."""
    from scipy import special

    if trials < 1 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    half = (1.0 - confidence) / 2.0
    lo = 0.0 if successes == 0 else float(
        special.betaincinv(successes, trials - successes + 1, half))
    hi = 1.0 if successes == trials else float(
        special.betaincinv(successes + 1, trials - successes, 1.0 - half))
    return (lo, hi)


def invert_monotone(forward: Callable[[float], float], target: float,
                    bracket: tuple[float, float]) -> float:
    """Bisection inverse of a strictly monotone scalar function.

    Halves the bracket until it is narrower than 1e-12 * max(1, |hi|).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must be ordered (lo, hi)")
    f_lo, f_hi = forward(lo), forward(hi)
    increasing = f_hi >= f_lo
    if not (min(f_lo, f_hi) <= target <= max(f_lo, f_hi)):
        raise ValueError(f"target {target!r} outside the range "
                         f"[{min(f_lo, f_hi)!r}, {max(f_lo, f_hi)!r}] of the forward "
                         f"map over bracket {bracket}")
    while hi - lo > 1e-12 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if (forward(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sigma_interval_from_tv(tv_interval: tuple[float, float],
                           forward_map: Callable[[float], float],
                           bracket: tuple[float, float] = (1e-3, 1e3)) -> tuple[float, float]:
    """Invert a strictly decreasing TV(sigma) map at both interval endpoints.

    Larger TV maps to smaller sigma, so the returned (sigma_lo, sigma_hi)
    comes from the upper and lower TV endpoints respectively.
    """
    tv_lo, tv_hi = tv_interval
    if tv_lo > tv_hi:
        raise ValueError("tv_interval must be ordered (lo, hi)")
    return (invert_monotone(forward_map, tv_hi, bracket),
            invert_monotone(forward_map, tv_lo, bracket))
