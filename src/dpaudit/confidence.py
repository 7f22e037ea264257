"""Frequentist confidence machinery for the histogram estimates.

The multinomial TV radius gives a simultaneous bound on how far an empirical
distribution can sit from its truth; propagating one radius per side through
the hockey-stick divergence yields two-sided (epsilon, delta) intervals.
"""

from __future__ import annotations

import math

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
