"""Closed-form privacy curves that the benchmark checks CLI outputs against.

Written with numpy and scipy only, apart from dpaudit, so that a bug in the
library's own analytic mechanisms cannot hide a bug in its estimates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special


def subsampled_gaussian_delta(eps: float, q: float, sigma: float) -> float:
    """Tight symmetric delta(eps) of q N(1, s^2) + (1-q) N(0, s^2) against N(0, s^2).

    The likelihood ratio L(x) = q exp((2x - 1) / (2 s^2)) + 1 - q increases
    with x, so in each direction the optimal rejection set is a half-line
    cut where L equals e^eps (mixture over normal) or e^-eps (the reverse).
    """
    alpha = math.exp(eps)

    def cut(level: float) -> float:
        return sigma * sigma * math.log((level - (1.0 - q)) / q) + 0.5

    if alpha <= 1.0 - q:
        forward = 1.0 - alpha
    else:
        x = cut(alpha)
        tail_q = special.ndtr(-x / sigma)
        forward = q * special.ndtr((1.0 - x) / sigma) + (1.0 - q) * tail_q - alpha * tail_q
    if 1.0 / alpha <= 1.0 - q:
        backward = 0.0
    else:
        x = cut(1.0 / alpha)
        head_q = special.ndtr(x / sigma)
        backward = head_q - alpha * (q * special.ndtr((x - 1.0) / sigma) + (1.0 - q) * head_q)
    return max(float(forward), float(backward), 0.0)


def subsampled_gaussian_profile(eps_grid, q: float, sigma: float) -> np.ndarray:
    """subsampled_gaussian_delta over a grid; q = 1 gives the Gaussian mechanism."""
    return np.array([subsampled_gaussian_delta(float(e), q, sigma) for e in eps_grid])


def epsilon_at(delta_fn, delta_target: float, eps_max: float = 60.0) -> float:
    """Smallest eps >= 0 with delta_fn(eps) <= delta_target (delta_fn decreasing)."""
    if delta_fn(0.0) <= delta_target:
        return 0.0
    return float(optimize.brentq(lambda e: float(delta_fn(e)) - delta_target,
                                 0.0, eps_max, xtol=1e-12))
