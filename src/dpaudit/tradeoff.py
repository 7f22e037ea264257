"""Trade-off curves and the profile-to-curve conversion.

A trade-off curve maps the type-I error alpha to the least achievable
type-II error beta. Valid curves are convex, non-increasing, and sit below
1 - alpha; ``validate`` reports violations instead of raising so that
hand-built diagnostics remain possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import alpha_from_eps
from .profiles import PrivacyProfile, check_columns, csv_text, read_csv

_VALIDATE_SLACK = 1e-9
MIN_ALPHA_NODES = 512
# profile_to_tradeoff sweeps delta' over [CURVE_DELTA_TARGET, 1 - CURVE_DELTA_TARGET]
CURVE_DELTA_TARGET = 1e-3
CURVE_POINTS = 200


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise-linear curve alpha -> beta on [0, 1]."""

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        check_columns(self, "alphas", "betas", "curve")
        if self.alphas[0] < -_VALIDATE_SLACK or self.alphas[-1] > 1 + _VALIDATE_SLACK:
            raise ValueError("alphas must lie in [0, 1]")

    def evaluate(self, alpha):
        """Piecewise-linear interpolation, clamped to the end nodes."""
        return np.interp(alpha, self.alphas, self.betas)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text("alpha,beta", self.alphas, self.betas))

    @classmethod
    def from_csv(cls, path) -> "TradeoffCurve":
        alphas, betas = read_csv(path, "alpha,beta")
        return cls(alphas, betas)


def validate(curve: TradeoffCurve) -> list[str]:
    """Check the trade-off invariants; returns human-readable violations."""
    violations = []
    a, b = curve.alphas, curve.betas
    if np.any(np.diff(b) > _VALIDATE_SLACK):
        j = int(np.argmax(np.diff(b) > _VALIDATE_SLACK))
        violations.append(f"beta increases between alpha={a[j]:.6g} and alpha={a[j+1]:.6g}")
    slopes = np.diff(b) / np.diff(a)
    if slopes.size >= 2 and np.any(np.diff(slopes) < -_VALIDATE_SLACK):
        j = int(np.argmax(np.diff(slopes) < -_VALIDATE_SLACK))
        violations.append(f"convexity violated around alpha={a[j+1]:.6g}")
    over = b - (1.0 - a)
    if np.any(over > _VALIDATE_SLACK):
        j = int(np.argmax(over > _VALIDATE_SLACK))
        violations.append(f"beta exceeds 1 - alpha at alpha={a[j]:.6g}")
    return violations


def f_eps_delta(eps: float, delta: float, alpha):
    """The (eps, delta)-DP trade-off curve max{0, 1-d-e^eps a, e^-eps (1-d-a)}."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any((alpha < 0) | (alpha > 1)):
        raise ValueError("alpha must lie in [0, 1]")
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    # no pair has delta(eps) < 1 - e^eps; below it the curve leaves [0, 1]
    floor = math.log1p(-delta) if delta < 1 else -math.inf
    if eps < floor:
        raise ValueError(f"eps must be >= log(1 - delta) = {floor:.6g}")
    out = np.maximum(0.0, np.maximum(1.0 - delta - alpha_from_eps(eps) * alpha,
                                     alpha_from_eps(-eps) * (1.0 - delta - alpha)))
    return float(out) if out.ndim == 0 else out


def profile_to_tradeoff(profile: PrivacyProfile, delta_target: float = CURVE_DELTA_TARGET,
                        n_points: int = CURVE_POINTS) -> TradeoffCurve:
    """Convert a privacy profile to a trade-off curve.

    For n_points linearly spaced delta' in [delta_target, 1 - delta_target],
    invert the profile to eps' and take the upper envelope of the
    corresponding f_{eps',delta'} curves on a uniform alpha grid of
    max(n_points, MIN_ALPHA_NODES) nodes.

    A delta' below the profile's smallest tabulated value has no eps' and is
    skipped, which only lowers the envelope; when no delta' is left this
    raises ValueError. Inversion ties resolve to the smallest eps.

    Args:
        profile: tabulated (or function-backed) privacy profile.
        delta_target: half-margin of the delta' sweep; must lie in (0, 0.5).
        n_points: number of delta' values.

    Returns:
        The enveloping TradeoffCurve.
    """
    if not 0 < delta_target < 0.5:
        raise ValueError("delta_target must lie in (0, 0.5)")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    delta_grid = np.linspace(delta_target, 1.0 - delta_target, n_points)
    pairs = []
    for dp in delta_grid:
        eps_hat = profile.epsilon_at(dp)
        if eps_hat is None:
            continue
        # any pair is also certified at a larger eps, and no distribution
        # pair realizes delta < 1 - e^eps; flooring keeps every line below
        # 1 - alpha, so the envelope stays a valid trade-off curve
        pairs.append((max(eps_hat, math.log1p(-dp)), dp))
    if not pairs:
        raise ValueError("no delta' value was invertible on this profile")
    alphas = np.linspace(0.0, 1.0, max(n_points, MIN_ALPHA_NODES))
    best = np.zeros_like(alphas)
    eps_hats, dps = np.array(pairs).T
    for grow, shrink, dp in zip(alpha_from_eps(eps_hats), alpha_from_eps(-eps_hats), dps):
        # the two lines of f_{eps', delta'}, as in f_eps_delta
        np.maximum(best, np.maximum(1.0 - dp - grow * alphas, shrink * (1.0 - dp - alphas)),
                   out=best)
    return TradeoffCurve(alphas, best)
