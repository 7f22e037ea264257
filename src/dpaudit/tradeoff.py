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
from .mechanisms import _unit_alphas
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


def _eps_floor(delta: float) -> float:
    """log(1 - delta), the least eps: no pair has delta(eps) < 1 - e^eps."""
    return math.log1p(-delta) if delta < 1 else -math.inf


def f_eps_delta(eps: float, delta: float, alpha):
    """The (eps, delta)-DP trade-off curve max{0, 1-d-e^eps a, e^-eps (1-d-a)}."""
    alpha = _unit_alphas(alpha)
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    floor = _eps_floor(delta)
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
        profile: tabulated privacy profile.
        delta_target: half-margin of the delta' sweep; must lie in (0, 0.5).
        n_points: number of delta' values.

    Returns:
        The enveloping TradeoffCurve.
    """
    if not 0 < delta_target < 0.5:
        raise ValueError("delta_target must lie in (0, 0.5)")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    alphas = np.linspace(0.0, 1.0, max(n_points, MIN_ALPHA_NODES))
    best = None
    for dp in np.linspace(delta_target, 1.0 - delta_target, n_points):
        eps_hat = profile.epsilon_at(dp)
        if eps_hat is None:
            continue
        # any pair is also certified at a larger eps, so eps' may rise to
        # the floor below which f_eps_delta refuses the pair
        line = f_eps_delta(max(eps_hat, _eps_floor(dp)), dp, alphas)
        best = line if best is None else np.maximum(best, line, out=best)
    if best is None:
        raise ValueError("no delta' value was invertible on this profile")
    return TradeoffCurve(alphas, best)
