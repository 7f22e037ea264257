"""Analytic mechanisms: ground-truth profiles, trade-offs, samplers.

These are the oracles the estimators get tested against. Both Gaussian
mechanisms have closed-form profiles. The subsampled Gaussian's dominating
pair (a two-component normal mixture against a normal) has a likelihood
ratio that increases in x, so each directed divergence is read off at the
single threshold where the ratio crosses e^eps, as for the plain Gaussian
(Balle & Wang, ICML 2018). Its ``bin_masses`` give the same pair as exact
masses on a fine binning: the discretised reference that the composition
tests feed through the PLD engine. Its TV, q (2 Phi(1/(2 sigma)) - 1), has
a closed-form inverse in sigma (``sigma_from_tv``): the audit's
single-parameter recovery.

scipy.special is imported inside the functions that need it, and
``statistics`` inside ``sigma_from_tv``, so importing this module (and the
CLI) loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import DiscreteDistribution, alpha_from_eps
from .errors import FitError
from .profiles import PrivacyProfile

SQRT_2PI = math.sqrt(2.0 * math.pi)
# the noise scales sigma_from_tv maps a TV onto
SIGMA_RANGE = (1e-3, 1e3)
# bin_masses covers [-BIN_TAIL_SIGMAS sigma, 1 + BIN_TAIL_SIGMAS sigma]
BIN_TAIL_SIGMAS = 12.0


def _std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def _require_positive_finite(**fields) -> None:
    # written so that NaN fails the check
    for name, value in fields.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _unit_alphas(alpha) -> np.ndarray:
    """``alpha`` as a float array, checked to lie in [0, 1] (NaN fails)."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all((alpha >= 0) & (alpha <= 1)):
        raise ValueError("alpha must lie in [0, 1]")
    return alpha


def gaussian_delta(eps, sigma: float, sensitivity: float = 1.0):
    """Tight delta(eps) of the Gaussian mechanism.

    Phi(-eps*sigma/D + D/(2 sigma)) - e^eps * Phi(-eps*sigma/D - D/(2 sigma)),
    with the second term evaluated in log space so large eps stays finite.
    """
    from scipy import special

    _require_positive_finite(sigma=sigma, sensitivity=sensitivity)
    eps = np.asarray(eps, dtype=float)
    a = -eps * sigma / sensitivity + sensitivity / (2.0 * sigma)
    b = -eps * sigma / sensitivity - sensitivity / (2.0 * sigma)
    with np.errstate(over="ignore"):
        out = special.ndtr(a) - np.exp(eps + special.log_ndtr(b))
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out


def gdp_tradeoff(mu: float, alpha):
    """Gaussian trade-off curve Phi(Phi^{-1}(1 - alpha) - mu)."""
    from scipy import special

    if not mu >= 0:
        raise ValueError("mu must be >= 0")
    alpha = _unit_alphas(alpha)
    out = special.ndtr(special.ndtri(1.0 - alpha) - mu)
    return float(out) if out.ndim == 0 else out


def laplace_tradeoff(mu: float, alpha):
    """Trade-off curve of a unit-scale Laplace pair at separation mu.

    Piecewise: 1 - e^mu * a below e^{-mu}/2, then e^{-mu}/(4a) up to 1/2,
    then e^{-mu} * (1 - a).
    """
    if not mu >= 0:
        raise ValueError("mu must be >= 0")
    alpha = _unit_alphas(alpha)
    grow, shrink = alpha_from_eps(mu), alpha_from_eps(-mu)
    lo = shrink / 2.0
    # the pieces meet at lo; the first takes alpha = 0, where the middle is x/0
    with np.errstate(divide="ignore", invalid="ignore"):
        middle = shrink / (4.0 * alpha)
    out = np.where(alpha <= lo, 1.0 - grow * alpha,
                   np.where(alpha <= 0.5, middle, shrink * (1.0 - alpha)))
    return float(out) if out.ndim == 0 else out


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _cdf_bin_masses(cdf, lo: float, hi: float, width: float) -> DiscreteDistribution:
    k = max(2, int(math.ceil((hi - lo) / width)))
    edges = lo + (hi - lo) * np.arange(k + 1) / k
    cum = cdf(edges)
    masses = np.diff(cum)
    # end bins are open-ended, as in the estimator's binning
    masses[0] += cum[0]
    masses[-1] += 1.0 - cum[-1]
    return DiscreteDistribution.normalized(np.maximum(masses, 0.0))


@dataclass(frozen=True)
class GaussianMechanism:
    """Dominating pair N(0, sigma^2) against N(sensitivity, sigma^2)."""

    sigma: float
    sensitivity: float = 1.0

    def __post_init__(self):
        _require_positive_finite(sigma=self.sigma, sensitivity=self.sensitivity)

    def delta(self, eps):
        return gaussian_delta(eps, self.sigma, self.sensitivity)

    def tv(self) -> float:
        return float(self.delta(0.0))

    def profile(self, eps_grid) -> PrivacyProfile:
        return PrivacyProfile(eps_grid, self.delta(eps_grid))

    def sample_pair(self, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = _rng(seed)
        return (rng.normal(0.0, self.sigma, n),
                rng.normal(self.sensitivity, self.sigma, n))


@dataclass(frozen=True)
class SubsampledGaussianMechanism:
    """Pair q*N(1, sigma^2) + (1-q)*N(0, sigma^2) against N(0, sigma^2)."""

    q: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise ValueError("q must lie in (0, 1]")
        _require_positive_finite(sigma=self.sigma)

    def cdf_p(self, x):
        from scipy import special

        x = np.asarray(x, dtype=float)
        return (self.q * special.ndtr((x - 1.0) / self.sigma)
                + (1.0 - self.q) * special.ndtr(x / self.sigma))

    def delta(self, eps):
        """Tight delta(eps): the larger of the two directed divergences.

        P/Q = q exp((2x - 1) / (2 sigma^2)) + 1 - q increases in x, so
        [P - e^eps Q]_+ lives above x* = sigma^2 ln((e^eps - (1-q))/q) + 1/2
        and equals q * gaussian_delta(eps') with eps' = ln((e^eps - (1-q))/q),
        or 1 - e^eps where e^eps <= 1 - q. The reverse direction is read off
        below the mirror threshold (eps -> -eps) and carries (1 - e^eps (1-q)).
        """
        eps = np.asarray(eps, dtype=float)
        log_q = math.log(self.q)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_keep = np.log1p(-self.q)   # ln(1-q), -inf at q = 1
            up = np.exp(log_keep - eps)    # (1-q) e^-eps, < 1 iff a threshold exists
            down = np.exp(log_keep + eps)  # (1-q) e^eps, the same for the reverse
            forward = np.where(
                up < 1.0,
                self.q * gaussian_delta(eps + np.log1p(-up) - log_q, self.sigma),
                -np.expm1(eps))
            reverse = np.where(
                down < 1.0,
                -np.expm1(log_keep + eps)
                * gaussian_delta(eps - np.log1p(-down) + log_q, self.sigma),
                0.0)
        out = np.maximum(forward, reverse)
        return float(out) if out.ndim == 0 else out

    def tv(self) -> float:
        """TV distance q * (2 Phi(1/(2 sigma)) - 1) = q * erf(1/(2 sqrt(2) sigma))."""
        return self.q * math.erf(0.5 / (math.sqrt(2.0) * self.sigma))

    def bin_masses(self, *,
                   width: float = 1e-3) -> tuple[DiscreteDistribution, DiscreteDistribution]:
        """Exact masses of the dominating pair on a shared fine binning."""
        from scipy import special

        lo = -BIN_TAIL_SIGMAS * self.sigma
        hi = 1.0 + BIN_TAIL_SIGMAS * self.sigma
        p = _cdf_bin_masses(self.cdf_p, lo, hi, width)
        q = _cdf_bin_masses(lambda x: special.ndtr(np.asarray(x) / self.sigma), lo, hi, width)
        return p, q

    def profile(self, eps_grid) -> PrivacyProfile:
        return PrivacyProfile(eps_grid, self.delta(eps_grid))

    def sample_pair(self, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = _rng(seed)
        component = rng.random(n) < self.q
        p_samples = rng.normal(np.where(component, 1.0, 0.0), self.sigma)
        q_samples = rng.normal(0.0, self.sigma, n)
        return p_samples, q_samples


def tv_range(q: float) -> tuple[float, float]:
    """The subsampled Gaussian's TVs at rate q at the ends of SIGMA_RANGE, lowest first."""
    lo, hi = SIGMA_RANGE
    return SubsampledGaussianMechanism(q, hi).tv(), SubsampledGaussianMechanism(q, lo).tv()


def sigma_from_tv(q: float, tv: float) -> float:
    """The sigma in SIGMA_RANGE whose ``SubsampledGaussianMechanism(q, sigma).tv()`` is tv.

    sigma = -1 / (2 Phi^{-1}((q - tv) / (2q))), written through the upper
    tail q - tv so that a TV near q keeps its precision. Below sigma ~ 0.2
    the TV lies within 1e-16 q of q and does not determine sigma; tv = q,
    the TV of the smallest sigma in float64, maps to that sigma.

    Raises ValueError for q outside (0, 1] and FitError for a TV outside
    [tv(SIGMA_RANGE[1]), tv(SIGMA_RANGE[0])].
    """
    from statistics import NormalDist

    lo, hi = SIGMA_RANGE
    tv_min, tv_max = tv_range(q)
    if not tv_min <= tv <= tv_max:
        raise FitError(f"TV {tv!r} outside the range [{tv_min!r}, {tv_max!r}] "
                       f"of sigma in [{lo:g}, {hi:g}] at q = {q!r}")
    if tv == tv_max:
        return lo
    return min(hi, -0.5 / NormalDist().inv_cdf((q - tv) / (2.0 * q)))


@dataclass(frozen=True)
class LaplaceMechanism:
    """Dominating pair Lap(0, scale) against Lap(l1_sensitivity, scale)."""

    scale: float
    l1_sensitivity: float = 1.0

    def __post_init__(self):
        _require_positive_finite(scale=self.scale, l1_sensitivity=self.l1_sensitivity)

    def sample_pair(self, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = _rng(seed)
        return (rng.laplace(0.0, self.scale, n),
                rng.laplace(self.l1_sensitivity, self.scale, n))
