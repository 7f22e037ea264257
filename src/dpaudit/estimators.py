"""Audit pipelines and baselines built on the histogram estimator.

``histogram_audit`` is the end-to-end pipeline: bin the two score samples,
tabulate the symmetric divergence over an eps grid, attach multinomial
confidence bounds, convert per-delta targets to epsilon estimates, and emit
trade-off curves. The remaining functions are the baselines and diagnostics:
the threshold attack, TV-based single-parameter recovery, and the
Gaussian-profile (GDP) fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .confidence import canonne_radius, hs_interval
from .discrete import tv_distance
from .errors import FitError
from .histogram import (BinningSpec, HistogramEstimate, auto_spec,
                        build_histograms, estimate_profile)
from .mechanisms import (_require_positive_finite, _std_normal_pdf, gaussian_delta, sigma_from_tv,
                         tv_range)
from .profiles import PrivacyProfile, csv_text
from .tradeoff import CURVE_DELTA_TARGET, CURVE_POINTS, TradeoffCurve, profile_to_tradeoff

DEFAULT_EPS_GRID = (-10.0, 10.0, 2001)
# the most eps grid points AuditConfig takes: 8 MB per grid-length float64 array
EPS_GRID_MAX_POINTS = 2 ** 20
DEFAULT_DELTA_TARGETS = (0.01, 0.05, 0.1)
# fit_mu_gdp: eps window nodes, the sigma search bracket, its relative tolerance
GDP_FIT_GRID = 2000
GDP_SIGMA_BRACKET = (0.01, 100.0)
GDP_REL_TOL = 1e-5


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for ``histogram_audit``; ``bins`` or ``bin_width`` fixes the binning,
    neither leaves it to the Scott rule (see ``histogram.auto_spec``)."""

    bins: int | None = None
    bin_width: float | None = None
    delta_targets: tuple[float, ...] = DEFAULT_DELTA_TARGETS
    confidence: float = 0.99
    eps_grid: tuple[float, float, int] = DEFAULT_EPS_GRID

    def __post_init__(self):
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must lie in (0, 1)")
        lo, hi, m = self.eps_grid
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"eps_grid ends must be finite, got lo={lo!r}, hi={hi!r}")
        if not (lo < hi and int(m) >= 2):
            raise ValueError("eps_grid must be (lo < hi, m >= 2)")
        if int(m) > EPS_GRID_MAX_POINTS:
            raise ValueError(f"eps_grid has {int(m)} points, more than the {EPS_GRID_MAX_POINTS} "
                             "allowed")
        for d in self.delta_targets:
            if not 0 < d < 1:
                raise ValueError("delta targets must lie in (0, 1)")

    def eps_values(self) -> np.ndarray:
        lo, hi, m = self.eps_grid
        return np.linspace(lo, hi, int(m))


@dataclass(frozen=True)
class EpsilonEstimate:
    """Point estimate and confidence lower bound of eps at one delta target."""

    delta: float
    point: float | None
    lower: float | None


@dataclass(frozen=True)
class SigmaEstimate:
    """Single-parameter (noise scale) estimate recovered from the TV distance."""

    tv: float
    tv_interval: tuple[float, float]
    sigma: float
    sigma_interval: tuple[float, float]
    confidence: float


def binning_json(spec: BinningSpec) -> dict:
    """The JSON ``binning`` block of a report."""
    return {"a": spec.a, "b": spec.b, "k": spec.k, "h": spec.h}


def profile_json(profile: PrivacyProfile) -> list[dict]:
    """The JSON ``profile`` block of a report: one {epsilon, delta} per grid point."""
    return [{"epsilon": float(e), "delta": float(d)}
            for e, d in zip(profile.epsilons, profile.deltas)]


@dataclass(frozen=True)
class AuditReport:
    """Everything an audit produced, serializable to a stable JSON layout."""

    method: str
    n: int
    confidence: float
    binning: BinningSpec
    epsilons: tuple[EpsilonEstimate, ...]
    profile: PrivacyProfile
    profile_lower: PrivacyProfile
    tradeoff_estimate: TradeoffCurve | None = None
    tradeoff_bound: TradeoffCurve | None = None
    sigma: SigmaEstimate | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "method": self.method,
            "n": self.n,
            "confidence": self.confidence,
            "binning": binning_json(self.binning),
            "eps": [asdict(e) for e in self.epsilons],
            "profile": profile_json(self.profile),
            "heuristic": self.profile.heuristic,
            "curves": {name: None if curve is None
                       else csv_text("alpha,beta", curve.alphas, curve.betas)
                       for name, curve in (("estimate", self.tradeoff_estimate),
                                           ("bound", self.tradeoff_bound))},
        }
        if self.sigma is not None:
            doc["sigma_estimation"] = asdict(self.sigma)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _epsilon_for_target(profile: PrivacyProfile, delta_target: float) -> float | None:
    """Reported eps at a delta target: 0 when the curve is already below the
    target at eps=0, the crossing otherwise, None when the grid never gets
    below the target."""
    if float(profile.delta_at(0.0)) <= delta_target:
        return 0.0
    eps_hat = profile.epsilon_at(delta_target)
    if eps_hat is None:
        return None
    return max(0.0, eps_hat)


def spec_from_config(samples_p, samples_q, config: AuditConfig) -> BinningSpec:
    return auto_spec(samples_p, samples_q, k=config.bins, width=config.bin_width)


def histogram_audit(samples_p, samples_q, config: AuditConfig | None = None, *,
                    method: str = "histogram",
                    fit_sigma_q: float | None = None) -> AuditReport:
    """Run the full histogram audit on two equal-length score samples.

    Args:
        samples_p: scores drawn under the "in" world.
        samples_q: scores drawn under the "out" world.
        config: audit knobs; defaults are reasonable for 1e4..1e6 samples.
        method: tag recorded in the report.
        fit_sigma_q: optional sampling rate q of the subsampled Gaussian
            (1 for the plain Gaussian); when given, a single-parameter sigma
            estimate with its confidence interval is attached to the report.

    Returns:
        The :func:`audit_estimate` report of the samples binned as the
        config says.
    """
    config = config or AuditConfig()
    spec = spec_from_config(samples_p, samples_q, config)
    return audit_estimate(build_histograms(samples_p, samples_q, spec), config,
                          method=method, fit_sigma_q=fit_sigma_q)


def audit_estimate(hist: HistogramEstimate, config: AuditConfig | None = None, *,
                   method: str = "histogram",
                   fit_sigma_q: float | None = None) -> AuditReport:
    """The audit of a binned sample pair; arguments as in :func:`histogram_audit`.

    Returns:
        An AuditReport with the point profile, the confidence-lower-bounded
        profile, per-delta-target epsilon estimates, and trade-off curves.
        The curves are None when the point profile stays above
        1 - CURVE_DELTA_TARGET on the whole eps grid, as it does when the two
        samples do not overlap: then no delta' of the sweep can be inverted.
    """
    config = config or AuditConfig()
    spec = hist.spec
    eps_values = config.eps_values()
    profile = estimate_profile(hist, eps_values)

    # union bound: each side gets half the failure budget, one radius covers both
    tau = canonne_radius(hist.n, spec.k, (1.0 - config.confidence) / 2.0)
    lower = PrivacyProfile.envelope(
        eps_values, hs_interval(profile.deltas, eps_values, tau, tau)[0])

    estimates = tuple(EpsilonEstimate(target, _epsilon_for_target(profile, target),
                                      _epsilon_for_target(lower, target))
                      for target in config.delta_targets)

    curve_est = curve_bound = None
    if profile.deltas[-1] <= 1.0 - CURVE_DELTA_TARGET:
        curve_est = profile_to_tradeoff(profile, CURVE_DELTA_TARGET, CURVE_POINTS)
        # converting the lower-bounded profile; see the report caveat: this
        # conversion is not itself a certified upper bound
        curve_bound = profile_to_tradeoff(lower, CURVE_DELTA_TARGET, CURVE_POINTS)

    sigma_block = (None if fit_sigma_q is None
                   else estimate_sigma(hist, config.confidence, fit_sigma_q))

    return AuditReport(method=method, n=hist.n, confidence=config.confidence,
                       binning=spec, epsilons=estimates,
                       profile=profile, profile_lower=lower,
                       tradeoff_estimate=curve_est, tradeoff_bound=curve_bound,
                       sigma=sigma_block)


def estimate_sigma(hist: HistogramEstimate, confidence: float, q: float) -> SigmaEstimate:
    """Single-parameter recovery: TV estimate +/- the multinomial radius,
    mapped to the noise scale of the subsampled Gaussian at rate q.

    TV falls as sigma grows, so the upper TV end gives the lower sigma end.
    A TV end outside the map's range over ``mechanisms.SIGMA_RANGE`` is
    clamped to it, so the sigma interval is one-sided there, ending at
    SIGMA_RANGE's end; it holds every sigma in SIGMA_RANGE whose TV the TV
    interval holds. Raises FitError when TV-hat itself lies outside the range.
    """
    tv_hat = tv_distance(hist.p_hat, hist.q_hat)
    tau = canonne_radius(hist.n, hist.spec.k, 1.0 - confidence)
    tv_lo = max(0.0, tv_hat - tau)
    tv_hi = min(1.0, tv_hat + tau)
    try:
        sigma_hat = sigma_from_tv(q, tv_hat)
    except FitError as exc:
        raise FitError(f"cannot map the TV estimate {tv_hat:.6g} to sigma: {exc}") from exc
    tv_min, tv_max = tv_range(q)
    sigma_lo, sigma_hi = (sigma_from_tv(q, min(max(tv, tv_min), tv_max)) for tv in (tv_hi, tv_lo))
    return SigmaEstimate(tv=tv_hat, tv_interval=(tv_lo, tv_hi), sigma=sigma_hat,
                         sigma_interval=(sigma_lo, sigma_hi), confidence=confidence)


@dataclass(frozen=True)
class ThresholdEstimate:
    """Threshold-attack epsilon with its degenerate outcomes flagged.

    ``status`` is "ok" (epsilon holds the estimate), "undefined" (both
    numerators non-positive) or "unbounded" (an empty cell produced an
    infinite ratio); degenerate outcomes never masquerade as numbers.
    """

    epsilon: float | None
    status: str = "ok"


def threshold_epsilon(samples_p, samples_q, threshold: float,
                      delta: float = 0.0) -> ThresholdEstimate:
    """Membership-threshold baseline: scores below the threshold vote "in".

    Returns max{ ln((TPR - delta)/FPR), ln((TNR - delta)/FNR) } with ties
    going to the negative class (strict '<' defines membership).
    """
    sp = np.asarray(samples_p, dtype=float)
    sq = np.asarray(samples_q, dtype=float)
    if sp.size == 0 or sq.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    tpr = float(np.mean(sp < threshold))
    fpr = float(np.mean(sq < threshold))
    fnr, tnr = 1.0 - tpr, 1.0 - fpr

    candidates = []
    unbounded = False
    for num, den in ((tpr - delta, fpr), (tnr - delta, fnr)):
        if num <= 0:
            continue
        if den == 0:
            unbounded = True
        else:
            candidates.append(math.log(num / den))
    if unbounded:
        return ThresholdEstimate(None, "unbounded")
    if not candidates:
        return ThresholdEstimate(None, "undefined")
    return ThresholdEstimate(max(candidates), "ok")


def two_bin_histogram(samples_p, samples_q, threshold: float) -> HistogramEstimate:
    """The two-bin histogram whose divergence the threshold attack measures."""
    spec = BinningSpec(threshold - 1.0, threshold + 1.0, 2)
    return build_histograms(samples_p, samples_q, spec)


def fit_mu_gdp(profile: PrivacyProfile, eps_range: tuple[float, float]) -> float:
    """Fit the GDP parameter: tightest Gaussian profile dominating this one.

    Finds the largest noise scale sigma whose Gaussian profile stays above
    the given profile on the eps window (at that sigma the two curves touch
    tangentially) and returns mu = 1/sigma. The feasibility margin is
    monotone in sigma, so the search is a plain bisection over the bracket.

    Raises FitError when the profile is not non-increasing, when it reaches
    delta = 1 on the window (as for samples that do not overlap; no finite mu
    reaches 1), or when even the noisiest Gaussian in the bracket fails to dominate.
    """
    lo_eps, hi_eps = eps_range
    if not (np.isfinite(lo_eps) and np.isfinite(hi_eps) and lo_eps < hi_eps):
        raise ValueError("eps_range must be finite with lo < hi")
    if np.any(np.diff(profile.deltas) > 1e-9):
        raise FitError("profile is not non-increasing; cannot fit a GDP parameter")
    grid = np.linspace(lo_eps, hi_eps, GDP_FIT_GRID)
    reference = np.asarray(profile.delta_at(grid), dtype=float)
    if reference.max() >= 1.0:
        raise FitError("the profile reaches delta = 1 on the eps window; "
                       "no Gaussian profile with a finite mu dominates it")

    def dominates(sigma: float) -> bool:
        return bool(np.all(gaussian_delta(grid, sigma) >= reference - 1e-12))

    lo_sig, hi_sig = GDP_SIGMA_BRACKET
    if not dominates(lo_sig):
        raise FitError(f"no Gaussian profile with sigma >= {lo_sig} dominates the input")
    if dominates(hi_sig):
        return 1.0 / hi_sig
    while hi_sig / lo_sig > 1.0 + GDP_REL_TOL:
        mid = math.sqrt(lo_sig * hi_sig)
        if dominates(mid):
            lo_sig = mid
        else:
            hi_sig = mid
    return 1.0 / lo_sig


def f_alpha_sensitivity(sigma: float, alpha):
    """d/d sigma of the Gaussian pair divergence at order alpha.

    (-ln a - 1/(2 s^2)) phi(-s ln a + 1/(2s)) - a (-ln a + 1/(2 s^2)) phi(-s ln a - 1/(2s)).
    """
    _require_positive_finite(sigma=sigma)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError("alpha must be positive")
    log_a = np.log(alpha)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    inv2s = 1.0 / (2.0 * sigma)
    out = ((-log_a - inv2s2) * _std_normal_pdf(-sigma * log_a + inv2s)
           - alpha * (-log_a + inv2s2) * _std_normal_pdf(-sigma * log_a - inv2s))
    return float(out) if out.ndim == 0 else out
