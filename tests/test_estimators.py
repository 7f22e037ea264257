import json
import math

import numpy as np
import pytest

from dpaudit.discrete import symmetric_delta
from dpaudit.errors import FitError
from dpaudit.estimators import (EPS_GRID_MAX_POINTS, AuditConfig, f_alpha_sensitivity,
                                fit_mu_gdp, histogram_audit, threshold_epsilon,
                                two_bin_histogram)
from dpaudit.mechanisms import (SIGMA_RANGE, GaussianMechanism, SubsampledGaussianMechanism,
                                gaussian_delta, sigma_from_tv)
from dpaudit.profiles import PrivacyProfile
from dpaudit.tradeoff import validate

from oracles import bisect_decreasing, mixture_tv_closed_form, traced_peak


class TestThresholdEpsilon:
    def test_uninformative_attack(self):
        sp = np.array([-1.0, 1.0] * 50)
        sq = np.array([-1.0, 1.0] * 50)
        est = threshold_epsilon(sp, sq, 0.0, 0.0)
        assert est.status == "ok"
        assert est.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_formula_arithmetic(self):
        # TPR=0.6, FPR=0.2 -> max(ln 3, ln 2)
        sp = np.concatenate([np.zeros(6), np.ones(4)])
        sq = np.concatenate([np.zeros(2), np.ones(8)])
        est = threshold_epsilon(sp, sq, 0.5, 0.0)
        assert est.epsilon == pytest.approx(math.log(3.0), abs=1e-12)

    def test_strict_inequality_defines_membership(self):
        sp = np.array([0.5, 0.5, 0.1, 0.9])
        est_at_boundary = threshold_epsilon(sp, sp, 0.5, 0.0)
        # samples equal to the threshold go to the negative class
        assert est_at_boundary.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_unbounded_flag(self):
        sp = np.array([-1.0, -2.0, -3.0])
        sq = np.array([1.0, 2.0, 3.0])
        est = threshold_epsilon(sp, sq, 0.0, 0.0)
        assert est.status == "unbounded"
        assert est.epsilon is None

    def test_undefined_flag(self):
        sp = np.array([0.0, 1.0])
        sq = np.array([0.0, 1.0])
        est = threshold_epsilon(sp, sq, 0.5, 0.9)
        assert est.status == "undefined"
        assert est.epsilon is None

    def test_two_bin_equivalence_random_cases(self):
        # the threshold estimate equals the eps that solves
        # symmetric_delta(P2, Q2, eps) = delta for the two-bin histograms
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 200:
            n = int(rng.integers(50, 400))
            shift = rng.uniform(0.2, 2.0)
            sp = rng.normal(0.0, 1.0, n)
            sq = rng.normal(shift, 1.0, n)
            threshold = rng.uniform(-0.5, shift + 0.5)
            tpr = np.mean(sp < threshold)
            fpr = np.mean(sq < threshold)
            if not (0.02 < fpr < tpr < 0.98):
                continue
            delta = rng.uniform(0.05, 0.8) * (tpr - fpr)
            est = threshold_epsilon(sp, sq, threshold, delta)
            assert est.status == "ok"
            hist = two_bin_histogram(sp, sq, threshold)
            lo, hi = 0.0, 60.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if symmetric_delta(hist.p_hat, hist.q_hat, mid) > delta:
                    lo = mid
                else:
                    hi = mid
            assert est.epsilon == pytest.approx(0.5 * (lo + hi), abs=1e-12)
            checked += 1


class TestInvertMonotone:
    """``sigma_from_tv`` inverts the decreasing sigma -> TV map in closed form."""

    @pytest.mark.parametrize("q", [1.0, 0.25, 0.01])
    def test_matches_the_reference_bisection(self, q):
        for sigma in np.geomspace(0.2, SIGMA_RANGE[1], 101):
            tv = SubsampledGaussianMechanism(q, sigma).tv()
            reference = bisect_decreasing(lambda s: mixture_tv_closed_form(q, s), tv,
                                          *SIGMA_RANGE)
            assert sigma_from_tv(q, tv) == pytest.approx(reference, rel=1e-9)

    def test_identity(self):
        # tv(sigma_from_tv(tv)) = tv over the whole range, also below sigma ~ 0.2
        # where the TV does not determine sigma
        for q in (1.0, 0.25, 0.01):
            for sigma in np.geomspace(*SIGMA_RANGE, 241):
                tv = SubsampledGaussianMechanism(q, sigma).tv()
                fitted = SubsampledGaussianMechanism(q, sigma_from_tv(q, tv)).tv()
                assert fitted == pytest.approx(tv, rel=1e-11)

    def test_range_ends_map_to_the_sigma_range_ends(self):
        lo, hi = SIGMA_RANGE
        for q in (1.0, 0.25, 0.01):
            # the top end: the TV of the smallest sigma is q in float64
            assert SubsampledGaussianMechanism(q, lo).tv() == q
            assert sigma_from_tv(q, q) == lo
            tv_min = SubsampledGaussianMechanism(q, hi).tv()
            assert sigma_from_tv(q, tv_min) == pytest.approx(hi, rel=1e-9)
            assert sigma_from_tv(q, tv_min) <= hi

    def test_gaussian_tv_inversion(self):
        sigma = sigma_from_tv(1.0, 0.3829249225480263)
        assert sigma == pytest.approx(1.0, abs=1e-6)

    def test_mixture_tv_paper_value(self):
        sigma = sigma_from_tv(0.25, 0.2256)
        assert sigma == pytest.approx(0.302, abs=0.001)

    def test_out_of_range_target(self):
        for tv in (0.0, 0.25 + 1e-12, 2.0, math.nan):
            with pytest.raises(FitError, match="outside the range"):
                sigma_from_tv(0.25, tv)

    @pytest.mark.parametrize("q", [0.0, 1.5, -1.0, math.nan, math.inf])
    def test_rejects_q_outside_the_unit_interval(self, q):
        with pytest.raises(ValueError, match="q must lie in"):
            sigma_from_tv(q, 0.1)


class TestFitMuGdp:
    def test_self_fit(self):
        profile = GaussianMechanism(0.5).profile(np.linspace(-2, 6, 401))
        assert fit_mu_gdp(profile, (0.0, 4.0)) == pytest.approx(2.0, abs=1e-3)

    def test_self_fit_on_subrange(self):
        profile = GaussianMechanism(2.0).profile(np.linspace(-1, 2, 301))
        assert fit_mu_gdp(profile, (0.0, 1.0)) == pytest.approx(0.5, abs=1e-2)

    def test_scale_consistency(self):
        for sigma in (0.25, 0.5, 1.0, 2.0, 4.0):
            profile = GaussianMechanism(sigma).profile(np.linspace(-2, 8, 501))
            mu = fit_mu_gdp(profile, (0.0, min(6.0, 8.0 * sigma)))
            assert mu == pytest.approx(1.0 / sigma, abs=1e-3)

    def test_perfect_privacy_gives_bracket_floor(self):
        eps = np.linspace(-2, 2, 41)
        profile = PrivacyProfile(eps, np.zeros_like(eps))
        assert fit_mu_gdp(profile, (0.0, 2.0)) == pytest.approx(0.01)

    def test_non_monotone_profile_rejected(self):
        eps = np.linspace(0, 1, 5)
        deltas = np.array([0.5, 0.4, 0.45, 0.3, 0.2])
        profile = PrivacyProfile.__new__(PrivacyProfile)
        object.__setattr__(profile, "epsilons", eps)
        object.__setattr__(profile, "deltas", deltas)
        with pytest.raises(FitError, match="non-increasing"):
            fit_mu_gdp(profile, (0.0, 1.0))


class TestFAlphaSensitivity:
    def test_alpha_one_closed_form(self):
        for sigma in (0.5, 1.0, 3.0):
            phi = math.exp(-0.5 * (1 / (2 * sigma)) ** 2) / math.sqrt(2 * math.pi)
            assert f_alpha_sensitivity(sigma, 1.0) == pytest.approx(
                -phi / sigma ** 2, abs=1e-14)

    def test_matches_finite_difference(self):
        h = 1e-6
        for sigma in (1.0, 2.0, 5.0):
            for alpha in (0.8, 1.0, 1.1, 1.5):
                eps = math.log(alpha)
                fd = (gaussian_delta(eps, sigma + h) - gaussian_delta(eps, sigma - h)) / (2 * h)
                assert f_alpha_sensitivity(sigma, alpha) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0])
    def test_rejects_sigma_that_is_not_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            f_alpha_sensitivity(sigma, 1.0)

    def test_strictly_negative_for_alpha_geq_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sigma = rng.uniform(0.2, 8.0)
            alpha = rng.uniform(1.0, 5.0)
            assert f_alpha_sensitivity(sigma, alpha) < 0.0

    def test_argmax_in_lemma_interval(self):
        for sigma in (2.0, 5.0, 10.0):
            alphas = np.linspace(0.5, 2.0, 15001)
            values = np.abs(f_alpha_sensitivity(sigma, alphas))
            best = alphas[np.argmax(values)]
            assert 1.0 - 2e-4 <= best <= math.exp(1.0 / (2.0 * sigma)) + 2e-4


class TestHistogramAudit:
    def test_identical_samples(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 2000)
        report = histogram_audit(x, x, AuditConfig(delta_targets=(0.01, 0.1)))
        for est in report.epsilons:
            assert est.point == 0.0
            assert est.lower == 0.0
        nonneg = report.profile.epsilons >= 0.0
        assert np.all(report.profile.deltas[nonneg] == 0.0)

    def test_gaussian_epsilon_recovery(self):
        rng = np.random.default_rng(4)
        n = 10 ** 5
        sp, sq = rng.normal(0, 1, n), rng.normal(1, 1, n)
        report = histogram_audit(sp, sq, AuditConfig(delta_targets=(0.05,)))
        analytic = bisect_decreasing(lambda e: gaussian_delta(e, 1.0), 0.05, 0.0, 10.0)
        assert report.epsilons[0].point == pytest.approx(analytic, abs=0.15)
        assert report.epsilons[0].lower <= report.epsilons[0].point

    def test_lower_bounds_never_exceed_points(self):
        rng = np.random.default_rng(5)
        sp, sq = rng.normal(0, 1, 5000), rng.normal(0.7, 1, 5000)
        report = histogram_audit(sp, sq)
        for est in report.epsilons:
            if est.point is not None and est.lower is not None:
                assert est.lower <= est.point + 1e-12

    def test_monotone_in_delta_target(self):
        rng = np.random.default_rng(6)
        sp, sq = rng.normal(0, 1, 20000), rng.normal(1, 1, 20000)
        report = histogram_audit(
            sp, sq, AuditConfig(delta_targets=(0.02, 0.05, 0.1, 0.2)))
        points = [e.point for e in report.epsilons]
        lowers = [e.lower for e in report.epsilons]
        assert all(a >= b - 1e-12 for a, b in zip(points, points[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))

    def test_curves_validate(self):
        rng = np.random.default_rng(7)
        sp, sq = rng.normal(0, 1, 20000), rng.normal(1, 1, 20000)
        report = histogram_audit(sp, sq)
        assert validate(report.tradeoff_estimate) == []
        assert validate(report.tradeoff_bound) == []
        # the bound curve sits above the estimate (weaker distinguisher claim)
        assert np.all(report.tradeoff_bound.betas >= report.tradeoff_estimate.betas - 1e-9)

    def test_unreachable_target_reported_as_none(self):
        rng = np.random.default_rng(8)
        sp, sq = rng.normal(0, 1, 200), rng.normal(5, 1, 200)
        # with disjoint-ish samples the profile floors well above 1e-6
        report = histogram_audit(sp, sq, AuditConfig(delta_targets=(1e-6,)))
        assert report.epsilons[0].point is None

    def test_sigma_block(self):
        mech = SubsampledGaussianMechanism(0.25, 0.3)
        sp, sq = mech.sample_pair(10 ** 5, seed=91)
        report = histogram_audit(
            sp, sq,
            AuditConfig(bins=20, confidence=0.9999), fit_sigma_q=0.25)
        assert report.sigma is not None
        assert report.sigma.sigma == pytest.approx(0.302, abs=0.01)
        lo, hi = report.sigma.sigma_interval
        assert lo < report.sigma.sigma < hi

    def test_sigma_interval_is_one_sided_past_the_map(self):
        # at 5000 scores per side TV-hat + tau passes q = 0.25, the largest TV the map gives
        sp, sq = SubsampledGaussianMechanism(0.25, 0.5).sample_pair(5000, seed=1)
        block = histogram_audit(sp, sq, fit_sigma_q=0.25).sigma
        assert block.tv_interval[1] > 0.25
        assert block.sigma_interval[0] == SIGMA_RANGE[0]
        assert SIGMA_RANGE[0] < block.sigma < block.sigma_interval[1] < SIGMA_RANGE[1]
        assert block.sigma_interval[1] == sigma_from_tv(0.25, block.tv_interval[0])

    def test_tv_estimate_past_the_map_is_a_fit_error(self):
        # N(0, 1) against N(3, 1): TV-hat near 0.87, far above q = 0.01
        rng = np.random.default_rng(94)
        sp, sq = rng.normal(0, 1, 5000), rng.normal(3, 1, 5000)
        with pytest.raises(FitError, match="cannot map the TV estimate .* outside the range"):
            histogram_audit(sp, sq, fit_sigma_q=0.01)

    @pytest.mark.parametrize("config", [AuditConfig(bins=20), AuditConfig()],
                             ids=["bins", "scott"])
    def test_peak_memory_stays_below_one_side(self, config):
        # binning reads the samples in blocks: no pooled copy, no n-length index array
        n = 2 ** 18
        sp, sq = SubsampledGaussianMechanism(0.25, 0.3).sample_pair(n, seed=93)
        assert traced_peak(lambda: histogram_audit(sp, sq, config)) < 8 * n

    @pytest.mark.parametrize("q", [0.0, 1.5, math.nan])
    def test_bad_fit_sigma_q_is_a_value_error(self, q):
        sp, sq = SubsampledGaussianMechanism(0.25, 0.3).sample_pair(10 ** 4, seed=92)
        with pytest.raises(ValueError, match="q must lie in"):
            histogram_audit(sp, sq, AuditConfig(bins=20), fit_sigma_q=q)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(9)
        sp, sq = rng.normal(0, 1, 1000), rng.normal(1, 1, 1000)
        report = histogram_audit(sp, sq)
        doc = json.loads(report.to_json())
        assert doc["method"] == "histogram"
        assert doc["n"] == 1000
        assert set(doc["binning"]) == {"a", "b", "k", "h"}
        assert all(set(e) == {"delta", "point", "lower"} for e in doc["eps"])
        assert doc["curves"]["estimate"].startswith("alpha,beta\n")

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            histogram_audit(np.zeros(10) + np.arange(10), np.arange(9), AuditConfig())


class TestAuditConfig:
    def test_eps_grid_point_cap(self):
        assert AuditConfig(eps_grid=(0.0, 1.0, EPS_GRID_MAX_POINTS)).eps_grid[2] == 2 ** 20
        with pytest.raises(ValueError, match=f"eps_grid has {2 ** 20 + 1} points, more than"):
            AuditConfig(eps_grid=(0.0, 1.0, EPS_GRID_MAX_POINTS + 1))
