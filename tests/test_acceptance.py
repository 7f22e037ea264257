"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not computed. The slowest item is the
one-shot convergence check (criterion 11), which draws its scores from the
exact score-law sampler so the full suite stays within a desk-scale budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
from scipy import special

from dpaudit.canary import OneShotConfig, one_shot_scores_gram
from dpaudit.confidence import canonne_radius, hs_interval
from dpaudit.discrete import DiscreteDistribution, coarsen, hs_divergence, symmetric_delta
from dpaudit.estimators import (AuditConfig, estimate_sigma, f_alpha_sensitivity,
                                fit_mu_gdp, histogram_audit, threshold_epsilon,
                                two_bin_histogram)
from dpaudit.histogram import auto_spec, build_histograms, estimate_delta_symmetric
from dpaudit.mechanisms import (GaussianMechanism, LaplaceMechanism,
                                SubsampledGaussianMechanism, gaussian_delta,
                                laplace_tradeoff)
from dpaudit.pld import compose_profile, delta_from_pld, pld_from_discrete, self_convolve
from dpaudit.tradeoff import profile_to_tradeoff


def report(criterion: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{name}]: {status} {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


def test_criterion_01_subsampled_gaussian_mu_gdp():
    start = time.time()
    mech = SubsampledGaussianMechanism(0.25, 0.3)
    profile = mech.profile(np.linspace(-2.0, 10.0, 1201))
    mu = fit_mu_gdp(profile, (0.0, 6.5))
    elapsed = time.time() - start
    ok = 2.35 <= mu <= 2.60 and elapsed < 30.0
    report(1, "subsampled-gaussian mu-GDP", ok,
           f"mu={mu:.4f} (target 2.475 +/- 5%), {elapsed:.1f}s")


def test_criterion_02_tv_example_with_sigma_interval():
    start = time.time()
    mech = SubsampledGaussianMechanism(0.25, 0.3)
    tvs, sigmas, los, his = [], [], [], []
    for seed in range(5):
        sp, sq = mech.sample_pair(10 ** 6, seed=8800 + seed)
        spec = auto_spec(sp, sq, k=20)
        hist = build_histograms(sp, sq, spec)
        block = estimate_sigma(hist, 0.9999, 0.25)
        tvs.append(block.tv)
        sigmas.append(block.sigma)
        los.append(block.sigma_interval[0])
        his.append(block.sigma_interval[1])
    tv_mean = float(np.mean(tvs))
    sigma_mean = float(np.mean(sigmas))
    lo_mean, hi_mean = float(np.mean(los)), float(np.mean(his))
    elapsed = time.time() - start
    ok = (0.2156 <= tv_mean <= 0.2356
          and 0.292 <= sigma_mean <= 0.312
          and abs(lo_mean - 0.285) <= 0.008
          and abs(hi_mean - 0.32) <= 0.008
          and elapsed < 60.0)
    report(2, "TV example and sigma interval", ok,
           f"tv={tv_mean:.4f}, sigma={sigma_mean:.4f}, "
           f"interval=[{lo_mean:.4f},{hi_mean:.4f}], {elapsed:.1f}s")


def test_criterion_03_gaussian_tv_oracle():
    start = time.time()
    results = {}
    for sigma in (0.5, 1.0, 2.0):
        truth = 2.0 * special.ndtr(1.0 / (2.0 * sigma)) - 1.0
        hits = 0
        for seed in range(20):
            mech = GaussianMechanism(sigma)
            sp, sq = mech.sample_pair(10 ** 5, seed=4100 + seed)
            hist = build_histograms(sp, sq, auto_spec(sp, sq))
            if abs(estimate_delta_symmetric(hist, 0.0) - truth) <= 0.01:
                hits += 1
        results[sigma] = hits
    elapsed = time.time() - start
    ok = all(hits >= 18 for hits in results.values()) and elapsed < 30.0
    report(3, "gaussian TV oracle", ok, f"hits={results}, {elapsed:.1f}s")


def test_criterion_04_subsampled_tradeoff_recovery():
    mech = SubsampledGaussianMechanism(0.25, 0.3)
    sp, sq = mech.sample_pair(10 ** 5, seed=1111)
    report_est = histogram_audit(sp, sq, AuditConfig(eps_grid=(-10.0, 16.0, 2601)))
    reference_profile = mech.profile(np.linspace(-10.0, 16.0, 2601))
    reference = profile_to_tradeoff(reference_profile, 1e-3, 200)
    estimate = report_est.tradeoff_estimate
    mask = (estimate.alphas >= 0.01) & (estimate.alphas <= 0.99)
    ref_on_grid = reference.evaluate(estimate.alphas[mask])
    sup = float(np.max(np.abs(estimate.betas[mask] - ref_on_grid)))
    report(4, "subsampled-gaussian trade-off", sup <= 0.05, f"sup-distance={sup:.4f}")


def test_criterion_05_laplace_tradeoff():
    mech = LaplaceMechanism(1.0, 1.0)
    sp, sq = mech.sample_pair(10 ** 5, seed=2025)
    audit = histogram_audit(sp, sq, AuditConfig(bins=100,
                                                eps_grid=(-10.0, 10.0, 2001)))
    curve = audit.tradeoff_estimate
    mask = (curve.alphas >= 0.01) & (curve.alphas <= 0.99)
    truth = laplace_tradeoff(1.0, curve.alphas[mask])
    sup = float(np.max(np.abs(curve.betas[mask] - truth)))
    report(5, "laplace trade-off", sup <= 0.05, f"sup-distance={sup:.4f}")


def test_criterion_06_convergence_rate():
    mech = GaussianMechanism(1.0)
    truth = 2.0 * special.ndtr(0.5) - 1.0
    sizes = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    means = []
    for n in sizes:
        errors = []
        for seed in range(20):
            sp, sq = mech.sample_pair(n, seed=5200 + seed)
            hist = build_histograms(sp, sq, auto_spec(sp, sq))
            errors.append(abs(estimate_delta_symmetric(hist, 0.0) - truth))
        means.append(float(np.mean(errors)))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    ok = -0.55 <= slope <= -0.18
    report(6, "convergence rate", ok, f"slope={slope:.3f}, mean errors={means}")


def test_criterion_07_threshold_two_bin_equivalence():
    rng = np.random.default_rng(777)
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(40, 500))
        shift = rng.uniform(0.2, 2.5)
        sp = rng.normal(0.0, 1.0, n)
        sq = rng.normal(shift, 1.0, n)
        threshold = rng.uniform(-0.5, shift + 0.5)
        tpr = np.mean(sp < threshold)
        fpr = np.mean(sq < threshold)
        if not (0.02 < fpr < tpr < 0.98):
            continue
        delta = rng.uniform(0.05, 0.8) * (tpr - fpr)
        est = threshold_epsilon(sp, sq, threshold, delta)
        if est.status != "ok":
            continue
        hist = two_bin_histogram(sp, sq, threshold)
        lo, hi = 0.0, 60.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if symmetric_delta(hist.p_hat, hist.q_hat, mid) > delta:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(est.epsilon - 0.5 * (lo + hi)))
        checked += 1
    report(7, "threshold two-bin equivalence", worst <= 1e-12,
           f"max |difference| = {worst:.2e} over 1000 cases")


def test_criterion_08_data_processing_monotonicity():
    rng = np.random.default_rng(888)
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 12))
        p = DiscreteDistribution.normalized(rng.random(k))
        q = DiscreteDistribution.normalized(rng.random(k))
        m = int(rng.integers(1, k + 1))
        groups = np.concatenate([np.arange(m), rng.integers(0, m, k - m)])
        rng.shuffle(groups)
        alpha = float(rng.uniform(0.0, 5.0))
        coarse = hs_divergence(coarsen(p, groups), coarsen(q, groups), alpha)
        fine = hs_divergence(p, q, alpha)
        if coarse > fine + 1e-12:
            violations += 1
    report(8, "data-processing monotonicity", violations == 0,
           f"{violations} violations in 1000 cases")


def test_criterion_09_composition_oracle():
    sigma, width = 2.0, 0.01
    edges = np.arange(-12.0 * sigma, 1.0 + 12.0 * sigma + width, width)
    cdf_p = special.ndtr(edges / sigma)
    cdf_q = special.ndtr((edges - 1.0) / sigma)
    p = np.diff(cdf_p); p[0] += cdf_p[0]; p[-1] += 1.0 - cdf_p[-1]
    q = np.diff(cdf_q); q[0] += cdf_q[0]; q[-1] += 1.0 - cdf_q[-1]
    pld = pld_from_discrete(DiscreteDistribution.normalized(p),
                            DiscreteDistribution.normalized(q), (16.0, 2 ** 20))
    composed = self_convolve(pld, 10)
    worst = 0.0
    for eps in (0.0, 0.5, 1.0, 2.0):
        estimate = delta_from_pld(composed, eps)
        truth = gaussian_delta(eps, 2.0, math.sqrt(10.0))
        worst = max(worst, abs(estimate - truth))
    report(9, "composition oracle", worst <= 1e-3, f"max |error| = {worst:.2e}")


def test_criterion_10_whitebox_toy_reproduction():
    mech = SubsampledGaussianMechanism(0.5, 2.0)
    sp, sq = mech.sample_pair(10 ** 5, seed=7)
    hist = build_histograms(sp, sq, auto_spec(sp, sq))
    eps_grid = np.linspace(0.0, 3.0, 61)
    estimated = compose_profile(hist.p_hat, hist.q_hat, 10, eps_grid)
    p_ref, q_ref = mech.bin_masses(width=5e-3)
    reference = compose_profile(p_ref, q_ref, 10, eps_grid)
    sup = float(np.max(np.abs(estimated.deltas - reference.deltas)))
    report(10, "white-box toy composition", sup <= 0.02, f"sup-distance={sup:.4f}")


def test_criterion_11_one_shot_convergence():
    start = time.time()
    truth = gaussian_delta(1.0, 1.0, 1.0)

    def delta_error(scores_p, scores_q):
        hist = build_histograms(scores_p, scores_q, auto_spec(scores_p, scores_q))
        return abs(estimate_delta_symmetric(hist, 1.0) - truth)

    # clause 1: d = 2^20, n = 2000, sigma = 1, within 0.05 in >= 18/20 seeds
    hits = 0
    errors = []
    for seed in range(20):
        cfg = OneShotConfig(d=2 ** 20, n=2000, sigma=1.0, seed=31000 + seed)
        err = delta_error(*one_shot_scores_gram(cfg))
        errors.append(err)
        hits += err <= 0.05
    clause1 = hits >= 18

    # clause 2: monotone median improvement across d; n = 10^4 per side puts
    # the dimension effect above the estimator noise floor (see notes)
    meds = []
    for d in (2 ** 12, 2 ** 16, 2 ** 20):
        errs = []
        for seed in range(10):
            cfg = OneShotConfig(d=d, n=10 ** 4, sigma=1.0, seed=77000 + seed)
            errs.append(delta_error(*one_shot_scores_gram(cfg)))
        meds.append(float(np.median(errs)))
    clause2 = meds[0] > meds[1] > meds[2]
    elapsed = time.time() - start
    report(11, "one-shot convergence", clause1 and clause2,
           f"hits={hits}/20 (max err {max(errors):.3f}), medians={meds}, {elapsed:.0f}s")


def test_criterion_12_confidence_coverage():
    truth = 2.0 * special.ndtr(0.5) - 1.0
    mech = GaussianMechanism(1.0)
    radius = canonne_radius(10 ** 4, 10, 0.005)  # failure budget split per side
    covered = 0
    for trial in range(200):
        sp, sq = mech.sample_pair(10 ** 4, seed=62000 + trial)
        hist = build_histograms(sp, sq, auto_spec(sp, sq, k=10))
        delta_hat = estimate_delta_symmetric(hist, 0.0)
        lo, hi = hs_interval(delta_hat, 0.0, radius, radius)
        covered += lo <= truth <= hi
    report(12, "confidence coverage", covered >= 193, f"covered {covered}/200")


def test_criterion_13_robustness_diagnostic():
    worst_formula = 0.0
    argmax_ok = True
    h = 1e-6
    for sigma in (2.0, 5.0, 10.0):
        alphas = np.linspace(0.5, 2.0, 30001)
        grid_step = alphas[1] - alphas[0]
        values = np.abs(f_alpha_sensitivity(sigma, alphas))
        best = float(alphas[np.argmax(values)])
        upper = math.exp(1.0 / (2.0 * sigma))
        if not (1.0 - grid_step <= best <= upper + grid_step):
            argmax_ok = False
        for alpha in (0.9, 1.0, 1.05, upper, 1.5):
            eps = math.log(alpha)
            fd = (gaussian_delta(eps, sigma + h) - gaussian_delta(eps, sigma - h)) / (2 * h)
            worst_formula = max(worst_formula, abs(f_alpha_sensitivity(sigma, alpha) - fd))
    ok = argmax_ok and worst_formula <= 1e-6
    report(13, "robustness diagnostic", ok,
           f"argmax in interval: {argmax_ok}, max |formula - fd| = {worst_formula:.2e}")
