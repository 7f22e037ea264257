import math

import numpy as np
import pytest

from dpaudit.confidence import canonne_radius, hs_interval
from dpaudit.errors import FitError
from dpaudit.mechanisms import gaussian_delta, sigma_from_tv

from oracles import binom_tail_geq, binom_tail_leq, clopper_pearson


class TestCanonneRadius:
    def test_reference_value(self):
        assert canonne_radius(10 ** 4, 10, 0.01) == pytest.approx(0.032552472614374585,
                                                                   abs=1e-12)

    def test_sqrt_k_over_n_dominates_at_loose_budget(self):
        assert canonne_radius(10 ** 4, 10, 0.9) == pytest.approx(math.sqrt(10 / 10 ** 4),
                                                                  abs=1e-12)

    def test_inverse_sqrt_scaling(self):
        assert canonne_radius(4 * 10 ** 4, 10, 0.01) == pytest.approx(
            canonne_radius(10 ** 4, 10, 0.01) / 2.0, abs=1e-12)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            canonne_radius(100, 5, 0.0)
        with pytest.raises(ValueError):
            canonne_radius(100, 5, 1.0)


class TestHsInterval:
    def test_zero_radius_degenerates(self):
        assert hs_interval(0.4, 1.0, 0.0, 0.0) == (0.4, 0.4)

    def test_reference_width(self):
        lo, hi = hs_interval(0.4, 0.0, 0.03, 0.02)
        assert lo == pytest.approx(0.34)
        assert hi == pytest.approx(0.46)

    def test_lower_clamps_to_zero(self):
        lo, hi = hs_interval(0.01, 5.0, 0.03, 0.03)
        assert lo == 0.0
        assert hi == 1.0

    def test_width_before_clamping(self):
        for eps in (0.0, 0.5, 1.7):
            lo, hi = hs_interval(0.5, eps, 0.01, 0.01)
            assert hi - lo == pytest.approx(2 * (1 + math.exp(eps)) * 0.01, abs=1e-12)

    def test_monotone_width_in_eps(self):
        widths = []
        for eps in (0.0, 0.5, 1.0):
            lo, hi = hs_interval(0.5, eps, 0.005, 0.005)
            widths.append(hi - lo)
        assert widths[0] < widths[1] < widths[2]

    def test_arrays_match_scalar_calls(self):
        deltas = np.linspace(0.0, 1.0, 41)
        eps = np.append(np.linspace(-5.0, 5.0, 40), 800.0)
        lo, hi = hs_interval(deltas, eps, 0.03, 0.02)
        pairs = [hs_interval(d, e, 0.03, 0.02) for d, e in zip(deltas, eps)]
        assert lo.tolist() == [pair[0] for pair in pairs]
        assert hi.tolist() == [pair[1] for pair in pairs]

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            hs_interval(1.2, 0.0, 0.01, 0.01)


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        lo, hi = clopper_pearson(0, 100, 0.95)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / 100.0), abs=1e-12)

    def test_all_successes(self):
        lo, hi = clopper_pearson(100, 100, 0.95)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1.0 / 100.0), abs=1e-12)

    def test_symmetric_case_contains_half(self):
        lo, hi = clopper_pearson(50, 100, 0.95)
        assert lo < 0.5 < hi
        assert hi - lo == pytest.approx(0.2033577, abs=1e-3)

    def test_defining_tail_probabilities(self):
        # at the endpoints the binomial tails hit the split failure mass
        s, t, c = 17, 60, 0.9
        lo, hi = clopper_pearson(s, t, c)
        assert binom_tail_geq(s, t, lo) == pytest.approx((1 - c) / 2, abs=1e-9)
        assert binom_tail_leq(s, t, hi) == pytest.approx((1 - c) / 2, abs=1e-9)

    def test_interval_shrinks_with_trials(self):
        w1 = np.diff(clopper_pearson(10, 20, 0.95))[0]
        w2 = np.diff(clopper_pearson(100, 200, 0.95))[0]
        w3 = np.diff(clopper_pearson(1000, 2000, 0.95))[0]
        assert w1 > w2 > w3

    def test_contains_empirical_ratio(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = int(rng.integers(1, 200))
            s = int(rng.integers(0, t + 1))
            lo, hi = clopper_pearson(s, t, 0.9)
            assert lo <= s / t <= hi

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson(-1, 4, 0.95)


def sigma_interval(q, tv_interval):
    """Both ends of a TV interval through the sigma inverse, as estimate_sigma maps them."""
    tv_lo, tv_hi = tv_interval
    return sigma_from_tv(q, tv_hi), sigma_from_tv(q, tv_lo)


class TestSigmaIntervalFromTv:
    def test_degenerate_interval(self):
        lo, hi = sigma_interval(1.0, (0.3829249225480263, 0.3829249225480263))
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_larger_tv_maps_to_smaller_sigma(self):
        lo, hi = sigma_interval(1.0, (0.3, 0.5))
        assert lo < hi
        assert gaussian_delta(0.0, lo) == pytest.approx(0.5, abs=1e-6)
        assert gaussian_delta(0.0, hi) == pytest.approx(0.3, abs=1e-6)

    def test_mixture_paper_interval(self):
        # TV 0.2256 +/- 0.005 translates to a sigma interval near [0.285, 0.32]
        lo, hi = sigma_interval(0.25, (0.2256 - 0.005, 0.2256 + 0.005))
        assert lo == pytest.approx(0.285, abs=0.005)
        assert hi == pytest.approx(0.32, abs=0.005)

    def test_out_of_range_target(self):
        with pytest.raises(FitError, match="outside the range"):
            sigma_interval(1.0, (0.0, 2.0))


class TestCoverage:
    def test_interval_covers_true_tv(self):
        # reduced version of the acceptance check: 50 trials at 99% nominal
        from dpaudit.histogram import auto_spec, build_histograms
        from dpaudit.discrete import symmetric_delta
        true_delta = 0.3829249225480263
        misses = 0
        for trial in range(50):
            rng = np.random.default_rng(202500 + trial)
            sp, sq = rng.normal(0, 1, 10 ** 4), rng.normal(1, 1, 10 ** 4)
            hist = build_histograms(sp, sq, auto_spec(sp, sq, k=10))
            delta_hat = symmetric_delta(hist.p_hat, hist.q_hat, 0.0)
            radius = canonne_radius(10 ** 4, 10, 0.005)
            lo, hi = hs_interval(delta_hat, 0.0, radius, radius)
            if not lo <= true_delta <= hi:
                misses += 1
        assert misses <= 2
