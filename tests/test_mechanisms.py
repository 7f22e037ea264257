import math

import numpy as np
import pytest

from dpaudit.mechanisms import (GaussianMechanism, LaplaceMechanism,
                                SubsampledGaussianMechanism, gaussian_delta,
                                gdp_tradeoff, laplace_tradeoff)

from oracles import hs_quadrature_mixture, hs_quadrature_normal, mixture_tv_closed_form


class TestGaussianDelta:
    def test_tv_value(self):
        # 2 Phi(1/2) - 1
        assert gaussian_delta(0.0, 1.0, 1.0) == pytest.approx(0.3829249225480263, abs=1e-12)

    def test_indistinguishable_limit(self):
        assert gaussian_delta(0.0, 1e6, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_deep_tail(self):
        assert gaussian_delta(10.0, 1.0, 1.0) < 1e-12

    def test_matches_quadrature_at_eps_zero(self):
        for sigma in (0.5, 1.0, 2.0):
            quad = hs_quadrature_normal(1.0, 0.0, 1.0, sigma)
            assert gaussian_delta(0.0, sigma, 1.0) == pytest.approx(quad, abs=1e-8)

    def test_matches_quadrature_at_positive_eps(self):
        for eps in (0.5, 1.0, 2.0):
            quad = hs_quadrature_normal(math.exp(eps), 0.0, 1.0, 1.0)
            assert gaussian_delta(eps, 1.0, 1.0) == pytest.approx(quad, abs=1e-8)

    def test_monotone_in_eps_and_sigma(self):
        eps = np.linspace(-2, 5, 40)
        deltas = gaussian_delta(eps, 1.0)
        assert np.all(np.diff(deltas) <= 1e-15)
        for e in (0.0, 0.5, 2.0):
            values = [gaussian_delta(e, s) for s in (0.5, 1.0, 2.0, 4.0)]
            assert all(x >= y - 1e-15 for x, y in zip(values, values[1:]))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            gaussian_delta(0.0, -1.0)


class TestTradeoffFormulas:
    def test_laplace_boundary(self):
        assert laplace_tradeoff(1.0, 0.0) == pytest.approx(1.0)

    def test_laplace_branch_continuity(self):
        edge = math.exp(-1.0) / 2.0
        left = 1.0 - math.exp(1.0) * (edge - 1e-12)
        right = math.exp(-1.0) / (4.0 * (edge + 1e-12))
        assert laplace_tradeoff(1.0, edge) == pytest.approx(left, abs=1e-9)
        assert laplace_tradeoff(1.0, edge) == pytest.approx(right, abs=1e-9)

    def test_laplace_third_branch(self):
        assert laplace_tradeoff(1.0, 0.5) == pytest.approx(0.18393972058572117, abs=1e-14)

    def test_laplace_huge_separation(self):
        # e^800 overflows float64; the curve is 1 at alpha = 0 and 0 after
        assert laplace_tradeoff(800.0, 0.5) == 0.0
        alphas = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(laplace_tradeoff(800.0, alphas), np.r_[1.0, np.zeros(10)])

    def test_gdp_mu_zero_is_identity_complement(self):
        alphas = np.linspace(0.0, 1.0, 11)
        assert gdp_tradeoff(0.0, alphas) == pytest.approx(1.0 - alphas, abs=1e-12)

    def test_gdp_reference_point(self):
        assert gdp_tradeoff(1.0, 0.5) == pytest.approx(0.15865525393145707, abs=1e-14)

    def test_gdp_boundary(self):
        assert gdp_tradeoff(2.0, 1.0) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("curve", [
        lambda a: laplace_tradeoff(1.0, a),
        lambda a: gdp_tradeoff(1.0, a),
        lambda a: gdp_tradeoff(0.3, a),
    ])
    def test_valid_tradeoff_shape(self, curve):
        # convex, non-increasing, below 1 - alpha on a dense grid
        alphas = np.linspace(0.0, 1.0, 2001)
        values = np.asarray(curve(alphas))
        assert np.all(np.diff(values) <= 1e-12)
        assert np.all(values <= 1.0 - alphas + 1e-12)
        slopes = np.diff(values) / np.diff(alphas)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_alpha_range_errors(self):
        for curve in (laplace_tradeoff, gdp_tradeoff):
            for alpha in (1.5, -0.1, math.nan, [0.5, math.nan]):
                with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                    curve(1.0, alpha)

    def test_mu_range_errors(self):
        for curve in (laplace_tradeoff, gdp_tradeoff):
            for mu in (-0.5, math.nan):
                with pytest.raises(ValueError, match="mu must be >= 0"):
                    curve(mu, 0.3)


class TestSubsampledGaussianProfile:
    def test_q_one_reduces_to_gaussian(self):
        mech = SubsampledGaussianMechanism(1.0, 1.5)
        eps = np.linspace(-3, 3, 121)
        prof = mech.profile(eps)
        reference = gaussian_delta(eps, 1.5, 1.0)
        assert np.max(np.abs(prof.deltas - reference)) < 1e-4

    def test_tv_matches_quadrature_and_closed_form(self):
        mech = SubsampledGaussianMechanism(0.5, 2.0)
        assert mech.tv() == pytest.approx(mixture_tv_closed_form(0.5, 2.0), abs=1e-7)
        prof = mech.profile(np.linspace(-2, 2, 81))
        assert float(prof.delta_at(0.0)) == pytest.approx(mech.tv(), abs=1e-4)

    def test_profile_matches_quadrature_off_zero(self):
        mech = SubsampledGaussianMechanism(0.25, 0.3)
        prof = mech.profile(np.linspace(-1, 4, 201))
        for eps in (0.0, 1.0, 3.0):
            forward = hs_quadrature_mixture(math.exp(eps), 0.25, 0.3)
            backward = hs_quadrature_mixture_reverse(math.exp(eps), 0.25, 0.3)
            assert float(prof.delta_at(eps)) == pytest.approx(
                max(forward, backward), abs=2e-4)

    def test_closed_form_matches_quadrature_both_directions(self):
        for q, sigma in ((0.25, 0.3), (0.5, 2.0), (0.05, 1.0)):
            mech = SubsampledGaussianMechanism(q, sigma)
            for eps in (-1.5, -0.3, 0.0, 0.2, 1.0, 3.0):
                forward = hs_quadrature_mixture(math.exp(eps), q, sigma)
                backward = hs_quadrature_mixture_reverse(math.exp(eps), q, sigma)
                assert mech.delta(eps) == pytest.approx(max(forward, backward), abs=1e-7)

    def test_tv_matches_the_scipy_closed_form(self):
        # q = 1 is the --fit-sigma gaussian map, which was gaussian_delta(0, sigma)
        for sigma in np.geomspace(1e-3, 1e3, 61):
            gaussian_tv = SubsampledGaussianMechanism(1.0, sigma).tv()
            assert gaussian_tv == pytest.approx(GaussianMechanism(sigma).tv(), rel=1e-12)
            for q in (0.01, 0.25, 1.0):
                assert SubsampledGaussianMechanism(q, sigma).tv() == pytest.approx(
                    mixture_tv_closed_form(q, sigma), rel=1e-12)

    def test_tv_is_profile_at_zero(self):
        for q, sigma in ((0.25, 0.3), (1.0, 1.5), (0.01, 0.1)):
            mech = SubsampledGaussianMechanism(q, sigma)
            assert mech.tv() == pytest.approx(mech.delta(0.0), rel=1e-12)

    def test_extreme_eps_limits(self):
        deltas = SubsampledGaussianMechanism(0.25, 0.3).delta(
            np.array([-800.0, -40.0, 40.0, 800.0]))
        assert deltas == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-15)

    def test_profile_is_fast(self):
        import timeit
        mech = SubsampledGaussianMechanism(0.25, 0.3)
        grid = np.linspace(-2.0, 10.0, 1201)
        assert min(timeit.repeat(lambda: mech.profile(grid), number=1, repeat=5)) < 0.01

    def test_profile_non_increasing(self):
        mech = SubsampledGaussianMechanism(0.25, 0.3)
        prof = mech.profile(np.linspace(-5, 10, 301))
        assert np.all(np.diff(prof.deltas) <= 1e-12)


def hs_quadrature_mixture_reverse(alpha, q, sigma, nodes=2 ** 17):
    from oracles import normal_pdf
    x = np.linspace(-20.0 * sigma, 1.0 + 20.0 * sigma, nodes)
    p = q * normal_pdf(x, 1.0, sigma) + (1.0 - q) * normal_pdf(x, 0.0, sigma)
    base = normal_pdf(x, 0.0, sigma)
    return float(np.trapezoid(np.maximum(base - alpha * p, 0.0), x))


class TestSamplers:
    def test_gaussian_sampler_moments(self):
        mech = GaussianMechanism(1.0, 1.0)
        p, q = mech.sample_pair(10 ** 5, seed=42)
        assert abs(p.mean()) < 4.0 / math.sqrt(10 ** 5)
        assert abs(q.mean() - 1.0) < 4.0 / math.sqrt(10 ** 5)

    def test_sampler_determinism(self):
        mech = SubsampledGaussianMechanism(0.25, 0.3)
        a = mech.sample_pair(1000, seed=9)
        b = mech.sample_pair(1000, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_mixture_component_fraction(self):
        # negligible overlap at sigma = 0.1: the midpoint classifier reads q
        mech = SubsampledGaussianMechanism(0.25, 0.1)
        p, _ = mech.sample_pair(10 ** 5, seed=3)
        near_one = np.mean(np.abs(p - 1.0) < np.abs(p))
        assert near_one == pytest.approx(0.25, abs=0.01)

    def test_mixture_component_fraction_with_overlap(self):
        # at sigma = 0.3 the crossing leakage is (1-2q) * (1 - Phi(1/(2 sigma)))
        from scipy import special
        mech = SubsampledGaussianMechanism(0.25, 0.3)
        p, _ = mech.sample_pair(10 ** 5, seed=3)
        leak = 1.0 - special.ndtr(0.5 / 0.3)
        expected = 0.25 * (1.0 - leak) + 0.75 * leak
        near_one = np.mean(np.abs(p - 1.0) < np.abs(p))
        assert near_one == pytest.approx(expected, abs=0.01)

    def test_laplace_sampler_medians(self):
        mech = LaplaceMechanism(1.0, 1.0)
        p, q = mech.sample_pair(10 ** 5, seed=11)
        assert abs(np.median(p)) < 0.05
        assert abs(np.median(q) - 1.0) < 0.05

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            GaussianMechanism(1.0).sample_pair(0, seed=0)

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            GaussianMechanism(0.0)
        with pytest.raises(ValueError):
            SubsampledGaussianMechanism(0.0, 1.0)
        with pytest.raises(ValueError):
            SubsampledGaussianMechanism(1.5, 1.0)
        with pytest.raises(ValueError):
            LaplaceMechanism(-1.0)
