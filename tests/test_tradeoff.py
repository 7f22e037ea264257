import math

import numpy as np
import pytest

from dpaudit.mechanisms import GaussianMechanism, gdp_tradeoff
from dpaudit.profiles import PrivacyProfile
from dpaudit.tradeoff import TradeoffCurve, f_eps_delta, profile_to_tradeoff, validate


class TestFEpsDelta:
    def test_no_privacy_loss(self):
        alphas = np.linspace(0, 1, 11)
        assert f_eps_delta(0.0, 0.0, alphas) == pytest.approx(1.0 - alphas)

    def test_arithmetic_example(self):
        assert f_eps_delta(math.log(2.0), 0.1, 0.2) == pytest.approx(0.5)

    def test_delta_one_collapses(self):
        alphas = np.linspace(0, 1, 11)
        assert np.all(f_eps_delta(1.0, 1.0, alphas) == 0.0)

    def test_huge_eps_saturates(self):
        # exp(800) overflows float64; the curve is 1 - delta at alpha = 0, 0 after
        assert f_eps_delta(800.0, 0.0, 0.5) == 0.0
        assert f_eps_delta(800.0, 0.2, 0.0) == pytest.approx(0.8)

    def test_rejects_out_of_range(self):
        for alpha in (1.2, -0.1, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                f_eps_delta(1.0, 0.1, alpha)
        with pytest.raises(ValueError):
            f_eps_delta(1.0, -0.1, 0.2)
        with pytest.raises(ValueError):
            f_eps_delta(-2.0, 0.0, 0.1)


class TestValidate:
    def test_clean_curve_from_formula(self):
        alphas = np.linspace(0, 1, 101)
        curve = TradeoffCurve(alphas, f_eps_delta(0.5, 0.05, alphas))
        assert validate(curve) == []

    def test_reports_convexity_violation(self):
        curve = TradeoffCurve(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.9, 0.0]))
        assert any("convexity" in v for v in validate(curve))

    def test_reports_bound_violation(self):
        curve = TradeoffCurve(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.6, 0.3]))
        assert any("exceeds 1 - alpha" in v for v in validate(curve))

    def test_reports_monotonicity_violation(self):
        curve = TradeoffCurve(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.6, 0.0]))
        assert any("increases" in v for v in validate(curve))


class TestProfileToTradeoff:
    def test_gaussian_matches_gdp(self):
        profile = GaussianMechanism(1.0, 1.0).profile(np.linspace(-12, 12, 2401))
        curve = profile_to_tradeoff(profile, 1e-3, 200)
        reference = gdp_tradeoff(1.0, curve.alphas)
        assert np.max(np.abs(curve.betas - reference)) <= 0.01

    def test_perfect_privacy(self):
        eps = np.linspace(-5, 5, 101)
        profile = PrivacyProfile(eps, np.zeros_like(eps))
        curve = profile_to_tradeoff(profile, 1e-3, 100)
        assert np.max(np.abs(curve.betas - (1.0 - curve.alphas))) <= 2e-3

    def test_output_always_validates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            eps = np.linspace(-8, 8, 321)
            sigma = rng.uniform(0.3, 3.0)
            profile = GaussianMechanism(sigma).profile(eps)
            curve = profile_to_tradeoff(profile, 1e-3, 50)
            assert validate(curve) == []

    def test_envelope_dominates_constituents(self):
        profile = GaussianMechanism(0.8).profile(np.linspace(-10, 10, 2001))
        curve = profile_to_tradeoff(profile, 1e-2, 60)
        for dp in np.linspace(1e-2, 1 - 1e-2, 60):
            eps_hat = profile.epsilon_at(dp)
            assert eps_hat is not None
            constituent = f_eps_delta(eps_hat, dp, curve.alphas)
            assert np.all(curve.betas >= constituent - 1e-12)

    def test_gaussian_self_duality(self):
        profile = GaussianMechanism(1.0).profile(np.linspace(-12, 12, 2401))
        curve = profile_to_tradeoff(profile, 1e-3, 400)
        alphas = np.linspace(0.05, 0.95, 61)
        roundtrip = curve.evaluate(curve.evaluate(alphas))
        assert np.max(np.abs(roundtrip - alphas)) <= 0.02

    def test_strict_raises_on_unreachable_target(self):
        # on a short grid the gaussian profile never descends to 1e-3; the
        # delta' it cannot invert are skipped and the envelope stays valid
        eps = np.linspace(-5.0, 0.5, 101)
        profile = GaussianMechanism(1.0).profile(eps)
        assert validate(profile_to_tradeoff(profile, 1e-3, 100)) == []
        # a profile that never leaves delta = 1 inverts no delta' at all
        with pytest.raises(ValueError, match="no delta' value was invertible"):
            profile_to_tradeoff(PrivacyProfile(eps, np.ones_like(eps)), 1e-3, 100)

    def test_left_end_targets_clamp_to_smallest_eps(self):
        eps = np.linspace(0.0, 8.0, 161)
        profile = GaussianMechanism(1.0).profile(eps)
        # delta' above delta(0) ~ 0.383 is certified at the grid's left end
        assert profile.epsilon_at(0.9) == pytest.approx(0.0)

    def test_sweep_end_rounding_to_one(self):
        # 1 - delta_target rounds to 1: that delta' draws the zero line
        eps = np.linspace(0.0, 1.0, 11)
        curve = profile_to_tradeoff(PrivacyProfile(eps, np.zeros_like(eps)), 1e-20, 10)
        assert validate(curve) == []
        assert curve.betas[0] == 1.0

    def test_rejects_bad_delta_target(self):
        profile = GaussianMechanism(1.0).profile(np.linspace(-5, 5, 101))
        with pytest.raises(ValueError):
            profile_to_tradeoff(profile, 0.7, 100)


class TestPrivacyProfileValidation:
    @pytest.mark.parametrize("eps,deltas", [
        ([0.0, 1.0, 2.0], [0.5, math.nan, 0.1]),
        ([0.0, math.nan, 2.0], [0.5, 0.3, 0.1]),
        ([0.0, 1.0, math.inf], [0.5, 0.3, 0.1]),
        ([-math.inf, 1.0, 2.0], [0.5, 0.3, 0.1]),
    ])
    def test_rejects_non_finite(self, eps, deltas):
        with pytest.raises(ValueError, match="finite"):
            PrivacyProfile(eps, deltas)


class TestTradeoffCurveValidation:
    @pytest.mark.parametrize("alphas,betas", [
        ([0.0, 0.5, 1.0], [1.0, math.nan, 0.0]),
        ([0.0, math.nan, 1.0], [1.0, 0.5, 0.0]),
        ([math.nan, 0.5, 1.0], [1.0, 0.5, 0.0]),
        ([0.0, 0.5, 1.0], [math.inf, 0.5, 0.0]),
    ])
    def test_rejects_non_finite(self, alphas, betas):
        with pytest.raises(ValueError, match="finite"):
            TradeoffCurve(alphas, betas)


class TestCurveIo(object):
    def test_csv_roundtrip(self, tmp_path):
        alphas = np.linspace(0, 1, 33)
        curve = TradeoffCurve(alphas, f_eps_delta(0.3, 0.02, alphas))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        back = TradeoffCurve.from_csv(path)
        assert np.allclose(back.alphas, curve.alphas, atol=1e-12)
        assert np.allclose(back.betas, curve.betas, atol=1e-12)

    def test_reexport_is_byte_identical(self, tmp_path):
        alphas = np.linspace(0, 1, 17)
        curve = TradeoffCurve(alphas, f_eps_delta(1.1, 0.01, alphas))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        curve.to_csv(first)
        TradeoffCurve.from_csv(first).to_csv(second)
        assert first.read_bytes() == second.read_bytes()
