import math

import numpy as np
import pytest

from dpaudit import histogram
from dpaudit.discrete import coarsen, hs_divergence
from dpaudit.errors import DegenerateSamplesError
from dpaudit.histogram import (BinningSpec, auto_spec, build_histograms,
                               estimate_delta_symmetric, estimate_profile,
                               scott_width_gaussian)


class TestScottWidths:
    def test_gaussian_rule_value(self):
        # 2 * 3^(1/3) * pi^(1/6) / 10
        assert scott_width_gaussian(1.0, 1000) == pytest.approx(0.3490830212250248, abs=1e-12)

    def test_linear_in_sigma(self):
        assert scott_width_gaussian(2.0, 1000) == pytest.approx(
            2.0 * scott_width_gaussian(1.0, 1000), abs=1e-15)

    def test_cube_root_scaling(self):
        assert scott_width_gaussian(1.0, 8000) == pytest.approx(
            0.5 * scott_width_gaussian(1.0, 1000), abs=1e-15)

    def test_general_matches_gaussian_for_normals(self):
        # the general rule (12 / (int P'^2 + int Q'^2))^(1/3) n^(-1/3) with
        # int phi'^2 = 1/(4 sqrt(pi)) per standard normal
        energy = 1.0 / (4.0 * math.sqrt(math.pi))
        for n in (100, 10 ** 4):
            assert (12.0 / (2.0 * energy)) ** (1.0 / 3.0) * n ** (-1.0 / 3.0) == pytest.approx(
                scott_width_gaussian(1.0, n), abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            scott_width_gaussian(0.0, 10)


class TestBinningSpec:
    def test_breakpoints(self):
        spec = BinningSpec(0.0, 1.0, 4)
        assert spec.h == pytest.approx(0.25)
        assert spec.breakpoints() == pytest.approx([0.25, 0.5, 0.75])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BinningSpec(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            BinningSpec(0.0, 1.0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_width_past_float64(self):
        for a, b in ((-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))):
            with pytest.raises(ValueError, match="finite bin width"):
                BinningSpec(a, b, 20)

    def test_extreme_bins_are_open_ended(self):
        spec = BinningSpec(0.0, 1.0, 2)
        assert spec.bin_indices([-10.0, 10.0]).tolist() == [0, 1]

    def test_interior_bins_left_closed(self):
        spec = BinningSpec(0.0, 1.0, 4)
        # boundary values land in the bin they open
        assert spec.bin_indices([0.25, 0.49999, 0.5, 0.75]).tolist() == [1, 1, 2, 3]


class TestBuildHistograms:
    def test_identical_samples_match(self):
        x = np.array([0.1, 0.4, 0.9])
        hist = build_histograms(x, x, BinningSpec(0.0, 1.0, 3))
        assert np.array_equal(hist.p_hat.probs, hist.q_hat.probs)

    def test_edge_rule_placement(self):
        # k=2 splits at 0.5; the boundary sample joins the right (closed) bin
        hist = build_histograms([-10.0, 0.5, 10.0], [0.1, 0.2, 0.3],
                                BinningSpec(0.0, 1.0, 2))
        assert hist.p_hat.probs == pytest.approx([1.0 / 3.0, 2.0 / 3.0])

    def test_single_sample(self):
        hist = build_histograms([0.4], [0.6], BinningSpec(0.0, 1.0, 5))
        assert hist.p_hat.probs.sum() == pytest.approx(1.0)
        assert hist.p_hat.probs.max() == pytest.approx(1.0)

    def test_masses_are_count_multiples(self):
        rng = np.random.default_rng(0)
        sp, sq = rng.normal(0, 1, 100), rng.normal(0, 1, 100)
        hist = build_histograms(sp, sq, BinningSpec(-2.0, 2.0, 7))
        assert np.allclose(hist.p_hat.probs * 100, np.round(hist.p_hat.probs * 100))
        assert hist.p_hat.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal counts"):
            build_histograms([1.0, 2.0], [1.0], BinningSpec(0.0, 1.0, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_histograms([], [], BinningSpec(0.0, 1.0, 2))


class TestEstimateDelta:
    def test_identical_samples_zero_at_nonnegative_eps(self):
        x = np.linspace(0, 1, 50)
        hist = build_histograms(x, x, BinningSpec(0.0, 1.0, 10))
        for eps in (0.0, 1.0, 2.0):
            assert hs_divergence(hist.p_hat, hist.q_hat, math.exp(eps)) == 0.0
            assert estimate_delta_symmetric(hist, eps) == 0.0
        # below eps = 0 even identical distributions show 1 - e^eps
        assert hs_divergence(hist.p_hat, hist.q_hat, math.exp(-1.0)) == pytest.approx(
            1.0 - math.exp(-1.0))

    def test_gaussian_tv_recovery(self):
        rng = np.random.default_rng(100)
        n = 10 ** 5
        sp, sq = rng.normal(0, 1, n), rng.normal(1, 1, n)
        spec = auto_spec(sp, sq)
        hist = build_histograms(sp, sq, spec)
        assert estimate_delta_symmetric(hist, 0.0) == pytest.approx(
            0.3829249225480263, abs=0.01)

    def test_mixture_tv_paper_value(self):
        # the q=1/4, sigma=0.3 pair at 1e6 samples and 20 bins: estimate 0.2256
        rng = np.random.default_rng(42)
        n = 10 ** 6
        component = rng.random(n) < 0.25
        sp = rng.normal(np.where(component, 1.0, 0.0), 0.3)
        sq = rng.normal(0.0, 0.3, n)
        spec = auto_spec(sp, sq, k=20)
        hist = build_histograms(sp, sq, spec)
        assert hs_divergence(hist.p_hat, hist.q_hat, math.exp(0.0)) == pytest.approx(
            0.2256, abs=0.01)

    def test_non_increasing_in_eps(self):
        rng = np.random.default_rng(7)
        sp, sq = rng.normal(0, 1, 2000), rng.normal(1, 1, 2000)
        hist = build_histograms(sp, sq, auto_spec(sp, sq))
        eps = np.linspace(-2, 4, 25)
        values = [estimate_delta_symmetric(hist, e) for e in eps]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_monotone_refinement(self):
        # nested binnings: the coarse estimate never exceeds the fine one
        rng = np.random.default_rng(8)
        sp, sq = rng.normal(0, 1, 5000), rng.normal(1, 1, 5000)
        fine_spec = BinningSpec(-3.0, 4.0, 56)
        fine = build_histograms(sp, sq, fine_spec)
        merge = np.repeat(np.arange(8), 7)
        coarse_p = coarsen(fine.p_hat, merge)
        coarse_q = coarsen(fine.q_hat, merge)
        for eps in (-1.0, 0.0, 0.7, 2.0):
            alpha = math.exp(eps)
            coarse_delta = max(hs_divergence(coarse_p, coarse_q, alpha),
                               hs_divergence(coarse_q, coarse_p, alpha))
            fine_delta = estimate_delta_symmetric(fine, eps)
            assert coarse_delta <= fine_delta + 1e-12

    def test_profile_matches_pointwise(self):
        rng = np.random.default_rng(9)
        sp, sq = rng.normal(0, 1, 2000), rng.normal(1, 1, 2000)
        hist = build_histograms(sp, sq, auto_spec(sp, sq))
        grid = np.linspace(-4, 4, 41)
        prof = estimate_profile(hist, grid)
        for i in (0, 10, 20, 40):
            assert prof.deltas[i] == pytest.approx(
                estimate_delta_symmetric(hist, grid[i]), abs=1e-12)


class TestAutoSpec:
    def test_constant_samples_error(self):
        with pytest.raises(ValueError, match="degenerate"):
            auto_spec(np.ones(100), np.ones(100))

    def test_scott_bin_count_consistency(self):
        rng = np.random.default_rng(10)
        sp, sq = rng.normal(0, 1, 10 ** 5), rng.normal(0, 1, 10 ** 5)
        spec = auto_spec(sp, sq)
        pooled = np.concatenate([sp, sq])
        h = scott_width_gaussian(pooled.std(ddof=1), 10 ** 5)
        assert spec.k == math.ceil((spec.b - spec.a) / h)

    def test_fixed_k(self):
        rng = np.random.default_rng(11)
        sp, sq = rng.normal(0, 1, 100), rng.normal(0, 1, 100)
        assert auto_spec(sp, sq, k=10).k == 10

    def test_fixed_width(self):
        rng = np.random.default_rng(12)
        sp, sq = rng.normal(0, 1, 1000), rng.normal(0, 1, 1000)
        spec = auto_spec(sp, sq, width=0.5)
        assert spec.h <= 0.5 + 1e-12

    # 1e-320 gives an infinite bin count, 1e-300 a finite one far past the samples
    @pytest.mark.parametrize("width", [1e-320, 1e-300, np.float64(1e-320)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_width_too_small_for_the_span(self, width):
        rng = np.random.default_rng(17)
        sp, sq = rng.normal(0, 1, 4002), rng.normal(1, 1, 4002)
        with pytest.raises(ValueError, match=f"bin width {float(width)!r} is too small .* 8004 pooled"):
            auto_spec(sp, sq, width=width)

    def test_width_may_give_as_many_bins_as_samples(self):
        sp, sq = np.arange(5.0), np.arange(5.0)  # the span runs from 0.009 to 3.991
        span = float(np.quantile(np.r_[sp, sq], 0.999) - np.quantile(np.r_[sp, sq], 0.001))
        assert auto_spec(sp, sq, width=span / 10).k == 10
        with pytest.raises(ValueError, match="too small"):
            auto_spec(sp, sq, width=span / 10.5)

    @pytest.mark.parametrize("binning", [{}, {"k": 20}, {"width": 0.5}])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_span_past_float64_is_degenerate(self, binning):
        # the 0.1% and 99.9% quantiles land on -1e308 and 1e308
        x = np.random.default_rng(15).normal(0, 1, 1000)
        x[:50], x[50:100] = -1e308, 1e308
        with pytest.raises(DegenerateSamplesError, match="too far apart"):
            auto_spec(x, x + 1.0, **binning)

    # outliers beyond the quantiles, one per block, overflow the sum of the
    # values or of their squared deviations behind the Scott width
    @pytest.mark.parametrize("outlier", [1e308, 1.2e154])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scott_width_past_float64_is_degenerate(self, monkeypatch, outlier):
        monkeypatch.setattr(histogram, "BIN_BLOCK", 1000)
        x = np.random.default_rng(16).normal(0, 1, 4000)
        x[[0, 1000, 2000]] = outlier
        with pytest.raises(DegenerateSamplesError, match="Scott bin width"):
            auto_spec(x, x + 1.0)
        assert auto_spec(x, x + 1.0, k=20).k == 20

    def test_k_and_width_exclude_each_other(self):
        with pytest.raises(ValueError, match="not both"):
            auto_spec([1.0, 2.0], [1.0, 2.0], k=10, width=0.5)

    @pytest.mark.parametrize("side", ["p", "q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_finite(self, bad, side):
        x = np.random.default_rng(14).normal(0, 1, 1200)
        y = x.copy()
        y[700] = bad
        sp, sq = (y, x) if side == "p" else (x, y)
        with pytest.raises(ValueError, match="samples must be finite"):
            auto_spec(sp, sq)
        with pytest.raises(ValueError, match="samples must be finite"):
            build_histograms(sp, sq, BinningSpec(-1.0, 1.0, 4))

    def test_quantile_edges_are_robust_to_outliers(self):
        rng = np.random.default_rng(13)
        sp = np.concatenate([rng.normal(0, 1, 10 ** 4), [1e9]])
        sq = np.concatenate([rng.normal(0, 1, 10 ** 4), [-1e9]])
        spec = auto_spec(sp, sq, k=30)
        assert spec.b < 10.0 and spec.a > -10.0
