import math
import os

import numpy as np
import pytest

from dpaudit import pld as pld_module
from dpaudit.discrete import DiscreteDistribution, symmetric_delta
from dpaudit.errors import GridOverflowError
from dpaudit.mechanisms import gaussian_delta
from dpaudit.mechanisms import SubsampledGaussianMechanism
from dpaudit.pld import (MAX_NODES, PHASES, PLDGrid, _next_fast_len, compose_profile,
                         delta_from_pld, pld_from_discrete, self_convolve)

from oracles import no_child_left, rss_growth, traced_peak


def dist(*masses):
    return DiscreteDistribution(np.asarray(masses, dtype=float))


TEST_GRID = (8.0, 2 ** 16)
TEST_STEP = 2 * TEST_GRID[0] / TEST_GRID[1]


class TestPldFromDiscrete:
    def test_equal_distributions_sit_at_zero(self):
        p = dist(0.3, 0.7)
        pld = pld_from_discrete(p, p, TEST_GRID)
        assert pld.mass_inf == 0.0
        values = pld.node_values()
        assert values[pld.masses > 0] == pytest.approx([0.0], abs=1e-15)
        assert pld.masses.sum() == pytest.approx(1.0)

    def test_two_point_log_ratios(self):
        pld = pld_from_discrete(dist(0.75, 0.25), dist(0.25, 0.75), TEST_GRID)
        values = pld.node_values()
        occupied = values[pld.masses > 0]
        masses = pld.masses[pld.masses > 0]
        assert occupied == pytest.approx([-math.log(3.0), math.log(3.0)], abs=TEST_STEP)
        assert masses == pytest.approx([0.25, 0.75])
        # up-rounding keeps nodes at or above the exact ratios
        assert occupied[1] >= math.log(3.0) - 1e-12
        assert occupied[0] >= -math.log(3.0) - 1e-12
        assert pld.mass_inf == 0.0

    def test_zero_denominator_mass_goes_to_infinity_atom(self):
        pld = pld_from_discrete(dist(0.5, 0.5), dist(1.0, 0.0), TEST_GRID)
        assert pld.mass_inf == pytest.approx(0.5)
        occupied = pld.node_values()[pld.masses > 0]
        assert occupied == pytest.approx([-math.log(2.0)], abs=TEST_STEP)

    def test_overflow_raises_with_guidance(self):
        p = dist(1.0 - 1e-12, 1e-12)
        q = dist(1e-12, 1.0 - 1e-12)
        with pytest.raises(GridOverflowError, match="larger L"):
            pld_from_discrete(p, q, (8.0, 2 ** 12))

    def test_node_span_capped_before_allocation(self):
        # the log-ratios span ~2 nats: ~2**41 nodes at m = 2**40
        with pytest.raises(GridOverflowError, match="grid nodes"):
            pld_from_discrete(dist(0.3, 0.7), dist(0.7, 0.3), (40.0, 2 ** 40))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pld_from_discrete(dist(1.0), dist(0.5, 0.5), TEST_GRID)


class TestSelfConvolve:
    def test_identity_at_c_one(self):
        pld = pld_from_discrete(dist(0.75, 0.25), dist(0.25, 0.75), TEST_GRID)
        assert self_convolve(pld, 1) is pld

    def test_point_mass_adds_deterministically(self):
        step = 0.125
        pld = PLDGrid(0.5, step, np.array([1.0]), 0.0)
        out = self_convolve(pld, 4)
        assert out.node_values()[out.masses > 0] == pytest.approx([2.0])

    def test_binomial_two_fold(self):
        pld = pld_from_discrete(dist(0.75, 0.25), dist(0.25, 0.75), TEST_GRID)
        out = self_convolve(pld, 2)
        occupied = out.node_values()[out.masses > 1e-15]
        masses = out.masses[out.masses > 1e-15]
        assert occupied == pytest.approx(
            [-2 * math.log(3.0), 0.0, 2 * math.log(3.0)], abs=2 * TEST_STEP)
        assert masses == pytest.approx([0.0625, 0.375, 0.5625])

    def test_infinity_atom_composes(self):
        pld = PLDGrid(0.0, 0.1, np.array([0.9]), 0.1)
        out = self_convolve(pld, 3)
        assert out.mass_inf == pytest.approx(1.0 - 0.9 ** 3)
        assert out.masses.sum() == pytest.approx(0.9 ** 3)

    def test_mass_conserved_across_many_compositions(self):
        pld = pld_from_discrete(dist(0.6, 0.4), dist(0.4, 0.6), (4.0, 2 ** 10))
        out = self_convolve(pld, 1024)
        assert abs(out.masses.sum() + out.mass_inf - 1.0) < 1e-6

    def test_rejects_bad_count_and_overflow(self):
        pld = PLDGrid(0.0, 0.1, np.array([0.5, 0.5]), 0.0)
        with pytest.raises(ValueError):
            self_convolve(pld, 0)
        wide = PLDGrid(0.0, 0.1, np.full(2 ** 12, 2.0 ** -12), 0.0)
        with pytest.raises(GridOverflowError):
            self_convolve(wide, 2 ** 20)


class TestTransformLength:
    """The phase-split transform against scipy's single-length one: the
    composed masses move by round-off only."""

    def test_next_fast_len_matches_scipy(self):
        from scipy import fft
        rng = np.random.default_rng(0)
        sizes = list(range(1, 2 * 10 ** 4 + 1)) + rng.integers(1, 100 * MAX_NODES, 2000).tolist()
        assert [n for n in sizes if _next_fast_len(n) != fft.next_fast_len(n, real=True)] == []

    @pytest.mark.parametrize("c", [2, 10, 100])
    def test_composed_masses_equal_scipy_fft(self, c):
        from scipy import fft
        pld = pld_from_discrete(*SubsampledGaussianMechanism(0.25, 0.5).bin_masses(width=0.01),
                                (40.0, 2 ** 14))
        n = (pld.masses.size - 1) * c + 1
        size = fft.next_fast_len(n, real=True)
        expected = np.maximum(fft.irfft(fft.rfft(pld.masses, size) ** c, size)[:n], 0.0)
        assert np.max(np.abs(self_convolve(pld, c).masses - expected)) <= 1e-15


class TestDeltaFromPld:
    def test_all_mass_at_zero(self):
        pld = PLDGrid(0.0, 0.1, np.array([1.0]), 0.0)
        assert delta_from_pld(pld, 0.0) == 0.0

    def test_single_point_formula(self):
        pld = PLDGrid(1.0, 0.1, np.array([1.0]), 0.0)
        assert delta_from_pld(pld, 0.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_infinity_atom_floor(self):
        pld = PLDGrid(-30.0, 0.1, np.array([0.7]), 0.3)
        assert delta_from_pld(pld, 5.0) == pytest.approx(0.3)

    def test_non_increasing_and_limits(self):
        pld = pld_from_discrete(dist(0.7, 0.2, 0.1), dist(0.2, 0.3, 0.5), TEST_GRID)
        eps = np.linspace(-5, 8, 53)
        values = [delta_from_pld(pld, e) for e in eps]
        assert all(x >= y - 1e-15 for x, y in zip(values, values[1:]))
        assert delta_from_pld(pld, 100.0) == pytest.approx(pld.mass_inf)

    def test_refinement_monotone_from_above(self):
        # halving the step (nested grids) never increases the estimate
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.2, 0.5, 0.3)
        for eps in (0.0, 0.3, 1.0):
            coarse = delta_from_pld(pld_from_discrete(p, q, (8.0, 2 ** 10)), eps)
            fine = delta_from_pld(pld_from_discrete(p, q, (8.0, 2 ** 11)), eps)
            finest = delta_from_pld(pld_from_discrete(p, q, (8.0, 2 ** 14)), eps)
            assert coarse >= fine - 1e-15 >= finest - 2e-15
            exact = symmetric_delta(p, q, eps)
            assert finest >= exact - 1e-12


def gaussian_pair(sigma, width):
    """N(0, sigma^2) against N(1, sigma^2), binned on +-12 sigma."""
    from scipy import special
    edges = np.arange(-12 * sigma, 1 + 12 * sigma + width, width)
    cp = special.ndtr(edges / sigma)
    cq = special.ndtr((edges - 1.0) / sigma)
    p = np.diff(cp); p[0] += cp[0]; p[-1] += 1 - cp[-1]
    q = np.diff(cq); q[0] += cq[0]; q[-1] += 1 - cq[-1]
    return DiscreteDistribution.normalized(p), DiscreteDistribution.normalized(q)


class TestEvaluationMemory:
    def test_delta_holds_no_node_length_array(self):
        rng = np.random.default_rng(7)
        masses = rng.random(2 ** 22)
        pld = PLDGrid(-2.0, 1e-6, masses / masses.sum(), 0.0)  # nodes cover [-2, 2.2]
        eps = np.linspace(-3.0, 3.0, 401)
        # one longdouble block, 1 MiB, and chunk-long temporaries
        assert traced_peak(lambda: delta_from_pld(pld, eps)) < 2 * 2 ** 20  # masses: 32 MB

    def test_convolution_holds_two_node_length_arrays(self):
        # the spectrum and the composed masses, 8 bytes a node each; pocketfft's
        # plans and scratch, which tracemalloc does not see, are a phase long
        nodes, c = 100_001, 10
        setup = ("import numpy as np; from dpaudit.pld import PLDGrid, self_convolve; "
                 f"masses = np.random.default_rng(0).random({nodes}); "
                 "pld = PLDGrid(0.0, 1e-4, masses / masses.sum()); "
                 "self_convolve(PLDGrid(0.0, 1.0, np.array([0.5, 0.5])), 2)")  # imports numpy.fft
        length = PHASES * 2 * _next_fast_len(-(-((nodes - 1) * c + 1) // (2 * PHASES)))
        assert rss_growth(f"self_convolve(pld, {c})", setup) <= 2.6 * 8 * length

    def test_compose_holds_one_node_length_array(self):
        # one direction of compose_profile reads delta off the spectrum's rows:
        # the spectrum, 8 bytes a node, plus read-out blocks; composing and then
        # reading the masses holds about 2.1 times as much
        nodes, c = 100_001, 10
        setup = ("import numpy as np; from dpaudit.pld import PLDGrid, _composed_delta; "
                 f"masses = np.random.default_rng(0).random({nodes}); "
                 "pld = PLDGrid(0.0, 1e-4, masses / masses.sum()); "
                 "eps = np.linspace(0.0, 10.0, 401); "
                 "_composed_delta(PLDGrid(0.0, 1.0, np.array([0.5, 0.5])), 2, eps)")  # imports
        length = PHASES * 2 * _next_fast_len(-(-((nodes - 1) * c + 1) // (2 * PHASES)))
        assert rss_growth(f"_composed_delta(pld, {c}, eps)", setup) <= 1.5 * 8 * length

    def test_compose_peaks_no_higher_than_one_convolution(self, monkeypatch):
        # in turn, each direction is composed, read and dropped before the other
        # is built (a forked child would hide its direction from tracemalloc);
        # the allowance covers the eps-length arrays
        monkeypatch.setattr(pld_module, "_FORK_MIN_NODES", 10 ** 12)
        p, q = gaussian_pair(sigma=2.0, width=0.01)
        eps = np.linspace(0.0, 10.0, 401)
        convolve = max(traced_peak(lambda: self_convolve(pld_from_discrete(a, b, TEST_GRID), 4))
                       for a, b in ((p, q), (q, p)))
        compose = traced_peak(lambda: compose_profile(p, q, 4, eps, grid=TEST_GRID))
        assert compose <= convolve + 2 ** 16


class TestComposeProfile:
    def test_single_composition_matches_symmetric_delta(self):
        rng = np.random.default_rng(0)
        eps_grid = np.linspace(-3, 3, 25)
        for _ in range(20):
            p = DiscreteDistribution.normalized(rng.random(6) + 1e-3)
            q = DiscreteDistribution.normalized(rng.random(6) + 1e-3)
            profile = compose_profile(p, q, 1, eps_grid, grid=TEST_GRID)
            for eps, value in zip(profile.epsilons, profile.deltas):
                exact = symmetric_delta(p, q, eps)
                assert exact - 1e-12 <= value <= exact + 2 * TEST_STEP

    def test_composed_profiles_are_heuristic(self):
        profile = compose_profile(dist(0.6, 0.4), dist(0.4, 0.6), 3,
                                  np.linspace(0, 2, 11), grid=TEST_GRID)
        assert profile.heuristic

    def test_gaussian_composition_oracle(self):
        # compact version of the composition check: sigma=2 bins, c=4
        sigma = 2.0
        profile = compose_profile(*gaussian_pair(sigma, 0.01), 4, np.linspace(0, 2, 5))
        for eps, value in zip(profile.epsilons, profile.deltas):
            assert value == pytest.approx(gaussian_delta(eps, sigma, 2.0), abs=5e-4)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the directions run in turn without os.fork")
class TestTwoProcesses:
    """From ``_FORK_MIN_NODES`` composed nodes on, a forked child takes the backward direction."""

    EPS = np.linspace(-1.0, 10.0, 45)

    @pytest.mark.parametrize("c", [1, 4])
    def test_forked_equals_in_turn(self, c, monkeypatch):
        p, q = gaussian_pair(sigma=2.0, width=0.01)
        forks, fork, runs = [], os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for floor in (0, 10 ** 12):
            monkeypatch.setattr(pld_module, "_FORK_MIN_NODES", floor)
            runs.append(compose_profile(p, q, c, self.EPS, grid=TEST_GRID))
            assert no_child_left()
        assert len(forks) == 1  # the forked run's only
        monkeypatch.setattr(pld_module, "_FORK_MIN_NODES", 0)
        monkeypatch.delattr(os, "fork")
        runs.append(compose_profile(p, q, c, self.EPS, grid=TEST_GRID))
        for profile in runs[1:]:
            assert profile.deltas.tobytes() == runs[0].deltas.tobytes()
            assert profile.heuristic

    def test_forward_error_wins_when_both_fail(self, monkeypatch):
        parent = os.getpid()

        def failing(pld, c):
            side = "forward" if os.getpid() == parent else "backward"
            raise GridOverflowError(f"{side} direction does not fit")

        monkeypatch.setattr(pld_module, "_FORK_MIN_NODES", 0)
        monkeypatch.setattr(pld_module, "_composed_rows", failing)
        with pytest.raises(GridOverflowError, match="^forward direction does not fit$"):
            compose_profile(dist(0.6, 0.4), dist(0.4, 0.6), 3, self.EPS, grid=TEST_GRID)
        assert no_child_left()

    def test_small_composition_makes_no_child(self, monkeypatch):
        def no_fork():
            raise OSError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        # the largest c whose composed PLD stays below the floor, then one more
        p, q = gaussian_pair(sigma=2.0, width=0.01)
        size = pld_from_discrete(p, q, TEST_GRID).masses.size
        c = (pld_module._FORK_MIN_NODES - 2) // (size - 1)
        assert compose_profile(p, q, c, self.EPS, grid=TEST_GRID).heuristic
        with pytest.raises(OSError, match="os.fork called"):
            compose_profile(p, q, c + 1, self.EPS, grid=TEST_GRID)


class TestPldGridValidation:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            PLDGrid(0.0, 0.1, np.array([-0.1, 1.1]), 0.0)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            PLDGrid(0.0, 0.1, np.array([0.5]), 0.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            PLDGrid(0.0, -0.1, np.array([1.0]), 0.0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            PLDGrid(0.0, step, np.array([1.0]), 0.0)

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_start(self, start):
        with pytest.raises(ValueError, match="grid_start must be finite"):
            PLDGrid(start, 0.1, np.array([1.0]), 0.0)

    @pytest.mark.parametrize("masses, mass_inf", [
        ([0.5, math.nan], 0.0), ([0.5, math.nan], 0.5), ([0.5, math.inf], 0.0), ([1.0], math.nan),
        ([0.5], math.inf)])
    def test_rejects_non_finite_mass(self, masses, mass_inf):
        with pytest.raises(ValueError, match="masses must be non-negative|total PLD mass"):
            PLDGrid(0.0, 0.1, np.array(masses), mass_inf)
