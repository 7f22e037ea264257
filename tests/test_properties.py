"""Property tests of the estimator invariants, generated with hypothesis.

The hockey-stick kernel is checked against the brute-force sum it replaces,
on pairs with empty bins on either side and eps far past the exp overflow.
The PLD engine is checked the same way: its segment-sum delta against the
per-node sum, its rfft power against repeated direct convolution. The
closed-form sigma inverse is checked by mapping its sigma back to a TV.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpaudit.discrete import (DiscreteDistribution, alpha_from_eps, hockey_stick,
                              symmetric_delta)
from dpaudit.estimators import threshold_epsilon, two_bin_histogram
from dpaudit.histogram import BinningSpec, HistogramEstimate, estimate_profile
from dpaudit.mechanisms import SIGMA_RANGE, SubsampledGaussianMechanism, sigma_from_tv
from dpaudit.pld import PLDGrid, delta_from_pld, self_convolve

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)

# a bin weight is exactly zero (an empty bin) about a third of the time
weights = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.integers(1, 5).map(float))
# small counts: many bins share a likelihood ratio, so sums meet ties
counts = st.integers(0, 3).map(float)


@st.composite
def distribution_pairs(draw, min_bins=1, max_bins=40, weights=weights):
    k = draw(st.integers(min_bins, max_bins))
    p = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
    q = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
    assume(p.sum() > 0 and q.sum() > 0)
    return DiscreteDistribution.normalized(p), DiscreteDistribution.normalized(q)


eps_values = st.one_of(st.floats(-800.0, 800.0), st.floats(-5.0, 5.0))


def brute_force(p, q, alpha):
    return float(np.maximum(p.probs - alpha * q.probs, 0.0).sum())


@PROPERTY_SETTINGS
@given(distribution_pairs(), st.lists(eps_values, min_size=1, max_size=8))
def test_kernel_matches_brute_force(pair, eps):
    p, q = pair
    alphas = alpha_from_eps(np.array(eps))
    forward, backward = hockey_stick(p, q, alphas)
    for a, f, b in zip(alphas, forward, backward):
        assert abs(f - brute_force(p, q, a)) <= 1e-12
        assert abs(b - brute_force(q, p, a)) <= 1e-12


@PROPERTY_SETTINGS
@given(distribution_pairs(min_bins=2),
       st.lists(eps_values, min_size=2, max_size=30, unique=True))
def test_estimate_profile_non_increasing_in_unit_interval(pair, eps):
    p, q = pair
    hist = HistogramEstimate(BinningSpec(0.0, 1.0, len(p)), p, q, 1)
    profile = estimate_profile(hist, np.sort(eps))
    assert np.all(np.diff(profile.deltas) <= 0.0)
    assert np.all((profile.deltas >= 0.0) & (profile.deltas <= 1.0))


@PROPERTY_SETTINGS
@given(st.one_of(distribution_pairs(), distribution_pairs(max_bins=200, weights=counts)),
       eps_values)
def test_symmetric_delta_is_order_free(pair, eps):
    p, q = pair
    assert symmetric_delta(p, q, eps) == symmetric_delta(q, p, eps)


@st.composite
def threshold_cases(draw):
    n = draw(st.integers(2, 80))
    scores = st.lists(st.integers(-6, 6).map(lambda v: v / 2.0), min_size=n, max_size=n)
    sp, sq = np.array(draw(scores)), np.array(draw(scores))
    threshold = draw(st.integers(-12, 12).map(lambda v: v / 4.0))
    tpr, fpr = np.mean(sp < threshold), np.mean(sq < threshold)
    assume(0.0 < fpr < tpr < 1.0)
    delta = draw(st.floats(0.01, 0.99)) * (tpr - fpr)
    return sp, sq, threshold, delta


@PROPERTY_SETTINGS
@given(threshold_cases())
def test_threshold_attack_equals_two_bin_histogram(case):
    sp, sq, threshold, delta = case
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
    assert abs(est.epsilon - 0.5 * (lo + hi)) <= 1e-9


def test_estimate_profile_memory_is_linear():
    # an m x k table at k = 2*10**4 and m = 2001 would need 320 MB per direction
    k = 2 * 10 ** 4
    rng = np.random.default_rng(11)
    hist = HistogramEstimate(BinningSpec(0.0, 1.0, k),
                             DiscreteDistribution.normalized(rng.random(k)),
                             DiscreteDistribution.normalized(rng.random(k)), 10 ** 6)
    eps = np.linspace(-10.0, 10.0, 2001)
    tracemalloc.start()
    try:
        estimate_profile(hist, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@st.composite
def plds(draw, max_nodes=60, reach=1000.0,
         mass_inf=st.one_of(st.just(0.0), st.floats(0.0, 0.5))):
    """A PLD with empty nodes and an optional +inf atom, inside [-reach, reach]."""
    n = draw(st.integers(1, max_nodes))
    masses = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    assume(masses.sum() > 0)
    mass_inf = draw(mass_inf)
    step = draw(st.floats(1e-3, 2.0 * reach / max(n - 1, 1)))
    start = draw(st.floats(-reach, max(-reach, reach - (n - 1) * step)))
    return PLDGrid(start, step, (1.0 - mass_inf) * masses / masses.sum(), mass_inf)


def brute_force_pld_delta(pld, eps):
    s = pld.node_values()
    above = s > eps
    return pld.mass_inf + float(np.sum(pld.masses[above] * -np.expm1(eps - s[above])))


@PROPERTY_SETTINGS
@given(st.one_of(plds(), plds(max_nodes=1),  # one node, or almost all mass at +inf
                 plds(mass_inf=st.floats(0.999, 1.0, exclude_max=True))),
       st.data())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_delta_from_pld_matches_brute_force(pld, data):
    nodes = pld.node_values()
    values = data.draw(st.lists(st.one_of(
        st.floats(-800.0, 800.0),
        st.sampled_from(list(nodes)),  # on a node, where a term changes sides
        st.just(float(nodes[-1])),
        # below the first node and beyond the last, out to +-inf
        st.floats(max_value=float(nodes[0]), exclude_max=True, allow_nan=False),
        st.floats(min_value=float(nodes[-1]), exclude_min=True, allow_nan=False),
    ), min_size=1, max_size=20))
    eps = np.array(data.draw(st.permutations(values + values[::2])))  # unsorted, with repeats
    deltas = delta_from_pld(pld, eps)
    expected = np.array([brute_force_pld_delta(pld, e) for e in eps])
    assert np.all(np.abs(deltas - expected) <= 1e-12)
    order = np.argsort(eps, kind="stable")
    assert np.array_equal(delta_from_pld(pld, eps[order]), deltas[order])
    assert np.all(np.diff(deltas[order]) <= 1e-15)
    assert isinstance(delta_from_pld(pld, float(eps[0])), float)


@PROPERTY_SETTINGS
@given(plds(max_nodes=30, reach=50.0), st.integers(1, 8))
def test_self_convolve_matches_direct_convolution(pld, c):
    composed = self_convolve(pld, c)
    direct = pld.masses
    for _ in range(c - 1):
        direct = np.convolve(direct, pld.masses)
    assert composed.masses.size == direct.size
    assert np.all(np.abs(composed.masses - direct) <= 1e-14)
    assert composed.grid_start == c * pld.grid_start
    assert abs(composed.mass_inf - (1.0 - (1.0 - pld.mass_inf) ** c)) <= 1e-15


# every decade of the range as often as its top one
sigmas = st.one_of(st.floats(*SIGMA_RANGE), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


@PROPERTY_SETTINGS
@given(st.floats(0.01, 1.0), sigmas)
def test_sigma_from_tv_reproduces_the_tv(q, sigma):
    tv = SubsampledGaussianMechanism(q, sigma).tv()
    fitted = sigma_from_tv(q, tv)
    assert SIGMA_RANGE[0] <= fitted <= SIGMA_RANGE[1]
    assert abs(SubsampledGaussianMechanism(q, fitted).tv() / tv - 1.0) <= 1e-11
