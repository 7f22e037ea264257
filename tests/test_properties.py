"""Property tests of the estimator invariants, generated with hypothesis.

The hockey-stick kernel is checked against the brute-force sum it replaces,
on pairs with empty bins on either side and eps far past the exp overflow.
The PLD engine is checked the same way: its segment-sum delta against the
per-node sum, its rfft power against repeated direct convolution, and delta
read off the transform's phase rows against delta read off the interleaved
composed masses, bit for bit. The
closed-form sigma inverse is checked by mapping its sigma back to a TV.
Trade-off curves converted from random non-increasing profiles are valid.
The blocked binning is checked against the pooled copy it replaces, with
blocks small enough that their boundaries fall inside the samples. Bin
indices and the PLD's first node above each eps, both counted by arithmetic,
are checked against ``searchsorted`` on the nodes themselves. Score files
written by the vectorised formatter are checked against ``repr`` byte for
byte, on values drawn around the edges of its exact domain.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpaudit import histogram, pld as pld_module, scores
from dpaudit.discrete import (DiscreteDistribution, _count_at_or_below, alpha_from_eps,
                              hockey_stick, symmetric_delta)
from dpaudit.errors import DegenerateSamplesError
from dpaudit.estimators import threshold_epsilon, two_bin_histogram
from dpaudit.histogram import (QUANTILE_MARGIN, BinningSpec, HistogramEstimate, auto_spec,
                               bin_counts, binning_side, build_histograms, estimate_profile,
                               scott_width_gaussian)
from dpaudit.mechanisms import SIGMA_RANGE, SubsampledGaussianMechanism, sigma_from_tv
from dpaudit.pld import (PHASES, PLDGrid, compose_profile, delta_from_pld,
                         pld_from_discrete, self_convolve)
from dpaudit.profiles import PrivacyProfile
from dpaudit.scores import both
from dpaudit.tradeoff import profile_to_tradeoff, validate

from oracles import score_file_bytes, traced_peak

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
    assert traced_peak(lambda: estimate_profile(hist, eps)) < 32 * 2 ** 20


SMALL_BLOCK = 7


@st.composite
def sample_pairs(draw):
    """Two samples of unequal sizes (either may hold one value) on a drawn
    scale, optionally rounded so that many values tie."""
    sizes = st.one_of(st.just(1), st.integers(1, 3 * SMALL_BLOCK), st.integers(1, 3000))
    n_p, n_q = draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 5.0))
    sp = scale * (rng.standard_normal(n_p) + draw(st.floats(-3.0, 3.0)))
    sq = scale * rng.standard_t(3, n_q)
    if draw(st.booleans()):
        sp, sq = (scale * np.round(x / scale, 1) for x in (sp, sq))
    return sp, sq


@PROPERTY_SETTINGS
@given(sample_pairs())
def test_auto_spec_matches_the_pooled_copy(pair):
    sp, sq = pair
    pooled = np.concatenate([sp, sq])
    a, b = np.quantile(pooled, [QUANTILE_MARGIN, 1.0 - QUANTILE_MARGIN])
    sigmas = []

    def spy(sigma_hat, n):
        sigmas.append(sigma_hat)
        return scott_width_gaussian(sigma_hat, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(histogram, "BIN_BLOCK", SMALL_BLOCK)
        mp.setattr(histogram, "scott_width_gaussian", spy)
        if not a < b:
            with pytest.raises(DegenerateSamplesError):
                auto_spec(sp, sq)
            return
        spec = auto_spec(sp, sq)
    assert (spec.a, spec.b) == (a, b)
    sigma = pooled.std(ddof=1)
    assert abs(sigmas[0] - sigma) <= 4 * np.spacing(sigma)
    bins = (b - a) / scott_width_gaussian(sigma, sp.size)
    if abs(bins - round(bins)) > 1e-9 * bins:
        assert spec.k == max(2, math.ceil(bins))


@st.composite
def tied_pairs(draw):
    """Two samples, of equal sizes half of the time, from one value up; the
    values come from a pool of a few, so the pooled quantile ranks often tie,
    or from a normal law."""
    sizes = st.one_of(st.integers(1, 3), st.integers(1, 3 * SMALL_BLOCK), st.integers(1, 2000))
    n_p = draw(sizes)
    n_q = n_p if draw(st.booleans()) else draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=5)))
        return rng.choice(pool, n_p), rng.choice(pool, n_q)
    return rng.normal(0.0, 1.0, n_p), rng.normal(draw(st.floats(-2.0, 2.0)), 1.0, n_q)


def binned_side(x, sizes, binning):
    """One sample's side of binning a pair in two processes, as the CLI does."""
    spec = yield from binning_side(x, sizes, **binning)
    return spec, bin_counts(x, spec)


@settings(max_examples=60, deadline=None)
@given(tied_pairs(), st.sampled_from([{}, {"k": 7}, {"width": 0.5}]))
def test_side_summaries_merge_to_the_in_memory_binning(pair, binning):
    sp, sq = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(histogram, "BIN_BLOCK", SMALL_BLOCK)
        try:
            spec = auto_spec(sp, sq, **binning)
        except ValueError as exc:  # degenerate samples among them
            spec, expected_error = None, (type(exc), str(exc))
        # p and q as given, then swapped, each side in its own process
        for first, second in ((sp, sq), (sq, sp)):
            sizes = (first.size, second.size)
            try:
                (got, counts_first), (other, counts_second) = both(
                    binned_side, (first, sizes, binning), (second, sizes, binning))
            except ValueError as exc:
                assert spec is None and (type(exc), str(exc)) == expected_error
                continue
            assert got == other
            # the Scott width reads the first side's size
            assert got == spec or (not binning and sp.size != sq.size
                                   and (got.a, got.b) == (spec.a, spec.b))
            for x, counts in ((first, counts_first), (second, counts_second)):
                assert np.array_equal(counts, np.bincount(got.bin_indices(x), minlength=got.k))
            if first is sp and sp.size == sq.size:
                merged = HistogramEstimate.from_counts(got, counts_first, counts_second)
                hist = build_histograms(sp, sq, spec)
                assert merged.n == hist.n
                for ours, theirs in ((merged.p_hat, hist.p_hat), (merged.q_hat, hist.q_hat)):
                    assert ours.probs.tobytes() == theirs.probs.tobytes()
    if spec is not None:
        pooled = np.concatenate([sp, sq])
        assert (spec.a, spec.b) == tuple(np.quantile(pooled, [QUANTILE_MARGIN,
                                                                1.0 - QUANTILE_MARGIN]))


@PROPERTY_SETTINGS
@given(st.integers(2, 40), st.integers(2, 50), st.integers(0, 2 ** 32 - 1), st.data())
def test_blocked_counts_match_one_bincount(block, k, seed, data):
    n = data.draw(st.sampled_from([1, block - 1, block, block + 1, 2 * block + 1]))
    # about a third of the values sit on a bin boundary
    spec = BinningSpec(-2.0, 2.0, k)
    rng = np.random.default_rng(seed)
    pool = np.concatenate([spec.breakpoints(), rng.uniform(-3.0, 3.0, 2 * k)])
    sp, sq = rng.choice(pool, n), rng.choice(pool, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(histogram, "BIN_BLOCK", block)
        hist = build_histograms(sp, sq, spec)
    for x, est in ((sp, hist.p_hat), (sq, hist.q_hat)):
        assert np.array_equal(est.probs, np.bincount(spec.bin_indices(x), minlength=k) / n)


# values where a count by arithmetic can go wrong: signed zero, the smallest
# subnormal, and ends where x - a overflows
EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]


def sorted_count_sample(rng, nodes, ends, size):
    """``size`` values drawn from the nodes, their float neighbours, ``ends``,
    ``EXTREMES`` and uniform draws around the nodes."""
    span = max(float(nodes[-1] - nodes[0]), 1.0)
    pool = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
                           ends, EXTREMES,
                           rng.uniform(nodes[0] - span, nodes[-1] + span, nodes.size)])
    return rng.choice(pool, size)


@PROPERTY_SETTINGS
@given(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6), st.integers(2, 400),
       st.sampled_from([histogram.BIN_BLOCK - 1, histogram.BIN_BLOCK, histogram.BIN_BLOCK + 1]),
       st.integers(0, 2 ** 32 - 1))
def test_bin_indices_match_searchsorted(a, width, k, size, seed):
    b = a + width
    assume(a < b)
    spec = BinningSpec(a, b, k)
    x = sorted_count_sample(np.random.default_rng(seed), spec.breakpoints(), [a, b], size)
    assert np.array_equal(spec.bin_indices(x), np.searchsorted(spec.breakpoints(), x, "right"))


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
@given(plds(max_nodes=400), st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
def test_first_above_matches_searchsorted(pld, size, seed):
    nodes = pld.node_values()
    eps = sorted_count_sample(np.random.default_rng(seed), nodes, [-np.inf, np.inf, np.nan],
                              size)
    # the first node above each eps, as the delta read-out finds it
    first = _count_at_or_below(eps, pld.grid_start, pld.step, 0, pld.masses.size)
    assert np.array_equal(first, np.searchsorted(nodes, eps, "right"))


@PROPERTY_SETTINGS
@given(plds(max_nodes=30, reach=50.0), st.integers(2, 8))
def test_self_convolve_matches_direct_convolution(pld, c):
    composed = self_convolve(pld, c)
    direct = pld.masses
    for _ in range(c - 1):
        direct = np.convolve(direct, pld.masses)
    assert composed.masses.size == direct.size
    assert np.all(np.abs(composed.masses - direct) <= 1e-15)
    assert composed.grid_start == c * pld.grid_start
    assert abs(composed.mass_inf - (1.0 - (1.0 - pld.mass_inf) ** c)) <= 1e-15


def eps_around(data, first, last):
    """Distinct sorted eps inside [first, last], on its ends, and below and beyond it."""
    values = data.draw(st.lists(st.one_of(
        st.floats(first, last), st.sampled_from([first, last]),
        st.floats(first - 50.0, first, exclude_max=True),
        st.floats(last, last + 50.0, exclude_min=True)), min_size=2, max_size=30))
    return np.unique(values)


@PROPERTY_SETTINGS
@given(plds(max_nodes=200, reach=50.0), st.integers(2, 8),
       st.sampled_from([(PHASES, 8), (40, 24), (pld_module.DELTA_BLOCK, 2 ** 13)]), st.data())
def test_composed_delta_equals_reading_the_convolved_pld(pld, c, sizes, data):
    # small read-out blocks and chunks put their edges inside the phase rows
    n = (pld.masses.size - 1) * c + 1
    eps = eps_around(data, c * pld.grid_start, c * pld.grid_start + (n - 1) * pld.step)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pld_module, "DELTA_BLOCK", sizes[0])
        mp.setattr(pld_module, "_DECAY_CHUNK", sizes[1])
        expected = delta_from_pld(self_convolve(pld, c), eps)
        assert np.array_equal(pld_module._composed_delta(pld, c, eps), expected)


@st.composite
def distribution_pairs(draw, max_bins=40):
    """Two distributions on the same bins, with bins empty on either side."""
    k = draw(st.integers(2, max_bins))
    p, q = (np.array(draw(st.lists(weights, min_size=k, max_size=k))) for _ in range(2))
    assume(p.sum() > 0 and q.sum() > 0)
    return DiscreteDistribution.normalized(p), DiscreteDistribution.normalized(q)


@PROPERTY_SETTINGS
@given(distribution_pairs(), st.integers(1, 8), st.data())
def test_composed_profile_is_the_envelope_of_both_directions(pair, c, data):
    p, q = pair
    grid = (20.0, 2 ** 12)
    eps = eps_around(data, -20.0 * c, 20.0 * c)
    assume(eps.size >= 2)
    deltas = np.maximum(*(delta_from_pld(self_convolve(pld_from_discrete(a, b, grid), c), eps)
                          for a, b in ((p, q), (q, p))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pld_module, "_FORK_MIN_NODES", 10 ** 12)  # the directions run in turn
        profile = compose_profile(p, q, c, eps, grid=grid)
    assert np.array_equal(profile.deltas, PrivacyProfile.envelope(eps, deltas).deltas)
    assert profile.heuristic


# every decade of the range as often as its top one
sigmas = st.one_of(st.floats(*SIGMA_RANGE), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


@PROPERTY_SETTINGS
@given(st.floats(0.01, 1.0), sigmas)
def test_sigma_from_tv_reproduces_the_tv(q, sigma):
    tv = SubsampledGaussianMechanism(q, sigma).tv()
    fitted = sigma_from_tv(q, tv)
    assert SIGMA_RANGE[0] <= fitted <= SIGMA_RANGE[1]
    assert abs(SubsampledGaussianMechanism(q, fitted).tv() / tv - 1.0) <= 1e-11


@st.composite
def profiles(draw):
    """The envelope of random deltas (exact 0s and 1s included) on a random grid."""
    eps = np.sort(draw(st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=50, unique=True)))
    deltas = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                           min_size=eps.size, max_size=eps.size))
    return PrivacyProfile.envelope(eps, deltas)


@PROPERTY_SETTINGS
@given(profiles(), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       st.integers(2, 300))
def test_tradeoff_curves_are_valid(profile, delta_target, n_points):
    try:
        curve = profile_to_tradeoff(profile, delta_target, n_points)
    except ValueError as exc:
        assert "no delta' value was invertible" in str(exc)
        return
    assert validate(curve) == []
    # exp(log1p(-delta')) rounds, so a line may pass 1 - alpha by a few ulp
    assert np.all(curve.betas <= 1.0 - curve.alphas + 1e-15)


def _from_bits(bits: int) -> float:
    """The float64 of a 64-bit pattern; a non-finite one has an exponent bit cleared."""
    value = np.array([bits], dtype=np.uint64).view(np.float64)[0]
    if not np.isfinite(value):
        value = np.array([bits ^ (1 << 62)], dtype=np.uint64).view(np.float64)[0]
    return float(value)


def _neighbour(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# values where the formatter's cases meet: any float, any bit pattern, short
# decimals, powers of two and ten with their neighbours (the spacing changes
# at a power of two, the digit count at a power of ten), and the domain edges
score_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    st.builds(lambda m, k: float(f"{m}e-{k}"), st.integers(-10 ** 7, 10 ** 7),
              st.integers(0, 12)),
    st.builds(_neighbour, st.one_of(st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
                                    st.integers(-323, 308).map(lambda k: float(f"1e{k}")),
                                    st.sampled_from([1e-4, 1e15])),
              st.integers(-3, 3)),
).map(lambda x: x if math.isfinite(x) else 1.0)  # a neighbour of 2^1023 can pass the range


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(score_values, st.booleans()), min_size=1, max_size=40),
       st.sampled_from([None, 7]))
def test_written_score_files_are_repr_lines(tmp_path_factory, drawn, block):
    values = np.array([-x if negate else x for x, negate in drawn])
    path = tmp_path_factory.mktemp("scores") / "scores.txt"
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(scores, "WRITE_BLOCK", block)
        scores.write_scores(path, values)
    assert path.read_bytes() == score_file_bytes(values)
