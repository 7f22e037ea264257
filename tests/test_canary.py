import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dpaudit import canary
from dpaudit.canary import (OneShotConfig, WhiteBoxConfig, one_shot_audit,
                            one_shot_scores_gram, whitebox_stream)
from dpaudit.cli import main
from dpaudit.estimators import AuditConfig, histogram_audit

from oracles import no_child_left, one_shot_direct, sample_sphere, whitebox_stream_direct


class TestSampleSphere:
    """The sphere sampler behind the direct law references in oracles.py."""

    def test_unit_norms(self):
        rng = np.random.default_rng(0)
        vecs = sample_sphere(50, 200, rng)
        norms = np.linalg.norm(vecs, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_one_dimensional_signs(self):
        rng = np.random.default_rng(1)
        vecs = sample_sphere(1, 100, rng)
        assert set(np.unique(vecs)) <= {-1.0, 1.0}

    def test_near_orthogonality_in_high_dimension(self):
        # pairwise cosines concentrate like sqrt(log n / d)
        d, n = 10 ** 5, 100
        bound = 6.0 * math.sqrt(math.log(n) / d)
        for seed in range(10):
            vecs = sample_sphere(d, n, np.random.default_rng(100 + seed))
            gram = vecs @ vecs.T
            np.fill_diagonal(gram, 0.0)
            assert np.max(np.abs(gram)) <= bound

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            sample_sphere(0, 5, np.random.default_rng(0))


class TestOneShotRelease:
    def test_noiseless_single_canary(self):
        cfg = OneShotConfig(d=64, n=1, sigma=1e-12, x_norm=0.0, seed=5)
        scores_p, scores_q = one_shot_scores_gram(cfg)
        assert scores_p[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(scores_q[0]) < 1.0  # test canary nearly orthogonal

    @pytest.mark.parametrize("d", [2, 3, 8, 50])
    def test_noiseless_cosine_law(self, d):
        # with two held-in canaries and no noise, a held-in score is 1 plus
        # the cosine of two independent uniform directions: 2B - 1 with
        # B ~ Beta((d - 1)/2, (d - 1)/2)
        cosines = [one_shot_scores_gram(OneShotConfig(d=d, n=2, sigma=1e-12, seed=seed))[0][0]
                   - 1.0 for seed in range(2000)]
        law = stats.beta((d - 1) / 2, (d - 1) / 2)
        assert stats.kstest((np.array(cosines) + 1.0) / 2.0, law.cdf).pvalue > 1e-3

    def test_noise_energy(self):
        # a held-out canary c is a uniform direction independent of theta, so
        # E <c, theta>^2 = E ||theta||^2 / d = sigma^2 + n / d; with n < d < 2n,
        # part of the noise lies off the held-in canaries' span
        d, n, sigma = 4096, 3000, 2.0
        _, scores_q = one_shot_scores_gram(OneShotConfig(d=d, n=n, sigma=sigma, seed=11))
        expected = sigma ** 2 + n / d
        # 4 sd of the mean square over n scores and of ||theta||^2 / d
        slack = 4.0 * expected * math.sqrt(2.0 / n + 2.0 / d)
        assert abs(float(np.mean(scores_q ** 2)) - expected) <= slack

    def test_x_norm_enters_release(self):
        # held-out scores carry x_norm^2 / d more variance: 1 + 200/256 + 2500/256
        cfg0 = OneShotConfig(d=256, n=200, sigma=1.0, x_norm=0.0, seed=3)
        cfg1 = OneShotConfig(d=256, n=200, sigma=1.0, x_norm=50.0, seed=3)
        _, scores_q0 = one_shot_scores_gram(cfg0)
        _, scores_q1 = one_shot_scores_gram(cfg1)
        assert scores_q1.std() > 2.0 * scores_q0.std()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OneShotConfig(d=0, n=1, sigma=1.0)
        with pytest.raises(ValueError):
            OneShotConfig(d=8, n=0, sigma=1.0)
        with pytest.raises(ValueError):
            OneShotConfig(d=8, n=1, sigma=-1.0)


VALID_CONFIGS = {
    OneShotConfig: dict(d=8, n=4, sigma=1.0, x_norm=1.0),
    WhiteBoxConfig: dict(iterations=10, canary_prob=0.5, sigma=1.0, clip=1.0, d=8,
                         nuisance_norm=0.5),
}


@pytest.mark.parametrize("config,field", [
    (OneShotConfig, "sigma"), (OneShotConfig, "x_norm"),
    (WhiteBoxConfig, "sigma"), (WhiteBoxConfig, "clip"), (WhiteBoxConfig, "nuisance_norm"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(config, field, value):
    config(**VALID_CONFIGS[config])  # the base values are valid
    with pytest.raises(ValueError, match=f"^{field} must be"):
        config(**{**VALID_CONFIGS[config], field: value})


def _blocked_and_dense(cfg, monkeypatch):
    """The sampler's held-in scores, and the same factor's computed densely.

    Records every block the two passes draw, checks that pass two redraws
    pass one's blocks bit for bit, assembles the whole t x R factor from them
    and scores it in one product, with the noise from the same seed stream.
    The blocks run in turn in this process, where they can be recorded; the
    forked path gives the same arrays (TestTwoProcesses).
    """
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(canary, "_ONE_SHOT_BLOCK", 16)
    calls = []
    draw = canary._factor_rows

    def record(d, start, stop, seed_seq, buffer):
        rows, inv_norm = draw(d, start, stop, seed_seq, buffer)
        calls.append((start, stop, rows * inv_norm[:, None]))
        return rows, inv_norm

    monkeypatch.setattr(canary, "_factor_rows", record)
    scores_p, _ = one_shot_scores_gram(cfg)
    extra = 1 if cfg.x_norm > 0 else 0
    t = extra + cfg.n
    half = len(calls) // 2
    for (a0, b0, rows0), (a1, b1, rows1) in zip(calls[:half], calls[half:]):
        assert (a0, b0) == (a1, b1) and np.array_equal(rows0, rows1)
    factor = np.zeros((t, min(t, cfg.d)))
    for start, stop, rows in calls[half:]:
        factor[start:stop, :rows.shape[1]] = rows
    assert np.all(np.triu(factor, 1) == 0.0)
    assert np.allclose(np.linalg.norm(factor, axis=1), 1.0, atol=1e-12, rtol=0.0)
    noise_seq = np.random.SeedSequence(cfg.seed).spawn(half + 1)[0]
    xi = np.random.default_rng(noise_seq).standard_normal(factor.shape[1])
    weights = np.concatenate([[cfg.x_norm] * extra, np.ones(cfg.n)])
    dense = factor @ (factor.T @ weights + cfg.sigma * xi)
    return scores_p, dense[extra:]


class TestOneShotScores:
    def test_streamed_matches_materialized(self, monkeypatch):
        # d >= n: every row carries a chi diagonal
        scores, dense = _blocked_and_dense(OneShotConfig(d=512, n=150, sigma=1.0, seed=21),
                                           monkeypatch)
        assert np.allclose(scores, dense, atol=1e-9, rtol=0.0)

    def test_streamed_matches_with_x_norm(self, monkeypatch):
        # d < n + 1: the rows past d are full Gaussian rows
        scores, dense = _blocked_and_dense(
            OneShotConfig(d=24, n=40, sigma=1.0, x_norm=2.0, seed=22), monkeypatch)
        assert np.allclose(scores, dense, atol=1e-9, rtol=0.0)

    def test_streamed_deterministic(self):
        cfg = OneShotConfig(d=100, n=150, sigma=1.0, seed=21)
        a = one_shot_scores_gram(cfg)
        b = one_shot_scores_gram(cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_score_means_in_high_dimension(self):
        # limit law N(1, sigma^2) / N(0, sigma^2); n=2000 means wander
        # sigma/sqrt(2000), so 0.1 is 4.5 sd
        cfg = OneShotConfig(d=2 ** 20, n=2000, sigma=1.0, seed=21)
        scores_p, scores_q = one_shot_scores_gram(cfg)
        assert abs(scores_p.mean() - 1.0) < 0.1
        assert abs(scores_q.mean()) < 0.1

    def test_score_moments_streamed(self):
        # 3-sigma check of the limit law moments at sound sample size
        cfg = OneShotConfig(d=2 ** 16, n=400, sigma=1.0, seed=23)
        scores_p, scores_q = one_shot_scores_gram(cfg)
        assert abs(scores_p.mean() - 1.0) < 0.15
        assert abs(scores_q.mean()) < 0.15
        assert scores_p.std() == pytest.approx(1.0, abs=0.12)
        assert scores_q.std() == pytest.approx(1.0, abs=0.12)

    def test_exchangeability_under_permutation(self):
        # the canaries are i.i.d., so the first and the last canary of a side
        # share one score law, although their factor rows differ in shape
        # (held-in row 29 lies past d and has no chi diagonal)
        firsts, lasts = [], []
        for seed in range(600):
            scores_p, scores_q = one_shot_scores_gram(
                OneShotConfig(d=20, n=30, sigma=0.5, seed=seed))
            firsts.append([scores_p[0], scores_q[0]])
            lasts.append([scores_p[-1], scores_q[-1]])
        firsts, lasts = np.array(firsts), np.array(lasts)
        for side in range(2):
            assert stats.ks_2samp(firsts[:, side], lasts[:, side]).pvalue > 1e-3


class TestGramSampler:
    def test_moments_match_direct_law(self):
        # same joint law as the direct path: compare first two moments
        n, d, sigma = 300, 8192, 1.0
        direct_means, gram_means = [], []
        direct_sds, gram_sds = [], []
        for seed in range(8):
            cfg = OneShotConfig(d=d, n=n, sigma=sigma, seed=3000 + seed)
            dp, dq = one_shot_direct(cfg)
            gp, gq = one_shot_scores_gram(cfg)
            direct_means.append([dp.mean(), dq.mean()])
            gram_means.append([gp.mean(), gq.mean()])
            direct_sds.append([dp.std(), dq.std()])
            gram_sds.append([gp.std(), gq.std()])
        assert np.allclose(np.mean(direct_means, axis=0),
                           np.mean(gram_means, axis=0), atol=0.05)
        assert np.allclose(np.mean(direct_sds, axis=0),
                           np.mean(gram_sds, axis=0), atol=0.05)

    @pytest.mark.parametrize("n,d,x_norm,sigma", [
        (20, 8, 0.0, 0.05),    # d < n
        (20, 50, 2.0, 0.05),   # d >= 2n + 1, with a data vector
        (40, 200, 0.0, 0.05),  # d >= 2n
        (40, 200, 0.0, 1.0),   # noise off the canaries' span dominates
        (5, 1, 0.0, 0.05),     # d = 1: every canary is a sign
        (3, 2, 1.5, 0.05),     # d < n with a data vector
    ])
    def test_matches_direct_law(self, monkeypatch, n, d, x_norm, sigma):
        # per-seed means and sds of both sides against the O(n d) simulation;
        # at sigma = 0.05 the canaries' geometry sets the scores; blocks of
        # 7 rows put block edges inside the held-in rows. These draws lie
        # below the fork floor, so the blocks run in turn in this process
        monkeypatch.setattr(canary, "_ONE_SHOT_BLOCK", 7)
        stats_gram, stats_direct = [], []
        for seed in range(1500):
            cfg = OneShotConfig(d=d, n=n, sigma=sigma, x_norm=x_norm, seed=seed)
            for out, draw in ((stats_gram, one_shot_scores_gram(cfg)),
                              (stats_direct, one_shot_direct(cfg))):
                out.append([side.mean() for side in draw] + [side.std() for side in draw])
        stats_gram, stats_direct = np.array(stats_gram), np.array(stats_direct)
        for column in range(4):
            assert stats.ks_2samp(stats_gram[:, column],
                                  stats_direct[:, column]).pvalue > 1e-3

    def test_samples_below_two_n(self):
        scores_p, scores_q = one_shot_scores_gram(OneShotConfig(d=16, n=32, sigma=1.0))
        assert scores_p.shape == scores_q.shape == (32,)
        assert np.all(np.isfinite(scores_p)) and np.all(np.isfinite(scores_q))

    def test_deterministic(self):
        cfg = OneShotConfig(d=4096, n=100, sigma=1.0, seed=77)
        a = one_shot_scores_gram(cfg)
        b = one_shot_scores_gram(cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_small_multi_block_draw_makes_no_child(self, monkeypatch):
        def no_fork():
            raise OSError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        cfg = OneShotConfig(d=2 ** 21, n=2000, sigma=1.0)  # 16 blocks, 2.1e6 entries
        assert len(canary._split(_blocks(cfg.n), cfg.d)[0]) == 16
        scores_p, scores_q = one_shot_scores_gram(cfg)
        assert scores_p.shape == scores_q.shape == (2000,)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the blocks run in turn without os.fork")
    def test_benchmark_shape_forks(self, monkeypatch):
        # n = 6000, d = 2^21 draws 1.8e7 entries: the fork is asked for
        # before any block is drawn
        def no_fork():
            raise OSError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(OSError, match="os.fork called"):
            one_shot_scores_gram(OneShotConfig(d=2 ** 21, n=6000, sigma=1.0))

    def test_memory_bounded_by_blocks(self):
        # a dense 4000 x 4000 factor alone would take 128 MB, the canaries
        # 32 GB; blocks of the factor stay a few MB
        cfg = OneShotConfig(d=2 ** 20, n=2000, sigma=1.0, seed=5)
        tracemalloc.start()
        try:
            one_shot_scores_gram(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def _blocks(t):
    starts = list(range(0, t, canary._ONE_SHOT_BLOCK))
    return list(zip(starts, [*starts[1:], t], [None] * len(starts)))


def _one_loop(cfg):
    """The sampler as one process drawing every block in one loop per pass."""
    extra = 1 if cfg.x_norm > 0 else 0
    t = extra + cfg.n
    starts = list(range(0, t, canary._ONE_SHOT_BLOCK))
    noise_seq, *seqs = np.random.SeedSequence(cfg.seed).spawn(len(starts) + 1)
    blocks = list(zip(starts, [*starts[1:], t], seqs))
    rng = np.random.default_rng(noise_seq)
    width = min(t, cfg.d)
    release = cfg.sigma * rng.standard_normal(width)
    buffer = np.empty(canary._ONE_SHOT_BLOCK * width)
    for start, stop, seq in blocks:
        rows, inv_norm = canary._factor_rows(cfg.d, start, stop, seq, buffer)
        if start == 0:
            inv_norm[:extra] *= cfg.x_norm
        release[:rows.shape[1]] += np.einsum("i,ij->j", inv_norm, rows)
    held_in = np.empty(t)
    for start, stop, seq in blocks:
        rows, inv_norm = canary._factor_rows(cfg.d, start, stop, seq, buffer)
        held_in[start:stop] = np.einsum("ij,j->i", rows, release[:rows.shape[1]]) * inv_norm
    norm2 = release @ release
    if cfg.d > width:
        norm2 += cfg.sigma ** 2 * rng.chisquare(cfg.d - width)
    return held_in[extra:], np.sqrt(norm2) * canary._cosines(rng, cfg.d, cfg.n)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the blocks run in turn without os.fork")
class TestTwoProcesses:
    """The sampler's passes split the row blocks between this process and a forked child."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # these small draws fork too, so they exercise the forked path
        monkeypatch.setattr(canary, "_ONE_SHOT_BLOCK", 16)
        monkeypatch.setattr(canary, "_FORK_MIN_ENTRIES", 0)

    @pytest.mark.parametrize("d,t,first", [
        (64, 16, 1),     # one block: no second side
        (64, 17, 1),     # two blocks, the second of one row
        (4096, 200, 9),  # the later blocks draw wider rows, so the cut lies past the middle
        (24, 100, 3),    # d < t: blocks of full rows draw equally
    ])
    def test_cut_halves_the_drawn_entries(self, d, t, first):
        mine, theirs = canary._split(_blocks(t), d)
        assert (len(mine), len(mine) + len(theirs)) == (first, len(_blocks(t)))

    @pytest.mark.parametrize("cfg", [
        OneShotConfig(d=64, n=100, sigma=1.0, x_norm=2.0, seed=1),  # a data row
        OneShotConfig(d=24, n=99, sigma=1.0, seed=2),                # d < n
        OneShotConfig(d=64, n=1, sigma=1.0, seed=3),                 # n = 1: one block
        OneShotConfig(d=4096, n=200, sigma=0.5, seed=4),             # the cut falls mid-way
    ], ids=["x_norm", "d<n", "n=1", "mid-way"])
    def test_forked_equals_in_turn(self, cfg, monkeypatch):
        # bit for bit, and equal to one loop over the blocks: the split keeps
        # the order in which the release sums the blocks
        forked = one_shot_scores_gram(cfg)
        assert no_child_left()
        monkeypatch.delattr(os, "fork")
        in_turn = one_shot_scores_gram(cfg)
        for a, b, c in zip(forked, in_turn, _one_loop(cfg)):
            assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_child_error_keeps_its_type_and_message(self, monkeypatch):
        draw = canary._factor_rows

        def failing(d, start, stop, seed_seq, buffer):
            if start >= 160:  # blocks [0, 9) start below 144 and stay in this process
                raise FloatingPointError(f"no block at {start}")
            return draw(d, start, stop, seed_seq, buffer)

        monkeypatch.setattr(canary, "_factor_rows", failing)
        with pytest.raises(FloatingPointError, match="^no block at 160$"):
            one_shot_scores_gram(OneShotConfig(d=4096, n=200, sigma=1.0))
        assert no_child_left()

    def test_child_without_a_result_exits_6_naming_the_sampler(self, capsys, monkeypatch):
        draw = canary._factor_rows

        def draw_or_die(d, start, stop, seed_seq, buffer):
            if start >= 144:
                os._exit(7)  # only ever reached in the child, which draws these blocks
            return draw(d, start, stop, seed_seq, buffer)

        monkeypatch.setattr(canary, "_factor_rows", draw_or_die)
        assert main(["canary", "--mode", "one-shot", "-d", "4096", "-n", "200", "--audit"]) == 6
        assert capsys.readouterr() == (
            "", "error: one-shot sampler: the forked process ended without a result "
                "(exit status 7)\n")
        assert no_child_left()

    def test_single_block_makes_no_child(self, monkeypatch):
        def no_fork():
            raise OSError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        for n in (1, 15, 16):
            scores_p, scores_q = one_shot_scores_gram(OneShotConfig(d=64, n=n, sigma=1.0))
            assert scores_p.shape == scores_q.shape == (n,)
        with pytest.raises(OSError, match="os.fork called"):
            one_shot_scores_gram(OneShotConfig(d=64, n=17, sigma=1.0))


class TestOneShotAudit:
    def test_deterministic_report(self):
        cfg = OneShotConfig(d=2048, n=200, sigma=1.0, seed=31)
        r1 = one_shot_audit(cfg)
        r2 = one_shot_audit(cfg)
        assert r1.method == "one-shot"
        assert np.array_equal(r1.profile.deltas, r2.profile.deltas)
        assert r1.epsilons == r2.epsilons

    def test_large_noise_gives_near_zero_epsilon(self):
        cfg = OneShotConfig(d=2048, n=20000, sigma=100.0, seed=37)
        report = one_shot_audit(cfg, AuditConfig(delta_targets=(0.05,)))
        assert report.epsilons[0].point == pytest.approx(0.0, abs=0.05)

    def test_recovers_gaussian_delta(self):
        from dpaudit.mechanisms import gaussian_delta
        cfg = OneShotConfig(d=2 ** 16, n=2000, sigma=1.0, seed=41)
        report = one_shot_audit(cfg)
        estimate = float(report.profile.delta_at(1.0))
        assert estimate == pytest.approx(gaussian_delta(1.0, 1.0), abs=0.05)


class TestWhiteboxStream:
    def test_deterministic(self):
        cfg = WhiteBoxConfig(iterations=500, canary_prob=0.5,
                             sigma=2.0, clip=1.0, d=512, seed=13)
        a = whitebox_stream(cfg)
        b = whitebox_stream(cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_always_included_canary_shifts_mean(self):
        cfg = WhiteBoxConfig(iterations=4000, canary_prob=1.0,
                             sigma=1.0, clip=1.5, d=2048, seed=17)
        out, out_primed = whitebox_stream(cfg)
        shift = out_primed.mean() - out.mean()
        # per-step inner product contributes clip^2 when included
        assert shift == pytest.approx(cfg.clip ** 2, abs=0.15)
        assert abs(out.mean()) < 0.15

    def test_score_variance_matches_noise_scale(self):
        cfg = WhiteBoxConfig(iterations=4000, canary_prob=1.0,
                             sigma=2.0, clip=1.0, d=4096, seed=19)
        out, _ = whitebox_stream(cfg)
        assert out.std() == pytest.approx(cfg.clip ** 2 * cfg.sigma, rel=0.1)

    def test_null_canaries_give_zero_epsilon(self):
        cfg = WhiteBoxConfig(iterations=20000, canary_prob=1e-12,
                             sigma=1.0, clip=1.0, d=256, seed=23)
        out, out_primed = whitebox_stream(cfg)
        report = histogram_audit(out_primed, out, AuditConfig(delta_targets=(0.05,)))
        assert report.epsilons[0].point == pytest.approx(0.0, abs=0.1)

    def test_nuisance_vector_is_bounded(self):
        cfg = WhiteBoxConfig(iterations=2000, canary_prob=0.5,
                             sigma=1.0, clip=1.0, d=1024, seed=29,
                             nuisance_norm=0.5)
        out, out_primed = whitebox_stream(cfg)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(out_primed))

    @pytest.mark.parametrize("d", [1, 2, 5, 64])
    @pytest.mark.parametrize("nuisance_norm", [0.0, 0.5])
    def test_matches_direct_law(self, d, nuisance_norm):
        cfg = WhiteBoxConfig(iterations=2 * 10 ** 4, canary_prob=0.5, sigma=0.7,
                             clip=1.3, d=d, seed=41, nuisance_norm=nuisance_norm)
        for exact, direct in zip(whitebox_stream(cfg), whitebox_stream_direct(cfg)):
            assert stats.ks_2samp(exact, direct).pvalue > 1e-3

    @pytest.mark.parametrize("d", [1, 2, 5, 64])
    @pytest.mark.parametrize("nuisance_norm", [0.0, 0.5])
    def test_closed_form_variance(self, d, nuisance_norm):
        # Var O = clip^4 sigma^2 + clip^2 nu^2 / d; O' adds clip^4 q (1 - q).
        # At 10**6 steps a sample variance is within 0.15% (1 sd) of its mean.
        cfg = WhiteBoxConfig(iterations=10 ** 6, canary_prob=0.3, sigma=0.7,
                             clip=1.3, d=d, seed=43, nuisance_norm=nuisance_norm)
        out, out_primed = whitebox_stream(cfg)
        held_out = cfg.clip ** 4 * cfg.sigma ** 2 + cfg.clip ** 2 * nuisance_norm ** 2 / d
        held_in = held_out + cfg.clip ** 4 * cfg.canary_prob * (1 - cfg.canary_prob)
        assert out.var() == pytest.approx(held_out, rel=0.01)
        assert out_primed.var() == pytest.approx(held_in, rel=0.01)

    def test_memory_bounded_by_outputs(self):
        # two 8 MB outputs at 10**6 steps; every temporary is block-sized
        iterations = 10 ** 6
        cfg = WhiteBoxConfig(iterations=iterations, canary_prob=0.5, sigma=1.0,
                             clip=1.0, d=64, seed=47, nuisance_norm=0.5)
        tracemalloc.start()
        try:
            whitebox_stream(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * iterations + 4 * 2 ** 20

    @pytest.mark.parametrize("iterations", [1, canary._WHITEBOX_BLOCK - 1,
                                            canary._WHITEBOX_BLOCK + 1,
                                            3 * canary._WHITEBOX_BLOCK + 4321])
    @pytest.mark.parametrize("d,nuisance_norm,canary_prob", [
        (64, 0.0, 0.3), (1, 0.5, 0.3), (64, 0.5, 0.3), (8, 0.0, 1.0)])
    def test_one_side_is_its_entry_of_the_pair(self, iterations, d, nuisance_norm,
                                               canary_prob):
        cfg = WhiteBoxConfig(iterations=iterations, canary_prob=canary_prob, sigma=0.7,
                             clip=1.3, d=d, seed=24, nuisance_norm=nuisance_norm)
        pair = whitebox_stream(cfg)
        for side in (0, 1):
            one = whitebox_stream(cfg, side)
            assert one.shape == (iterations,)
            assert one.tobytes() == pair[side].tobytes()

    @pytest.mark.parametrize("side", [0, 1])
    def test_one_side_holds_one_output(self, side):
        # besides its output, a side holds block-sized cosines and canary mask
        iterations = 10 ** 6
        cfg = WhiteBoxConfig(iterations=iterations, canary_prob=0.5, sigma=1.0,
                             clip=1.0, d=64, seed=47, nuisance_norm=0.5)
        tracemalloc.start()
        try:
            whitebox_stream(cfg, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * iterations + 4 * 2 ** 20

    # without nuisance, O holds only its output and O' one block's canary mask
    @pytest.mark.parametrize("side,extra", [(0, 2 ** 17), (1, 2 ** 20)])
    def test_one_side_without_nuisance_holds_its_output(self, side, extra):
        iterations = 10 ** 6
        cfg = WhiteBoxConfig(iterations=iterations, canary_prob=0.5, sigma=1.0,
                             clip=1.0, d=64, seed=47)
        tracemalloc.start()
        try:
            whitebox_stream(cfg, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * iterations + extra

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WhiteBoxConfig(iterations=0, canary_prob=0.5,
                           sigma=1.0, clip=1.0, d=8)
        with pytest.raises(ValueError):
            WhiteBoxConfig(iterations=10, canary_prob=1.5,
                           sigma=1.0, clip=1.0, d=8)

    def test_composed_stream_matches_reference_accountant(self):
        # a noisy-sum step projected on a unit canary is exactly N(0, C^2 s^2),
        # so the q_c=1/2, sigma=2 stream realizes the mixture pair at any d;
        # composing the per-step histogram c=10 times must track the analytic
        # accountant for that pair
        from dpaudit.histogram import auto_spec, build_histograms
        from dpaudit.mechanisms import SubsampledGaussianMechanism
        from dpaudit.pld import compose_profile

        cfg = WhiteBoxConfig(iterations=10 ** 5, canary_prob=0.5,
                             sigma=2.0, clip=1.0, d=64, seed=99)
        out, out_primed = whitebox_stream(cfg)
        hist = build_histograms(out_primed, out, auto_spec(out_primed, out))
        eps_grid = np.linspace(0.0, 3.0, 31)
        estimated = compose_profile(hist.p_hat, hist.q_hat, 10, eps_grid)

        p_ref, q_ref = SubsampledGaussianMechanism(0.5, 2.0).bin_masses(width=5e-3)
        reference = compose_profile(p_ref, q_ref, 10, eps_grid)
        assert np.max(np.abs(estimated.deltas - reference.deltas)) <= 0.02
