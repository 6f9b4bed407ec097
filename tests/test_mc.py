"""Monte Carlo estimators: reproducibility, distributional fidelity, and
agreement with the quadrature oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import special, stats as sps

from fdrelay import (
    Allocation,
    DomainError,
    SystemConfig,
    UnsupportedModulationError,
    draw_gammas,
    estimate_outage,
    estimate_ser_semianalytic,
    estimate_ser_symbol_level,
    link_stats,
    ser_quadrature,
    sinr_cdf_exact_numeric,
)
from fdrelay import analytic, mc, sfun
from fdrelay.mc import CHUNK_SAMPLES, stream

from conftest import (
    importance_map,
    outage_chunk_oracle,
    outage_conditional_group_means,
    outage_group_pairs,
    outage_indicator_oracle,
    outage_pair_oracle,
    outage_whole_group_means,
    ser_chunk_oracle,
    ser_conditional_group_means,
    ser_fading_oracle,
    ser_group_pairs,
    ser_pair_oracle,
    ser_quantile_group_means,
    ser_whole_group_means,
    sinr_cdf_upper_bound,
    sinr_exact,
    stats_at,
    symbol_level_complex_oracle,
    tail_stretch,
)

# mpmath, 30 digits: the SER alpha E[Q(sqrt(beta ab / (a + b + 1)))] at the
# symmetric allocation, as alpha int_0^inf phi(z) F(z^2 / beta) dz, with the
# SINR's CDF F by nested quadrature over the relay-destination excess at 36
# digits; the same at 30 digits agrees to 31. At eps = 0 it agrees with the
# K1 form of F to 34 digits, at eps > 0 with a double-precision quadrature
# over g_li of the K1 form to 1e-15
SER_TABLE = [
    # p_db, eps, v, modulation, SER
    (40.0, 0.0, 3.0, "bpsk", 1.25071792644170304076409335637e-05),
    (60.0, 0.0, 3.0, "bpsk", 1.25001077778989296155587903061e-07),
    (20.0, 0.1, 3.0, "bpsk", 4.47618042750692719261934119943e-03),
    (25.0, 0.3, 2.5, "qpsk", 4.93336831006898598204949165702e-02),
    (0.0, 0.1, 3.0, "bpsk", 1.31536147463494632112826419125e-01),
]

# the outage at threshold 1, symmetric allocation, v = 3, by 30-digit
# quadrature of the kernel over the relay-destination excess
OUTAGE_EXACT = [
    # p_db, eps, outage
    (40.0, 0.0, 5.00241808630e-5),
    (60.0, 0.1, 0.0123462845678),
]

# evaluations per lattice group, and sizes that cut the groups into one
# block; 856 groups, an outage block (two SER blocks) and a ragged 4-group
# tail; and 1 744 groups over three threads' worth of samples
GROUP = 2 * mc._GROUP
BLOCK_SIZES = (10_000,
               GROUP * (856 + mc._BLOCK_UNIFORMS // mc._GROUP + 4),
               2 * CHUNK_SAMPLES + 12_345)


class RepeatedRow:
    """A stand-in for mc.stream whose rows of len(row) uniforms all equal
    row."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            return np.resize(self.row, size)
        out[...] = np.resize(self.row, out.shape)
        return out


def zero_rsi_outage(x: float, stats) -> float:
    """P(ab / (a + b + 1) <= x) for independent exponential SNRs a and b of
    means lambda_sr and lambda_rd, the SINR the MC samples at eps = 0:
    1 - k K1(k) e^(-x (1/lambda_sr + 1/lambda_rd)), k = 2 sqrt(x (x + 1) /
    (lambda_sr lambda_rd)) (Hasna & Alouini, IEEE TWC 2003)."""
    lsr, lrd = stats.lambda_sr, stats.lambda_rd
    k = 2.0 * math.sqrt(x * (x + 1.0) / (lsr * lrd))
    return 1.0 - k * sfun.bessel_k1(k) * math.exp(-x * (1.0 / lsr + 1.0 / lrd))


def exact_ser(stats, cfg: SystemConfig) -> float:
    """The SER of the SINR ab / (a + b + 1) that the Monte Carlo samples:
    alpha E[Q(sqrt(beta SINR))] by quadrature over its exact CDF."""
    return analytic.ser_from_cdf(analytic._cdf(stats, True), cfg)


def excess_limit(x: float, stats) -> float:
    """The conditional outage at threshold x given an infinite
    relay-destination excess: k = x, so c = x / lambda_sr and the value is
    (d - expm1(-s)) / (1 + d) with d = c lambda_li, s = x / lambda_rd + c."""
    c = x / stats.lambda_sr
    d = c * stats.lambda_li
    return (d - math.expm1(-(x / stats.lambda_rd + c))) / (1.0 + d)


class TestSinrForms:
    def test_zero_source_snr(self):
        assert sinr_exact(0.0, 5.0, 2.0) == 0.0

    def test_hand_values(self):
        assert sinr_exact(3.0, 3.0, 0.0) == pytest.approx(9.0 / 7.0, rel=1e-15)
        assert sinr_exact(3.0, 3.0, 1.0) == pytest.approx(9.0 / 11.0, rel=1e-15)

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1e4))
    @settings(max_examples=300, deadline=None)
    def test_harmonic_bound_and_equivalence(self, gsr, grd, gli):
        got = sinr_exact(gsr, grd, gli)
        assert 0.0 <= got <= min(gsr / (gli + 1.0), grd) + 1e-12


class TestDrawGammas:
    def test_zero_interference_strictly_zero(self):
        _, stats = stats_at(20.0, 0.0)
        _, _, g_li = draw_gammas(stats, stream(1).random(3 * 10_000).reshape(10_000, 3))
        assert np.all(g_li == 0.0)

    def test_inverse_cdf_into_out(self):
        # the rows of out are -lambda log1p(-u) of columns 0, 1, 2 bit for
        # bit, whether out is given (a block's workspace) or allocated
        _, stats = stats_at(20.0, 0.1)
        u = stream(4).random(9 * 1000).reshape(1000, 9)
        want = [-lam * np.log1p(-u[:, k]) for k, lam in
                enumerate((stats.lambda_sr, stats.lambda_rd, stats.lambda_li))]
        out = np.full((3, 1000), np.nan)
        assert draw_gammas(stats, u, out=out) is out
        for got in (out, draw_gammas(stats, u)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_sample_means(self):
        _, stats = stats_at(20.0, 0.1)
        n = 1_000_000
        g_sr, g_rd, g_li = draw_gammas(stats, stream(2).random(3 * n).reshape(n, 3))
        for sample, lam in ((g_sr, stats.lambda_sr), (g_rd, stats.lambda_rd),
                            (g_li, stats.lambda_li)):
            assert abs(sample.mean() - lam) <= 4.0 * lam / math.sqrt(n)

    def test_two_hop_ratio_event_matches_exact_cdf(self):
        # Pr{(X - x)(g_rd - x) > x^2, g_rd > x} is exactly the survivor of
        # the upper-bound SINR ab/(a + b) that the oracle integrates;
        # sampling that event directly shows no bias
        from fdrelay import LinkStats
        stats = LinkStats(lambda_sr=40.0, lambda_rd=40.0, lambda_li=5.0, eta=0.125)
        n = 2_000_000
        g_sr, g_rd, g_li = draw_gammas(stats, stream(17).random(3 * n).reshape(n, 3))
        ratio = g_sr / (g_li + 1.0)
        for x in (0.5, 1.0, 2.0):
            emp = float(np.mean((g_rd > x) & ((ratio - x) * (g_rd - x) > x * x)))
            want = 1.0 - sinr_cdf_upper_bound(x, stats)
            se = math.sqrt(want * (1.0 - want) / n)
            assert abs(emp - want) <= 3.0 * se

    @pytest.mark.parametrize("p_db", [0.0, 20.0])
    def test_exact_cdf_matches_crude_sampler(self, p_db):
        # the count of draws of ab/(a + b + 1) below x, which uses neither
        # the partial fractions of the exact route nor the conditional
        # kernel of estimate_outage, within 3 sigma at eps 0.1; the
        # upper-bound CDF misses by 118 sigma at 0 dB and 3.9 sigma at 20 dB
        _, stats = stats_at(p_db, 0.1)
        crude = outage_indicator_oracle(stats, 1.0, 1_000_000, seed=31)
        assert abs(crude.value - sinr_cdf_exact_numeric(1.0, stats)) <= 3.0 * crude.std_error

    def test_first_hop_ratio_distribution(self):
        # X = g_sr / (g_li + 1) has survivor e^(-x/l_sr) / (1 + eta x);
        # Kolmogorov-Smirnov distance of the empirical law stays below 2/sqrt(n)
        _, stats = stats_at(20.0, 0.1)
        n = 100_000
        g_sr, _, g_li = draw_gammas(stats, stream(3).random(3 * n).reshape(n, 3))
        x = np.sort(g_sr / (g_li + 1.0))
        cdf = 1.0 - np.exp(-x / stats.lambda_sr) / (1.0 + stats.eta * x)
        grid = np.arange(1, n + 1) / n
        ks = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / n - cdf))))
        assert ks < 2.0 / math.sqrt(n)


class TestReproducibility:
    def test_same_seed_same_estimate(self):
        _, stats = stats_at(20.0, 0.1)
        a = estimate_outage(stats, 1.0, 50_000, seed=7)
        b = estimate_outage(stats, 1.0, 50_000, seed=7)
        assert a == b

    def test_worker_count_invariance(self):
        cfg, stats = stats_at(20.0, 0.1)
        # spans multiple chunks so scheduling actually varies
        n = CHUNK_SAMPLES * 2 + 12_345
        for fn in (
            lambda w: estimate_outage(stats, 1.0, n, seed=3, workers=w),
            lambda w: estimate_ser_semianalytic(stats, cfg, n, seed=3, workers=w),
        ):
            one = fn(1)
            for workers in (2, 4):
                other = fn(workers)
                assert one.value == other.value
                assert one.std_error == other.std_error

    def test_symbol_level_worker_invariance(self):
        cfg, stats = stats_at(20.0, 0.1)
        n = CHUNK_SAMPLES + 50_000
        one = estimate_ser_symbol_level(stats, cfg, n, seed=5, workers=1)
        four = estimate_ser_symbol_level(stats, cfg, n, seed=5, workers=4)
        assert one == four

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_outage_blocks_change_no_bit(self, eps):
        # BLOCK_SIZES against chunks drawn and evaluated whole
        _, stats = stats_at(20.0, eps)
        for n in BLOCK_SIZES:
            want = outage_chunk_oracle(stats, 1.0, n, seed=19)
            for workers in (1, 2, 4):
                got = estimate_outage(stats, 1.0, n, seed=19, workers=workers)
                assert (got.value, got.std_error, got.n_samples) == \
                    (want.value, want.std_error, want.n_samples), (n, workers)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
    def test_ser_blocks_change_no_bit(self, eps, modulation):
        cfg, stats = stats_at(20.0, eps, modulation=modulation)
        for n in BLOCK_SIZES:
            want = ser_chunk_oracle(stats, cfg, n, seed=23)
            for workers in (1, 2, 4):
                got = estimate_ser_semianalytic(stats, cfg, n, seed=23, workers=workers)
                assert (got.value, got.std_error, got.n_samples) == \
                    (want.value, want.std_error, want.n_samples), (n, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_statistics_read_the_whole_array(self, workers):
        # the fsum mean and the two-pass variance of every group mean at once,
        # not of chunks merged pairwise
        cfg, stats = stats_at(20.0, 0.1, modulation="qpsk")
        n = 2 * CHUNK_SAMPLES + 12_345
        for est, g in (
            (estimate_outage(stats, 1.0, n, seed=41, workers=workers),
             outage_whole_group_means(stats, 1.0, n, seed=41)),
            (estimate_ser_semianalytic(stats, cfg, n, seed=41, workers=workers),
             ser_whole_group_means(stats, cfg, n, seed=41)),
        ):
            mean = math.fsum(g) / g.size
            d = g - mean
            want = math.sqrt(float((d * d).sum()) / (g.size - 1) / g.size)
            assert (est.value, est.std_error) == (mean, want)
            assert est == mc._mean_estimate(g, 41)

    @pytest.mark.parametrize("n", [10_001, 2 * CHUNK_SAMPLES + 12_345])
    def test_n_rounds_up_to_whole_groups(self, n):
        # n runs ceil(n / 466) lattice groups, so it is the estimate at the
        # next multiple of 466 bit for bit, at any worker count
        cfg, stats = stats_at(20.0, 0.1)
        whole = -(-n // GROUP) * GROUP
        assert whole > n
        for fn in (
            lambda m, w: estimate_outage(stats, 1.0, m, seed=37, workers=w),
            lambda m, w: estimate_ser_semianalytic(stats, cfg, m, seed=37, workers=w),
        ):
            want = fn(whole, 1)
            assert want.n_samples == whole
            for workers in (1, 2, 4):
                assert fn(n, workers) == want, workers

    def test_symbol_level_split_changes_no_count(self):
        # n is a multiple of neither the block nor any worker's share
        cfg, stats = stats_at(20.0, 0.1)
        n = CHUNK_SAMPLES + 50_003
        want = symbol_level_complex_oracle(stats, n, seed=29)
        for workers in (1, 2, 3, 4):
            got = estimate_ser_symbol_level(stats, cfg, n, seed=29, workers=workers)
            assert got == want, workers

    def test_different_seeds_differ(self):
        _, stats = stats_at(20.0, 0.1)
        a = estimate_outage(stats, 1.0, 50_000, seed=1)
        b = estimate_outage(stats, 1.0, 50_000, seed=2)
        assert a.value != b.value

    def test_stream_offset_alignment(self):
        whole = stream(11).random(12)
        head = stream(11).random(8)
        tail = stream(11, uniform_offset=8).random(4)
        assert np.array_equal(whole, np.concatenate([head, tail]))
        with pytest.raises(DomainError):
            stream(11, uniform_offset=6)


class TestMeanEstimate:
    """mc._mean_estimate against exact rational arithmetic on seeded arrays
    of group means: uniform, spread over twelve decades, and near-constant
    (1 - k ulp, or 1e-5 (1 + k ulp)) with k < 9, where raw sums of squares
    would cancel to noise."""

    @seed(20170322)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 300),
           st.sampled_from(["uniform", "decades", "near-one", "near-small"]))
    def test_against_fractions(self, draw_seed, n, kind):
        rng = np.random.default_rng(draw_seed)
        k = rng.integers(0, 9, n)
        g = {"uniform": lambda: rng.random(n),
             "decades": lambda: 10.0 ** rng.uniform(-12.0, 0.0, n),
             "near-one": lambda: 1.0 - k * 2.0 ** -53,
             "near-small": lambda: 1e-5 * (1.0 + k * 2.0 ** -52)}[kind]()
        exact = [Fraction(x) for x in g.tolist()]
        total = sum(exact)
        mu = total / n
        se = math.sqrt(float(sum((x - mu) ** 2 for x in exact) / (n - 1) / n))
        differ = len(set(exact)) > 1
        est = mc._mean_estimate(g, 5)
        assert (est.n_samples, est.seed) == (GROUP * n, 5)
        # the exactly rounded sum over n: two roundings, so at most half an
        # ulp of the mean plus half an ulp of the sum over n from the exact mean
        assert est.value == float(total) / n
        assert abs(Fraction(est.value) - mu) <= (Fraction(math.ulp(est.value)) / 2
                                                 + Fraction(math.ulp(float(total))) / (2 * n))
        assert abs(est.std_error - se) <= max(1e-12 * se, 2.0 * math.ulp(est.value))
        assert est.std_error > 0.0 or not differ

    @pytest.mark.parametrize("x", [1.0 - 2.0**-53, 1.0 - 3 * 2.0**-53, 0.1, 1e-5, 0.7])
    def test_equal_means_have_zero_std_error(self, x):
        # fsum(n x) / n need not round back to x, and then every deviation is
        # the same nonzero d; the excess n d must cancel their squares exactly
        for n in range(2, 300):
            assert mc._mean_estimate(np.full(n, x), 5).std_error == 0.0, n


class TestAntitheticPairs:
    @given(st.floats(-20.0, 80.0), st.floats(0.0, 10.0), st.floats(1.5, 6.0),
           st.sampled_from(["bpsk", "qpsk"]), st.floats(1e-3, 1e3),
           st.integers(0, 2**32))
    @seed(20170322)
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_independent_draws(self, p_db, eps, v, modulation, x,
                                                mc_seed):
        # the kernel falls as its excess uniform rises and as the threshold
        # falls; at the normal-quantile thresholds ndtri(u0 / 2)^2 / beta it
        # is monotone in both uniforms, so its values at u and at 1 - u never
        # covary positively (Ross, Simulation, section 9.2). The estimator's
        # importance weights rise and then fall in t, so its own pairs are
        # not claimed monotone. The sample covariance of 2**15 pairs may
        # exceed 0 by sampling noise only: 6 standard errors of its mean of
        # products
        cfg, stats = stats_at(p_db, eps, v, modulation=modulation)
        m = mc._BLOCK_UNIFORMS // 2
        u = stream(mc_seed, mc._TAG_OUTAGE).random(m)
        outage = (mc._outage_given_excess(u.copy(), x, stats),
                  mc._outage_given_excess(1.0 - u, x, stats))
        u0, u1 = stream(mc_seed, mc._TAG_SER).random(2 * m).reshape(m, 2).T.copy()

        def threshold(w):
            return special.ndtri(w * 0.5) ** 2 / cfg.beta_mod

        ser = (mc._outage_given_excess(u1.copy(), threshold(u0), stats),
               mc._outage_given_excess(1.0 - u1, threshold(1.0 - u0), stats))
        for h, g in (outage, ser):
            products = (h - h.mean()) * (g - g.mean())
            margin = 6.0 * float(products.std()) / math.sqrt(m)
            assert float(products.mean()) <= margin

    @pytest.mark.parametrize("p_db, eps", [(20.0, 0.1), (0.0, 0.1), (40.0, 0.0), (60.0, 0.1)])
    def test_reported_error_is_honest(self, p_db, eps):
        # the seed-to-seed spread of 200 estimates of 1e4 evaluations
        # against their RMS std_error: the ratio of the variances lies in
        # the two-sided 0.1 % band of chi^2 with 199 degrees of freedom over
        # 199, also where the kernel's tail near u = 0 carries the variance
        cfg, stats = stats_at(p_db, eps)
        seeds = range(3000, 3200)
        lo, hi = sps.chi2.ppf([0.0005, 0.9995], len(seeds) - 1) / (len(seeds) - 1)
        for fn in (lambda s: estimate_outage(stats, 1.0, 10_000, seed=s),
                   lambda s: estimate_ser_semianalytic(stats, cfg, 10_000, seed=s)):
            ests = [fn(s) for s in seeds]
            spread = float(np.var([e.value for e in ests], ddof=1))
            reported = float(np.mean([e.std_error ** 2 for e in ests]))
            assert lo <= spread / reported <= hi

    @pytest.mark.parametrize("p_db, eps, want", OUTAGE_EXACT)
    def test_error_bars_cover_the_exact_outage(self, p_db, eps, want):
        # 40 estimates of 1e6 evaluations: with an honest std_error each lies
        # more than 3 sigma off with probability 2 Q(3) = 0.27 %, so more
        # misses than the binomial law's 0.1 % upper tail (2) fail. Antithetic
        # pairs missed 18 and 14 of these 40
        _, stats = stats_at(p_db, eps)
        seeds = range(2000, 2040)
        bound = sps.binom.isf(1e-3, len(seeds), 2.0 * sps.norm.sf(3.0))
        ests = [estimate_outage(stats, 1.0, 1_000_000, seed=s) for s in seeds]
        misses = sum(abs(e.value - want) > 3.0 * e.std_error for e in ests)
        assert misses <= bound, misses

    def test_pair_weights_sum_to_two(self):
        # the stretch's weights are T'(v) of the points and 2 - T'(v) of the
        # mirrors, which is T'(1 - v): each pair's weights sum to exactly 2,
        # so a pair mean stays within its values' range and a certain event
        # averages to exactly 1. The coordinates become T(v), within [0, 1]
        s = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53], stream(5, mc._TAG_OUTAGE).random(997)])
        v = mc._lattice(s, mc._columns(), np.empty((2, s.size, mc._GROUP)))
        points, mirrors = v[0].copy(), v[1].copy()
        w = mc._stretch(v, np.empty(s.size * mc._GROUP), np.empty((s.size, 2 * mc._EDGE)))
        assert w.shape == (s.size, 2 * mc._EDGE)
        assert np.all((0.0 <= w) & (w <= 2.0))
        assert np.all(w + (2.0 - w) == 2.0)
        edge = points[:, :2 * mc._EDGE]
        np.testing.assert_allclose(w, tail_stretch(edge)[1], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(2.0 - w, tail_stretch(1.0 - edge)[1], rtol=1e-12, atol=1e-15)
        assert np.all(tail_stretch(points[:, 2 * mc._EDGE:])[1] == 1.0)
        assert np.all(tail_stretch(mirrors[:, 2 * mc._EDGE:])[1] == 1.0)
        for stretched, raw in ((v[0], points), (v[1], mirrors)):
            np.testing.assert_allclose(stretched, tail_stretch(raw)[0], rtol=1e-12, atol=1e-15)
        assert np.all((0.0 <= v) & (v <= 1.0))
        zero = int(np.flatnonzero(mc._columns() == 0)[0])     # point 0 at shift 0
        assert (v[0, 0, zero], v[1, 0, zero], w[0, zero]) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("p_db, eps, v, modulation", [
        (0.0, 0.1, 3.0, "bpsk"), (20.0, 0.1, 3.0, "bpsk"), (25.0, 0.3, 2.5, "qpsk"),
    ])
    def test_groups_beat_pairs(self, p_db, eps, v, modulation):
        # at equal evaluations, the lattice groups report at least 10x less
        # variance than the antithetic pairs they replaced, away from the
        # tail that made the pairs' std_error understate their spread
        cfg, stats = stats_at(p_db, eps, v, modulation=modulation)
        n = 1_000_000
        for group, pair in (
            (estimate_outage(stats, 1.0, n, seed=61), outage_pair_oracle(stats, 1.0, n, seed=61)),
            (estimate_ser_semianalytic(stats, cfg, n, seed=62),
             ser_pair_oracle(stats, cfg, n, seed=62)),
        ):
            assert abs(group.value - pair.value) <= 3.0 * math.hypot(group.std_error,
                                                                      pair.std_error)
            assert group.n_samples * group.std_error ** 2 \
                <= 0.1 * pair.n_samples * pair.std_error ** 2

    @pytest.mark.parametrize("p_db, eps, v, modulation", [
        (0.0, 0.1, 3.0, "bpsk"), (20.0, 0.1, 3.0, "bpsk"), (25.0, 0.3, 2.5, "qpsk"),
    ])
    def test_importance_map_beats_the_quantile(self, p_db, eps, v, modulation):
        # at equal evaluations, the importance-weighted groups with their
        # control variate report at most a fifth of the variance of the
        # normal-quantile groups they replaced, and agree with them
        cfg, stats = stats_at(p_db, eps, v, modulation=modulation)
        n = 1_000_000
        est = estimate_ser_semianalytic(stats, cfg, n, seed=63)
        old = mc._mean_estimate(ser_quantile_group_means(stats, cfg, n, seed=64), 64)
        assert est.n_samples == old.n_samples
        assert abs(est.value - old.value) <= 3.0 * math.hypot(est.std_error, old.std_error)
        assert est.std_error ** 2 <= 0.2 * old.std_error ** 2


class TestEstimateOutage:
    def test_zero_threshold(self):
        _, stats = stats_at(20.0, 0.1)
        est = estimate_outage(stats, 0.0, 20_000, seed=1)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_huge_threshold(self):
        _, stats = stats_at(20.0, 0.1)
        est = estimate_outage(stats, 1e12, 20_000, seed=1)
        assert est.value == 1.0

    def test_against_exact_cdf(self):
        _, stats = stats_at(20.0, 0.1)
        n = 1_000_000
        for x in (0.5, 1.0, 2.0, 4.0):
            est = estimate_outage(stats, x, n, seed=42)
            want = sinr_cdf_exact_numeric(x, stats)
            assert abs(est.value - want) <= 3.0 * est.std_error + 0.05 * want

    def test_zero_rsi_closed_form(self):
        # the closed form gives OUTAGE_EXACT's 30-digit quadrature at 40 dB
        # and lies within 4 sigma of 1e6 samples at each power
        (p_db, eps, want), = [row for row in OUTAGE_EXACT if row[1] == 0.0]
        got = zero_rsi_outage(1.0, stats_at(p_db, eps)[1])
        assert abs(got - want) <= 1e-10 * want
        for p_db in (0.0, 20.0, 40.0, 60.0):
            _, stats = stats_at(p_db, 0.0)
            est = estimate_outage(stats, 1.0, 1_000_000, seed=7)
            assert abs(est.value - zero_rsi_outage(1.0, stats)) <= 4.0 * est.std_error, p_db

    def test_indicator_stderr_bound(self):
        # a conditional probability varies less than the indicator it averages
        _, stats = stats_at(20.0, 0.1)
        est = estimate_outage(stats, 1.0, 40_000, seed=9)
        assert est.std_error <= 1.0 / (2.0 * math.sqrt(est.n_samples))
        assert est.std_error <= math.sqrt(est.value * (1 - est.value) / est.n_samples)
        assert est.count is None

    def test_count_is_the_integer_behind_the_value(self):
        # symbol level is the one counting estimator left; the crude outage
        # count survives as the test oracle
        cfg, stats = stats_at(20.0, 0.1)
        n = CHUNK_SAMPLES + 50_000
        sym = estimate_ser_symbol_level(stats, cfg, n, seed=9, workers=2)
        crude = outage_indicator_oracle(stats, 1.0, n, seed=9)
        assert sym.count == symbol_level_complex_oracle(stats, n, seed=9).count
        g_sr, g_rd, g_li = draw_gammas(stats, stream(9, 1).random(3 * n).reshape(n, 3))
        assert crude.count == int(np.count_nonzero(sinr_exact(g_sr, g_rd, g_li) < 1.0))
        for est in (sym, crude):
            assert type(est.count) is int
            assert est.value == est.count / n

    @pytest.mark.parametrize("p_db, eps, v, x, mc_seed", [
        (0.0, 0.1, 3.0, 1.0, 101),
        (10.0, 0.0, 3.0, 1.0, 102),
        (20.0, 0.1, 3.0, 0.5, 103),
        (20.0, 0.1, 3.0, 4.0, 104),
        (30.0, 1.0, 2.0, 2.0, 105),
        (25.0, 0.3, 4.5, 1.0, 106),
        (40.0, 0.0, 3.0, 1.0, 107),
    ])
    def test_against_indicator_oracle(self, p_db, eps, v, x, mc_seed):
        # independent streams: the oracle runs on seed + 1000
        _, stats = stats_at(p_db, eps, v)
        n = 2_000_000
        est = estimate_outage(stats, x, n, seed=mc_seed, workers=2)
        crude = outage_indicator_oracle(stats, x, n, seed=mc_seed + 1000)
        assert crude.count > 0
        assert abs(est.value - crude.value) <= 3.0 * math.hypot(est.std_error,
                                                                crude.std_error)
        assert est.std_error <= crude.std_error
        if p_db == 40.0:
            # the rare event at eps = 0; the exact per-sample ratio is ~28 900
            assert (crude.std_error / est.std_error) ** 2 >= 100.0

    def test_std_error_is_two_pass(self):
        # near-constant group means (outage ~0.992, spread ~9e-9 relative):
        # s2/n - mean^2 from raw sums cancels to rounding noise here
        _, stats = stats_at(60.0, 1e3)
        n = 2 * CHUNK_SAMPLES + 12_345
        est = estimate_outage(stats, 1.0, n, seed=13, workers=2)
        groups = outage_conditional_group_means(stats, 1.0, n, seed=13)
        assert est.n_samples == GROUP * groups.size
        assert est.value == pytest.approx(float(groups.mean()), rel=1e-12)
        want = float(np.std(groups, ddof=1)) / math.sqrt(groups.size)
        assert want > 0.0
        assert est.std_error == pytest.approx(want, rel=1e-6)
        raw = max(float(np.mean(groups * groups)) - float(groups.mean()) ** 2, 0.0)
        assert raw == 0.0 or not 0.5 < raw / np.var(groups) < 2.0

    def test_ser_follows_the_derivation(self):
        # the SER's group means, from the Fibonacci lattice in the order of
        # its definition, on the estimator's stream
        cfg, stats = stats_at(20.0, 0.1, modulation="qpsk")
        n = CHUNK_SAMPLES + 12_345
        est = estimate_ser_semianalytic(stats, cfg, n, seed=17, workers=2)
        groups = ser_conditional_group_means(stats, cfg, n, seed=17)
        assert est.n_samples == GROUP * groups.size
        assert est.value == pytest.approx(float(groups.mean()), rel=1e-12)
        want = float(np.std(groups, ddof=1)) / math.sqrt(groups.size)
        assert est.std_error == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_zero_uniform_is_certain_outage(self, monkeypatch, eps):
        # a zero shift puts lattice point 0 at v = 0, a relay-destination
        # excess E = 0: k = x (x + 1 + E) / E is infinite and the evaluation
        # is an outage, whatever lambda_li, at weight T'(0) = 0. Its mirror 1
        # gives E = inf, where k is its limit x, at weight 2, so that pair's
        # mean is the limit. Every group has the zero shift
        monkeypatch.setattr(mc, "stream", lambda *args: RepeatedRow([0.0]))
        _, stats = stats_at(20.0, eps)
        x = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            own, partner = mc._outage_given_excess(np.array([0.0, 1.0]), x, stats)
            est = estimate_outage(stats, x, 20_000, seed=1)
        assert own == 1.0
        assert partner == pytest.approx(excess_limit(x, stats), rel=1e-14)
        rest = outage_group_pairs(stats, x, np.arange(1, mc._GROUP) / mc._GROUP)
        want = (math.fsum(rest) + excess_limit(x, stats)) / mc._GROUP
        assert est.value == pytest.approx(want, rel=1e-14)
        assert est.std_error <= 1e-15 * est.value

    @given(st.floats(-20.0, 150.0), st.floats(0.0, 1e3), st.floats(1.5, 6.0),
           st.floats(0.0, 1e6), st.integers(0, 2**32))
    @seed(20170322)
    @settings(max_examples=200, deadline=None)
    def test_finite_probability(self, p_db, eps, v, x, mc_seed):
        _, stats = stats_at(p_db, eps, v)
        est = estimate_outage(stats, x, 10_000, seed=mc_seed)
        assert math.isfinite(est.value) and 0.0 <= est.value <= 1.0
        assert math.isfinite(est.std_error) and est.std_error >= 0.0

    def test_extremes_overflow_silently(self):
        # an infinite c (x / lambda_sr past the largest double) is the limit
        # the kernel clamps on purpose, so neither lattice estimator warns,
        # at threshold 1e300 or at link SNRs of 1e-300 and 1e300
        from fdrelay import LinkStats

        cfg = SystemConfig(total_power=1.0, rsi_level=0.1, pathloss_exp=3.0)
        extremes = [LinkStats(lambda_sr=sr, lambda_rd=rd, lambda_li=li, eta=min(li / sr, 1e300))
                    for sr in (1e-300, 1e300) for rd in (1e-300, 1e300)
                    for li in (0.0, 1e-300, 1e300)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stats in [stats_at(20.0, 0.1)[1], *extremes]:
                for x in (1.0, 1e300):
                    assert 0.0 <= estimate_outage(stats, x, 10_000, seed=2).value <= 1.0
                assert 0.0 <= estimate_ser_semianalytic(stats, cfg, 10_000, seed=2).value <= 0.5

    def test_preconditions(self):
        _, stats = stats_at(20.0, 0.1)
        with pytest.raises(DomainError):
            estimate_outage(stats, 1.0, 100, seed=1)
        with pytest.raises(DomainError):
            estimate_outage(stats, -1.0, 20_000, seed=1)
        with pytest.raises(DomainError):
            estimate_outage(stats, math.nan, 20_000, seed=1)


class TestEstimateSerSemianalytic:
    def test_vanishing_first_hop_gives_half(self):
        # SINR collapses to 0, so every sample contributes Q(0) = 1/2
        from fdrelay import LinkStats
        cfg, _ = stats_at(20.0, 0.1)
        stats = LinkStats(lambda_sr=1e-12, lambda_rd=400.0, lambda_li=0.0, eta=0.0)
        est = estimate_ser_semianalytic(stats, cfg, 20_000, seed=2)
        assert est.value == pytest.approx(cfg.alpha_mod / 2.0, rel=1e-5)

    def test_counts_nothing(self):
        cfg, stats = stats_at(20.0, 0.1)
        assert estimate_ser_semianalytic(stats, cfg, 20_000, seed=2).count is None

    def test_against_quadrature(self):
        cfg, stats = stats_at(20.0, 0.1)
        est = estimate_ser_semianalytic(stats, cfg, 1_000_000, seed=11)
        want = ser_quadrature(stats, cfg)
        # 5% systematic allowance for the high-power CDF truncation
        assert abs(est.value - want) <= 3.0 * est.std_error + 0.05 * want

    def test_rsi_strictly_hurts_at_high_power(self):
        cfg_a, stats_a = stats_at(60.0, 0.1)
        cfg_b, stats_b = stats_at(60.0, 0.01)
        a = estimate_ser_semianalytic(stats_a, cfg_a, 200_000, seed=21)
        b = estimate_ser_semianalytic(stats_b, cfg_b, 200_000, seed=21)
        assert a.value > b.value

    def test_stderr_scales_inverse_sqrt(self):
        # at n = 1e4 the std_error rests on 22 lattice groups, so one seed's
        # fitted slope has sd ~0.05; the mean over 16 seeds has sd ~0.012
        cfg, stats = stats_at(20.0, 0.1)
        ns = [10_000, 100_000, 1_000_000]
        slopes = []
        for seed in range(31, 47):
            errs = [estimate_ser_semianalytic(stats, cfg, n, seed=seed).std_error for n in ns]
            slopes.append(np.polyfit(np.log(ns), np.log(errs), 1)[0])
        assert abs(np.mean(slopes) + 0.5) < 0.05, slopes

    def test_survivor_matches_exact_cdf_at_thresholds(self):
        # empirical survivor of the sampled SINR against its exact CDF
        _, stats = stats_at(30.0, 0.1)
        n = 1_000_000
        g_sr, g_rd, g_li = draw_gammas(stats, stream(33).random(3 * n).reshape(n, 3))
        snr = sinr_exact(g_sr, g_rd, g_li)
        for x in (0.25, 0.5, 1.0, 2.0, 4.0):
            emp = float(np.count_nonzero(snr >= x)) / n
            want = 1.0 - sinr_cdf_exact_numeric(x, stats)
            se = math.sqrt(max(want * (1 - want), 1e-12) / n)
            assert abs(emp - want) <= 3.0 * se

    @pytest.mark.parametrize("p_db, eps, v, modulation, want", SER_TABLE)
    def test_against_mpmath_table(self, p_db, eps, v, modulation, want):
        # pooled over 8 seeds: 3 sigma of the pooled mean resolves a bias of
        # ~3e-3 relative
        cfg, stats = stats_at(p_db, eps, v, modulation=modulation)
        ests = [estimate_ser_semianalytic(stats, cfg, 250_000, seed=s, workers=2)
                for s in range(500, 508)]
        value = math.fsum(e.value for e in ests) / len(ests)
        std_error = math.sqrt(math.fsum(e.std_error ** 2 for e in ests)) / len(ests)
        assert abs(value - want) <= 3.0 * std_error

    @pytest.mark.parametrize("p_db, eps, modulation, mc_seed", [
        (-10.0, 0.1, "bpsk", 221), (0.0, 1.0, "qpsk", 222), (10.0, 0.0, "bpsk", 223),
        (20.0, 0.1, "qpsk", 224), (30.0, 1.0, "bpsk", 225), (40.0, 0.0, "qpsk", 226),
        (60.0, 0.1, "bpsk", 227),
    ])
    def test_against_the_exact_ser(self, p_db, eps, modulation, mc_seed):
        # the SER of the simulated SINR by quadrature over its exact CDF, a
        # reference with no noise (within 1e-10 relative of SER_TABLE's
        # mpmath values), against 1e6 evaluations
        cfg, stats = stats_at(p_db, eps, modulation=modulation)
        est = estimate_ser_semianalytic(stats, cfg, 1_000_000, seed=mc_seed, workers=2)
        assert abs(est.value - exact_ser(stats, cfg)) <= 3.0 * est.std_error

    @pytest.mark.parametrize("p_db, eps, modulation", [(0.0, 0.1, "bpsk"), (20.0, 0.1, "qpsk")])
    def test_small_estimates_are_unbiased(self, p_db, eps, modulation):
        # at 1e4 evaluations the control variate's slope rests on 11 groups
        # of each parity; fitted in-sample it would bias the estimate by
        # about its spread over the number of groups. The mean of 1 500
        # estimates lies within 3 sigma of its spread of the exact SER
        cfg, stats = stats_at(p_db, eps, modulation=modulation)
        values = [estimate_ser_semianalytic(stats, cfg, 10_000, seed=s).value
                  for s in range(7000, 8500)]
        want = exact_ser(stats, cfg)
        assert want >= 1e-3
        assert abs(np.mean(values) - want) <= 3.0 * np.std(values, ddof=1) / math.sqrt(len(values))

    @pytest.mark.parametrize("p_db, eps, v, modulation, mc_seed", [
        (40.0, 0.0, 3.0, "bpsk", 201),
        (20.0, 0.1, 3.0, "bpsk", 202),
        (25.0, 0.3, 2.5, "qpsk", 203),
        (0.0, 0.1, 3.0, "bpsk", 204),
        (60.0, 0.1, 3.0, "bpsk", 205),
    ])
    def test_against_fading_oracle(self, p_db, eps, v, modulation, mc_seed):
        # independent streams: the oracle runs on seed + 1000. At 60 dB and
        # eps = 0 the oracle's relative variance per sample is ~1e6, so no
        # affordable run of it resolves the SER there
        cfg, stats = stats_at(p_db, eps, v, modulation=modulation)
        n = 1_000_000
        est = estimate_ser_semianalytic(stats, cfg, n, seed=mc_seed, workers=2)
        oracle = ser_fading_oracle(stats, cfg, n, seed=mc_seed + 1000)
        assert abs(est.value - oracle.value) <= 3.0 * math.hypot(est.std_error,
                                                                 oracle.std_error)

    @pytest.mark.parametrize("p_db, n_oracle", [(40.0, 1_000_000), (60.0, 10_000_000)])
    def test_variance_ratio_at_high_power(self, p_db, n_oracle):
        # eps = 0, where averaging alpha Q over the fades rests on deep fades
        # (probability ~2.5e-4 at 40 dB, ~2.5e-6 at 60 dB); the oracle needs
        # 1e7 draws at 60 dB to see enough of them to estimate its variance.
        # Per-sample variances: the conditional estimate's relative one is ~2
        cfg, stats = stats_at(p_db, 0.0)
        n = 1_000_000
        est = estimate_ser_semianalytic(stats, cfg, n, seed=211, workers=2)
        oracle = ser_fading_oracle(stats, cfg, n_oracle, seed=1211)
        assert n_oracle * oracle.std_error ** 2 >= 1000.0 * n * est.std_error ** 2

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("eps, modulation", [(0.0, "bpsk"), (0.1, "qpsk")])
    def test_zero_uniform_gives_half_alpha(self, monkeypatch, column, eps, modulation):
        # shifts (0, 1/2) or (1/2, 0) put lattice point 0 at u0 = 0, where
        # t and X are infinite, or at v = 0, where the excess E = 0: either
        # way the conditional outage is 1, at importance weight 0 or stretch
        # weight T'(0) = 0, so the point adds 0. The mirror u0 = 1 gives
        # t = 0 and X = 0, where outage is impossible; the mirror v = 1 gives
        # E = inf, the finite limit at k = X, X = (c ln 2)^2 / beta from
        # u0 = 1/2, at weight 2 w(1/2). Every group has that shift, so the
        # weight means are constant and the control variate's slope is 0
        row = [0.5, 0.5]
        row[column] = 0.0
        monkeypatch.setattr(mc, "stream", lambda *args: RepeatedRow(row))
        cfg, stats = stats_at(20.0, eps, modulation=modulation)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_ser_semianalytic(stats, cfg, 20_000, seed=1)
        j = np.arange(mc._GROUP)
        u0 = np.mod(mc._GEN * j / mc._GROUP + row[0], 1.0)
        v = (j + row[1]) / mc._GROUP
        t_half, w_half = importance_map(0.5)
        pair = 0.0 if column == 0 else w_half * excess_limit(t_half ** 2 / cfg.beta_mod, stats)
        rest, _ = ser_group_pairs(stats, cfg, u0[1:], v[1:])
        want = cfg.alpha_mod / 2.0 * (math.fsum(rest) + pair) / mc._GROUP
        assert est.value == pytest.approx(want, rel=1e-14)
        assert est.std_error <= 1e-15 * est.value

    @given(st.floats(-20.0, 150.0), st.floats(0.0, 1e3), st.floats(1.5, 6.0),
           st.sampled_from(["bpsk", "qpsk"]), st.integers(0, 2**32))
    @seed(20170322)
    @settings(max_examples=200, deadline=None)
    def test_bounded_probability(self, p_db, eps, v, modulation, mc_seed):
        cfg, stats = stats_at(p_db, eps, v, modulation=modulation)
        est = estimate_ser_semianalytic(stats, cfg, 10_000, seed=mc_seed)
        assert math.isfinite(est.value) and 0.0 <= est.value <= cfg.alpha_mod / 2.0
        assert math.isfinite(est.std_error) and est.std_error >= 0.0


class TestEstimateSerSymbolLevel:
    def test_agrees_with_semianalytic(self):
        cfg, stats = stats_at(20.0, 0.1)
        sym = estimate_ser_symbol_level(stats, cfg, 1_000_000, seed=41)
        semi = estimate_ser_semianalytic(stats, cfg, 1_000_000, seed=41)
        combined = math.hypot(sym.std_error, semi.std_error)
        assert abs(sym.value - semi.value) <= 3.0 * combined

    def test_clean_strong_links_error_free(self):
        cfg, stats = stats_at(80.0, 0.0)
        est = estimate_ser_symbol_level(stats, cfg, 100_000, seed=43)
        assert est.value == 0.0

    def test_interference_raises_error_rate(self):
        cfg_hi, stats_hi = stats_at(40.0, 0.5)
        cfg_lo, stats_lo = stats_at(40.0, 0.01)
        hi = estimate_ser_symbol_level(stats_hi, cfg_hi, 400_000, seed=44)
        lo = estimate_ser_symbol_level(stats_lo, cfg_lo, 400_000, seed=44)
        assert hi.value > lo.value

    def test_bpsk_only(self):
        cfg = SystemConfig(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0,
                           alpha_mod=2.0, beta_mod=1.0)
        stats = link_stats(cfg, Allocation(0.5, 0.5))
        with pytest.raises(UnsupportedModulationError):
            estimate_ser_symbol_level(stats, cfg, 200_000, seed=1)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("p_db", [0.0, 20.0, 40.0])
    def test_matches_complex_chain(self, p_db, eps):
        # the real-arithmetic chain reproduces the complex one bit for bit
        cfg, stats = stats_at(p_db, eps)
        n = CHUNK_SAMPLES + 50_000
        want = symbol_level_complex_oracle(stats, n, seed=5)
        for workers in (1, 2):
            got = estimate_ser_symbol_level(stats, cfg, n, seed=5, workers=workers)
            assert got == want, workers

    @pytest.mark.parametrize("p_db, eps, seed, errors", [
        (0.0, 0.1, 5, 59093),
        (20.0, 0.1, 5, 2002),
        (20.0, 0.0, 7, 628),
        (40.0, 0.5, 44, 6538),
    ])
    def test_pinned_error_counts(self, p_db, eps, seed, errors):
        # literal counts of the 9-uniform Philox layout; a change to the
        # stream layout fails here even if the oracle moves with it
        cfg, stats = stats_at(p_db, eps)
        n = CHUNK_SAMPLES + 50_000
        est = estimate_ser_symbol_level(stats, cfg, n, seed=seed, workers=2)
        assert est.value == errors / n
        assert est.count == errors

    def test_min_symbols(self):
        cfg, stats = stats_at(20.0, 0.1)
        with pytest.raises(DomainError):
            estimate_ser_symbol_level(stats, cfg, 10_000, seed=1)
