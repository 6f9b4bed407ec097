"""Closed-form CDF/SER expressions against quadrature and symbolic oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrelay import (
    Allocation,
    DomainError,
    LinkStats,
    NonConvergenceError,
    SystemConfig,
    approx_coeffs,
    f_gradient,
    f_objective,
    kappa,
    link_stats,
    optimal_location_closed,
    optimal_power_closed,
    outage,
    ser_floor,
    ser_high_power,
    ser_location_optimized,
    ser_power_optimized,
    ser_quadrature,
    ser_series,
    ser_series_terms,
    sinr_cdf_asymptotic,
    sinr_cdf_exact_numeric,
)
from fdrelay.analytic import cdf_truncation_bound, ser_from_cdf

from conftest import cfg_at, outcome, ser_series_terms_oracle, stats_at


class TestApproxCoeffs:
    def test_first_three_pairs_exact(self):
        got = approx_coeffs(3).exact
        assert got[0] == (Fraction(1), Fraction(1))
        assert got[1] == (Fraction(1, 2), Fraction(5, 3))
        assert got[2] == (Fraction(19, 72), Fraction(1963, 855))
        assert all(a > 0 for a, _ in got)

    def test_single_pair(self):
        assert approx_coeffs(1).exact == ((Fraction(1), Fraction(1)),)

    def test_fourth_pair_against_taylor_matching_oracle(self):
        # independent oracle: solve the Taylor-matching conditions directly
        # with sympy rationals, order by order
        x = sympy.symbols("x")
        n = 4
        a_sym: list = []
        b_sym: list = []
        for i in range(n):
            ai, bi = sympy.symbols(f"a{i} b{i}", positive=True)
            approx = sum(
                a_sym[j] * x ** (2 * j) * sympy.exp(-b_sym[j] * x) for j in range(i)
            ) + ai * x ** (2 * i) * sympy.exp(-bi * x)
            series = sympy.series(approx - 1 / (1 + x), x, 0, 2 * i + 2).removeO()
            poly = sympy.Poly(series, x)
            sol = sympy.solve(
                [poly.coeff_monomial(x ** (2 * i)), poly.coeff_monomial(x ** (2 * i + 1))],
                [ai, bi],
                dict=True,
            )[0]
            a_sym.append(sympy.nsimplify(sol[ai], rational=True))
            b_sym.append(sympy.nsimplify(sol[bi], rational=True))
        got = approx_coeffs(4).exact
        for i in range(n):
            assert Fraction(str(a_sym[i])) == got[i][0]
            assert Fraction(str(b_sym[i])) == got[i][1]

    def test_fourth_pair_frozen(self):
        got = approx_coeffs(4).exact[3]
        assert got == (Fraction(788711, 5540400), Fraction(41178610271, 14161306005))

    def test_taylor_residual_envelope(self):
        cs = approx_coeffs(3)
        # matched through x^5; |mismatch at x^6| is |sum A_j B_j^(6-2j)/(6-2j)! - 1|
        d6 = abs(
            sum(a * b ** (6 - 2 * j) / math.factorial(6 - 2 * j)
                for j, (a, b) in enumerate(cs.exact)) - 1
        )
        for x in (1e-3, 1e-2):
            resid = abs(cs.eval_approx(x) - 1.0 / (1.0 + x))
            # envelope: leading mismatch plus double-precision noise
            assert resid <= 2.0 * float(d6) * x**6 + 1e-15

    def test_bad_n(self):
        with pytest.raises(DomainError):
            approx_coeffs(0)
        # above the bound the exact recurrence would take seconds per term
        with pytest.raises(DomainError):
            approx_coeffs(11)


class TestSinrCdf:
    def test_zero_threshold(self, canonical_cfg, symmetric_alloc):
        stats = link_stats(canonical_cfg, symmetric_alloc)
        assert sinr_cdf_asymptotic(0.0, stats) == 0.0
        assert sinr_cdf_exact_numeric(0.0, stats) == 0.0

    def test_tends_to_one(self, canonical_cfg, symmetric_alloc):
        stats = link_stats(canonical_cfg, symmetric_alloc)
        assert sinr_cdf_asymptotic(1e6, stats) > 1.0 - 1e-9
        assert sinr_cdf_exact_numeric(1e6, stats) > 1.0 - 1e-9

    @pytest.mark.parametrize("p_db, x", [(20.0, math.inf), (20.0, 1e308), (20.0, 5e307),
                                         (2000.0, math.inf)])
    def test_one_where_the_bessel_argument_overflows(self, p_db, x):
        # at 20 dB 2x / sqrt(l_sr l_rd) overflows for x >= 1e308 (5e307 is
        # the finite control), and at 2000 dB l_sr l_rd overflows as well;
        # u K1(u) -> 0 there, so the CDF is 1, not NaN or an error
        _, stats = stats_at(p_db, 0.1)
        assert sinr_cdf_asymptotic(x, stats) == 1.0
        assert sinr_cdf_exact_numeric(x, stats) == 1.0

    @given(st.floats(0.0, 50.0), st.floats(0.01, 20.0))
    @settings(max_examples=150, deadline=None)
    def test_nondecreasing(self, x, gap):
        _, stats = stats_at(20.0, 0.1)
        assert sinr_cdf_asymptotic(x + gap, stats) >= sinr_cdf_asymptotic(x, stats)

    @pytest.mark.parametrize("x", [0.25, 1.0, 4.0])
    def test_exact_nondecreasing(self, x):
        _, stats = stats_at(20.0, 0.1)
        assert sinr_cdf_exact_numeric(2 * x, stats) >= sinr_cdf_exact_numeric(x, stats)

    @pytest.mark.parametrize("case,expected", [
        # mpmath quadrature of the defining survivor integral, 40 dps;
        # cases chosen for wildly mismatched hop scales
        ((1.0, 12.0, 1e7, 0.0125), 0.091314408386619874),
        ((0.01, 1e6, 1e6, 2.0), 0.019607866931045822),
        ((4.0, 3.0, 1e10, 0.0), 0.73640286496975761),
        ((25.0, 4e4, 4.0, 0.4), 0.99997660087442956),
        ((0.5, 1e10, 3.0, 50.0), 0.97606497010152686),
    ])
    def test_exact_cdf_on_asymmetric_links(self, case, expected):
        from fdrelay import LinkStats
        x, lsr, lrd, eta = case
        stats = LinkStats(lsr, lrd, eta * lsr, eta)
        assert sinr_cdf_exact_numeric(x, stats) == pytest.approx(expected, abs=1e-10)

    def test_zero_rsi_collapses_to_closed_form(self):
        # with eta = 0 the dropped correction vanishes, so quadrature of the
        # exact integral must reproduce the Bessel closed form
        for p_db in (10.0, 20.0, 30.0):
            _, stats = stats_at(p_db, 0.0)
            for x in (0.5, 1.0, 2.0, 4.0):
                asym = sinr_cdf_asymptotic(x, stats)
                exact = sinr_cdf_exact_numeric(x, stats)
                assert exact == pytest.approx(asym, abs=5e-10)

    @pytest.mark.parametrize("p_db", [10.0, 20.0, 30.0])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_asymptotic_bracketed_by_truncation_bound(self, p_db, eps):
        _, stats = stats_at(p_db, eps)
        for x in (0.5, 1.0, 2.0, 4.0, 8.0):
            asym = sinr_cdf_asymptotic(x, stats)
            exact = sinr_cdf_exact_numeric(x, stats)
            bound = cdf_truncation_bound(x, stats)
            assert asym <= exact + 1e-12
            assert exact - asym <= bound + 1e-12

    def test_truncation_bound_past_exp_overflow(self):
        # g = 810 > 709, where e^g overflows; C = e^-9100 underflows to 0
        _, stats = stats_at(0.0, 0.1, v=2.0, rho_lambda=0.1, rho_d=0.1)
        assert cdf_truncation_bound(1000.0, stats) == 0.0
        # g = 711.0 and C ~ e^-712 > 0, against 30-digit mpmath
        stats = LinkStats(lambda_sr=1e10, lambda_rd=1.0, lambda_li=1e10, eta=1.0)
        x = 712.0
        with mpmath.workdps(30):
            g = stats.eta * mpmath.mpf(x) ** 2 / (stats.lambda_rd * (1 + stats.eta * x))
            c = mpmath.exp(-(1 / mpmath.mpf(stats.lambda_sr) + 1 / mpmath.mpf(stats.lambda_rd)) * x)
            want = float(c * g * mpmath.exp(g) * mpmath.e1(g))
        assert 709.0 < float(g) < 745.0 and want > 0.0
        assert cdf_truncation_bound(x, stats) == pytest.approx(want, rel=1e-12)

    def test_high_power_gap_small(self):
        # the truncation vanishes with growing power: < 5% relative by 30 dB
        _, stats = stats_at(30.0, 0.1)
        for x in (0.5, 1.0, 2.0, 4.0):
            asym = outage(x, stats, "asymptotic")
            exact = outage(x, stats, "exact")
            assert abs(asym - exact) / exact < 0.05

    def test_outage_delegates_and_validates(self):
        _, stats = stats_at(20.0, 0.1)
        assert outage(1.0, stats, "asymptotic") == sinr_cdf_asymptotic(1.0, stats)
        assert outage(1.0, stats, "exact") == sinr_cdf_exact_numeric(1.0, stats)
        assert outage(0.0, stats) == 0.0
        with pytest.raises(DomainError):
            outage(1.0, stats, "montecarlo")
        with pytest.raises(DomainError):
            outage(-1.0, stats)


class TestSerSeries:
    def test_matches_quadrature_band(self):
        # within 1% of the defining integral across the mid-power band
        for p_db in (10.0, 15.0, 20.0, 25.0, 30.0):
            for eps in (0.01, 0.1):
                cfg, stats = stats_at(p_db, eps)
                s = ser_series(stats, cfg, 3)
                q = ser_quadrature(stats, cfg)
                assert abs(s - q) / q < 0.01

    def test_perfect_links_give_zero(self):
        cfg = SystemConfig.bpsk(1e12, 0.0)
        stats = link_stats(cfg, Allocation(0.5, 0.5))
        assert ser_series(stats, cfg, 3) < 1e-6
        assert ser_high_power(stats, cfg) < 1e-6

    def test_term_magnitudes_follow_eta_powers(self):
        # I_i scales like eta^(2i): fitted log-log slopes of I1/I0 and I2/I0
        # against eta come out near 2 and 4
        etas, r1, r2 = [], [], []
        for eps in (0.02, 0.04, 0.08, 0.16):
            cfg, stats = stats_at(40.0, eps)
            terms = ser_series_terms(stats, cfg, 3)
            etas.append(stats.eta)
            r1.append(terms[1] / terms[0])
            r2.append(terms[2] / terms[0])
        s1 = np.polyfit(np.log(etas), np.log(r1), 1)[0]
        s2 = np.polyfit(np.log(etas), np.log(r2), 1)[0]
        assert abs(s1 - 2.0) < 0.2
        assert abs(s2 - 4.0) < 0.2

    def test_clamped_to_valid_range(self):
        cfg = SystemConfig.bpsk(0.1, 0.5)  # -10 dB, strong interference
        stats = link_stats(cfg, Allocation(0.5, 0.5))
        val = ser_series(stats, cfg, 3)
        assert 0.0 <= val <= 0.5

    def test_more_terms_refine(self, canonical_cfg, symmetric_alloc):
        stats = link_stats(canonical_cfg, symmetric_alloc)
        q = ser_quadrature(stats, canonical_cfg)
        e3 = abs(ser_series(stats, canonical_cfg, 3) - q)
        e1 = abs(ser_series(stats, canonical_cfg, 1) - q)
        assert e3 < e1


def _modulated(p_db, eps, modulation, v=3.0):
    alpha, beta = {"bpsk": (1.0, 2.0), "qpsk": (2.0, 1.0)}[modulation]
    return SystemConfig(total_power=10.0 ** (p_db / 10.0), rsi_level=eps,
                        pathloss_exp=v, alpha_mod=alpha, beta_mod=beta)


class TestSeriesAgainstPerCallOracle:
    """ser_series_terms caches its float coefficients per n_terms and the log
    series tabulates per (a, b, m); both must give the per-call bits."""

    def test_terms_interleaved(self, per_call_series):
        scenarios = [(p_db, eps, mod, rl, rd)
                     for p_db, eps in ((-10.0, 0.5), (0.0, 0.0), (20.0, 0.1), (60.0, 0.731))
                     for mod in ("bpsk", "qpsk")
                     for rl, rd in ((0.5, 0.5), (0.1, 0.9), (0.9, 0.2))]
        for p_db, eps, mod, rl, rd in scenarios:
            cfg = _modulated(p_db, eps, mod)
            stats = link_stats(cfg, Allocation(rl, rd))
            for n_terms in (4, 1, 3, 2):
                got = outcome(ser_series_terms, stats, cfg, n_terms)
                want = per_call_series(ser_series_terms_oracle, stats, cfg, n_terms)
                assert got == want, (p_db, eps, mod, rl, rd, n_terms)

    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("p_db", [0.0, 5.0, 10.0])
    def test_low_power(self, per_call_series, p_db, eps, modulation):
        # low power puts the hypergeometric argument near 0.5, the longest
        # log series
        cfg = _modulated(p_db, eps, modulation)
        stats = link_stats(cfg, Allocation(0.5, 0.5))
        val = ser_series(stats, cfg, 3)
        assert math.isfinite(val)
        assert 0.0 <= val <= cfg.alpha_mod / 2.0
        assert repr(val) == per_call_series(ser_series, stats, cfg, 3)


    @pytest.mark.parametrize("eps", [0.0, 1e-170])
    def test_zero_weight_terms(self, per_call_series, eps):
        # at eps = 0, and where eta^2 underflows, every term i >= 1 has
        # weight 0 and skips its 2F1: the signed zeros and values are the
        # per-call ones, and so are the exceptions far below 0 dB (X_i^(2i +
        # 5/2) overflows, or the 2F1 argument rounds past 1) and past
        # ~1535 dB (l_sr l_rd overflows)
        p_dbs = [-20.0 + 5.0 * k for k in range(35)]
        p_dbs += [-1600.0, -1602.0, -700.0, -300.0, -160.0, -158.5, -155.0,
                  -151.0, -150.0, 1535.0, 1535.5, 1600.0, 3000.0]
        allocs = [(0.5, 0.5), (1e-7, 1.0 - 1e-7), (1.0, 0.0), (0.3, 1e-7)]
        outcomes = set()
        for p_db in p_dbs:
            for mod in ("bpsk", "qpsk"):
                cfg = _modulated(p_db, eps, mod)
                for rl, rd in allocs:
                    try:
                        stats = link_stats(cfg, Allocation(rl, rd))
                    except DomainError:  # a link SNR overflowed
                        continue
                    assert stats.eta ** 2 == 0.0
                    for n_terms in (1, 3, 10):
                        got = outcome(ser_series_terms, stats, cfg, n_terms)
                        want = per_call_series(ser_series_terms_oracle, stats, cfg,
                                               n_terms)
                        assert got == want, (p_db, mod, rl, rd, n_terms)
                        assert (outcome(ser_series, stats, cfg, n_terms)
                                == per_call_series(ser_series, stats, cfg, n_terms))
                        outcomes.add(got.split(":")[0] if "Error" in got else "list")
        assert outcomes == {"list", "DomainError"}

    def test_zero_weight_terms_at_extreme_links(self, per_call_series):
        # a zero weight skips the 2F1 only where that is finite and > 0:
        # at w = 4e-160 it is inf, and the term NaN, as before
        cases = [(LinkStats(1e-60, 1e260, 0.0, 0.0), SystemConfig.bpsk(1.0, 0.0)),
                 (LinkStats(1e-40, 1e200, 0.0, 0.0), SystemConfig.bpsk(1.0, 0.0)),
                 (LinkStats(1e-320, 1e10, 0.0, 0.0), SystemConfig.bpsk(1.0, 0.0)),
                 (LinkStats(1e150, 1e150, 0.0, 0.0),
                  SystemConfig(1.0, 0.0, 3.0, beta_mod=1e-300))]
        for stats, cfg in cases:
            for n_terms in (1, 2, 3, 10):
                assert (outcome(ser_series_terms, stats, cfg, n_terms)
                        == per_call_series(ser_series_terms_oracle, stats, cfg,
                                           n_terms)), (stats, n_terms)
        assert outcome(ser_series_terms, *cases[0], 2) == "[nan, nan]"


class TestQpsk:
    """QPSK (alpha = 2, beta = 1): the SER leading term is alpha/2 = 1."""

    @staticmethod
    def cfg(p_db, eps):
        return SystemConfig(total_power=10.0 ** (p_db / 10.0), rsi_level=eps,
                            pathloss_exp=3.0, alpha_mod=2.0, beta_mod=1.0)

    @pytest.mark.parametrize("p_db", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("eps", [0.01, 0.1])
    def test_series_matches_quadrature(self, p_db, eps):
        cfg = self.cfg(p_db, eps)
        stats = link_stats(cfg, Allocation(0.5, 0.5))
        assert ser_series(stats, cfg, 3) == pytest.approx(ser_quadrature(stats, cfg), abs=1e-7)

    def test_low_power_not_clamped_at_one_half(self):
        # the clamp is [0, alpha/2] = [0, 1]; at -10 dB the SER is about 0.75
        cfg = self.cfg(-10.0, 0.5)
        stats = link_stats(cfg, Allocation(0.5, 0.5))
        q = ser_quadrature(stats, cfg)
        assert q > 0.5
        assert ser_series(stats, cfg, 3) == pytest.approx(q, rel=1e-9)

    def test_floor_zero_without_rsi(self):
        assert ser_floor(Allocation(0.5, 0.5), self.cfg(20.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_high_power_close_to_quadrature_at_40db(self):
        cfg = self.cfg(40.0, 0.1)
        stats = link_stats(cfg, Allocation(0.5, 0.5))
        q = ser_quadrature(stats, cfg)
        assert abs(ser_high_power(stats, cfg) - q) / q < 0.02

    @pytest.mark.parametrize("p_db", [30.0, 40.0])
    def test_optimized_forms_match_quadrature_at_their_optimum(self, p_db):
        cfg = self.cfg(p_db, 0.1)
        loc = Allocation(0.5, optimal_location_closed(cfg, 0.5))
        pwr = Allocation(optimal_power_closed(cfg, 0.5), 0.5)
        q_loc = ser_quadrature(link_stats(cfg, loc), cfg)
        q_pwr = ser_quadrature(link_stats(cfg, pwr), cfg)
        assert abs(ser_location_optimized(cfg, 0.5) - q_loc) / q_loc < 0.01
        assert abs(ser_power_optimized(cfg, 0.5) - q_pwr) / q_pwr < 0.01


class TestSerQuadrature:
    def test_degenerate_all_outage(self, canonical_cfg):
        # F == 1 collapses the integral to the Q-function normalization
        assert ser_from_cdf(lambda t: 1.0, canonical_cfg) == pytest.approx(
            canonical_cfg.alpha_mod / 2.0, rel=1e-9
        )

    def test_degenerate_no_outage(self, canonical_cfg):
        assert ser_from_cdf(lambda t: 0.0, canonical_cfg) == pytest.approx(0.0, abs=1e-12)

    def test_qpsk_prefactor(self):
        cfg = SystemConfig(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0,
                           alpha_mod=2.0, beta_mod=1.0)
        assert ser_from_cdf(lambda t: 1.0, cfg) == pytest.approx(1.0, rel=1e-9)


class TestHighPowerAndFloor:
    def test_high_power_is_kappa_form(self, symmetric_alloc):
        cfg = cfg_at(25.0, 0.07)
        stats = link_stats(cfg, symmetric_alloc)
        expected = 0.5 - kappa(cfg) * f_objective(symmetric_alloc, cfg) ** -0.5
        assert ser_high_power(stats, cfg) == pytest.approx(expected, abs=1e-15)

    def test_high_power_close_to_quadrature_at_40db(self):
        cfg, stats = stats_at(40.0, 0.1)
        hp = ser_high_power(stats, cfg)
        q = ser_quadrature(stats, cfg)
        assert abs(hp - q) / q < 0.02

    def test_floor_zero_without_rsi(self, symmetric_alloc):
        assert ser_floor(symmetric_alloc, cfg_at(20.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_floor_value(self, canonical_cfg, symmetric_alloc):
        # kappa = 1/2 for BPSK; floor = (1 - (1 + 0.0125)^-1/2) / 2
        want = 0.5 * (1.0 - 1.0125**-0.5)
        assert ser_floor(symmetric_alloc, canonical_cfg) == pytest.approx(want, rel=1e-12)

    def test_floor_depends_only_on_rsi_power_ratio_product(self):
        # same eps * (P_R/P_S) * D_SR^v, same floor, regardless of total power
        a1 = Allocation(0.5, 0.5)
        f1 = ser_floor(a1, cfg_at(20.0, 0.1))
        f2 = ser_floor(a1, cfg_at(60.0, 0.1))
        assert f1 == pytest.approx(f2, rel=1e-14)

    def test_single_term_series_converges_to_floor(self, symmetric_alloc):
        # the floor is the power->infinity limit of the leading term; the
        # richer series settles a small eta^2-order offset below it
        gaps = []
        for p_db in (40.0, 60.0, 80.0):
            cfg = cfg_at(p_db, 0.1)
            stats = link_stats(cfg, symmetric_alloc)
            gaps.append(abs(ser_series(stats, cfg, 1) - ser_floor(symmetric_alloc, cfg)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-8

    def test_full_series_floor_offset_is_eta_squared_order(self, symmetric_alloc):
        cfg = cfg_at(80.0, 0.1)
        stats = link_stats(cfg, symmetric_alloc)
        gap = abs(ser_series(stats, cfg, 3) - ser_floor(symmetric_alloc, cfg))
        # second-term magnitude bounds the offset scale
        i1 = ser_series_terms(stats, cfg, 3)[1]
        assert gap < 2.0 * i1


class TestObjective:
    def test_hand_value(self):
        cfg = SystemConfig.bpsk(100.0, 0.0, 3.0)
        assert f_objective(Allocation(0.5, 0.5), cfg) == pytest.approx(1.005, rel=1e-14)

    @given(st.floats(1e-4, 0.9999), st.floats(1e-4, 0.9999),
           st.floats(0.5, 1e6), st.floats(0.0, 0.5), st.floats(1.5, 4.5))
    @settings(max_examples=200, deadline=None)
    def test_equals_stats_form(self, rl, rd, p, eps, v):
        cfg = SystemConfig.bpsk(p, eps, v)
        alloc = Allocation(rl, rd)
        stats = link_stats(cfg, alloc)
        direct = cfg.beta_mod / 2.0 + 1.0 / stats.lambda_sr + 1.0 / stats.lambda_rd + stats.eta
        assert f_objective(alloc, cfg) == pytest.approx(direct, rel=1e-11)

    def test_monotone_in_rsi(self):
        alloc = Allocation(0.4, 0.6)
        vals = [f_objective(alloc, cfg_at(20.0, eps)) for eps in (0.0, 0.1, 0.2, 0.4)]
        assert vals == sorted(vals)
        assert vals[0] < vals[-1]

    def test_gradient_matches_finite_differences(self):
        cfg = cfg_at(17.0, 0.13)
        alloc = Allocation(0.37, 0.61)
        g = f_gradient(alloc, cfg)
        h = 1e-7
        fd_rl = (f_objective(Allocation(0.37 + h, 0.61), cfg)
                 - f_objective(Allocation(0.37 - h, 0.61), cfg)) / (2 * h)
        fd_rd = (f_objective(Allocation(0.37, 0.61 + h), cfg)
                 - f_objective(Allocation(0.37, 0.61 - h), cfg)) / (2 * h)
        assert g[0] == pytest.approx(fd_rl, rel=1e-5)
        assert g[1] == pytest.approx(fd_rd, rel=1e-5)


class TestOptimizedSerForms:
    @pytest.mark.parametrize("rho_lambda", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("p_db,eps", [(20.0, 0.1), (30.0, 0.02), (10.0, 0.3)])
    def test_location_form_is_composition(self, rho_lambda, p_db, eps):
        from fdrelay import optimal_location_closed
        cfg = cfg_at(p_db, eps)
        rho_d = optimal_location_closed(cfg, rho_lambda)
        composed = ser_high_power(link_stats(cfg, Allocation(rho_lambda, rho_d)), cfg)
        assert ser_location_optimized(cfg, rho_lambda) == pytest.approx(composed, abs=1e-12)

    @pytest.mark.parametrize("rho_d", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p_db,eps", [(20.0, 0.1), (30.0, 0.02), (10.0, 0.3)])
    def test_power_form_is_composition(self, rho_d, p_db, eps):
        from fdrelay import optimal_power_closed
        cfg = cfg_at(p_db, eps)
        rho_lambda = optimal_power_closed(cfg, rho_d)
        composed = ser_high_power(link_stats(cfg, Allocation(rho_lambda, rho_d)), cfg)
        assert ser_power_optimized(cfg, rho_d) == pytest.approx(composed, abs=1e-12)

    def test_no_rsi_symmetric_matches_midpoint(self):
        cfg = cfg_at(20.0, 0.0)
        mid = ser_high_power(link_stats(cfg, Allocation(0.5, 0.5)), cfg)
        assert ser_location_optimized(cfg, 0.5) == pytest.approx(mid, abs=1e-14)
        assert ser_power_optimized(cfg, 0.5) == pytest.approx(mid, abs=1e-14)

    def test_domain(self):
        cfg = cfg_at(20.0, 0.1)
        with pytest.raises(DomainError):
            ser_location_optimized(cfg, 0.0)
        with pytest.raises(DomainError):
            ser_power_optimized(cfg, 1.0)
