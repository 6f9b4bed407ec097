"""Scenario types, ratio clamping, and the mean-SNR mapping."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrelay import (
    Allocation,
    DomainError,
    RATIO_FLOOR,
    SystemConfig,
    db_to_linear,
    link_stats,
)
from fdrelay.model import _stats_along

ratios = st.floats(RATIO_FLOOR, 1.0 - RATIO_FLOOR)
powers = st.floats(1e-3, 1e8)
distances = st.floats(1e-2, 1e2)


class TestSystemConfig:
    def test_valid(self):
        cfg = SystemConfig.bpsk(total_power=100.0, rsi_level=0.1)
        assert cfg.is_bpsk
        assert cfg.pathloss_exp == 3.0

    @pytest.mark.parametrize("kwargs", [
        dict(total_power=0.0, rsi_level=0.1, pathloss_exp=3.0),
        dict(total_power=-5.0, rsi_level=0.1, pathloss_exp=3.0),
        dict(total_power=100.0, rsi_level=-0.1, pathloss_exp=3.0),
        dict(total_power=100.0, rsi_level=0.1, pathloss_exp=1.0),
        dict(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0, sum_distance=0.0),
        dict(total_power=float("inf"), rsi_level=0.1, pathloss_exp=3.0),
        dict(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0, alpha_mod=0.0),
        dict(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0, beta_mod=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            SystemConfig(**kwargs)

    def test_db_round_trip(self):
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-12)


class TestAllocation:
    def test_clamping_records(self):
        a = Allocation(rho_lambda=0.0, rho_d=1.0)
        assert a.clamped
        assert a.rho_lambda == RATIO_FLOOR
        assert a.rho_d == 1.0 - RATIO_FLOOR
        assert not Allocation(0.5, 0.5).clamped

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Allocation(float("nan"), 0.5)

    @given(ratios, ratios, powers, distances)
    @settings(max_examples=500, deadline=None)
    def test_round_trip_exact(self, rl, rd, p, d):
        cfg = SystemConfig.bpsk(total_power=p, rsi_level=0.1, sum_distance=d)
        alloc = Allocation(rl, rd)
        p_s, p_r = alloc.powers(cfg)
        d_sr, d_rd = alloc.distances(cfg)
        assert p_s + p_r == p
        assert d_sr + d_rd == d
        assert 0.0 < p_s < p and 0.0 < p_r < p
        assert 0.0 < d_sr < d and 0.0 < d_rd < d

    def test_split_matches_ratio(self):
        cfg = SystemConfig.bpsk(100.0, 0.1)
        p_s, p_r = Allocation(0.3, 0.5).powers(cfg)
        assert p_s == pytest.approx(30.0, rel=1e-12)
        assert p_r == pytest.approx(70.0, rel=1e-12)


class TestLinkStats:
    def test_hand_value(self):
        # P=100, eps=0.1, v=3, D=1, symmetric: 50 * 0.5^-3 = 400
        cfg = SystemConfig.bpsk(100.0, 0.1, 3.0)
        st_ = link_stats(cfg, Allocation(0.5, 0.5))
        assert st_.lambda_sr == pytest.approx(400.0, rel=1e-14)
        assert st_.lambda_rd == pytest.approx(400.0, rel=1e-14)
        assert st_.lambda_li == pytest.approx(5.0, rel=1e-14)
        assert st_.eta == pytest.approx(0.0125, rel=1e-14)

    def test_zero_rsi(self):
        cfg = SystemConfig.bpsk(77.0, 0.0, 2.7)
        st_ = link_stats(cfg, Allocation(0.4, 0.6))
        assert st_.lambda_li == 0.0
        assert st_.eta == 0.0

    def test_symmetry(self):
        cfg = SystemConfig.bpsk(64.0, 0.05, 3.5)
        st_ = link_stats(cfg, Allocation(0.5, 0.5))
        assert st_.lambda_sr == st_.lambda_rd

    @given(ratios, ratios, powers, st.floats(0.0, 1.0), st.floats(1.5, 4.5))
    @settings(max_examples=300, deadline=None)
    def test_explicit_formulas(self, rl, rd, p, eps, v):
        cfg = SystemConfig.bpsk(p, eps, v)
        alloc = Allocation(rl, rd)
        st_ = link_stats(cfg, alloc)
        p_s, p_r = alloc.powers(cfg)
        d_sr, d_rd = alloc.distances(cfg)
        assert st_.lambda_sr == pytest.approx(p_s * d_sr**-v, rel=1e-13)
        assert st_.lambda_rd == pytest.approx(p_r * d_rd**-v, rel=1e-13)
        assert st_.lambda_li == pytest.approx(eps * p_r, rel=1e-13)
        # eta is exactly the quotient, and matches its expanded form
        assert st_.eta == st_.lambda_li / st_.lambda_sr
        assert st_.eta == pytest.approx(eps * p_r * d_sr**v / p_s, rel=1e-12)

    @given(st.sampled_from(["rho_lambda", "rho_d"]), ratios, ratios, powers,
           st.floats(0.0, 1.0), st.floats(1.5, 4.5), distances, st.floats(-1.0, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_stats_along_is_link_stats(self, free, rl, rd, p, eps, v, d, x):
        # bit for bit, with x clamped as Allocation clamps it
        cfg = SystemConfig.bpsk(p, eps, v, d)
        moved = Allocation(**{"rho_lambda": rl, "rho_d": rd, free: x})
        got = _stats_along(cfg, Allocation(rl, rd), free)(x)
        assert repr(got) == repr(link_stats(cfg, moved))

    def test_eta_not_power_invariant_unless_rsi_free(self):
        # eta = eps (1-rl)/rl (rd D)^v depends on P only through eps * P_R,
        # so doubling P doubles lambda_li but leaves eta unchanged
        cfg1 = SystemConfig.bpsk(100.0, 0.1)
        cfg2 = SystemConfig.bpsk(200.0, 0.1)
        alloc = Allocation(0.4, 0.3)
        s1, s2 = link_stats(cfg1, alloc), link_stats(cfg2, alloc)
        assert s2.lambda_li == pytest.approx(2.0 * s1.lambda_li, rel=1e-13)
        assert s2.eta == pytest.approx(s1.eta, rel=1e-13)

    def test_invalid_stats_rejected(self):
        from fdrelay import LinkStats
        with pytest.raises(DomainError):
            LinkStats(lambda_sr=0.0, lambda_rd=1.0, lambda_li=0.0, eta=0.0)
        with pytest.raises(DomainError):
            LinkStats(lambda_sr=1.0, lambda_rd=1.0, lambda_li=-1.0, eta=0.0)
        with pytest.raises(DomainError):
            LinkStats(lambda_sr=math.inf, lambda_rd=1.0, lambda_li=0.0, eta=0.0)
