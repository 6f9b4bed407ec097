"""Location/power/joint optimizers: closed forms, bounded Brent, stationary
root enumeration, and convexity of the surrogate objective."""

import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from fdrelay import (
    RATIO_FLOOR,
    Allocation,
    DomainError,
    SystemConfig,
    closed_form_result,
    f_gradient,
    f_objective,
    joint_foc_roots,
    joint_v3_closed,
    link_stats,
    minimize_1d,
    optimal_location_closed,
    optimal_power_closed,
    select_joint_optimum,
    ser_series,
)
from fdrelay import analytic, opt

from conftest import (
    FLOAT_RANGE_DRAWS,
    cfg_at,
    float_range_cfg,
    golden_section_oracle,
    joint_roots_grid_oracle,
    minimize_1d_oracle,
    ser_series_grid_oracle,
)
from test_reach import TRACEBACK_EXAMPLES


def prop2_rho_lambda(cfg):
    s = math.sqrt(1.0 + cfg.rsi_level * cfg.total_power)
    return s / (s + 1.0)


def assert_no_worse_than_golden(objective, cfg, fixed, tol):
    """minimize_1d's bracket is within tol, and its SER is no worse than the
    golden-section oracle's (or their argmins agree within 2 tol)."""
    res = minimize_1d(objective, cfg, fixed, tol=tol)

    def ser_at(x):
        alloc = Allocation(fixed, x) if objective == "location" else Allocation(x, fixed)
        return ser_series(link_stats(cfg, alloc), cfg)

    x_ref, _, _ = golden_section_oracle(ser_at, RATIO_FLOOR, 1.0 - RATIO_FLOOR, tol)
    x = res.allocation.rho_d if objective == "location" else res.allocation.rho_lambda
    # the series is alpha/2 minus a sum, so SER differences below a few ulps
    # of alpha/2 are rounding noise (they reach 1e-9 relative at SER ~1e-8)
    noise = 4.0 * math.ulp(0.5 * cfg.alpha_mod)
    assert res.bracket_width <= tol
    assert res.ser <= ser_at(x_ref) * (1.0 + 1e-9) + noise or abs(x - x_ref) <= 2.0 * tol
    return res


class TestClosedForms:
    def test_location_symmetric_no_rsi(self):
        assert optimal_location_closed(cfg_at(20.0, 0.0), 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_location_moves_toward_source_with_rsi(self):
        vals = [optimal_location_closed(cfg_at(20.0, eps), 0.5)
                for eps in (0.0, 0.05, 0.1, 0.3)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_power_symmetric_no_rsi(self):
        assert optimal_power_closed(cfg_at(20.0, 0.0), 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_power_midpoint_matches_particular_solution(self):
        # at rho_d = 1/2 the closed form reduces to
        # sqrt(1 + eps P) / (sqrt(1 + eps P) + 1)
        for p_db, eps in ((10.0, 0.3), (20.0, 0.1), (40.0, 0.02)):
            cfg = cfg_at(p_db, eps)
            got = optimal_power_closed(cfg, 0.5)
            assert got == pytest.approx(prop2_rho_lambda(cfg), abs=1e-12)

    def test_power_grows_with_relay_distance(self):
        cfg = cfg_at(20.0, 0.1)
        vals = [optimal_power_closed(cfg, rd) for rd in (0.2, 0.4, 0.6, 0.8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_past_the_float_range(self):
        # rho_lambda* depends on D_RD / D_SR only, so it holds where D^v
        # overflows (1e300) or underflows against an infinite P eps (1e-300);
        # rho_d* goes to its limit 0 where ratio^(1 / (v - 1)) overflows
        for v, eps, rho_d in ((5.0, 0.1, 0.3), (60.0, 0.0, 0.7), (2.0, 1e300, 0.4)):
            cfg = cfg_at(20.0, eps, v=v)
            want = 1.0 / (1.0 + math.sqrt(((1.0 - rho_d) / rho_d) ** v
                                          / (1.0 + cfg.total_power * eps)))
            for d in (1e300, 1e-300):
                got = optimal_power_closed(cfg.replace(sum_distance=d), rho_d)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (v, eps, d)
        assert optimal_location_closed(cfg_at(20.0, 0.1, v=1.0 + 1e-9), 0.5) == 0.0

    def test_domains(self):
        cfg = cfg_at(20.0, 0.1)
        with pytest.raises(DomainError):
            optimal_location_closed(cfg, 0.0)
        with pytest.raises(DomainError):
            optimal_power_closed(cfg, 1.0)

    def test_closed_form_result_diagnostics(self):
        cfg = cfg_at(20.0, 0.1)
        res = closed_form_result("location", cfg, 0.5)
        assert res.method == "closed_form"
        assert res.allocation.rho_d == optimal_location_closed(cfg, 0.5)
        # a high-power approximation carries residual at finite power, and
        # the residual fades as power grows
        assert res.foc_residual > 0.0
        hi = closed_form_result("location", cfg_at(50.0, 0.1), 0.5)
        assert hi.foc_residual < res.foc_residual
        with pytest.raises(DomainError):
            closed_form_result("sideways", cfg, 0.5)


class TestMinimize1d:
    def test_symmetric_scenario_centers(self):
        cfg = cfg_at(20.0, 0.0)
        loc = minimize_1d("location", cfg, 0.5, tol=1e-6)
        pwr = minimize_1d("power", cfg, 0.5, tol=1e-6)
        assert loc.allocation.rho_d == pytest.approx(0.5, abs=1e-5)
        assert pwr.allocation.rho_lambda == pytest.approx(0.5, abs=1e-5)
        assert loc.bracket_width <= 1e-6
        assert pwr.bracket_width <= 1e-6

    def test_minimality_spot_check(self):
        cfg = cfg_at(25.0, 0.15)
        res = minimize_1d("location", cfg, 0.5, tol=1e-8)
        for probe in (0.25, 0.5, 0.75):
            probe_ser = ser_series(link_stats(cfg, Allocation(0.5, probe)), cfg)
            assert res.ser <= probe_ser + 1e-15

    def test_matches_closed_form_at_high_power(self):
        cfg = cfg_at(40.0, 0.1)
        loc = minimize_1d("location", cfg, 0.5, tol=1e-8)
        assert abs(loc.allocation.rho_d - optimal_location_closed(cfg, 0.5)) < 0.02
        pwr = minimize_1d("power", cfg, 0.5, tol=1e-8)
        assert abs(pwr.allocation.rho_lambda - optimal_power_closed(cfg, 0.5)) < 0.02

    def test_closed_form_gap_shrinks_with_power(self):
        gaps_loc, gaps_pwr = [], []
        for p_db in (20.0, 30.0, 40.0):
            cfg = cfg_at(p_db, 0.1)
            loc = minimize_1d("location", cfg, 0.5, tol=1e-9)
            pwr = minimize_1d("power", cfg, 0.5, tol=1e-9)
            gaps_loc.append(abs(loc.allocation.rho_d - optimal_location_closed(cfg, 0.5)))
            gaps_pwr.append(abs(pwr.allocation.rho_lambda - optimal_power_closed(cfg, 0.5)))
        assert gaps_loc[0] > gaps_loc[1] > gaps_loc[2]
        assert gaps_pwr[0] > gaps_pwr[1] > gaps_pwr[2]

    def test_result_metadata(self, monkeypatch):
        calls = []
        real = analytic.ser_series

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analytic, "ser_series", counted)
        cfg = cfg_at(20.0, 0.1)
        res = minimize_1d("power", cfg, 0.5, tol=1e-6)
        assert res.method == "brent"
        # iterations is the number of SER evaluations; golden section spent
        # 32 on this solve
        assert res.iterations == len(calls)
        assert len(calls) <= 20
        assert res.foc_residual >= 0.0

    @given(st.sampled_from(["location", "power"]), st.sampled_from(["bpsk", "qpsk"]),
           st.floats(-10.0, 80.0), st.floats(0.0, 10.0), st.floats(1.5, 6.0),
           st.floats(0.02, 0.98))
    @seed(20170321)
    @settings(max_examples=100, deadline=None)
    def test_no_worse_than_golden_section(self, objective, modulation, p_db, eps, v,
                                          fixed):
        alpha, beta = {"bpsk": (1.0, 2.0), "qpsk": (2.0, 1.0)}[modulation]
        cfg = SystemConfig(total_power=10.0 ** (p_db / 10.0), rsi_level=eps,
                           pathloss_exp=v, sum_distance=1.0, alpha_mod=alpha,
                           beta_mod=beta)
        assert_no_worse_than_golden(objective, cfg, fixed, 1e-8)

    def test_optimum_near_box_edge(self):
        # the power split sits 1.6e-5 from the upper edge of the box, where
        # parabolic steps are clipped to stay tol2 inside the bracket
        cfg = cfg_at(57.1, 0.3459, v=3.234)
        res = assert_no_worse_than_golden("power", cfg, 0.957, 1e-8)
        assert res.allocation.rho_lambda == pytest.approx(0.99998, abs=1e-5)
        assert res.allocation.rho_lambda < 1.0 - RATIO_FLOOR

    def test_validation(self):
        cfg = cfg_at(20.0, 0.1)
        with pytest.raises(DomainError):
            minimize_1d("location", cfg, 0.5, tol=1.0)
        with pytest.raises(DomainError):
            minimize_1d("direction", cfg, 0.5)

    @pytest.mark.parametrize("objective", ["location", "power"])
    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
    @pytest.mark.parametrize("fixed", [0.0, 1e-7, 0.5, 1.0 - 1e-7, 1.0])
    def test_matches_per_evaluation_link_stats(self, objective, modulation, fixed):
        # the solve forms the half of the link statistics that the fixed
        # ratio sets once; every field of the result must be what building
        # Allocation and link_stats at each evaluation gives (0 and 1 are
        # clamped into the box, 1e-7 and 1 - 1e-7 too)
        scenarios = [(-10.0, 0.0, 2.0, 3), (20.0, 0.1, 3.0, 3), (20.0, 1e-170, 3.0, 3),
                     (45.0, 1.0, 4.5, 10), (80.0, 0.0, 6.0, 1)]
        for p_db, eps, v, n_terms in scenarios:
            cfg = cfg_at(p_db, eps, v, modulation)
            for tol in (1e-6, 1e-9):
                got = minimize_1d(objective, cfg, fixed, tol=tol, n_terms=n_terms)
                want = minimize_1d_oracle(objective, cfg, fixed, tol, n_terms)
                assert repr(got) == repr(want), (p_db, eps, v, tol)

    def test_nonfinite_fixed_ratio(self):
        cfg = cfg_at(20.0, 0.1)
        with pytest.raises(DomainError, match="rho_lambda must be finite"):
            minimize_1d("location", cfg, math.nan)
        with pytest.raises(DomainError, match="rho_d must be finite"):
            minimize_1d("power", cfg, math.inf)

    @given(*FLOAT_RANGE_DRAWS)
    @example(*TRACEBACK_EXAMPLES[0][1:])
    @example(*TRACEBACK_EXAMPLES[1][1:])
    @settings(max_examples=100, deadline=None)
    @seed(28)
    def test_float_range_gives_a_finite_ser_or_a_domain_error(self, p_db, log_d, log_v, eps,
                                                              rho_lambda, rho_d):
        # the series is a probability or refuses (test_analytic), so the
        # search needs no finiteness check of its own
        cfg = float_range_cfg(p_db, log_d, log_v, eps)
        for objective, fixed in (("location", rho_lambda), ("power", rho_d)):
            try:
                res = minimize_1d(objective, cfg, fixed, tol=1e-6)
            except DomainError:
                continue
            assert math.isfinite(res.ser), res


class TestLayerCalls:
    """The call sites that perfbench's tracer reads: it times
    sfun.hyp2f1_complement through the name analytic calls it by, and counts
    the analytic.ser_series calls inside each solve. A refactor that bypassed
    either would empty metrics that perfbench/test_bench.py requires."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"hyp2f1_complement": 0, "ser_series": 0}
        for name in counts:
            real = getattr(analytic, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(analytic, name, counted)
        return counts

    # eta^(2i) is 0 for every i >= 1 at eps = 0 and 1e-170; at 1e-100 it is 0
    # from i = 2 on
    @pytest.mark.parametrize("eps,n_terms,weighted", [
        (0.1, 3, 3), (0.5, 10, 10), (0.0, 3, 1), (0.0, 10, 1), (1e-170, 3, 1),
        (1e-100, 3, 2),
    ])
    def test_one_hyp2f1_per_weighted_term(self, calls, eps, n_terms, weighted):
        cfg = cfg_at(20.0, eps)
        stats = link_stats(cfg, Allocation(0.5, 0.5))
        assert sum(stats.eta ** (2 * i) != 0.0 for i in range(n_terms)) == weighted
        analytic.ser_series_terms(stats, cfg, n_terms)
        assert calls["hyp2f1_complement"] == weighted
        ser_series(stats, cfg, n_terms)
        assert calls["hyp2f1_complement"] == 2 * weighted

    @pytest.mark.parametrize("objective", ["location", "power"])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_solve_iterations_count_ser_calls(self, calls, objective, eps):
        cfg = cfg_at(30.0, eps)
        res = minimize_1d(objective, cfg, 0.4, tol=1e-6)
        assert res.iterations == calls["ser_series"] > 0
        calls["ser_series"] = 0
        res = select_joint_optimum(cfg)
        assert res.iterations == calls["ser_series"] > 0


class TestJointRoots:
    def test_particular_solution_always_present(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cfg = cfg_at(rng.uniform(5.0, 45.0), rng.uniform(0.0, 0.4),
                         v=rng.uniform(1.6, 4.0))
            roots = joint_foc_roots(cfg)
            want = prop2_rho_lambda(cfg)
            assert any(
                abs(a.rho_lambda - want) < 1e-7 and abs(a.rho_d - 0.5) < 1e-7
                for a in roots
            )

    def test_v2_unique_root(self):
        cfg = cfg_at(20.0, 0.1, v=2.0)
        roots = joint_foc_roots(cfg)
        assert len(roots) == 1
        assert roots[0].rho_lambda == pytest.approx(prop2_rho_lambda(cfg), abs=1e-10)
        assert roots[0].rho_d == pytest.approx(0.5, abs=1e-10)

    def test_v2_no_rsi_degenerate_line_handled(self):
        # the stationarity equation vanishes identically; only the particular
        # solution is reported through selection
        cfg = cfg_at(20.0, 0.0, v=2.0)
        res = select_joint_optimum(cfg)
        assert res.allocation.rho_lambda == pytest.approx(0.5, abs=1e-9)
        assert res.allocation.rho_d == pytest.approx(0.5, abs=1e-9)

    def test_triple_coincidence_at_critical_rsi_power(self):
        # v=3, eps P = 3: the conjugate pair merges into the particular root,
        # leaving a triple zero; sign-based refinement can only localize it to
        # the cube root of the evaluation noise (~3e-6), hence the tolerance
        cfg = SystemConfig.bpsk(100.0, 0.03, 3.0)
        roots = joint_foc_roots(cfg)
        assert roots
        for alloc in roots:
            assert alloc.rho_lambda == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_roots_match_closed_v3(self):
        cfg = SystemConfig.bpsk(100.0, 0.08, 3.0)  # eps P = 8
        closed = sorted(joint_v3_closed(cfg))
        scanned = sorted(a.rho_lambda for a in joint_foc_roots(cfg))
        assert len(closed) == 3
        assert len(scanned) == 3
        for c, s in zip(closed, scanned):
            assert abs(c - s) < 1e-9

    def test_paired_location_consistent_with_location_closed_form(self):
        # the induced location of every root equals the fixed-split optimum
        # evaluated at that root's power ratio
        for eps_p, v in ((8.0, 3.0), (20.0, 3.0), (5.0, 2.5), (40.0, 3.7)):
            cfg = SystemConfig.bpsk(100.0, eps_p / 100.0, v)
            for alloc in joint_foc_roots(cfg):
                want = optimal_location_closed(cfg, alloc.rho_lambda)
                assert alloc.rho_d == pytest.approx(want, abs=1e-12)

    def test_matches_dense_grid_oracle(self):
        # seeded sweep over P -10..80 dB, eps 0 or 1e-4..10, v 1.2..6, with
        # the degenerate identically-zero line (eps = 0, v = 2) and the v = 2
        # and eps = 0 edges forced in
        rng = np.random.default_rng(20170321)
        cases = [(20.0, 0.0, 2.0), (20.0, 0.1, 2.0), (20.0, 0.0, 3.0), (-10.0, 0.0, 1.2)]
        for _ in range(300):
            eps = 0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(-4.0, 1.0)
            v = 2.0 if rng.random() < 0.1 else rng.uniform(1.2, 6.0)
            cases.append((rng.uniform(-10.0, 80.0), eps, v))
        for p_db, eps, v in cases:
            cfg = cfg_at(p_db, eps, v)
            got = sorted(a.rho_lambda for a in joint_foc_roots(cfg))
            want = joint_roots_grid_oracle(cfg)
            assert len(got) == len(want), (p_db, eps, v)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-11), (p_db, eps, v)

    def test_degenerate_line_has_no_isolated_roots(self):
        assert joint_foc_roots(cfg_at(20.0, 0.0, v=2.0)) == []

    def test_tangent_root_is_exact(self):
        # v = 3, eps P = 3: the three roots merge at rho_lambda = 2/3, where
        # a sign scan can only localize them to ~3e-6; bracketing at the
        # critical point reports the closed form once
        cfg = SystemConfig.bpsk(100.0, 0.03, 3.0)
        roots = joint_foc_roots(cfg)
        assert len(roots) == 1
        for closed in joint_v3_closed(cfg):
            assert roots[0].rho_lambda == pytest.approx(closed, abs=1e-12)
        assert roots[0].rho_d == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("v", [2.5, 2.7, 3.3, 3.7, 4.0])
    def test_triple_root_at_merging_critical_points(self, v):
        # at eps P = v (v - 2) both critical points merge at rbar = 1/v, where
        # the equation has a triple zero: the particular solution 1 - 1/v.
        # The equation evaluates there to a few ulps, not always to 0.0
        cfg = SystemConfig.bpsk(v * (v - 2.0), 1.0, v)
        roots = joint_foc_roots(cfg)
        assert len(roots) == 1
        assert roots[0].rho_lambda == pytest.approx(1.0 - 1.0 / v, abs=1e-12)
        assert roots[0].rho_d == pytest.approx(0.5, abs=1e-12)


class TestJointV3Closed:
    def test_critical_point(self):
        cfg = SystemConfig.bpsk(100.0, 0.03, 3.0)
        vals = joint_v3_closed(cfg)
        assert all(v == pytest.approx(2.0 / 3.0, abs=1e-12) for v in vals)

    def test_below_critical_single(self):
        cfg = SystemConfig.bpsk(100.0, 0.01, 3.0)  # eps P = 1 < 3
        vals = joint_v3_closed(cfg)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(prop2_rho_lambda(cfg), abs=1e-12)

    def test_above_critical_three(self):
        cfg = SystemConfig.bpsk(100.0, 0.08, 3.0)
        assert len(joint_v3_closed(cfg)) == 3

    def test_requires_v3(self):
        with pytest.raises(DomainError):
            joint_v3_closed(cfg_at(20.0, 0.1, v=2.0))


class TestSelectJointOptimum:
    def test_no_rsi_symmetric(self):
        res = select_joint_optimum(cfg_at(20.0, 0.0))
        assert res.allocation.rho_lambda == pytest.approx(0.5, abs=1e-7)
        assert res.allocation.rho_d == pytest.approx(0.5, abs=1e-7)

    def test_v2_returns_unique_candidate(self):
        cfg = cfg_at(20.0, 0.1, v=2.0)
        res = select_joint_optimum(cfg)
        assert res.allocation.rho_lambda == pytest.approx(prop2_rho_lambda(cfg), abs=1e-9)
        assert res.allocation.rho_d == pytest.approx(0.5, abs=1e-9)

    def test_matches_grid_search_oracle(self):
        # exhaustive scipy-vectorized search over a 500 x 500 lattice
        cfg = cfg_at(20.0, 0.2)
        res = select_joint_optimum(cfg)
        grid = np.linspace(1e-3, 1.0 - 1e-3, 500)
        surface = ser_series_grid_oracle(cfg, grid, grid)
        i, j = np.unravel_index(np.argmin(surface), surface.shape)
        cell = grid[1] - grid[0]
        assert abs(res.allocation.rho_lambda - grid[i]) <= cell
        assert abs(res.allocation.rho_d - grid[j]) <= cell
        assert res.ser <= surface[i, j] + 1e-12

    def test_ser_not_worse_than_particular(self):
        for p_db, eps in ((10.0, 0.3), (20.0, 0.2), (40.0, 0.05)):
            cfg = cfg_at(p_db, eps)
            res = select_joint_optimum(cfg)
            part = Allocation(prop2_rho_lambda(cfg), 0.5)
            part_ser = ser_series(link_stats(cfg, part), cfg)
            assert res.ser <= part_ser + 1e-15


class TestSequentialV2:
    # at v = 2 the sequential optimum is the particular solution
    # rho_lambda = sqrt(1 + eps P) / (sqrt(1 + eps P) + 1), rho_d = 1/2
    def test_matches_joint_at_v2(self):
        cfg = cfg_at(20.0, 0.1, v=2.0)
        joint = select_joint_optimum(cfg)
        assert joint.allocation.rho_lambda == pytest.approx(prop2_rho_lambda(cfg), abs=1e-9)
        assert joint.allocation.rho_d == pytest.approx(0.5, abs=1e-9)

    def test_no_rsi(self):
        got = opt._particular_solution(cfg_at(20.0, 0.0, v=2.0))
        assert got.rho_lambda == pytest.approx(0.5, abs=1e-15)
        assert got.rho_d == 0.5

    def test_critical_value(self):
        got = opt._particular_solution(SystemConfig.bpsk(100.0, 0.03, 2.0))  # eps P = 3
        assert got.rho_lambda == pytest.approx(2.0 / 3.0, abs=1e-15)


class TestConvexityAndStationarity:
    def test_positive_curvature_each_variable(self):
        rng = np.random.default_rng(11)
        h = 1e-4
        grid = np.linspace(0.02, 0.98, 100)
        for _ in range(20):
            cfg = cfg_at(rng.uniform(0.0, 50.0), rng.uniform(0.0, 0.5),
                         v=rng.uniform(1.5, 4.5))
            other = rng.uniform(0.1, 0.9)
            for x in grid:
                d2_rd = (
                    f_objective(Allocation(other, x + h), cfg)
                    - 2.0 * f_objective(Allocation(other, x), cfg)
                    + f_objective(Allocation(other, x - h), cfg)
                )
                d2_rl = (
                    f_objective(Allocation(x + h, other), cfg)
                    - 2.0 * f_objective(Allocation(x, other), cfg)
                    + f_objective(Allocation(x - h, other), cfg)
                )
                assert d2_rd > 0.0
                assert d2_rl > 0.0

    def test_particular_solution_is_stationary(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cfg = SystemConfig.bpsk(
                total_power=10.0 ** rng.uniform(1.0, 6.0),
                rsi_level=rng.uniform(0.0, 0.5),
                pathloss_exp=rng.uniform(1.5, 4.0),
                sum_distance=rng.uniform(0.5, 2.0),
            )
            alloc = Allocation(prop2_rho_lambda(cfg), 0.5)
            g = f_gradient(alloc, cfg)
            assert max(abs(g[0]), abs(g[1])) < 1e-9


class TestFloorRemoval:
    def test_fixed_allocation_plateaus_but_joint_keeps_dropping(self):
        fixed, joint = {}, {}
        for p_db in (40.0, 50.0, 60.0):
            cfg = cfg_at(p_db, 0.2)
            fixed[p_db] = ser_series(link_stats(cfg, Allocation(0.5, 0.5)), cfg)
            joint[p_db] = select_joint_optimum(cfg).ser
        assert fixed[60.0] / fixed[40.0] > 0.9
        assert joint[40.0] > joint[50.0] > joint[60.0]
        assert joint[60.0] / joint[40.0] < 0.5
