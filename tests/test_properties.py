"""Relations that hold exactly for the model, checked with no reference over
whole input domains (ROADMAP item 14). Each property runs with a fixed seed.

The outage CDFs of the three SINRs are ordered: the simulated SINR ab/(a + b
+ 1) lies below the upper-bound SINR ab/(a + b), whose CDF the asymptotic
closed form bounds from below. Both routes are probabilities and
non-decreasing in the threshold x, over every link the CLI accepts. Without
self-interference the two hops play symmetric parts, and every route gives
the same bits when their mean SNRs swap.
"""

import math

from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from fdrelay import (Allocation, DomainError, LinkStats, analytic, link_stats, outage,
                     ser_quadrature, ser_series, sinr_cdf_asymptotic, sinr_cdf_exact_numeric)

from conftest import (CDF_ABS_FLOOR, FLOAT_RANGE_DRAWS, cfg_at, float_range_cfg, outcome,
                      sinr_cdf_upper_bound)

# a quadrature route may sit anywhere within its error gate, and a closed
# form a few ulps of 1 off (CDF_ABS_FLOOR)
QUAD_SLACK = analytic._CDF_ABS_TOL + CDF_ABS_FLOOR

RATIOS = st.sampled_from([1e-6, 0.02, 0.3, 0.5, 0.7, 0.98, 1.0 - 1e-6])


def _float_range_stats(p_db, log_d, log_v, eps, rho_lambda, rho_d):
    """The link of one FLOAT_RANGE_DRAWS input, or a rejected example where
    link_stats refuses it."""
    try:
        return link_stats(float_range_cfg(p_db, log_d, log_v, eps),
                          Allocation(rho_lambda, rho_d))
    except DomainError:
        assume(False)


@given(st.floats(-20.0, 100.0), st.one_of(st.just(0.0), st.floats(-6.0, 3.0)),
       st.floats(1.5, 6.0), RATIOS, RATIOS, st.floats(-4.0, 4.0))
@seed(20171014)
@settings(max_examples=200, deadline=None)
def test_upper_bound_cdf_lies_between_the_routes(p_db, log_eps, v, rho_lambda, rho_d, log_x):
    eps = log_eps and 10.0 ** log_eps
    stats = _float_range_stats(p_db, 0.0, math.log10(v - 1.0), eps, rho_lambda, rho_d)
    x = 10.0 ** log_x
    upper = sinr_cdf_upper_bound(x, stats)
    assert sinr_cdf_asymptotic(x, stats) <= upper + QUAD_SLACK
    assert upper <= sinr_cdf_exact_numeric(x, stats) + QUAD_SLACK


@given(*FLOAT_RANGE_DRAWS, st.floats(-4.0, 4.0), st.floats(-6.0, 2.0))
@seed(20171015)
@settings(max_examples=300, deadline=None)
def test_both_routes_are_nondecreasing_probabilities(p_db, log_d, log_v, eps, rho_lambda,
                                                     rho_d, log_x, log_gap):
    # x within four decades of the weaker hop's mean SNR, where the CDF rises
    stats = _float_range_stats(p_db, log_d, log_v, eps, rho_lambda, rho_d)
    x = min(stats.lambda_sr, stats.lambda_rd) * 10.0 ** log_x
    assume(0.0 < x < math.inf)
    wider = x * (1.0 + 10.0 ** log_gap)
    for route, slack in ((sinr_cdf_asymptotic, 0.0), (sinr_cdf_exact_numeric, QUAD_SLACK)):
        low, high = route(x, stats), route(wider, stats)
        assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0
        assert low <= high + slack, (route.__name__, x, wider)


@given(st.floats(-3.0, 8.0), st.floats(-3.0, 8.0), st.floats(-3.0, 3.0),
       st.sampled_from(["bpsk", "qpsk"]))
@seed(20171016)
@settings(max_examples=300, deadline=None)
def test_hops_swap_without_self_interference(log_sr, log_rd, log_x, modulation):
    # at eps = 0 the SINR ab / (a + b + 1) and its bound ab / (a + b) are
    # symmetric in the hops, so each route's value, or what it raises, is
    # the same bits for (lambda_sr, lambda_rd) and (lambda_rd, lambda_sr)
    cfg = cfg_at(20.0, 0.0, modulation=modulation)
    x = 10.0 ** log_x
    links = [LinkStats(lambda_sr=a, lambda_rd=b, lambda_li=0.0, eta=0.0)
             for a, b in ((10.0 ** log_sr, 10.0 ** log_rd), (10.0 ** log_rd, 10.0 ** log_sr))]
    routes = {"outage asymptotic": lambda stats: outage(x, stats, "asymptotic"),
              "outage exact": lambda stats: outage(x, stats, "exact"),
              "ser_series": lambda stats: ser_series(stats, cfg),
              "ser_quadrature": lambda stats: ser_quadrature(stats, cfg)}
    for name, route in routes.items():
        assert outcome(route, links[0]) == outcome(route, links[1]), name
