"""The adaptive Gauss-Kronrod integrator behind the two quadrature oracles,
`ser_quadrature` and the correction integral of `sinr_cdf_exact_numeric`.

Its references: scipy's QUADPACK on the same integrands, the closed form the
exact CDF reduces to at eps = 0, 30-digit `mpmath` integrals, integrals
with known values, and, bit for bit, the integrator as it was before
integrands took a whole panel (conftest.quad_checked_oracle).
"""

import math
import random

import mpmath
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fdrelay import RATIO_FLOOR, QuadratureError, analytic
from fdrelay.analytic import (
    outage,
    ser_quadrature,
    sinr_cdf_exact_numeric,
)
from fdrelay.model import Allocation, SystemConfig, link_stats

from conftest import (CDF_ABS_FLOOR, outcome, reference_quadrature, sinr_cdf_upper_bound,
                      stats_at)

# 30 significant digits by mpmath.quad at 40 digits (the same at 55). The
# exact CDF is that of the SINR ab/(a + b + 1) that the MC samples; its
# reference integrates, over E = e^y split at every integer y, the kernel
# given the second hop's excess E ~ Exp(l_rd) over x, written without
# cancellation and without the partial fractions of the route:
#   F = -expm1(-x/l_rd)
#       + e^(-x/l_rd) int (1/l_rd) e^(-E/l_rd) (eta k - expm1(-k/l_sr)) / (1 + eta k) dE,
#   k = x + x (x + 1) / E.
CDF_TABLE = [
    # p_db, eps, v, rho_lambda, rho_d, x, CDF
    (-10.0, 0.3, 3.0, 0.5, 0.5, 1.0, 0.999981557375530653571466325009),
    (0.0, 0.0, 3.0, 0.5, 0.5, 1.0, 0.556071429738602287723057828888),
    (0.0, 0.1, 3.0, 0.5, 0.5, 1.0, 0.566255849188010353919023262212),
    (20.0, 0.1, 3.0, 0.5, 0.5, 1.0, 0.0179332306126378739485165782429),
    (20.0, 1.0, 3.0, 0.5, 0.5, 1.0, 0.119021987560402398979941229535),
    (30.0, 0.1, 3.0, 0.02, 0.9, 4.0, 0.943468803675771677541359730658),
    (10.0, 0.01, 3.0, 0.5, 0.5, 100.0, 0.999892382864695175628533983686),
    (40.0, 0.0, 3.0, 0.5, 0.5, 1.0, 5.00241808629710303045751768079e-05),
    (60.0, 0.3, 3.0, 0.5, 0.5, 1e-3, 3.74993266394303593728554384319e-05),
    (100.0, 0.1, 3.0, 0.5, 0.5, 1.0, 0.0123456790785162217728218298326),
    (300.0, 0.1, 3.0, 0.5, 0.5, 1.0, 0.0123456790123456796892077577361),
    (300.0, 0.0, 3.0, 0.5, 0.5, 1e29, 0.0530665974497071036579280091036),
]
# 30 significant digits of the upper-bound SINR ab/(a + b)'s CDF, by
# mpmath.quad at 40 digits (the same at 50) of its survivor integral over s
# = t - x > 0, split at every power of ten:
#   (1/l_rd) exp(-y/l_sr - (x + s)/l_rd) / (1 + eta y),  y = x + x^2/s
UPPER_BOUND_TABLE = [
    # p_db, eps, v, rho_lambda, rho_d, x, CDF
    (0.0, 0.1, 3.0, 0.5, 0.5, 1.0, 0.507207149667825282429496225606),
    (40.0, 0.0, 3.0, 0.5, 0.5, 1.0, 5.00118986372254625478078293156e-05),
    (20.0, 1.0, 3.0, 0.5, 0.5, 1.0, 0.117456846173062368361763433161),
    (30.0, 0.1, 3.0, 0.02, 0.9, 4.0, 0.943468133495228968074208069058),
    (10.0, 0.01, 3.0, 0.5, 0.5, 100.0, 0.999889851145323819859772026645),
    (60.0, 0.3, 3.0, 0.5, 0.5, 1e-3, 3.74990940813709499485383563163e-05),
]
# the SER integrates alpha sqrt(beta / 2 pi) F(u^2) e^(-beta u^2 / 2) over
# u > 0, with F the asymptotic CDF (K1 form)
SER_TABLE = [
    # p_db, eps, v, rho_lambda, rho_d, modulation, SER
    (20.0, 0.1, 3.0, 0.5, 0.5, "bpsk", 4.31437926119615555819226048963e-03),
    (40.0, 0.0, 3.0, 0.5, 0.5, "bpsk", 1.25041320908686526241018338177e-05),
    (25.0, 0.3, 2.5, 0.5, 0.5, "qpsk", 4.82351221274934257602048782583e-02),
    # the CDF rises over u < 1e-3 only, a layer that QUADPACK's QAGIE missed
    # (it returned 0.9999999998)
    (-10.0, 1.0, 1.5, 1e-6, 0.5, "qpsk", 0.999640456786444963324372810721),
]

# literal float.hex of ser_quadrature and of the upper-bound oracle at x = 1,
# which runs the same integrator: a change to the order of the integrator's
# operations moves a bit here even where every tolerance still holds
PINNED_BITS = [
    # p_db, eps, v, rho_lambda, rho_d, modulation, SER, upper-bound CDF at x = 1
    (-10.0, 0.0, 3.0, 0.5, 0.5, "bpsk", "0x1.4c39370a73294p-2", "0x1.ffee23ceb7cefp-1"),
    (20.0, 0.3, 3.0, 0.5, 0.5, "bpsk", "0x1.4acb86f5e0dbbp-7", "0x1.5619fc7a7dca0p-5"),
    (60.0, 0.3, 3.0, 0.5, 0.5, "bpsk", "0x1.235c74c051c1fp-7", "0x1.281a035d4ce90p-5"),
    (-10.0, 0.3, 3.0, 0.5, 0.5, "qpsk", "0x1.7d73669f06876p-1", "0x1.ffef54eee7c97p-1"),
    (60.0, 0.0, 3.0, 0.5, 0.5, "qpsk", "0x1.0c7021fb6ed5bp-21", "0x1.0c6fb82400000p-21"),
    (20.0, 0.3, 3.0, 0.5, RATIO_FLOOR, "qpsk", "0x1.3e2a4ff5fa719p-6",
     "0x1.446c897e124e0p-6"),
]
# literal float.hex of outage(1.0, ..., "exact") on the links of PINNED_BITS
# (the modulation does not enter). Each is within 7e-15 relative of the
# CDF_TABLE reference integral at 40 digits, and 5e-7 at 60 dB, eps 0 within
# 4.6e-17, below CDF_ABS_FLOOR
PINNED_EXACT_BITS = [
    # p_db, eps, v, rho_lambda, rho_d, exact CDF at x = 1
    (-10.0, 0.0, 3.0, 0.5, 0.5, "0x1.fffd5f7149f0cp-1"),
    (20.0, 0.3, 3.0, 0.5, 0.5, "0x1.5bacafc8d4d28p-5"),
    (60.0, 0.3, 3.0, 0.5, 0.5, "0x1.281a50ca78af2p-5"),
    (-10.0, 0.3, 3.0, 0.5, 0.5, "0x1.fffd952b0fe60p-1"),
    (60.0, 0.0, 3.0, 0.5, 0.5, "0x1.0c6ff7a300000p-21"),
    (20.0, 0.3, 3.0, 0.5, RATIO_FLOOR, "0x1.446c897e12540p-6"),
]

def _scenarios(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        alpha, beta = rng.choice([(1.0, 2.0), (2.0, 1.0)])
        cfg = SystemConfig(
            total_power=10.0 ** (rng.uniform(-10.0, 80.0) / 10.0),
            rsi_level=0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-4.0, 1.0),
            pathloss_exp=rng.uniform(2.0, 5.0),
            alpha_mod=alpha, beta_mod=beta,
        )
        alloc = Allocation(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
        yield cfg, link_stats(cfg, alloc), 10.0 ** rng.uniform(-3.0, 2.0)


def _panel(f):
    """A scalar integrand as the integrator calls it: a list of abscissae in,
    the list of values out."""
    return lambda xs: [f(x) for x in xs]


def test_oracles_agree_with_scipy(monkeypatch):
    """Both oracles on seeded scenarios over P -10..80 dB, eps 0 or
    1e-4..10, v 2..5, BPSK and QPSK, each within its route's error bound of
    scipy's QUADPACK on the same integrand."""
    scipy_calls = []

    def scipy_quad_checked(fn, lo, hi, abs_tol, label, points=()):
        # scipy's QUADPACK, one abscissa at a time, with the tolerances,
        # interval limit and break points of analytic._quad_checked
        scipy_calls.append(label)
        val, err, *_ = quad(lambda x: fn([x])[0], lo, hi,
                            epsabs=min(abs_tol * 1e-2, 1e-12), epsrel=1e-11,
                            limit=300, points=points or None, full_output=1)
        return val, err

    def oracles():
        return [(ser_quadrature(stats, cfg), sinr_cdf_exact_numeric(x, stats))
                for cfg, stats, x in _scenarios(7, 150)]

    got = oracles()
    monkeypatch.setattr(analytic, "_quad_checked", scipy_quad_checked)
    want = oracles()
    # every reference value came from QUADPACK, none from the integrator; the
    # exact CDF integrates only where eta > 0
    with_rsi = sum(stats.eta > 0.0 for _, stats, _ in _scenarios(7, 150))
    assert 0 < with_rsi < 150
    assert scipy_calls.count("ser_from_cdf") == 150
    assert scipy_calls.count("sinr_cdf_exact_numeric") == with_rsi
    for (ser, cdf), (ser_ref, cdf_ref) in zip(got, want):
        assert abs(ser - ser_ref) <= analytic._SER_ABS_TOL
        assert abs(cdf - cdf_ref) <= analytic._CDF_ABS_TOL


def test_exact_cdf_is_the_closed_form_without_rsi():
    # at eps = 0 the exact CDF is 1 - e^-s u K1(u), u = 2 sqrt(x (x + 1) /
    # (l_sr l_rd)), s = (1/l_sr + 1/l_rd) x, here by 30-digit mpmath
    for p_db in range(-10, 81, 10):
        for rho_lambda, rho_d in ((0.5, 0.5), (0.1, 0.9), (0.9, 0.1), (0.02, 0.5)):
            _, stats = stats_at(p_db, 0.0, 3.0, rho_lambda, rho_d)
            for x in (1e-3, 0.1, 1.0, 10.0, 100.0):
                with mpmath.workdps(30):
                    lsr, lrd = mpmath.mpf(stats.lambda_sr), mpmath.mpf(stats.lambda_rd)
                    u = 2 * mpmath.sqrt(x * (x + mpmath.mpf(1)) / (lsr * lrd))
                    want = float(-mpmath.expm1(-(1 / lsr + 1 / lrd) * x
                                               + mpmath.log(u * mpmath.besselk(1, u))))
                assert sinr_cdf_exact_numeric(x, stats) == pytest.approx(
                    want, rel=1e-12, abs=CDF_ABS_FLOOR), (p_db, rho_lambda, rho_d, x)


@pytest.mark.parametrize("p_db, eps, v, rho_lambda, rho_d, x, want", CDF_TABLE)
def test_exact_cdf_against_kernel_integral(p_db, eps, v, rho_lambda, rho_d, x, want):
    _, stats = stats_at(p_db, eps, v, rho_lambda, rho_d)
    assert sinr_cdf_exact_numeric(x, stats) == pytest.approx(want, rel=1e-12,
                                                             abs=CDF_ABS_FLOOR)


@pytest.mark.parametrize("p_db, eps, v, rho_lambda, rho_d, x, want", UPPER_BOUND_TABLE)
def test_exact_cdf_against_mpmath(p_db, eps, v, rho_lambda, rho_d, x, want):
    # the upper-bound oracle meets its 30 digits, and the exact CDF lies
    # above them, since ab/(a + b + 1) < ab/(a + b)
    _, stats = stats_at(p_db, eps, v, rho_lambda, rho_d)
    assert sinr_cdf_upper_bound(x, stats) == pytest.approx(want, abs=1e-12)
    assert sinr_cdf_exact_numeric(x, stats) > want


@pytest.mark.parametrize("p_db, eps, v, rho_lambda, rho_d, modulation, want", SER_TABLE)
def test_ser_quadrature_against_mpmath(p_db, eps, v, rho_lambda, rho_d, modulation, want):
    cfg, stats = stats_at(p_db, eps, v, rho_lambda, rho_d, modulation=modulation)
    assert ser_quadrature(stats, cfg) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p_db, eps, v, rho_lambda, rho_d, modulation, ser_bits, cdf_bits",
                         PINNED_BITS)
def test_pinned_bits(p_db, eps, v, rho_lambda, rho_d, modulation, ser_bits, cdf_bits):
    cfg, stats = stats_at(p_db, eps, v, rho_lambda, rho_d, modulation=modulation)
    assert ser_quadrature(stats, cfg).hex() == ser_bits
    assert sinr_cdf_upper_bound(1.0, stats).hex() == cdf_bits


@pytest.mark.parametrize("p_db, eps, v, rho_lambda, rho_d, cdf_bits", PINNED_EXACT_BITS)
def test_pinned_exact_bits(p_db, eps, v, rho_lambda, rho_d, cdf_bits):
    _, stats = stats_at(p_db, eps, v, rho_lambda, rho_d)
    assert outage(1.0, stats, "exact").hex() == cdf_bits


# (name, integrand, a, b, break points, value); b = inf maps [a, inf) onto (0, 1]
CLOSED_FORMS = [
    ("gauss", lambda x: math.exp(-x * x), -3.0, 3.0, [0.0],
     math.sqrt(math.pi) * math.erf(3.0)),
    ("odd", math.sin, -1.0, 1.0, [0.0], 0.0),
    ("zero", lambda x: 0.0, 0.0, 1.0, [0.5], 0.0),
    ("exp", lambda x: math.exp(-x), 0.0, math.inf, [], 1.0),
    ("cauchy", lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, [], 0.5 * math.pi),
    ("shifted_gauss", lambda x: math.exp(-(x - 5.0) ** 2), -3.0, math.inf, [],
     0.5 * math.sqrt(math.pi) * (1.0 + math.erf(8.0))),
]


@pytest.mark.parametrize("name, f, a, b, points, want", CLOSED_FORMS,
                         ids=[case[0] for case in CLOSED_FORMS])
def test_closed_form_integrals(name, f, a, b, points, want):
    value, err = analytic._quad_checked(_panel(f), a, b, 1e-9, name, points)
    assert value == pytest.approx(want, rel=1e-11, abs=1e-15)
    assert err <= 1e-11


@pytest.mark.parametrize("f, a, b", [
    (lambda x: 1.0 / (1.0 + x), 0.0, math.inf),
    (lambda x: math.nan, 0.0, 1.0),
    (lambda x: math.nan, 0.0, math.inf),
], ids=["divergent", "nan_finite", "nan_semi_infinite"])
def test_unmet_bound_raises(f, a, b):
    with pytest.raises(QuadratureError):
        analytic._quad_checked(_panel(f), a, b, 1e-9, "test")


def test_break_points_on_a_semi_infinite_range():
    """A kink at x = 4 in e^-|x - 4| over [-1, inf): its break point lands on
    an edge of the (0, 1] map, t = 1/(1 + 4 + 1), and the integrator meets
    the bound with fewer evaluations than without it."""
    calls = []

    def f(xs):
        calls.append(len(xs))
        return [math.exp(-abs(x - 4.0)) for x in xs]

    want = 2.0 - math.exp(-5.0)
    value, err = analytic._quad_checked(f, -1.0, math.inf, 1e-9, "kink", [4.0])
    with_point = sum(calls)
    assert value == pytest.approx(want, rel=1e-12)
    assert err <= 1e-11
    calls.clear()
    value, err = analytic._quad_checked(f, -1.0, math.inf, 1e-9, "kink")
    assert value == pytest.approx(want, rel=1e-11)
    assert with_point < sum(calls)


@given(st.floats(-20.0, 80.0), st.floats(0.0, 1e3), st.floats(1.5, 6.0),
       st.sampled_from([1e-6, 0.02, 0.5, 0.98, 1.0 - 1e-6]),
       st.sampled_from([1e-6, 0.02, 0.5, 0.98, 1.0 - 1e-6]),
       st.sampled_from(["bpsk", "qpsk"]), st.sampled_from([1e-3, 0.5, 1.0, 4.0, 100.0]))
@example(-20.0, 0.0, 1.5, 1e-6, 0.5, "bpsk", 1.0)  # the CDF is 1 almost everywhere
@seed(20170322)
@settings(max_examples=150, deadline=None)
def test_oracles_bit_identical_to_reference(p_db, eps, v, rho_lambda, rho_d, modulation, x):
    """Both oracles, and what they raise, are the reference integrator's bit
    for bit: panel calls, the cached SER node geometry and the [0, 1/4, 1/2,
    1] start of the [0, inf) map move no bit up to 80 dB."""
    cfg, stats = stats_at(p_db, eps, v, rho_lambda, rho_d, modulation=modulation)
    assert outcome(ser_quadrature, stats, cfg) == reference_quadrature(ser_quadrature,
                                                                       stats, cfg)
    assert outcome(sinr_cdf_exact_numeric, x, stats) == reference_quadrature(
        sinr_cdf_exact_numeric, x, stats)


@given(st.floats(-20.0, 150.0), st.floats(0.0, 1e3), st.floats(1.5, 6.0),
       st.sampled_from([1e-6, 0.02, 0.5, 0.98, 1.0 - 1e-6]),
       st.sampled_from([1e-6, 0.02, 0.5, 0.98, 1.0 - 1e-6]),
       st.sampled_from(["bpsk", "qpsk"]), st.sampled_from([1e-3, 1.0, 100.0]))
@example(-20.0, 0.0, 1.5, 1e-6, 0.5, "bpsk", 1.0)  # the CDF is 1 almost everywhere
@seed(20170322)
@settings(max_examples=40, deadline=None)
def test_oracles_in_range(p_db, eps, v, rho_lambda, rho_d, modulation, x):
    cfg, stats = stats_at(p_db, eps, v, rho_lambda, rho_d, modulation=modulation)
    assert 0.0 <= ser_quadrature(stats, cfg) <= 0.5 * cfg.alpha_mod
    assert 0.0 <= sinr_cdf_exact_numeric(x, stats) <= 1.0
