"""The pure-Python QUADPACK port against scipy's compiled QUADPACK.

The port promises the same bits, not just the same accuracy: a process
integrates with it before it moves on to scipy's, and its output must not
depend on which of the two ran.
"""

import math
import random
import sys

import pytest
from scipy.integrate import quad

from fdrelay import analytic, quadpack
from fdrelay.model import Allocation, SystemConfig, link_stats


def _inv_sqrt(x):
    return 1.0 / math.sqrt(x) if x > 0.0 else 0.0


def _log(x):
    return math.log(x) if x > 0.0 else 0.0


def _log_at(x):
    return math.log(abs(x - 0.3)) if x != 0.3 else 0.0


# (name, integrand, a, b, break points): endpoint and interior singularities,
# kinks, jumps, sharp peaks, oscillation and a zero integrand, so the
# extrapolation, roundoff and divergence branches all run
FINITE = [
    ("inv_sqrt", _inv_sqrt, 0.0, 1.0, [0.5]),
    ("neg_inv_sqrt", lambda x: -_inv_sqrt(x), 0.0, 1.0, [0.01]),
    ("log", _log, 0.0, 1.0, [0.3]),
    ("log_interior", _log_at, 0.0, 1.0, [0.3]),
    ("x^-0.9", lambda x: x ** -0.9 if x > 0.0 else 0.0, 0.0, 1.0, [0.25, 0.5]),
    ("kink", lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0, [0.7]),
    ("step", lambda x: 1.0 if x > 0.123 else 0.0, 0.0, 1.0, [0.5]),
    ("peak", lambda x: 1.0 / (1e-6 + (x - 0.4) ** 2), 0.0, 1.0, [0.2, 0.9]),
    ("oscillating", lambda x: math.sin(50.0 * x), 0.0, 10.0, [1.0, 2.0]),
    ("damped", lambda x: math.cos(200.0 * x) * math.exp(-x), 0.0, 5.0, [2.5]),
    ("gauss", lambda x: math.exp(-x * x), -3.0, 3.0, [0.0]),
    ("odd", math.sin, -1.0, 1.0, [0.0]),
    ("zero", lambda x: 0.0, 0.0, 1.0, [0.5]),
    ("outside_points", math.exp, 0.0, 1.0, [-1.0, 0.0, 0.5, 0.5, 1.0, 2.0]),
    # no point inside (a, b): at limit 1 QAGPE skips the bisection loop
    ("no_interior_point", _inv_sqrt, 0.0, 1.0, [2.0]),
]

# (name, integrand, lower bound) on [bound, inf)
SEMI_INFINITE = [
    ("exp", lambda x: math.exp(-x), 0.0),
    ("cauchy", lambda x: 1.0 / (1.0 + x * x), 0.0),
    ("slow_tail", lambda x: 1.0 / (1.0 + x) ** 1.1, 0.0),
    ("divergent", lambda x: 1.0 / (1.0 + x), 0.0),
    ("inv_sqrt_exp", lambda x: math.exp(-x) * _inv_sqrt(x), 0.0),
    ("log_exp", lambda x: _log(x) * math.exp(-x), 0.0),
    ("oscillating", lambda x: math.sin(x) / (1.0 + x * x), 0.0),
    ("slow_oscillating", lambda x: math.sin(x) / (1.0 + x), 0.0),
    ("shifted_gauss", lambda x: math.exp(-(x - 5.0) ** 2), -3.0),
    ("zero", lambda x: 0.0, 1.0),
]

TOLERANCES = [(1e-12, 1e-11), (1e-10, 1e-8), (0.0, 1e-13), (1e-14, 0.0)]
LIMITS = [1, 2, 7, 50, 300]

# quad appends a message exactly when QUADPACK's ier is nonzero; its opening
# words name the code
_IER_MESSAGES = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def _scipy(f, a, b, epsabs, epsrel, limit, points=None):
    try:
        out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                   full_output=1, points=points)
    except ValueError:
        # quad raises where QUADPACK returns ier 6 with a zero result
        return 0.0, 0.0, 6
    if len(out) == 3:
        return out[0], out[1], 0
    codes = [ier for text, ier in _IER_MESSAGES.items() if out[3].startswith(text)]
    assert len(codes) == 1, out[3]
    return out[0], out[1], codes[0]


@pytest.mark.parametrize("epsabs, epsrel", TOLERANCES)
@pytest.mark.parametrize("limit", LIMITS)
def test_qagpe_matches_scipy_bit_for_bit(epsabs, epsrel, limit):
    for name, f, a, b, points in FINITE:
        value, err, ier = quadpack.qagpe(f, a, b, points, epsabs, epsrel, limit)
        want = _scipy(f, a, b, epsabs, epsrel, limit, points)
        assert (value, err, ier) == want, name


@pytest.mark.parametrize("epsabs, epsrel", TOLERANCES)
@pytest.mark.parametrize("limit", LIMITS)
def test_qagie_matches_scipy_bit_for_bit(epsabs, epsrel, limit):
    for name, f, bound in SEMI_INFINITE:
        value, err, ier = quadpack.qagie(f, bound, epsabs, epsrel, limit)
        want = _scipy(f, bound, math.inf, epsabs, epsrel, limit)
        assert (value, err, ier) == want, name


# at epsrel = 5 DBL_EPSILON the error estimate can equal the extrapolation
# tolerance: QAGIE stops on abserr <= ertest, QAGPE only on abserr < ertest
TIE_EPSABS = 1e-300
TIE_EPSREL = 5.0 * sys.float_info.epsilon


def test_qagie_stops_on_tie():
    f = lambda x: (1.0 + x) ** -1.5
    got = quadpack.qagie(f, 0.0, TIE_EPSABS, TIE_EPSREL, 50)
    want = _scipy(f, 0.0, math.inf, TIE_EPSABS, TIE_EPSREL, 50)
    assert want[2] == 2
    assert got == want


def test_qagpe_continues_past_tie():
    f = lambda x: _log(x) * math.exp(-x)
    got = quadpack.qagpe(f, 0.0, 1.0, [0.5], TIE_EPSABS, TIE_EPSREL, 50)
    assert got == _scipy(f, 0.0, 1.0, TIE_EPSABS, TIE_EPSREL, 50, [0.5])


def test_invalid_tolerance_is_ier_6():
    assert quadpack.qagie(math.exp, 0.0, 0.0, 0.0)[2] == 6
    assert quadpack.qagpe(math.exp, 0.0, 1.0, [], 0.0, 0.0)[2] == 6


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


def test_oracles_identical_under_both_implementations(monkeypatch):
    """ser_quadrature (QAGIE) and the exact CDF (QAGPE with break points) on
    seeded scenarios over P -10..80 dB, eps 0 or 1e-4..10, v 2..5, BPSK and
    QPSK."""
    def oracles():
        return [(analytic.ser_quadrature(stats, cfg),
                 analytic.sinr_cdf_exact_numeric(x, stats))
                for cfg, stats, x in _scenarios(7, 150)]

    monkeypatch.setattr(analytic, "_COMPILED_AFTER", 10**9)
    got = oracles()
    monkeypatch.setattr(analytic, "_COMPILED_AFTER", 0)
    assert got == oracles()
