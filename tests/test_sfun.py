"""Special-function kernel against independent high-precision oracles.

Point tables were computed with mpmath at 50 significant digits and frozen;
property tests re-derive a sample live so the frozen numbers cannot drift
from the oracle.
"""

import math
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdrelay import DomainError, NonConvergenceError, sfun
from fdrelay.analytic import MAX_N_TERMS
from fdrelay.sfun import (
    _hyp_series,
    bessel_k1,
    digamma,
    hyp2f1_complement,
)

from conftest import (exp_integral_e1, gamma_fn, hyp_log_series_oracle, k1_small_oracle,
                      outcome, q_func)

mp.mp.dps = 40

# mpmath besselk(1, x), 50 dps
K1_TABLE = [
    (1e-06, 999999.999992784324),
    (2.909628520610454e-06, 343686.485357116423),
    (8.46593812794976e-06, 118120.400178445065),
    (2.4632735030806095e-05, 40596.3850682094518),
    (7.16721083862735e-05, 13952.4285865407205),
    (0.00020853921069298502, 4795.26032055393251),
    (0.0006067716350979011, 1648.06405768131802),
    (0.0017654800549782904, 566.412040552478815),
    (0.00513689112053374, 194.655152513428461),
    (0.014946444911575547, 66.8695259329454211),
    (0.043488602396453205, 22.9129405331387903),
    (0.1265356778542081, 7.73271647502665136),
    (0.3681718171593805, 2.41137288846299027),
    (1.0712432196919086, 0.53431485967426069),
    (3.116919824526147, 0.0349233504847886388),
    (9.06907881789739, 4.98516200831958035e-05),
    (26.387650384218386, 8.57841837495206025e-13),
    (76.77826014981922, 6.50389636148847101e-35),
    (223.39621549476257, 8.02612206711032231e-99),
    (650.0, 2.51443483698632012e-284),
]

# mpmath e1(x), 50 dps
E1_TABLE = [
    (1e-06, 13.2382958930624913),
    (2.909628520610454e-06, 12.1702723858020941),
    (8.46593812794976e-06, 11.1022525252088508),
    (2.4632735030806095e-05, 10.0342432749849283),
    (7.16721083862735e-05, 8.96626489633872429),
    (0.00020853921069298502, 7.89837633696653542),
    (0.0006067716350979011, 6.83074907134499208),
    (0.0017654800549782904, 5.76388167598402412),
    (0.00513689112053374, 4.69922185969761155),
    (0.014946444911575547, 3.64095692191722399),
    (0.043488602396453205, 2.60106104429676382),
    (0.1265356778542081, 1.61265810385680734),
    (0.3681718171593805, 0.758865962034556683),
    (1.0712432196919086, 0.194937344128928356),
    (3.116919824526147, 0.0112512693767428437),
    (9.06907881789739, 1.15355620356788257e-05),
    (26.387650384218386, 1.26758348641246803e-13),
    (76.77826014981922, 5.81884920061867588e-36),
    (223.39621549476257, 4.25842844220928071e-100),
    (650.0, 7.85247922273394105e-286),
]

# mpmath gamma(x), 50 dps
GAMMA_TABLE = [
    (0.5, 1.77245385090551603),
    (1.0, 1.0),
    (1.5, 0.886226925452758014),
    (2.0, 1.0),
    (2.5, 1.32934038817913702),
    (3.5, 3.32335097044784255),
    (4.5, 11.6317283965674489),
    (5.5, 52.3427777845535202),
    (6.5, 287.885277815044361),
    (7.5, 1871.25430579778835),
    (8.5, 14034.4072934834126),
    (9.5, 119292.461994609007),
    (10.5, 1133278.38894878557),
    (12.5, 136843365.465565857),
    (15.5, 334838609873.556457),
    (20.5, 540624298233507504.0),
    (30.5, 4.8226969334909086e+31),
    (50.5, 4.29046291235195981e+63),
    (100.5, 9.32096310408271661e+156),
    (150.5, 4.66107262709737792e+261),
]

# mpmath hyp2f1(a, b, c, z), 50 dps; (a, b, c) runs over the SER family, and
# hyp2f1_complement takes w = 1 - z (exact for these z)
HYP2F1_TABLE = [
    ((2.5, 1.5, 2.0, 0.05), 1.10106405920870257),
    ((2.5, 1.5, 2.0, 0.35), 2.25819424247007163),
    ((2.5, 1.5, 2.0, 0.65), 7.4302710056174547),
    ((2.5, 1.5, 2.0, 0.95), 343.55253595297402),
    ((4.5, 1.5, 4.0, 0.05), 1.09056582047992693),
    ((4.5, 1.5, 4.0, 0.35), 2.08960159171959819),
    ((4.5, 1.5, 4.0, 0.65), 6.24639965547959419),
    ((4.5, 1.5, 4.0, 0.95), 245.966597725923753),
    ((6.5, 1.5, 6.0, 0.05), 1.08704931548469745),
    ((6.5, 1.5, 6.0, 0.35), 2.03111561322005984),
    ((6.5, 1.5, 6.0, 0.65), 5.81395210279304255),
    ((6.5, 1.5, 6.0, 0.95), 206.555620672613),
    ((8.5, 1.5, 8.0, 0.05), 1.08528674793345672),
    ((8.5, 1.5, 8.0, 0.35), 2.00125283279159482),
    ((8.5, 1.5, 8.0, 0.65), 5.58636310497193331),
    ((8.5, 1.5, 8.0, 0.95), 184.29209290525328),
    ((10.5, 1.5, 10.0, 0.05), 1.08422762900854781),
    ((10.5, 1.5, 10.0, 0.35), 1.98309828800513326),
    ((10.5, 1.5, 10.0, 0.65), 5.44515292071995834),
    ((10.5, 1.5, 10.0, 0.95), 169.70246381928986),
]

# adaptive quadrature of the defining normal-tail integral, 50 dps
# (deep-tail entries from the complementary normal CDF at the same precision)
Q_TABLE = [
    (-8.0, 0.999999999999999378),
    (-5.0, 0.999999713348428121),
    (-3.0, 0.998650101968369905),
    (-2.0, 0.977249868051820793),
    (-1.5, 0.933192798731141934),
    (-1.0, 0.841344746068542949),
    (-0.5, 0.691462461274013104),
    (-0.1, 0.539827837277028984),
    (0.0, 0.5),
    (0.1, 0.460172162722971016),
    (0.5, 0.308537538725986896),
    (1.0, 0.158655253931457051),
    (1.5, 0.066807201268858066),
    (1.6448536, 0.0500000027796574564),
    (2.0, 0.0227501319481792072),
    (3.0, 0.00134989803163009453),
    (5.0, 2.86651571879193912e-07),
    (8.0, 6.22096057427178412e-16),
    (15.0, 3.67096619931275101e-51),
    (30.0, 4.90671392714818706e-198),
]


def rel_err(got, want):
    return abs(got - want) / abs(want) if want != 0 else abs(got)


class TestGaussQ:
    """The Gaussian tail that tests/conftest.py::ser_fading_oracle evaluates."""

    def test_symmetry_point(self):
        assert q_func(0.0) == 0.5

    def test_limits(self):
        assert q_func(math.inf) == 0.0
        assert q_func(-math.inf) == 1.0

    @pytest.mark.parametrize("x,expected", Q_TABLE)
    def test_against_integral_oracle(self, x, expected):
        assert rel_err(q_func(x), expected) < 1e-12

    def test_five_percent_point(self):
        # quadrature of the defining integral at the 5% quantile
        assert abs(q_func(1.6448536) - 0.0500000027796574564) < 1e-12

    @given(st.floats(-5.0, 5.0), st.floats(1e-4, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, x, gap):
        # range chosen so the decrement stays above one ulp of the value
        assert q_func(x + gap) < q_func(x)


class TestBesselK1:
    @pytest.mark.parametrize("x,expected", K1_TABLE)
    def test_against_oracle(self, x, expected):
        assert rel_err(bessel_k1(x), expected) < 1e-12

    def test_unit_argument(self):
        assert rel_err(bessel_k1(1.0), 0.60190723019723457474) < 1e-13

    @pytest.mark.parametrize("x", [1e-6, 1e-5, 1e-4])
    def test_small_argument_limit(self, x):
        # x K1(x) -> 1 with a logarithmic envelope
        assert abs(x * bessel_k1(x) - 1.0) <= 5.0 * x * abs(math.log(x))

    @pytest.mark.parametrize("x", [5e-324, 1e-323, 1e-320, 5e-309])
    def test_saturates_at_tiny_argument(self, x):
        # 1 / x overflows below ~5.6e-309; at 5e-324 x / 2 even rounds to 0
        assert bessel_k1(x) == math.inf

    @given(st.floats(1e-323, 2.0, exclude_max=True))
    @example(1e-323)
    @settings(max_examples=200, deadline=None)
    def test_small_branch_is_the_series(self, x):
        assert bessel_k1(x) == sfun._k1_small(x)

    def test_large_argument_asymptotic(self):
        # e^-x sqrt(pi/2x) sum_k a_k / x^k with
        # a_k = prod_{j<=k} (4 - (2j-1)^2) / (k! 8^k); six terms suffice
        # for truncation error well under 1e-10 at x = 100
        x = 100.0
        series = 0.0
        for k in range(6):
            num = 1
            for j in range(1, k + 1):
                num *= 4 - (2 * j - 1) ** 2
            series += num / (math.factorial(k) * 8.0**k) / x**k
        approx = math.exp(-x) * math.sqrt(math.pi / (2 * x)) * series
        assert rel_err(bessel_k1(x), approx) < 1e-10

    @given(st.floats(1e-6, 600.0), st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, x, gap):
        assert bessel_k1(x + gap) < bessel_k1(x)

    def test_branch_crossover_is_smooth(self):
        below = bessel_k1(2.0 - 1e-12)
        above = bessel_k1(2.0 + 1e-12)
        assert rel_err(below, above) < 1e-10

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -math.inf, float("nan")])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            bessel_k1(x)

    @given(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    @example(math.nextafter(2.0, 0.0))
    @example(5e-324)  # both forms raise on log(0.5 x) = log(0)
    @example(0.930778009682853)  # the psi series sums to ~0: its longest run
    @settings(max_examples=400, deadline=None)
    def test_series_table_changes_no_bit(self, x):
        assert outcome(sfun._k1_small, x) == outcome(k1_small_oracle, x)

    def test_series_table_outlasts_both_series(self):
        # a term of either series is at most q^k / (k! (k+1)!) with q < 1 and
        # both loops stop once it underflows to 0
        q = math.nextafter(1.0, 0.0)
        term = 1.0
        for kk, _ in sfun._K1_ROWS:
            term *= q / kk
        assert term == 0.0


class TestExpIntegral:
    @pytest.mark.parametrize("x,expected", E1_TABLE)
    def test_against_oracle(self, x, expected):
        assert rel_err(exp_integral_e1(x), expected) < 1e-12

    def test_unit_argument(self):
        assert rel_err(exp_integral_e1(1.0), 0.21938393439552027368) < 1e-13

    @pytest.mark.parametrize("x", [1e-6, 1e-5, 1e-4])
    def test_small_argument_limit(self, x):
        assert x * exp_integral_e1(x) <= x * (abs(math.log(x)) + 1.0)

    def test_large_argument_asymptotic(self):
        # e^-x / x (1 - 1/x + 2/x^2 - 6/x^3)
        x = 50.0
        series = 1.0 - 1.0 / x + 2.0 / x**2 - 6.0 / x**3
        approx = math.exp(-x) / x * series
        assert rel_err(exp_integral_e1(x), approx) < 1e-5
        assert rel_err(exp_integral_e1(x), 3.7832640295504590187e-24) < 1e-12

    @given(st.floats(1e-6, 500.0), st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, x, gap):
        assert exp_integral_e1(x + gap) < exp_integral_e1(x)

    @pytest.mark.parametrize("x", [0.0, -2.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            exp_integral_e1(x)

    def test_scaled_fraction_changes_no_bit(self):
        # reprs taken before the continued fraction's e^x E1(x) became its own
        # function for cdf_truncation_bound
        want = ["13.23829589306249", "12.170272385802093", "11.10225252520885",
                "10.034243274984927", "8.966264896338723", "7.8983763369665345",
                "6.830749071344992", "5.763881675984024", "4.699221859697611",
                "3.640956921917224", "2.6010610442967637", "1.6126581038568075",
                "0.7588659620345567", "0.1949373441289285", "0.011251269376742841",
                "1.1535562035678825e-05", "1.2675834864124673e-13",
                "5.8188492006186746e-36", "4.25842844220928e-100",
                "7.852479222733942e-286"]
        assert [repr(exp_integral_e1(x)) for x, _ in E1_TABLE] == want


class TestGamma:
    def test_half(self):
        assert rel_err(gamma_fn(0.5), math.sqrt(math.pi)) < 1e-15

    def test_five_halves(self):
        assert rel_err(gamma_fn(2.5), 0.75 * math.sqrt(math.pi)) < 1e-14

    def test_thirteen_halves(self):
        # repeated recurrence from Gamma(1/2)
        assert rel_err(gamma_fn(6.5), 287.885277815044361) < 1e-13

    @pytest.mark.parametrize("x,expected", GAMMA_TABLE)
    def test_against_oracle(self, x, expected):
        assert rel_err(gamma_fn(x), expected) < 1e-13

    @given(st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_half_integers(self, k):
        x = 0.5 + k
        assert rel_err(gamma_fn(x + 1.0), x * gamma_fn(x)) < 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)

    @pytest.mark.parametrize("x", [-math.inf, math.nan])
    def test_not_a_point_of_the_line(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)

    @pytest.mark.parametrize("x, expected", [
        (math.inf, math.inf), (171.63, math.inf), (200.0, math.inf),
        (5e-324, math.inf), (-5e-324, -math.inf)])
    def test_overflow_is_signed_inf(self, x, expected):
        assert gamma_fn(x) == expected


class TestDigamma:
    @pytest.mark.parametrize("x", [0.03, 0.5, 1.0, 1.5, 2.5, 7.3, 19.0, 250.0])
    def test_against_mpmath(self, x):
        assert rel_err(digamma(x), float(mp.digamma(x))) < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)


def _ser_family(i):
    # the hypergeometric of SER series term i; c - a - b = -2
    return 2 * i + 2.5, 1.5, 2.0 * i + 2.0


class TestHyp2f1:
    """hyp2f1_complement(a, b, c, 1 - z), the 2F1 of the SER family."""

    def test_unit_at_zero(self):
        assert hyp2f1_complement(2.5, 1.5, 2.0, 1.0) == 1.0
        assert hyp2f1_complement(*_ser_family(MAX_N_TERMS - 1), 1.0) == 1.0

    def test_spec_points(self):
        assert rel_err(hyp2f1_complement(2.5, 1.5, 2.0, 1 - 0.5),
                       3.7311978701083123947) < 1e-12
        assert rel_err(hyp2f1_complement(4.5, 1.5, 4.0, 1 - 0.9),
                       64.410023407461525113) < 1e-12

    @pytest.mark.parametrize("args,expected", HYP2F1_TABLE)
    def test_against_oracle(self, args, expected):
        a, b, c, z = args
        assert rel_err(hyp2f1_complement(a, b, c, 1 - z), expected) < 1e-11

    # every term of the SER series that --n-terms can reach, from the
    # crossover of the two evaluation paths (z = 0.5) to z -> 1
    @pytest.mark.parametrize("i", range(MAX_N_TERMS))
    @pytest.mark.parametrize("z", [0.5, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])
    def test_near_unit_argument(self, i, z):
        a, b, c = _ser_family(i)
        want = float(mp.hyp2f1(a, b, c, z))
        assert rel_err(hyp2f1_complement(a, b, c, 1 - z), want) < 1e-9

    @pytest.mark.parametrize("abc", [(2.5, 1.5, 2.25), (4.5, 1.5, 4.3), (2.5, 1.5, 2.001)])
    @pytest.mark.parametrize("z", [0.55, 0.9, 0.9999])
    def test_perturbed_family_nondegenerate_branch(self, abc, z):
        # c - a - b off -2 is no SER term: refused, not evaluated
        with pytest.raises(DomainError, match="is not"):
            hyp2f1_complement(*abc, 1 - z)

    @given(st.integers(0, 3), st.floats(0.4, 0.6))
    @settings(max_examples=80, deadline=None)
    def test_series_and_transformation_agree(self, i, z):
        # the two evaluation paths must match through the crossover band
        a, b, c = _ser_family(i)
        w = 1.0 - z
        direct = _hyp_series(a, b, c, z)
        transformed = w ** -2.0 * sfun._hyp_log_series(c - a, c - b, 2, w)
        assert rel_err(transformed, direct) < 1e-8

    def test_divergent_argument(self):
        with pytest.raises(NonConvergenceError):
            hyp2f1_complement(2.5, 1.5, 2.0, 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp2f1_complement(2.5, 1.5, 0.0, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_complement(2.5, 1.5, -3.0, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_complement(2.5, 1.5, 2.0, 1.1)
        with pytest.raises(DomainError, match="NaN argument"):
            hyp2f1_complement(2.5, 1.5, 2.0, math.nan)

    @pytest.mark.parametrize("args", [
        (60.0, 1.5, 59.5, 0.5),  # c - a - b = -2 but no term: it returned 965, not 2.86
        (*_ser_family(MAX_N_TERMS), 0.3),  # (22.5, 1.5, 22.0), past the term cap
        (2.5, 1.5, 2.25, 0.3),
        (1.5, 2.5, 2.0, 0.3),  # a and b swapped
        (math.nan, 1.5, 2.0, 0.3),
    ])
    def test_outside_the_family(self, args):
        with pytest.raises(DomainError, match="is not"):
            hyp2f1_complement(*args)


class TestSerTermsAgainstMpmath:
    """Every SER term --n-terms can reach, against live mpmath.

    The log series behind the Euler transform cancels for large a: term 14
    (a = 30.5) is off by 4.7e-7 at w = 0.5. At w = 0.5 terms 5...9 are
    already off by 1.1e-12...3.3e-10, so there they are held to 5e-10,
    which term 10 (8.1e-10) would miss: raising MAX_N_TERMS fails here.
    """

    @pytest.mark.parametrize("i", range(MAX_N_TERMS))
    @pytest.mark.parametrize("w", [1e-300, 1e-12, 1e-3, 0.1, 0.3, 0.5])
    def test_term(self, i, w):
        a, b, c = _ser_family(i)
        tol = 5e-10 if w == 0.5 and i >= 5 else 1e-12
        # the transformed F(c - a, c - b; c; 1 - w), where the cancellation
        # is; at w = 1e-300 it is its value at 1 to within 1e-297
        z = 1 if w < 1e-100 else 1 - mp.mpf(w)
        g = mp.hyp2f1(c - a, c - b, c, z)
        assert rel_err(sfun._hyp_log_series(c - a, c - b, 2, w), float(g)) < tol
        got = hyp2f1_complement(a, b, c, w)
        if w < 1e-100:
            # the term's 2F1, about g / w^2, exceeds the double range
            assert got == math.inf
        else:
            assert rel_err(got, float(mp.hyp2f1(a, b, c, 1 - mp.mpf(w)))) < tol


class TestLogSeriesTables:
    """The log series tabulates its w-independent factors per (a, b, m) and
    must return exactly what the per-call evaluation returned."""

    @pytest.fixture(autouse=True)
    def fresh_tables(self, monkeypatch):
        monkeypatch.setattr(sfun, "_log_tables", {})

    def test_ser_family_bit_identical(self, per_call_series):
        # log-spaced over 1e-300...0.5, then 0.5 and its two neighbours
        lo, hi = -300.0, math.log10(0.5)
        ws = [10.0 ** (lo + (hi - lo) * k / 399) for k in range(400)]
        ws += [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]
        # families interleaved at every w, so each table grows between reads
        # of the others
        mismatches = [
            (i, w) for w in ws for i in range(6)
            if outcome(hyp2f1_complement, *_ser_family(i), w)
            != per_call_series(hyp2f1_complement, *_ser_family(i), w)
        ]
        assert mismatches == []

    def test_every_ser_term_bit_identical(self, per_call_series):
        # every term --n-terms can reach, log-spaced over 1e-300...1, with
        # 0.5 and its two neighbours, so the direct series for w > 0.5 too
        ws = [10.0 ** (-300.0 * k / 299) for k in range(300)]
        ws += [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]
        mismatches = [
            (i, w) for w in ws for i in range(MAX_N_TERMS)
            if outcome(hyp2f1_complement, *_ser_family(i), w)
            != per_call_series(hyp2f1_complement, *_ser_family(i), w)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("w", [1e-12, 1e-3, 0.2, 0.5])
    def test_other_degenerate_families(self, w):
        # m = 1 and 3, m = -1 and -3, a swapped (a, b), a pole (b = -1) and
        # a + m = -0.5: none is a SER term, so each is refused and builds
        # no table
        abms = [(1.5, 2.5, 1), (2.5, 1.5, 1), (1.5, 2.5, 3), (0.25, 0.75, -1),
                (3.5, 1.5, -3), (2.5, -1.0, 2), (-2.5, 0.5, 2), (-0.5, 1.5, 2)]
        for a, b, m in abms:
            with pytest.raises(DomainError, match="is not"):
                hyp2f1_complement(a, b, a + b + m, w)
        assert sfun._log_tables == {}

    def test_stall_is_bit_identical(self, monkeypatch):
        # the SER family converges far inside the table and the oracle's term
        # cap, so lower both
        monkeypatch.setattr(sfun, "_LOG_ROWS", 8)
        monkeypatch.setattr(sfun, "_SERIES_MAX_TERMS", 8)
        got = [outcome(sfun._hyp_log_series, -0.5, 2.5, 2, w)
               for w in (1e-6, 0.3, 1e-3, 0.5)]
        want = [outcome(hyp_log_series_oracle, -0.5, 2.5, 2, w)
                for w in (1e-6, 0.3, 1e-3, 0.5)]
        assert got == want
        assert "stalled" in got[1] and "stalled" not in got[0]
        assert len(sfun._log_tables[(-0.5, 2.5, 2)].rows) == 8

    def test_first_call_builds_the_whole_table(self):
        # a tiny w reads 5 rows, but the first call builds them all, and
        # calls that read further add none
        key = (-0.5, 2.5, 2)
        hyp2f1_complement(*_ser_family(1), 1e-200)
        rows = sfun._log_tables[key].rows
        assert len(rows) == sfun._LOG_ROWS
        hyp2f1_complement(*_ser_family(1), 0.5)
        hyp2f1_complement(*_ser_family(1), 1e-3)
        assert sfun._log_tables[key].rows is rows
        assert list(sfun._log_tables) == [key]

    def test_table_count_is_bounded(self):
        # one table per SER term and none for any other parameter set, so
        # the family bounds the tables without eviction
        for k in range(70):
            for abc in (_ser_family(k % MAX_N_TERMS), (2.5 + k / 64.0, 1.5, 2.0 + k / 64.0)):
                outcome(hyp2f1_complement, *abc, 0.25)
        assert sorted(sfun._log_tables) == [(-0.5, 2 * i + 0.5, 2) for i in range(MAX_N_TERMS)]

    def test_threads_racing_on_a_fresh_term_get_the_oracle_bits(self):
        # four threads start together on a term that has no table yet, so
        # they race to build it and read it; each must get the oracle's bits
        # at every w
        ws = [k / 800.0 for k in range(1, 401)]
        want = [hyp_log_series_oracle(-0.5, 4.5, 2, w) for w in ws]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(10):
                sfun._log_tables.clear()
                results = {}
                barrier = threading.Barrier(4)

                def work(t):
                    barrier.wait(timeout=30)
                    results[t] = [sfun._hyp_log_series(-0.5, 4.5, 2, w) for w in ws]

                threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                    assert not th.is_alive()
                assert all(results[t] == want for t in range(4))
        finally:
            sys.setswitchinterval(interval)
