"""Closed-form performance expressions for the two-hop full-duplex link.

Covers the end-to-end SINR CDF (the paper's asymptotic closed form, and the
exact CDF of the simulated SINR as the same closed form plus one correction
integral), the SER series built on the staged exponential approximation of
1/(1+x), the high-power reduction, the interference-limited floor, and the
convex surrogate objective behind the power/location optimizers. The exact
CDF's correction and ser_quadrature share one adaptive Gauss-Kronrod
integrator written on the standard library (the "quadrature plumbing"
section), so no route here loads numpy or scipy.

Conventions: stats holds mean link SNRs (see model.LinkStats), cfg holds
(alpha_mod, beta_mod) of the Q-function SER model. SER outputs are clamped
to [0, alpha/2], silently, because the asymptotic series is only meaningful
where it stays in range.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Callable
from functools import lru_cache
from operator import itemgetter

from .errors import DomainError, QuadratureError
from .model import Allocation, LinkStats, SystemConfig, _Record, _setattr
from .sfun import MAX_N_TERMS, bessel_k1, gamma_fn, hyp2f1_complement

__all__ = [
    "ApproxCoeffs",
    "approx_coeffs",
    "sinr_cdf_asymptotic",
    "sinr_cdf_exact_numeric",
    "outage",
    "ser_series",
    "ser_series_terms",
    "ser_quadrature",
    "ser_from_cdf",
    "ser_high_power",
    "ser_floor",
    "ser_location_optimized",
    "ser_power_optimized",
    "f_objective",
    "f_gradient",
    "kappa",
    "DEFAULT_N_TERMS",
    "MAX_N_TERMS",
]

DEFAULT_N_TERMS = 3
# MAX_N_TERMS, the cap on n_terms, is sfun's: hyp2f1_complement serves the
# terms below it and no others. Past ~10 terms the series gains nothing that
# ser_quadrature cannot give.

_W_FINITE = 1e-150  # below it w^-2, and so each SER term's 2F1, passes 1e300

# bounds on the quadrature error estimates of the two oracles; a larger
# estimate raises QuadratureError
_CDF_ABS_TOL = 1e-10
_SER_ABS_TOL = 1e-9

_2PI = 2.0 * math.pi


def kappa(cfg: SystemConfig) -> float:
    """Prefactor alpha sqrt(beta) Gamma(1/2) / (2 sqrt(2 pi)); equals 1/2 for BPSK."""
    return cfg.alpha_mod * math.sqrt(cfg.beta_mod) / (2.0 * math.sqrt(_2PI)) * gamma_fn(0.5)


# ---------------------------------------------------------------------------
# staged exponential approximation of 1/(1+x)
# ---------------------------------------------------------------------------

class ApproxCoeffs(_Record):
    """Pairs (A_i, B_i) of the approximation 1/(1+x) ~ sum A_i x^(2i) e^(-B_i x).

    `exact` carries the rational values (fractions.Fraction); the SER series
    evaluates their float projections, _COEFF_PAIRS. A_0 = B_0 = 1 always.
    """

    __slots__ = ("exact",)

    def __init__(self, exact: tuple[tuple, ...]):
        _setattr(self, "exact", exact)


# the floats of approx_coeffs(MAX_N_TERMS).exact, the (A_i, B_i) that the SER
# series evaluates, so that it imports no fractions; a test pins them bit for bit
_COEFF_PAIRS = (
    (1.0, 1.0),
    (0.5, 1.6666666666666667),
    (0.2638888888888889, 2.295906432748538),
    (0.14235632806295576, 2.9078257511320547),
    (0.07773656967697727, 3.509500581520534),
    (0.04278490378955477, 4.104327576659633),
    (0.023678862860090393, 4.694222151659988),
    (0.013159038762172849, 5.280379110370489),
    (0.007336350558475495, 5.8635975980469395),
    (0.004100636697776902, 6.444440273934541),
)


def _check_n_terms(n_terms: int) -> None:
    if not 1 <= n_terms <= MAX_N_TERMS:
        raise DomainError(
            f"approx_coeffs: n_terms must be in 1..{MAX_N_TERMS}, got {n_terms}")


@lru_cache(maxsize=32)
def approx_coeffs(n_terms: int) -> ApproxCoeffs:
    """Generate the first n_terms coefficient pairs by the sequential
    recurrence that matches consecutive Taylor coefficients of 1/(1+x).

    A_i = 1 - sum_{j<i} A_j B_j^(2i-2j) / (2i-2j)!
    B_i = (1 - sum_{j<i} A_j B_j^(2i-2j+1) / (2i-2j+1)!) / A_i
    """
    from fractions import Fraction  # ~3.5 ms of import, decimal included

    _check_n_terms(n_terms)
    a: list[Fraction] = [Fraction(1)]
    b: list[Fraction] = [Fraction(1)]
    for i in range(1, n_terms):
        ai = Fraction(1) - sum(
            a[j] * b[j] ** (2 * i - 2 * j) / math.factorial(2 * i - 2 * j)
            for j in range(i)
        )
        bi = (
            Fraction(1)
            - sum(
                a[j] * b[j] ** (2 * i - 2 * j + 1) / math.factorial(2 * i - 2 * j + 1)
                for j in range(i)
            )
        ) / ai
        a.append(ai)
        b.append(bi)
    return ApproxCoeffs(exact=tuple(zip(a, b)))


# ---------------------------------------------------------------------------
# SINR CDF
# ---------------------------------------------------------------------------

def sinr_cdf_asymptotic(x: float, stats: LinkStats) -> float:
    """High-power closed form of the end-to-end SINR CDF.

    F(x) = 1 - e^{-(1/l_sr + 1/l_rd) x} / (1 + eta x) * u K1(u),
    u = 2x / sqrt(l_sr l_rd). At eta = 0 it is the CDF of the upper-bound
    SINR ab/(a + b); otherwise it lies below that CDF, by at most C g e^g
    E1(g), the dropped interference correction, with g = eta x^2 / (l_rd (1
    + eta x)) and C = e^{-(1/l_sr + 1/l_rd) x}. The CDF of the simulated
    SINR ab/(a + b + 1), sinr_cdf_exact_numeric, lies above both.
    """
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"sinr_cdf_asymptotic: x must be >= 0, got {x}")
    return _cdf(stats, False)(x)


def sinr_cdf_exact_numeric(x: float, stats: LinkStats) -> float:
    """Exact CDF of the simulated SINR ab/(a + b + 1), a = g_sr/(g_li + 1),
    b = g_rd (Hasna & Alouini, IEEE TWC 2003): the closed form of
    sinr_cdf_asymptotic at x(x + 1) in place of x^2, plus one correction.

    Given the second hop's excess E ~ Exp(l_rd) over x, partial fractions
    split the survivor into

        F(x) = 1 - e^{-s} [u K1(u) / (1 + eta x) - C(x)],
        u = 2 sqrt(x (x + 1) / (l_sr l_rd)),  s = (1/l_sr + 1/l_rd) x,
        C(x) = (eta x (x + 1) / (l_rd (1 + eta x)))
               int_0^inf e^{-E/l_rd - c/E} / ((1 + eta x) E + eta x (x + 1)) dE,

    with c = x (x + 1) / l_sr. C = 0 at eta = 0, where no integral runs;
    otherwise e^{-s} C is integrated by adaptive quadrature over ln(E/l_rd),
    its error estimate bounded by _CDF_ABS_TOL.
    """
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"sinr_cdf_exact_numeric: x must be >= 0, got {x}")
    return _cdf(stats, True)(x)


_LOG_745 = math.log(745.0)  # e^-t underflows past t = 745


def _cdf(stats: LinkStats, exact: bool) -> Callable[[float], float]:
    """The function x -> sinr_cdf_exact_numeric(x, stats) (exact) or
    sinr_cdf_asymptotic(x, stats) for x >= 0, with the factors that do not
    depend on x computed once."""
    # the product of the roots where lambda_sr lambda_rd underflows to 0
    root = (math.sqrt(stats.lambda_sr * stats.lambda_rd)
            or math.sqrt(stats.lambda_sr) * math.sqrt(stats.lambda_rd))
    rate = 1.0 / stats.lambda_sr + 1.0 / stats.lambda_rd
    eta = stats.eta

    def cdf(x: float) -> float:
        if x == 0.0:
            return 0.0
        # the exact route's x (x + 1) in place of x^2, as roots so that it
        # cannot overflow
        u = 2.0 * (math.sqrt(x) * math.sqrt(x + 1.0) if exact else x) / root
        if u == math.inf or x == math.inf:
            # u K1(u) -> 0, so F -> 1; the product below would be inf * 0,
            # and u is inf / inf where l_sr l_rd overflows as well
            return 1.0
        # u K1(u) -> 1 with O(u^2 ln u) error; shortcut also avoids 1/u
        # overflow for denormal u
        uk1 = 1.0 if u < 1e-12 else u * bessel_k1(u)
        k = math.exp(-rate * x) / (1.0 + eta * x)
        f = 1.0 - k * uk1
        if exact and eta and k:
            f += _rsi_correction(x, k, root, stats)
        # min(max(f, 0), 1), NaN and -0.0 included
        return 0.0 if f < 0.0 else 1.0 if f > 1.0 else f

    return cdf


def _rsi_correction(x: float, k: float, root: float, stats: LinkStats) -> float:
    """e^{-s} C(x) of sinr_cdf_exact_numeric at eta > 0, given k = e^{-s} /
    (1 + eta x) and root = sqrt(l_sr l_rd).

    Over w = ln(E / l_rd), with t = e^w, it is k int t e^{-t - g/t} / (1 +
    b t) dw, g = (u/2)^2 = x (x + 1) / (l_sr l_rd) and b = (1 + eta x) l_rd
    / (eta x (x + 1)). Outside [ln(g / 745), ln 745] an exponential has
    underflowed, and the integrand is at most t, so below w = -700 it adds
    less than 1e-304.
    """
    # g in logs, since it can underflow
    log_g = math.log(x) + math.log1p(x) - 2.0 * math.log(root)
    lo = max(log_g - _LOG_745, -700.0)
    if lo >= _LOG_745:
        # t + g/t >= 2 sqrt(g) = u > 1490 everywhere
        return 0.0
    # inf where eta x underflows, and then the integrand is 0
    b = (1.0 + 1.0 / stats.eta / x) * stats.lambda_rd / (x + 1.0)

    def integrand(ws: list[float]) -> list[float]:
        out = []
        for w in ws:
            t = math.exp(w)
            out.append(k * t * math.exp(-t - math.exp(log_g - w)) / (1.0 + b * t))
        return out

    # the layer g/t ~ 1, the peak t = sqrt(g), the scale t ~ 1 and the knee bt = 1
    marks = {log_g, 0.5 * log_g, 0.0, -math.log(b) if b else 0.0}
    return _quad_checked(integrand, lo, _LOG_745, _CDF_ABS_TOL, "sinr_cdf_exact_numeric",
                         sorted(m for m in marks if lo < m < _LOG_745))[0]


def outage(threshold: float, stats: LinkStats, mode: str = "asymptotic") -> float:
    """Outage probability = CDF of the end-to-end SINR at `threshold`."""
    if mode == "asymptotic":
        return sinr_cdf_asymptotic(threshold, stats)
    if mode == "exact":
        return sinr_cdf_exact_numeric(threshold, stats)
    raise DomainError(f"outage: mode must be 'asymptotic' or 'exact', got {mode!r}")


# ---------------------------------------------------------------------------
# SER
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _series_coeffs(n_terms: int) -> tuple[tuple[float, float, float], ...]:
    """(A_i, B_i, C_i) of ser_series_terms as floats, one triple per term."""
    _check_n_terms(n_terms)
    return tuple(
        (a_i, b_i, gamma_fn(2 * i + 2.5) * gamma_fn(2 * i + 0.5) / math.factorial(2 * i + 1))
        for i, (a_i, b_i) in enumerate(_COEFF_PAIRS[:n_terms])
    )


def ser_series_terms(stats: LinkStats, cfg: SystemConfig,
                     n_terms: int = DEFAULT_N_TERMS) -> list[float]:
    """The individual series contributions I_i whose sum approximates alpha/2 - SER.

    I_i = C_i * (2 alpha sqrt(2 beta) / (l_sr l_rd))
              * A_i eta^(2i) / X_i^(2i + 5/2)
              * 2F1(2i + 5/2, 3/2; 2i + 2; Y_i / X_i)

    with C_i = Gamma(2i + 5/2) Gamma(2i + 1/2) / (2i + 1)! and
    X_i, Y_i = beta/2 + eta B_i + (1/sqrt(l_sr) +- 1/sqrt(l_rd))^2.

    A term of weight eta^(2i) = 0 (i >= 1 at eps = 0) skips its 2F1 where
    that is finite and > 0, which leaves the term's signed zero unchanged.
    """
    alpha = cfg.alpha_mod
    beta = cfg.beta_mod
    lsr = stats.lambda_sr
    lrd = stats.lambda_rd
    eta = stats.eta
    prod = lsr * lrd
    if not 0.0 < prod < math.inf:
        # past ~1535 dB (default scenario) the product overflows to inf and
        # far below 0 dB it underflows to 0; delta would be 0 or undefined
        raise DomainError(f"l_sr * l_rd out of range: l_sr={lsr}, l_rd={lrd}")
    try:
        s_plus = (1.0 / math.sqrt(lsr) + 1.0 / math.sqrt(lrd)) ** 2
    except OverflowError:
        # a subnormal l_sr or l_rd
        raise DomainError(f"series terms out of range: (1/sqrt(l_sr) + 1/sqrt(l_rd))^2 "
                          f"overflows at l_sr={lsr}, l_rd={lrd}") from None
    # X_i - Y_i collapses to 4 / sqrt(l_sr l_rd) exactly; feeding the
    # complement w = (X_i - Y_i) / X_i to the hypergeometric keeps full
    # precision at high power, where Y_i/X_i approaches 1
    delta = 4.0 / math.sqrt(prod)
    pref = 2.0 * alpha * math.sqrt(2.0 * beta) / prod
    out = []
    try:
        for i, (a_i, b_i, c_i) in enumerate(_series_coeffs(n_terms)):
            x_i = beta / 2.0 + eta * b_i + s_plus
            w = delta / x_i
            if w > 1.0 or not w:
                # far below 0 dB beta/2 is lost against s_plus, and delta / x_i
                # can round past 1, where the 2F1 argument 1 - w turns negative;
                # against a vast eta B_i it underflows to 0, where the 2F1 diverges
                raise DomainError(f"series terms out of range: 2F1 argument 1 - w "
                                  f"{'< 0' if w else '= 1'} with w={w!r} "
                                  f"at l_sr={lsr}, l_rd={lrd}")
            if eta ** (2 * i) == 0.0 and _W_FINITE <= w:
                hyp = 1.0
            else:
                hyp = hyp2f1_complement(2 * i + 2.5, 1.5, 2.0 * i + 2.0, w)
            term = c_i * pref * a_i * eta ** (2 * i) / x_i ** (2 * i + 2.5) * hyp
            if term != term:
                # the 2F1 saturated to inf (w^-2 overflows below w ~ 1e-154)
                # where its weight underflowed to 0
                raise DomainError(f"series terms out of range: term {i} is NaN, its 2F1 "
                                  f"{hyp!r} at w={w!r}, l_sr={lsr}, l_rd={lrd}")
            out.append(term)
    except OverflowError:
        # far below 0 dB X_i ~ 4 / l_sr, and X_i^(2i + 5/2) overflows
        raise DomainError(f"series terms overflow: l_sr={lsr}, l_rd={lrd}") from None
    return out


def ser_series(stats: LinkStats, cfg: SystemConfig,
               n_terms: int = DEFAULT_N_TERMS) -> float:
    """Asymptotic average SER: alpha/2 minus the truncated contribution series.

    Clamped to [0, alpha/2]; the series can dip out of range at very low SNR
    where the high-power expansion is invalid.
    """
    half = 0.5 * cfg.alpha_mod
    raw = half - math.fsum(ser_series_terms(stats, cfg, n_terms))
    return raw if 0.0 <= raw <= half else min(max(raw, 0.0), half)


def ser_from_cdf(cdf: Callable[[float], float], cfg: SystemConfig) -> float:
    """Average SER alpha E[Q(sqrt(beta g))] for an SINR with the given CDF.

    Computed as (alpha sqrt(beta) / (2 sqrt(2 pi))) int_0^inf t^(-1/2) F(t)
    e^(-beta t / 2) dt; the substitution t = u^2 removes the endpoint
    singularity before adaptive quadrature. Clamped to [0, alpha/2]: where
    F is 1 almost everywhere, rounding lands an ulp above alpha/2.

    The map of [0, inf) onto (0, 1] starts from [0, 1/4, 1/2, 1], the panels
    that bisecting [0, 1] and then [0, 1/2] reached at every power up to 80
    dB, so no bit moves there (see "quadrature plumbing"). Above 80 dB,
    where the SER falls below ~1e-10, a coarser panel set could meet the
    tolerance, so the value may move within _SER_ABS_TOL.
    """
    beta = cfg.beta_mod
    c = -0.5 * beta

    def integrand(us: list[float]) -> list[float]:
        out = []
        for u in us:
            weight = math.exp(c * u * u)
            # where the weight has underflowed the product is 0 whatever F is
            out.append(cdf(u * u) * weight if weight else 0.0)
        return out

    val, err = _quad_checked(integrand, 0.0, math.inf, _SER_ABS_TOL, "ser_from_cdf")
    ser = cfg.alpha_mod * math.sqrt(beta) / math.sqrt(_2PI) * val
    return min(max(ser, 0.0), 0.5 * cfg.alpha_mod)


def ser_quadrature(stats: LinkStats, cfg: SystemConfig) -> float:
    """Numerical SER from the asymptotic CDF; oracle for ser_series."""
    return ser_from_cdf(_cdf(stats, False), cfg)


def ser_high_power(stats: LinkStats, cfg: SystemConfig) -> float:
    """Leading-term SER: alpha/2 - kappa (beta/2 + 1/l_sr + 1/l_rd + B0 eta)^(-1/2),
    B0 = 1."""
    f = cfg.beta_mod / 2.0 + 1.0 / stats.lambda_sr + 1.0 / stats.lambda_rd + stats.eta
    return 0.5 * cfg.alpha_mod - kappa(cfg) * f**-0.5


def f_objective(alloc: Allocation, cfg: SystemConfig) -> float:
    """Convex surrogate minimized by the power/location optimizers.

    f = beta/2 + ((1 + eps P_R) / P_S) D_SR^v + D_RD^v / P_R, which equals
    beta/2 + 1/l_sr + 1/l_rd + eta.
    """
    p_s, p_r = alloc.powers(cfg)
    d_sr, d_rd = alloc.distances(cfg)
    v = cfg.pathloss_exp
    return (
        cfg.beta_mod / 2.0
        + (1.0 + cfg.rsi_level * p_r) / p_s * d_sr**v
        + d_rd**v / p_r
    )


def f_gradient(alloc: Allocation, cfg: SystemConfig) -> tuple[float, float]:
    """(df/d rho_lambda, df/d rho_d) of the surrogate objective."""
    p = cfg.total_power
    eps = cfg.rsi_level
    v = cfg.pathloss_exp
    rl = alloc.rho_lambda
    rd = alloc.rho_d
    d = cfg.sum_distance
    d_sr = rd * d
    d_rd = (1.0 - rd) * d
    df_drl = -(1.0 + eps * p) * d_sr**v / (p * rl * rl) + d_rd**v / (p * (1.0 - rl) ** 2)
    df_drd = d**v * v * (
        rd ** (v - 1.0) * (1.0 + eps * (1.0 - rl) * p) / (rl * p)
        - (1.0 - rd) ** (v - 1.0) / ((1.0 - rl) * p)
    )
    return df_drl, df_drd


def ser_floor(alloc: Allocation, cfg: SystemConfig) -> float:
    """Interference-limited SER floor as total power grows without bound.

    alpha/2 - kappa (beta/2 + eps (P_R / P_S) D_SR^v)^(-1/2); zero when
    eps = 0.
    """
    p_s, p_r = alloc.powers(cfg)
    d_sr, _ = alloc.distances(cfg)
    arg = cfg.beta_mod / 2.0 + cfg.rsi_level * (p_r / p_s) * d_sr**cfg.pathloss_exp
    return 0.5 * cfg.alpha_mod - kappa(cfg) * arg**-0.5


def ser_location_optimized(cfg: SystemConfig, rho_lambda: float) -> float:
    """High-power SER with the relay placed at its closed-form optimum for a
    fixed power split."""
    if not 0.0 < rho_lambda < 1.0:
        raise DomainError(f"rho_lambda must be in (0,1), got {rho_lambda}")
    p = cfg.total_power
    eps = cfg.rsi_level
    v = cfg.pathloss_exp
    rbar = 1.0 - rho_lambda
    try:
        dv = cfg.sum_distance**v
        den = (1.0 + ((rbar / rho_lambda) * (1.0 + eps * rbar * p)) ** (1.0 / (v - 1.0))) ** (v - 1.0)
    except OverflowError:
        raise DomainError("ser_location_optimized: D^v or the optimal placement's "
                          "(1 + ratio^(1/(v-1)))^(v-1) overflows a float") from None
    num = (1.0 / (rho_lambda * p) + rbar / rho_lambda * eps) * dv
    return 0.5 * cfg.alpha_mod - kappa(cfg) * (cfg.beta_mod / 2.0 + num / den) ** -0.5


def ser_power_optimized(cfg: SystemConfig, rho_d: float) -> float:
    """High-power SER with the power split at its closed-form optimum for a
    fixed relay location."""
    if not 0.0 < rho_d < 1.0:
        raise DomainError(f"rho_d must be in (0,1), got {rho_d}")
    p = cfg.total_power
    eps = cfg.rsi_level
    v = cfg.pathloss_exp
    dv = cfg.sum_distance**v
    inner = (
        rho_d**v
        + (1.0 - rho_d) ** v
        + 2.0 * rho_d ** (v / 2.0) * (1.0 - rho_d) ** (v / 2.0) * math.sqrt(p * eps + 1.0)
    )
    return 0.5 * cfg.alpha_mod - kappa(cfg) * (cfg.beta_mod / 2.0 + dv / p * inner) ** -0.5


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------

# One adaptive integrator serves both integrals: QUADPACK's 21-point
# Gauss-Kronrod rule and error scaling (R. Piessens, E. de Doncker-Kapenga,
# C. W. Ueberhuber and D. K. Kahaner, "QUADPACK", Springer, 1983) under
# global bisection of the interval with the largest error estimate. Both
# integrands are smooth by construction: the CDF's break points mark its
# features, and the SER's substitution removes its endpoint singularity. So
# QUADPACK's extrapolation and roundoff bookkeeping would buy nothing here.
# An integrand maps a panel's 21 abscissae to their values in one call. The
# map of [lo, inf) onto (0, 1] starts from the edges [0, 1/4, 1/2, 1], not
# [0, 1]: up to 80 dB the SER integrand always bisected [0, 1] and then
# [0, 1/2] first, and since fsum rounds the value and the error exactly,
# they depend only on the final panels, so the start moves no bit there.
# Above 80 dB, where the SER falls below ~1e-10, the loop could stop on a
# coarser panel set, so the value may move within _SER_ABS_TOL.

# Kronrod abscissae on [-1, 1] (descending, centre last) and weights; _WG21
# are the weights of the embedded 10-point Gauss rule, whose nodes are the
# odd-numbered Kronrod abscissae
_XGK21 = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK21 = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG21 = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the order in which QUADPACK adds the symmetric node pairs: those at the
# Gauss nodes (odd 0-based index) first, then the Kronrod-only ones
_ORDER21 = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
# the same tables as _qk21 reads them: the node pairs' abscissae, (index,
# weight) in _ORDER21 order for each rule, and the centre's Kronrod weight
_XK21 = _XGK21[:10]
_KRONROD21 = tuple((j, _WGK21[j]) for j in _ORDER21)
_GAUSS21 = tuple(zip(_ORDER21[:5], _WG21))
_WK21_CENTRE = _WGK21[10]
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_QUAD_LIMIT = 300


def _qk21(f, a: float, b: float) -> tuple[float, float]:
    """21-point Kronrod rule on [a, b]: (integral, error estimate). f takes
    the list of abscissae, centre first, and returns their values."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fv = f([centr, *[centr - hlgth * x for x in _XK21], *[centr + hlgth * x for x in _XK21]])
    fc = fv[0]
    fv1 = fv[1:11]
    fv2 = fv[11:]
    resk = _WK21_CENTRE * fc
    resabs = abs(resk)
    for j, w in _KRONROD21:
        f1 = fv1[j]
        f2 = fv2[j]
        resk = resk + w * (f1 + f2)
        resabs = resabs + w * (abs(f1) + abs(f2))
    resg = 0.0
    for j, w in _GAUSS21:
        resg = resg + w * (fv1[j] + fv2[j])
    reskh = resk * 0.5
    resasc = _WK21_CENTRE * abs(fc - reskh)
    for w, v1, v2 in zip(_WGK21, fv1, fv2):
        resasc = resasc + w * (abs(v1 - reskh) + abs(v2 - reskh))
    resabs = resabs * hlgth
    resasc = resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    # QUADPACK's scaling of the Gauss-Kronrod difference
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5), without the OverflowError Python raises for huge r
        r = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if r >= 1.0 else r ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr


def _adaptive(f, edges, epsabs: float, epsrel: float) -> tuple[float, float]:
    """Integral of f over [edges[0], edges[-1]], split first at the inner
    edges: (value, error estimate). Bisects the interval with the largest
    error until the summed error is at most max(epsabs, epsrel |value|), the
    list holds _QUAD_LIMIT intervals, or the worst one no longer bisects. A
    NaN error stops at once."""
    heap = []  # (-error, a, b, value): the largest error comes first
    for a, b in zip(edges, edges[1:]):
        value, error = _qk21(f, a, b)
        heap.append((-error, a, b, value))
    heapq.heapify(heap)
    while True:
        value = math.fsum(map(itemgetter(3), heap))
        # fsum rounds exactly, and rounding is symmetric under negation
        error = -math.fsum(map(itemgetter(0), heap))
        if not error > max(epsabs, epsrel * abs(value)) or len(heap) >= _QUAD_LIMIT:
            return value, error
        _, a, b, _ = heap[0]
        mid = 0.5 * (a + b)
        if max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPMACH) * (abs(mid) + 1000.0 * _UFLOW):
            # the halves would be as wide as the rounding of their abscissae
            return value, error
        v1, e1 = _qk21(f, a, mid)
        v2, e2 = _qk21(f, mid, b)
        heapq.heapreplace(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))


def _quad_checked(fn, lo, hi, abs_tol: float, label: str,
                  points=()) -> tuple[float, float]:
    """Integral of fn over [lo, hi], with the sorted `points` inside it as
    break points; fn maps a list of abscissae to the list of their values.
    hi = inf maps [lo, inf) onto (0, 1] by x = lo + (1 - t)/t, with edges
    at t = 1/4 and 1/2 (see the comment above) and at each point's t = 1/(1
    + p - lo). Raises QuadratureError unless the error estimate is at most
    abs_tol."""
    if hi == math.inf:
        def f(ts: list[float]) -> list[float]:
            return [v / t / t for v, t in zip(fn([lo + (1.0 - t) / t for t in ts]), ts)]

        edges = sorted({0.0, 0.25, 0.5, 1.0,
                        *(1.0 / (1.0 + p - lo) for p in points if lo < p < hi)})
    else:
        f = fn
        edges = [lo, *(p for p in points if lo < p < hi), hi]
    val, err = _adaptive(f, edges, min(abs_tol * 1e-2, 1e-12), 1e-11)
    if math.isnan(err) or err > abs_tol:
        raise QuadratureError(
            f"{label}: quadrature error estimate {err:.3e} exceeds {abs_tol:.1e}",
            achieved_error=err,
        )
    return val, err
