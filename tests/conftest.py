"""Shared fixtures and independent oracle helpers.

Oracles here deliberately avoid the library's own code paths: scipy.special
for vectorized closed-form surfaces, mpmath for high-precision point values.
They include the paper's derivations that tests check and no command runs:
the exact coefficient recurrence of the SER series, the Gamma function of
its C_i, the exponential integral E1 of the dropped interference bound, the
convex surrogate objective f and the v = 3 closed-form candidates of the
joint problem.
"""

import heapq
import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import special

from fdrelay import RATIO_FLOOR, Allocation, McEstimate, SystemConfig, db_to_linear, link_stats
from fdrelay import analytic, mc, opt, sfun
from fdrelay.errors import DomainError, NonConvergenceError, QuadratureError
from fdrelay.mc import CHUNK_SAMPLES
from fdrelay.model import _Record, _setattr

CANONICAL_P_DB = 20.0

# first three staged-exponential pairs, kept as plain floats for oracles
ORACLE_A = (1.0, 0.5, 19.0 / 72.0)
ORACLE_B = (1.0, 5.0 / 3.0, 1963.0 / 855.0)


@pytest.fixture
def canonical_cfg() -> SystemConfig:
    """P = 20 dB, eps = 0.1, v = 3, D = 1, BPSK."""
    return SystemConfig.bpsk(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0)


@pytest.fixture
def symmetric_alloc() -> Allocation:
    return Allocation(rho_lambda=0.5, rho_d=0.5)


def cfg_at(p_db: float, eps: float, v: float = 3.0, modulation: str = "bpsk") -> SystemConfig:
    alpha, beta = {"bpsk": (1.0, 2.0), "qpsk": (2.0, 1.0)}[modulation]
    return SystemConfig(total_power=10.0 ** (p_db / 10.0), rsi_level=eps, pathloss_exp=v,
                        alpha_mod=alpha, beta_mod=beta)


# the float-range domain of ROADMAP aim 3, drawn as the CLI's no-traceback
# property draws it: P in dB, log10 D, log10 (v - 1), eps, rho_lambda, rho_d
FLOAT_RANGE_DRAWS = (
    st.floats(-400.0, 400.0), st.floats(-300.0, 300.0), st.floats(-9.0, 3.0),
    st.one_of(st.just(0.0), st.floats(-6.0, 300.0).map(lambda e: 10.0 ** e)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


def float_range_cfg(p_db: float, log_d: float, log_v: float, eps: float,
                    modulation: str = "bpsk") -> SystemConfig:
    """The scenario that the CLI builds from one FLOAT_RANGE_DRAWS input."""
    alpha, beta = {"bpsk": (1.0, 2.0), "qpsk": (2.0, 1.0)}[modulation]
    return SystemConfig(db_to_linear(p_db), eps, 1.0 + 10.0 ** log_v, 10.0 ** log_d,
                        alpha, beta)


def stats_at(p_db: float, eps: float, v: float = 3.0,
             rho_lambda: float = 0.5, rho_d: float = 0.5, modulation: str = "bpsk"):
    cfg = cfg_at(p_db, eps, v, modulation)
    return cfg, link_stats(cfg, Allocation(rho_lambda, rho_d))


class ApproxCoeffs(_Record):
    """Pairs (A_i, B_i) of the approximation 1/(1+x) ~ sum A_i x^(2i) e^(-B_i x).

    `exact` carries the rational values (fractions.Fraction); the SER series
    evaluates their float projections, analytic._COEFF_PAIRS. A_0 = B_0 = 1
    always.
    """

    __slots__ = ("exact",)

    def __init__(self, exact: tuple[tuple, ...]):
        _setattr(self, "exact", exact)


@lru_cache(maxsize=32)
def approx_coeffs(n_terms: int) -> ApproxCoeffs:
    """Generate the first n_terms coefficient pairs by the sequential
    recurrence that matches consecutive Taylor coefficients of 1/(1+x).

    A_i = 1 - sum_{j<i} A_j B_j^(2i-2j) / (2i-2j)!
    B_i = (1 - sum_{j<i} A_j B_j^(2i-2j+1) / (2i-2j+1)!) / A_i
    """
    analytic._check_n_terms(n_terms)
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


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, with an explicit pole error.

    Raises DomainError at NaN, -inf and the poles (x a non-positive
    integer). Where Gamma(x) overflows (x > ~171.62, or |x| < ~5.6e-309)
    it returns inf with the sign of x.
    """
    if math.isnan(x) or x == -math.inf:
        raise DomainError(f"gamma_fn: x is {x}")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_fn: pole at non-positive integer x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^-t / t dt for x > 0.

    Alternating series up to x = 1, modified-Lentz continued fraction beyond.
    x E1(x) -> 0 as x -> 0+.
    """
    if math.isnan(x) or x <= 0.0:
        raise DomainError(f"exp_integral_e1: x must be > 0, got {x}")
    if x <= 1.0:
        s = -sfun._EULER_GAMMA - math.log(x)
        term = 1.0
        comp = 0.0
        k = 0
        while True:
            k += 1
            term *= -x / k
            d = -term / k
            y = d - comp
            t = s + y
            comp = (t - s) - y
            s = t
            if abs(d) <= 1e-18 * max(abs(s), 1e-300):
                return s
    return _e1_scaled_cf(x) * math.exp(-x)


def _e1_scaled_cf(x: float) -> float:
    """e^x E1(x) for x > 1, finite where e^x alone overflows: the continued
    fraction 1 / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))."""
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise NonConvergenceError(f"exp_integral_e1: continued fraction stalled at x={x}")


def f_objective(alloc: Allocation, cfg: SystemConfig) -> float:
    """Convex surrogate minimized by the power/location optimizers, whose
    gradient is analytic.f_gradient.

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


def joint_v3_closed(cfg: SystemConfig) -> list[float]:
    """Closed-form power-split candidates of the joint problem at v = 3.

    rho_1 = sqrt(1 + eps P) / (sqrt(1 + eps P) + 1) always; the conjugate
    pair (1 + eps P +- sqrt(eps^2 P^2 - 2 eps P - 3)) / (2 eps P) joins once
    eps P >= 3 and the value lies inside (0, 1).
    """
    if cfg.pathloss_exp != 3.0:
        raise DomainError(
            f"joint_v3_closed requires pathloss_exp == 3, got {cfg.pathloss_exp}"
        )
    eps_p = cfg.rsi_level * cfg.total_power
    s = math.sqrt(1.0 + eps_p)
    out = [s / (s + 1.0)]
    disc = eps_p * eps_p - 2.0 * eps_p - 3.0
    if eps_p > 0.0 and disc >= 0.0:
        root = math.sqrt(disc)
        for cand in ((1.0 + eps_p + root) / (2.0 * eps_p),
                     (1.0 + eps_p - root) / (2.0 * eps_p)):
            if 0.0 < cand < 1.0:
                out.append(cand)
    return out


# the closed form's 1 - e^-s u K1(u) / (1 + eta x) in both CDF routes is a
# difference near 1, so its error floor is a few ulps of 1 whatever F is
# (ROADMAP item 2). The worst seen in the tests is 2 ulps (40 dB, eps 0, x =
# 0.1); this allows 4
CDF_ABS_FLOOR = 2.0 ** -51


def sinr_cdf_upper_bound(x: float, stats) -> float:
    """CDF of the upper-bound SINR ab/(a + b), a = g_sr/(g_li + 1), b = g_rd,
    by analytic's adaptive quadrature: the oracle that the asymptotic CDF
    bounds from below and the exact CDF of ab/(a + b + 1) bounds from above.
    Meant for x = 0 and for x > 1e-150, where x^2 does not underflow. The
    exact route computed this CDF before it took the +1, so its values are
    bit for bit what that route returned.

    Its survivor integrates over the second-hop SNR t > x

        (1/l_rd) exp(-(x + x^2/(t-x))/l_sr - t/l_rd) / (1 + eta (x + x^2/(t-x))),

    substituted t = x + e^u, which turns the first-hop layer at t - x ~
    x^2/l_sr and the exponential tail at t ~ l_rd into unit-width features
    at known positions, its break points.
    """
    if x == 0.0:
        return 0.0
    lsr, lrd, eta = stats.lambda_sr, stats.lambda_rd, stats.eta
    xx = x * x

    def integrand(us):
        out = []
        for u in us:
            eu = math.exp(u)
            xy = x + xx / eu
            expo = -xy / lsr - (x + eu) / lrd
            out.append(0.0 if expo < -745.0 else
                       (eu / lrd) * math.exp(expo) / (1.0 + eta * xy))
        return out

    # outside [u_lo, u_hi] one of the exponentials has underflowed; u_lo in
    # logs where x^2 / (l_sr 745) underflows
    q = xx / (lsr * 745.0)
    u_lo = math.log(q) if q > 0.0 else 2.0 * math.log(x) - math.log(lsr) - math.log(745.0)
    u_hi = math.log(745.0 * lrd)
    if u_lo >= u_hi:
        # the exponent is below -1490 everywhere
        return 1.0
    marks = [math.log(max(xx / lsr, 1e-300)), math.log(lrd)]
    if eta > 0.0:
        marks.append(math.log(max(eta * x * x, 1e-300)))
    breaks = sorted({min(max(m, u_lo + 1e-9), u_hi - 1e-9) for m in marks})
    surv, _ = analytic._quad_checked(integrand, u_lo, u_hi, analytic._CDF_ABS_TOL,
                                     "sinr_cdf_upper_bound", points=breaks)
    return min(max(1.0 - surv, 0.0), 1.0)


def cdf_truncation_bound(x: float, stats) -> float:
    """Upper bound on (upper-bound CDF - asymptotic CDF) at threshold x, the
    bound oracle of analytic.sinr_cdf_asymptotic against sinr_cdf_upper_bound.

    The dropped interference correction is bounded by
    C * g * e^g * E1(g) with g = eta x^2 / (l_rd (1 + eta x)) and
    C = e^{-(1/l_sr + 1/l_rd) x}. Zero when eta = 0.
    """
    if x <= 0.0 or stats.eta == 0.0:
        return 0.0
    g = stats.eta * x * x / (stats.lambda_rd * (1.0 + stats.eta * x))
    c = math.exp(-(1.0 / stats.lambda_sr + 1.0 / stats.lambda_rd) * x)
    if g <= 1.0:
        return c * g * math.exp(g) * exp_integral_e1(g)
    # e^g E1(g) without e^g, which overflows past g ~ 709
    return c * g * _e1_scaled_cf(g)


def ser_series_grid_oracle(cfg: SystemConfig, rho_lambda: np.ndarray,
                           rho_d: np.ndarray, n_terms: int = 3) -> np.ndarray:
    """Vectorized scipy evaluation of the SER series over an allocation grid.

    Independent of the library's special functions; used as the exhaustive
    search oracle for the joint optimizer.
    """
    rl, rd = np.meshgrid(rho_lambda, rho_d, indexing="ij")
    p = cfg.total_power
    v = cfg.pathloss_exp
    d = cfg.sum_distance
    alpha = cfg.alpha_mod
    beta = cfg.beta_mod
    lsr = rl * p * (rd * d) ** -v
    lrd = (1.0 - rl) * p * ((1.0 - rd) * d) ** -v
    eta = cfg.rsi_level * (1.0 - rl) / rl * (rd * d) ** v
    s_plus = (1.0 / np.sqrt(lsr) + 1.0 / np.sqrt(lrd)) ** 2
    s_minus = (1.0 / np.sqrt(lsr) - 1.0 / np.sqrt(lrd)) ** 2
    total = np.zeros_like(rl)
    for i in range(n_terms):
        c_i = special.gamma(2 * i + 2.5) * special.gamma(2 * i + 0.5) / math.factorial(2 * i + 1)
        x_i = beta / 2.0 + eta * ORACLE_B[i] + s_plus
        y_i = beta / 2.0 + eta * ORACLE_B[i] + s_minus
        total += (
            c_i
            * (2.0 * alpha * np.sqrt(2.0 * beta) / (lsr * lrd))
            * (ORACLE_A[i] * eta ** (2 * i) / x_i ** (2 * i + 2.5))
            * special.hyp2f1(2 * i + 2.5, 1.5, 2 * i + 2, y_i / x_i)
        )
    return np.clip(0.5 - total, 0.0, 0.5)


def joint_roots_grid_oracle(cfg: SystemConfig, grid_size: int = 10_000) -> list[float]:
    """Power-split roots (as rho_lambda, ascending) of the joint stationarity
    equation by dense sign scan.

    The log-form equation in rbar = 1 - rho_lambda,
    v ln(1 + eps P rbar) + (v-2) ln(1/rbar - 1) - (v-1) ln(1 + eps P) = 0,
    is scanned on a uniform grid plus geometric refinement near both edges;
    each sign change is bisected to width 1e-12 and roots closer than 1e-9
    are merged. An identically zero equation (eps = 0, v = 2) has no
    isolated roots and yields []. Independent of the library's exact
    bracketing.
    """
    eps_p = cfg.rsi_level * cfg.total_power
    v = cfg.pathloss_exp

    def foc(rbar):
        return (v * np.log1p(eps_p * rbar) + (v - 2.0) * np.log(1.0 / rbar - 1.0)
                - (v - 1.0) * np.log1p(eps_p))

    lo, hi = RATIO_FLOOR, 1.0 - RATIO_FLOOR
    edge = grid_size // 5
    grid = np.unique(np.concatenate([
        np.linspace(lo, hi, grid_size - 2 * edge),
        np.geomspace(lo, 0.2, edge),
        1.0 - np.geomspace(lo, 0.2, edge),
    ]))
    vals = foc(grid)
    if np.all(vals == 0.0):
        return []
    roots = [float(r) for r in grid[vals == 0.0]]
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        a, b = float(grid[i]), float(grid[i + 1])
        fa = foc(a)
        while b - a >= 1e-12:
            mid = 0.5 * (a + b)
            fm = foc(mid)
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return sorted(1.0 - r for r in merged)


def golden_section_oracle(fn, lo: float, hi: float, tol: float):
    """Golden-section minimization of a unimodal scalar function down to a
    bracket of width tol: the solver minimize_1d used before bounded Brent,
    kept as the reference Brent's minima must match. Returns (x, iterations,
    width) with x the bracket midpoint."""
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_golden * (hi - lo)
    d = lo + inv_golden * (hi - lo)
    fc = fn(c)
    fd = fn(d)
    iterations = 0
    while hi - lo > tol:
        iterations += 1
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_golden * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_golden * (hi - lo)
            fd = fn(d)
    return 0.5 * (lo + hi), iterations, hi - lo


def minimize_1d_oracle(objective: str, cfg: SystemConfig, fixed_ratio: float,
                       tol: float, n_terms: int = 3):
    """minimize_1d with each evaluation building its Allocation and the whole
    link_stats: the reference that the solve, which computes the fixed half
    of the link statistics once, must match field for field. Same Brent
    loop, objective, result and diagnostics."""
    if objective == "location":
        def make(x):
            return Allocation(rho_lambda=fixed_ratio, rho_d=x)
    else:
        def make(x):
            return Allocation(rho_lambda=x, rho_d=fixed_ratio)

    def ser_at(x):
        val = analytic.ser_series(link_stats(cfg, make(x)), cfg, n_terms)
        if not math.isfinite(val):
            raise DomainError(f"SER objective non-finite at ratio {x}")
        return val

    x, ser, evals, width = opt._brent(ser_at, RATIO_FLOOR, 1.0 - RATIO_FLOOR, tol)
    alloc = make(x)
    return opt.OptResult(allocation=alloc, ser=ser, method="brent",
                         foc_residual=opt._residual(alloc, cfg), iterations=evals,
                         bracket_width=width)


def sinr_exact(g_sr, g_rd, g_li):
    """End-to-end SINR a*b / (a + b + 1) with a = g_sr / (g_li + 1), b = g_rd:
    the reference SINR of the Monte Carlo tests."""
    a = g_sr / (g_li + 1.0)
    b = g_rd
    return a * b / (a + b + 1.0)


def outage_indicator_oracle(stats, threshold: float, n: int, seed: int) -> McEstimate:
    """The crude outage estimator that conditional Monte Carlo replaced: the
    count of channel draws whose SINR ab / (a + b + 1) falls below
    threshold. Kept as the reference the conditional estimate must agree
    with and never be noisier than.

    Philox key seed + 2**64, 3 uniforms per sample (g_sr, g_rd, g_li) in
    CHUNK_SAMPLES chunks. The count is an exact integer, so value is
    count / n and std_error is sqrt(p (1 - p) / n).
    """
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (1 << 64)
    count = 0
    for lo in range(0, n, CHUNK_SAMPLES):
        m = min(n, lo + CHUNK_SAMPLES) - lo
        u = Generator(Philox(key=key, counter=3 * lo // 4)).random(3 * m).reshape(m, 3)
        g_sr = -stats.lambda_sr * np.log1p(-u[:, 0])
        g_rd = -stats.lambda_rd * np.log1p(-u[:, 1])
        g_li = -stats.lambda_li * np.log1p(-u[:, 2])
        count += int(np.count_nonzero(sinr_exact(g_sr, g_rd, g_li) < threshold))
    p = count / n
    return McEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n),
                      n_samples=n, seed=seed, count=count)


def q_func(x):
    """Gaussian tail Q(x) = erfc(x / sqrt 2) / 2, vectorized."""
    return 0.5 * special.erfc(x / math.sqrt(2.0))


def ser_fading_oracle(stats, cfg: SystemConfig, n: int, seed: int) -> McEstimate:
    """The semi-analytic SER estimator that conditional Monte Carlo replaced:
    the mean of alpha Q(sqrt(beta SINR)) over sampled fades, with the SINR
    ab / (a + b + 1), a = g_sr / (g_li + 1), b = g_rd. Kept as the reference
    the conditional estimate must agree with.

    Philox key seed + 2 * 2**64, 3 uniforms per sample (g_sr, g_rd, g_li) in
    CHUNK_SAMPLES chunks. value is the fsum of the chunk sums over n, bit for
    bit what the library returned. std_error comes from the raw sum of
    squares, which holds no chunk in memory past its own; its cancellation
    is harmless here, where the per-sample values vary by several percent
    or more.
    """
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (2 << 64)
    sums = []
    squares = []
    for lo in range(0, n, CHUNK_SAMPLES):
        m = min(n, lo + CHUNK_SAMPLES) - lo
        u = Generator(Philox(key=key, counter=3 * lo // 4)).random(3 * m).reshape(m, 3)
        g_sr = -stats.lambda_sr * np.log1p(-u[:, 0])
        g_rd = -stats.lambda_rd * np.log1p(-u[:, 1])
        g_li = -stats.lambda_li * np.log1p(-u[:, 2])
        a = g_sr / (g_li + 1.0)
        v = cfg.alpha_mod * q_func(np.sqrt(cfg.beta_mod * (a * g_rd / (a + g_rd + 1.0))))
        sums.append(float(v.sum()))
        squares.append(float(np.dot(v, v)))
    mean = math.fsum(sums) / n
    var = max(math.fsum(squares) - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(value=mean, std_error=math.sqrt(var / n), n_samples=n, seed=seed)


def _conditional_outage(stats, x, u):
    # estimate_outage's kernel from its derivation: given the relay-destination
    # excess E = -lambda_rd log1p(-u) over x, outage is g_sr < (g_li + 1) k with
    # k = x (x + 1 + E) / E, and integrating g_sr and g_li leaves
    # 1 - e^-s / (1 + d), c = k / lambda_sr, d = c lambda_li,
    # s = x / lambda_rd + c. Meant for 0 < u < 1
    e = -stats.lambda_rd * np.log1p(-u)
    c = x * (x + 1.0 + e) / e / stats.lambda_sr
    d = c * stats.lambda_li
    return (d - np.expm1(-(x / stats.lambda_rd + c))) / (1.0 + d)


def tail_stretch(v):
    """The balanced tail stretch piece by piece, as (T(v), T'(v)): v^2 / (2 d)
    and v / d below d = mc._STRETCH, v - d / 2 and 1 up to 1 - d, and
    v - d / 2 + t^2 / (2 d) and 1 + t / d above, with t = v - 1 + d."""
    d = mc._STRETCH
    t = v - 1.0 + d
    u = np.where(v < d, v * v / (2.0 * d),
                 np.where(t > 0.0, v - 0.5 * d + t * t / (2.0 * d), v - 0.5 * d))
    w = np.where(v < d, v / d, np.where(t > 0.0, 1.0 + t / d, 1.0))
    return u, w


def outage_group_pairs(stats, threshold: float, v) -> np.ndarray:
    """estimate_outage's pair means at lattice points v, written out from
    the derivation: the mean of the kernel at T(v) with weight T'(v) and at
    T(1 - v) with weight T'(1 - v). Meant for thresholds > 0 and 0 < v < 1."""
    (u, w), (u_m, w_m) = tail_stretch(v), tail_stretch(1.0 - v)
    return 0.5 * (w * _conditional_outage(stats, threshold, u)
                  + w_m * _conditional_outage(stats, threshold, u_m))


def importance_map(u):
    """estimate_ser_semianalytic's draw of |Z| from the lattice coordinate u,
    as (t, w): t = -c ln u is exponential of mean c = mc._SCALE, and
    w = c sqrt(2 / pi) exp(t / c - t^2 / 2) its weight, the half-normal
    density over the exponential's. Meant for 0 < u <= 1."""
    c = mc._SCALE
    t = -c * np.log(u)
    return t, c * math.sqrt(2.0 / math.pi) * np.exp(t / c - t * t / 2.0)


def ser_group_pairs(stats, cfg: SystemConfig, u0, v):
    """estimate_ser_semianalytic's pair means at lattice points (u0, v),
    written out from the derivation, as (A, B): the mean of the kernel at
    threshold X = t^2 / beta and excess coordinate T(v) times the weight
    w T'(v), with (t, w) = importance_map(u0), and at the mirror
    (1 - u0, 1 - v); and the mean of the weights alone. Neither is scaled
    by alpha / 2. Meant for points strictly inside the unit square."""
    (u, w), (u_m, w_m) = tail_stretch(v), tail_stretch(1.0 - v)
    (t, iw), (t_m, iw_m) = importance_map(u0), importance_map(1.0 - u0)
    w, w_m = w * iw, w_m * iw_m
    beta = cfg.beta_mod
    return (0.5 * (w * _conditional_outage(stats, t * t / beta, u)
                   + w_m * _conditional_outage(stats, t_m * t_m / beta, u_m)),
            0.5 * (w + w_m))


def cross_fitted(a, b) -> np.ndarray:
    """The group values a - s (b - 1) of estimate_ser_semianalytic's control
    variate, from its group means a and weight means b: s is the slope of a
    on b fitted on the groups of the other parity (index mod 2), and 0 where
    their b is constant. a is overwritten and returned."""
    b = b - 1.0
    slopes = []
    for other in (1, 0):
        da = a[other::2] - a[other::2].mean()
        db = b[other::2] - b[other::2].mean()
        slopes.append((da * db).sum() / (db * db).sum() if db.max() > db.min() else 0.0)
    for k in (0, 1):
        a[k::2] -= slopes[k] * b[k::2]
    return a


def _group_count(n: int) -> int:
    return -(-n // (2 * mc._GROUP))


def outage_conditional_group_means(stats, threshold: float, n: int, seed: int) -> np.ndarray:
    """The group means of estimate_outage, written out from the derivation
    on its stream (Philox key seed + 2**64, one shift uniform s per group, so
    one stream from counter 0 covers every chunk): the mean of
    outage_group_pairs over the points (j + s) / 233, j < 233."""
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (1 << 64)
    s = Generator(Philox(key=key)).random(_group_count(n))
    v = (np.arange(mc._GROUP) + s[:, None]) / mc._GROUP
    return outage_group_pairs(stats, threshold, v).mean(axis=1)


def _fibonacci_lattice(s):
    # the points (u0, v) of the SER's lattice in the order of its definition,
    # frac((j, 144 j) / 233 + (s0, s1 / 233)), j < 233, at the shifts rows s
    j = np.arange(mc._GROUP)
    return (np.mod(j / mc._GROUP + s[:, :1], 1.0),
            np.mod(144 * j / mc._GROUP + s[:, 1:] / mc._GROUP, 1.0))


def _ser_shifts(n: int, seed: int) -> np.ndarray:
    # the SER's shifts (s0, s1) per group: Philox key seed + 2 * 2**64
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (2 << 64)
    return Generator(Philox(key=key)).random(2 * _group_count(n)).reshape(-1, 2)


def ser_conditional_group_means(stats, cfg: SystemConfig, n: int, seed: int) -> np.ndarray:
    """The group values of estimate_ser_semianalytic, written out from the
    derivation on its stream: the means of ser_group_pairs over the
    Fibonacci lattice, which is the estimator's lattice in another order,
    through cross_fitted and times alpha / 2."""
    a, b = ser_group_pairs(stats, cfg, *_fibonacci_lattice(_ser_shifts(n, seed)))
    return cross_fitted(a.mean(axis=1), b.mean(axis=1)) * (0.5 * cfg.alpha_mod)


def ser_quantile_group_means(stats, cfg: SystemConfig, n: int, seed: int) -> np.ndarray:
    """The normal-quantile lattice that importance sampling replaced, on the
    same stream and lattice: each point (u0, v) and its mirror evaluate the
    kernel at threshold X = ndtri(u0 / 2)^2 / beta and excess coordinate
    T(v), weight T'(v), alpha / 2 times the group means. Kept as the
    reference the importance map must beat."""
    u0, v = _fibonacci_lattice(_ser_shifts(n, seed))
    (u, w), (u_m, w_m) = tail_stretch(v), tail_stretch(1.0 - v)

    def threshold(p):
        return special.ndtri(0.5 * p) ** 2 / cfg.beta_mod

    pairs = 0.5 * (w * _conditional_outage(stats, threshold(u0), u)
                   + w_m * _conditional_outage(stats, threshold(1.0 - u0), u_m))
    return pairs.mean(axis=1) * (0.5 * cfg.alpha_mod)


def _group_room(m: int):
    # the kernel scratch and edge weights that _group_means works in on m groups
    return np.empty(m * mc._GROUP), np.empty((m, 2 * mc._EDGE))


def outage_whole_group_means(stats, threshold: float, n: int, seed: int) -> np.ndarray:
    """estimate_outage's ceil(n / 466) group means drawn and evaluated in one
    piece, not block by block nor share by share, bit for bit what its tasks
    write: same stream, lattice, stretch and kernel, group g reading its
    shift from stream offset g. Meant for thresholds > 0."""
    s = mc.stream(seed, mc._TAG_OUTAGE).random(_group_count(n))
    v = np.empty((1, 2, s.size, mc._GROUP))
    mc._lattice(s, mc._columns(), v[0])
    return mc._group_means(v, float(threshold), stats, *_group_room(s.size))[0]


def ser_whole_group_means(stats, cfg: SystemConfig, n: int, seed: int) -> np.ndarray:
    """estimate_ser_semianalytic's ceil(n / 466) group values, through
    cross_fitted and times alpha / 2, drawn and evaluated in one piece, bit
    for bit what its tasks and statistics compute: group g reads its shifts
    (s0, s1) from stream offset 2 g; the weights and thresholds come from the
    points u0 = frac(89 j / 233 + s0) and their mirrors 1 - u0."""
    cols = mc._columns()
    rows = mc._GEN * cols % mc._GROUP / mc._GROUP
    groups = _group_count(n)
    s = mc.stream(seed, mc._TAG_SER).random(2 * groups).reshape(groups, 2)
    u0 = rows + s[:, :1]
    np.subtract(u0, 1.0, out=u0, where=u0 >= 1.0)
    with np.errstate(divide="ignore"):
        t = np.log(np.stack([u0, 1.0 - u0])) * -mc._SCALE
    iw = np.exp(t * (1.0 / mc._SCALE + t * -0.5)) * (mc._SCALE * math.sqrt(2.0 / math.pi))
    vw = np.stack([mc._lattice(s[:, 1].copy(), cols, np.empty((2, groups, mc._GROUP))), iw])
    a, b = mc._group_means(vw, t * t / cfg.beta_mod, stats, *_group_room(groups))
    return cross_fitted(a, b) * (0.5 * cfg.alpha_mod)


def outage_chunk_oracle(stats, threshold: float, n: int, seed: int) -> McEstimate:
    """estimate_outage from its group means built in one piece: the
    reference that the blocked estimator must match bit for bit."""
    return mc._mean_estimate(outage_whole_group_means(stats, threshold, n, seed), seed)


def ser_chunk_oracle(stats, cfg: SystemConfig, n: int, seed: int) -> McEstimate:
    """estimate_ser_semianalytic from its group means built in one piece:
    the reference that the blocked estimator must match bit for bit."""
    return mc._mean_estimate(ser_whole_group_means(stats, cfg, n, seed), seed)


def _pair_estimate(pair_means, seed: int) -> McEstimate:
    return McEstimate(value=float(pair_means.mean()),
                      std_error=float(pair_means.std(ddof=1)) / math.sqrt(pair_means.size),
                      n_samples=2 * pair_means.size, seed=seed)


def outage_pair_oracle(stats, threshold: float, n: int, seed: int) -> McEstimate:
    """The antithetic-pair outage estimator that lattice groups replaced:
    ceil(n / 2) uniforms u of stream (seed, outage tag), each evaluated by
    the kernel at u and at 1 - u, the pair mean the unit of std_error. Kept
    as the reference the groups must beat. Meant for thresholds > 0."""
    u = mc.stream(seed, mc._TAG_OUTAGE).random(-(-n // 2))
    return _pair_estimate(0.5 * (_conditional_outage(stats, threshold, u)
                                 + _conditional_outage(stats, threshold, 1.0 - u)), seed)


def ser_pair_oracle(stats, cfg: SystemConfig, n: int, seed: int) -> McEstimate:
    """The antithetic-pair semi-analytic SER that lattice groups replaced:
    ceil(n / 2) rows (u0, u1) of stream (seed, SER tag), each evaluated at
    threshold X = ndtri(u0 / 2)^2 / beta and excess coordinate u1, and at
    (1 - u0, 1 - u1). Kept as the reference the groups must beat."""
    u0, u1 = mc.stream(seed, mc._TAG_SER).random(2 * -(-n // 2)).reshape(-1, 2).T

    def value(p0, p1):
        return _conditional_outage(stats, special.ndtri(0.5 * p0) ** 2 / cfg.beta_mod, p1)

    return _pair_estimate(0.25 * cfg.alpha_mod * (value(u0, u1) + value(1.0 - u0, 1.0 - u1)),
                          seed)


def symbol_level_complex_oracle(stats, n_symbols: int, seed: int) -> McEstimate:
    """The symbol-level BPSK chain in full complex arithmetic: the reference
    that estimate_ser_symbol_level, which computes only Re(y_d), must match
    bit for bit.

    Same Philox layout (key seed + 3 * 2**64, 9 uniforms per symbol,
    CHUNK_SAMPLES chunks): 3 fades, then a unit circular Gaussian
    interference symbol, relay noise and destination noise, each from its
    (real, imaginary) uniform pair. Chunks run serially; the error count
    does not depend on their order.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (3 << 64)
    errors = 0
    for lo in range(0, n_symbols, CHUNK_SAMPLES):
        m = min(n_symbols, lo + CHUNK_SAMPLES) - lo
        u = Generator(Philox(key=key, counter=9 * lo // 4)).random(9 * m).reshape(m, 9)
        g_sr = -stats.lambda_sr * np.log1p(-u[:, 0])
        g_rd = -stats.lambda_rd * np.log1p(-u[:, 1])
        g_li = -stats.lambda_li * np.log1p(-u[:, 2])
        x_int = (special.ndtri(u[:, 3]) + 1j * special.ndtri(u[:, 4])) * inv_sqrt2
        n_r = (special.ndtri(u[:, 5]) + 1j * special.ndtri(u[:, 6])) * inv_sqrt2
        n_d = (special.ndtri(u[:, 7]) + 1j * special.ndtri(u[:, 8])) * inv_sqrt2
        y_r = np.sqrt(g_sr) + np.sqrt(g_li) * x_int + n_r
        gain = 1.0 / np.sqrt(g_sr + g_li + 1.0)
        y_d = np.sqrt(g_rd) * gain * y_r + n_d
        errors += int(np.count_nonzero(y_d.real < 0.0))
    p = errors / n_symbols
    return McEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n_symbols),
                      n_samples=n_symbols, seed=seed, count=errors)


def k1_small_oracle(x: float) -> float:
    """The K1 power series for 0 < x < 2 with its integer recurrences
    evaluated per term: the reference that sfun._k1_small, which reads them
    from a table of floats, must match bit for bit."""
    q = 0.25 * x * x
    term = 0.5 * x
    i1 = term
    comp = 0.0
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + 1))
        y = term - comp
        t = i1 + y
        comp = (t - i1) - y
        i1 = t
        if term <= 1e-18 * i1:
            break
    hk = -sfun._EULER_GAMMA
    hk1 = 1.0 - sfun._EULER_GAMMA
    term = 1.0
    s = hk + hk1
    comp = 0.0
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + 1))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        d = (hk + hk1) * term
        y = d - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if abs(d) <= 1e-18 * abs(s):
            break
    return math.log(0.5 * x) * i1 + 1.0 / x - 0.25 * x * s


def hyp_log_series_oracle(a: float, b: float, m: int, w: float) -> float:
    """The logarithmic connection series with every factor computed per call:
    the reference that sfun._hyp_log_series, which tabulates the
    w-independent factors per (a, b, m), must match bit for bit.

    Same prefactors, coefficient and psi recurrences, Kahan sum and envelope
    test, in the same order; it also stalls at sfun._SERIES_MAX_TERMS. The
    Gamma ratios are its own, for the SER family's parameters, which put no
    pole in a denominator.
    """
    c = a + b + m
    pref1 = math.gamma(m) * (math.gamma(c) / (math.gamma(a + m) * math.gamma(b + m)))
    fin = 0.0
    pa = 1.0
    pb = 1.0
    fact = 1.0
    p1m = 1.0
    wn = 1.0
    for n in range(m):
        fin += pa * pb / (fact * p1m) * wn
        pa *= a + n
        pb *= b + n
        fact *= n + 1
        p1m *= 1 - m + n
        wn *= w
    part1 = pref1 * fin
    pref2 = ((-1.0) ** m) * (math.gamma(c) / (math.gamma(a) * math.gamma(b)))
    lw = math.log(w)
    psi_1 = sfun.digamma(1.0)
    psi_m1 = sfun.digamma(m + 1.0)
    psi_a = sfun.digamma(a + m)
    psi_b = sfun.digamma(b + m)
    coef = 1.0 / math.gamma(m + 1.0)
    wn = w**m
    s = 0.0
    comp = 0.0
    n = 0
    while n < sfun._SERIES_MAX_TERMS:
        bracket = lw - psi_1 - psi_m1 + psi_a + psi_b
        term = coef * wn * bracket
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        envelope = abs(coef * wn) * (abs(lw) + abs(psi_1) + abs(psi_m1)
                                     + abs(psi_a) + abs(psi_b))
        if n > 3 and envelope <= 1e-17 * max(abs(s), 1e-300):
            return part1 - pref2 * s
        n += 1
        coef *= (a + m + n - 1) * (b + m + n - 1) / (n * (n + m))
        wn *= w
        psi_1 += 1.0 / n
        psi_m1 += 1.0 / (n + m)
        psi_a += 1.0 / (a + m + n - 1)
        psi_b += 1.0 / (b + m + n - 1)
    raise NonConvergenceError(f"hyp2f1: log series stalled (a={a}, b={b}, m={m}, w={w})")


def ser_series_terms_oracle(stats, cfg: SystemConfig, n_terms: int = 3) -> list[float]:
    """ser_series_terms with the float (A_i, B_i, C_i) converted and computed
    per call and every term's hypergeometric evaluated, whatever its weight:
    the reference that the tabulated coefficients and the skipped zero-weight
    terms must match bit for bit, exceptions included. The hypergeometric
    goes through sfun.hyp2f1_complement, so under per_call_series it is the
    per-call log series too."""
    coeffs = [(float(a), float(b)) for a, b in approx_coeffs(n_terms).exact]
    alpha = cfg.alpha_mod
    beta = cfg.beta_mod
    lsr = stats.lambda_sr
    lrd = stats.lambda_rd
    eta = stats.eta
    if not 0.0 < lsr * lrd < math.inf:
        raise DomainError(f"l_sr * l_rd out of range: l_sr={lsr}, l_rd={lrd}")
    try:
        s_plus = (1.0 / math.sqrt(lsr) + 1.0 / math.sqrt(lrd)) ** 2
    except OverflowError:
        raise DomainError(f"series terms out of range: (1/sqrt(l_sr) + 1/sqrt(l_rd))^2 "
                          f"overflows at l_sr={lsr}, l_rd={lrd}") from None
    delta = 4.0 / math.sqrt(lsr * lrd)
    pref = 2.0 * alpha * math.sqrt(2.0 * beta) / (lsr * lrd)
    out = []
    try:
        for i, (a_i, b_i) in enumerate(coeffs):
            c_i = (gamma_fn(2 * i + 2.5) * gamma_fn(2 * i + 0.5)
                   / math.factorial(2 * i + 1))
            x_i = beta / 2.0 + eta * b_i + s_plus
            w = delta / x_i
            if w > 1.0 or not w:
                raise DomainError(f"series terms out of range: 2F1 argument 1 - w "
                                  f"{'< 0' if w else '= 1'} with w={w!r} "
                                  f"at l_sr={lsr}, l_rd={lrd}")
            hyp = sfun.hyp2f1_complement(2 * i + 2.5, 1.5, 2.0 * i + 2.0, w)
            term = c_i * pref * a_i * eta ** (2 * i) / x_i ** (2 * i + 2.5) * hyp
            if math.isnan(term):
                raise DomainError(f"series terms out of range: term {i} is NaN, its 2F1 "
                                  f"{hyp!r} at w={w!r}, l_sr={lsr}, l_rd={lrd}")
            out.append(term)
    except OverflowError:
        raise DomainError(f"series terms overflow: l_sr={lsr}, l_rd={lrd}") from None
    return out


def _qk21_scalar_oracle(f, a: float, b: float) -> tuple[float, float]:
    """analytic._qk21 as it was before integrands took a whole panel: one
    scalar call of f per abscissa, the same arithmetic otherwise."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    fv1 = [f(centr - hlgth * x) for x in analytic._XK21]
    fv2 = [f(centr + hlgth * x) for x in analytic._XK21]
    resk = analytic._WK21_CENTRE * fc
    resabs = abs(resk)
    for j, w in analytic._KRONROD21:
        f1 = fv1[j]
        f2 = fv2[j]
        resk = resk + w * (f1 + f2)
        resabs = resabs + w * (abs(f1) + abs(f2))
    resg = 0.0
    for j, w in analytic._GAUSS21:
        resg = resg + w * (fv1[j] + fv2[j])
    reskh = resk * 0.5
    resasc = analytic._WK21_CENTRE * abs(fc - reskh)
    for w, v1, v2 in zip(analytic._WGK21, fv1, fv2):
        resasc = resasc + w * (abs(v1 - reskh) + abs(v2 - reskh))
    resabs = resabs * hlgth
    resasc = resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        r = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if r >= 1.0 else r ** 1.5)
    if resabs > analytic._UFLOW / (50.0 * analytic._EPMACH):
        abserr = max((analytic._EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr


def _adaptive_oracle(f, edges, epsabs: float, epsrel: float) -> tuple[float, float]:
    """analytic._adaptive on the scalar-call rule: global bisection of the
    panel with the largest error, the value and error summed by fsum."""
    heap = []
    for a, b in zip(edges, edges[1:]):
        value, error = _qk21_scalar_oracle(f, a, b)
        heap.append((-error, a, b, value))
    heapq.heapify(heap)
    while True:
        value = math.fsum(map(itemgetter(3), heap))
        error = -math.fsum(map(itemgetter(0), heap))
        if not error > max(epsabs, epsrel * abs(value)) or len(heap) >= analytic._QUAD_LIMIT:
            return value, error
        _, a, b, _ = heap[0]
        mid = 0.5 * (a + b)
        if max(abs(a), abs(b)) <= ((1.0 + 100.0 * analytic._EPMACH)
                                   * (abs(mid) + 1000.0 * analytic._UFLOW)):
            return value, error
        v1, e1 = _qk21_scalar_oracle(f, a, mid)
        v2, e2 = _qk21_scalar_oracle(f, mid, b)
        heapq.heapreplace(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))


def quad_checked_oracle(fn, lo, hi, abs_tol: float, label: str, points=()):
    """analytic._quad_checked as it was before integrands took a whole panel
    and the [lo, inf) map started from [0, 1/4, 1/2, 1]: the reference that
    both quadrature oracles must match bit for bit. fn takes a list of
    abscissae, as the library's integrands do, and is called with one at a
    time. The map starts from [0, 1] and ignores points, as it did."""
    def scalar(x):
        return fn([x])[0]

    if hi == math.inf:
        def f(t):
            return (scalar(lo + (1.0 - t) / t) / t) / t

        edges = [0.0, 1.0]
    else:
        f = scalar
        edges = [lo, *(p for p in points if lo < p < hi), hi]
    val, err = _adaptive_oracle(f, edges, min(abs_tol * 1e-2, 1e-12), 1e-11)
    if math.isnan(err) or err > abs_tol:
        raise QuadratureError(
            f"{label}: quadrature error estimate {err:.3e} exceeds {abs_tol:.1e}",
            achieved_error=err,
        )
    return val, err


def outcome(fn, *args):
    """fn(*args) by repr, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"


def reference_quadrature(fn, *args):
    """outcome(fn, *args) with quad_checked_oracle in place of the library's
    integrator."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "_quad_checked", quad_checked_oracle)
        return outcome(fn, *args)


@pytest.fixture
def per_call_series(monkeypatch):
    """per_call_series(fn, *args) is outcome(fn, *args) with the per-call
    oracles in place of the tabulated log series and the cached series
    coefficients, i.e. what the library returned before tabulation."""

    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(sfun, "_hyp_log_series", hyp_log_series_oracle)
            patch.setattr(analytic, "ser_series_terms", ser_series_terms_oracle)
            return outcome(fn, *args)

    return run
