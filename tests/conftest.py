"""Shared fixtures and independent oracle helpers.

Oracles here deliberately avoid the library's own code paths: scipy.special
for vectorized closed-form surfaces, mpmath for high-precision point values.
"""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import special

from fdrelay import RATIO_FLOOR, Allocation, McEstimate, SystemConfig, link_stats
from fdrelay import analytic, mc, opt, sfun
from fdrelay.errors import DomainError, NonConvergenceError
from fdrelay.mc import CHUNK_SAMPLES

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


def stats_at(p_db: float, eps: float, v: float = 3.0,
             rho_lambda: float = 0.5, rho_d: float = 0.5, modulation: str = "bpsk"):
    cfg = cfg_at(p_db, eps, v, modulation)
    return cfg, link_stats(cfg, Allocation(rho_lambda, rho_d))


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
        a = g_sr / (g_li + 1.0)
        count += int(np.count_nonzero(a * g_rd / (a + g_rd + 1.0) < threshold))
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


def outage_conditional_pair_means(stats, threshold: float, n: int, seed: int) -> np.ndarray:
    """The pair means of estimate_outage, written out from the derivation on
    its stream (Philox key seed + 2**64, one uniform per antithetic pair, so
    one stream from counter 0 covers every chunk): ceil(n / 2) of them.

    The relay-destination excess over x is E = -lambda_rd log1p(-u); given
    it, outage is g_sr < (g_li + 1) k with k = x (x + 1 + E) / E, and
    integrating g_sr and g_li leaves 1 - e^-s / (1 + d), c = k / lambda_sr,
    d = c lambda_li, s = x / lambda_rd + c. Each pair averages that value at
    u and at 1 - u, whose excess is -lambda_rd log(u). Meant for thresholds
    > 0 and uniforms > 0.
    """
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (1 << 64)
    x = threshold
    u = Generator(Philox(key=key)).random(-(-n // 2))

    def value(e):
        c = x * (x + 1.0 + e) / e / stats.lambda_sr
        d = c * stats.lambda_li
        return (d - np.expm1(-(x / stats.lambda_rd + c))) / (1.0 + d)

    return 0.5 * (value(-stats.lambda_rd * np.log1p(-u))
                  + value(-stats.lambda_rd * np.log(u)))


def _whole_chunks(chunk, n: int, seed: int) -> McEstimate:
    # chunk(lo, hi) over the CHUNK_SAMPLES // 2 slices of the ceil(n / 2)
    # pairs, serially; the estimate does not depend on the order the chunks
    # run in
    pairs = -(-n // 2)
    size = CHUNK_SAMPLES // 2
    parts = [chunk(lo, min(pairs, lo + size)) for lo in range(0, pairs, size)]
    return mc._mean_estimate(parts, seed)


def outage_chunk_oracle(stats, threshold: float, n: int, seed: int) -> McEstimate:
    """estimate_outage with each chunk drawn and evaluated whole, as before
    the estimators worked in blocks: the reference that the blocked
    estimator must match bit for bit. Same stream, kernel, antithetic
    pairs, moments and merge: the chunk of pairs lo .. hi - 1 draws its
    uniforms u from stream offset lo and reduces the means of the values at
    u and at 1 - u. Meant for thresholds > 0."""
    x = float(threshold)

    def chunk(lo, hi):
        u = mc.stream(seed, mc._TAG_OUTAGE, lo).random(hi - lo)
        antithetic = mc._outage_given_excess(1.0 - u, x, stats)
        pair_sums = mc._outage_given_excess(u, x, stats) + antithetic
        return mc._moments(pair_sums * 0.5)

    return _whole_chunks(chunk, n, seed)


def ser_chunk_oracle(stats, cfg: SystemConfig, n: int, seed: int) -> McEstimate:
    """estimate_ser_semianalytic with each chunk drawn and evaluated whole,
    as before the estimators worked in blocks: the reference that the
    blocked estimator must match bit for bit. The chunk of pairs lo .. hi - 1
    draws its rows (u0, u1) from stream offset 2 lo and reduces the means of
    the values at (u0, u1) and at (1 - u0, 1 - u1)."""
    beta = cfg.beta_mod

    def value(u0, u1):
        x = special.ndtri(u0 * 0.5) ** 2 / beta     # X = Z^2 / beta
        return mc._outage_given_excess(u1, x, stats)

    def chunk(lo, hi):
        u = mc.stream(seed, mc._TAG_SER, 2 * lo).random(2 * (hi - lo)).reshape(hi - lo, 2)
        u0, u1 = u[:, 0].copy(), u[:, 1].copy()
        antithetic = value(1.0 - u0, 1.0 - u1)
        pair_sums = value(u0, u1) + antithetic       # the kernel overwrites u1
        return mc._moments(pair_sums * (0.25 * cfg.alpha_mod))

    return _whole_chunks(chunk, n, seed)


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
    the reference that the cached coefficients and the skipped zero-weight
    terms must match bit for bit, exceptions included. The hypergeometric
    goes through sfun.hyp2f1_complement, so under per_call_series it is the
    per-call log series too."""
    coeffs = analytic.approx_coeffs(n_terms).pairs
    alpha = cfg.alpha_mod
    beta = cfg.beta_mod
    lsr = stats.lambda_sr
    lrd = stats.lambda_rd
    eta = stats.eta
    if not 0.0 < lsr * lrd < math.inf:
        raise DomainError(f"l_sr * l_rd out of range: l_sr={lsr}, l_rd={lrd}")
    s_plus = (1.0 / math.sqrt(lsr) + 1.0 / math.sqrt(lrd)) ** 2
    delta = 4.0 / math.sqrt(lsr * lrd)
    pref = 2.0 * alpha * math.sqrt(2.0 * beta) / (lsr * lrd)
    out = []
    try:
        for i, (a_i, b_i) in enumerate(coeffs):
            c_i = (sfun.gamma_fn(2 * i + 2.5) * sfun.gamma_fn(2 * i + 0.5)
                   / math.factorial(2 * i + 1))
            x_i = beta / 2.0 + eta * b_i + s_plus
            w = delta / x_i
            if w > 1.0:
                raise DomainError(f"series terms out of range: 2F1 argument 1 - w < 0 "
                                  f"with w={w!r} at l_sr={lsr}, l_rd={lrd}")
            hyp = sfun.hyp2f1_complement(2 * i + 2.5, 1.5, 2.0 * i + 2.0, w)
            out.append(c_i * pref * a_i * eta ** (2 * i) / x_i ** (2 * i + 2.5) * hyp)
    except OverflowError:
        raise DomainError(f"series terms overflow: l_sr={lsr}, l_rd={lrd}") from None
    return out


def outcome(fn, *args):
    """fn(*args) by repr, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"


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
