"""Scalar special-function kernel for the closed-form link analysis.

Everything is plain double-precision Python: short compensated power series,
a Chebyshev economization for the scaled Bessel tail, and a continued
fraction for the exponential integral. No scipy/mpmath imports here; the
test suite checks every function against independent high-precision oracles.

The hypergeometric function is the one the SER series needs and no more:
hyp2f1_complement evaluates 2F1(2i + 5/2, 3/2; 2i + 2; 1 - w) of series term
i < MAX_N_TERMS and refuses any other parameter set. Its logarithmic series
keeps one table per term of the factors that do not depend on w; tables
fill on demand under a lock and return the bits a per-call evaluation
would.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
import threading

from .errors import DomainError, NonConvergenceError

__all__ = [
    "bessel_k1",
    "exp_integral_e1",
    "gamma_fn",
    "digamma",
    "hyp2f1_complement",
]

# Terms of the SER series, and so of the 2F1 family that hyp2f1_complement
# serves (analytic.MAX_N_TERMS is this constant). The exact coefficient
# denominators triple in bits per term: 10 pairs take ~12 ms, 12 take ~0.6 s,
# 14 take ~47 s. It also bounds the log series' error, which grows with a
# (at w = 0.5, 3.3e-10 at term 9 and 4.7e-7 at term 14): tests/test_sfun.py
# checks every term below the cap against mpmath.
MAX_N_TERMS = 10

_EULER_GAMMA = 0.5772156649015328606065120900824024310421593359399

# Chebyshev expansion of e^x * sqrt(x) * K1(x) in t = 4/x - 1, valid x >= 2.
# Together with the power series below this keeps K1 under 1e-13 relative
# error on [1e-8, 700]; a raw asymptotic series cannot do that near x = 2.
_K1_CHEB = (
    2.7206261904844426694,
    0.10392373657681723844,
    -0.0028578168596227793868,
    0.00019521551847135163111,
    -1.93619797416608296e-05,
    2.4064849478372171171e-06,
    -3.5019606030878125421e-07,
    5.7410841254500492919e-08,
    -1.0345762465678097016e-08,
    2.0150497551970345901e-09,
    -4.1903547593419249273e-10,
    9.2183151876052974269e-11,
    -2.1299678384277482355e-11,
    5.1396396734812382991e-12,
    -1.289173960946943702e-12,
    3.3484196659765782435e-13,
    -8.976705180003592226e-14,
    2.4771544188480812449e-14,
    -7.0198369440056604809e-15,
    2.0387027696753713866e-15,
    -6.0570363249857634733e-16,
    1.8380630276636902639e-16,
    -5.6886004009873353543e-17,
    1.7915864727446218185e-17,
    -5.6854173529898914296e-18,
    1.6686739374640153746e-18,
)

# Asymptotic tail coefficients of psi(x) (Bernoulli numbers B_2k / 2k).
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_SERIES_MAX_TERMS = 800

# (k (k+1), 1/k, 1/(k+1)) for k = 1..102, the factors of the K1 power series.
# Dividing by the float k (k+1) or k gives the bits the int gave, since the
# int converts exactly. A term is at most q^k / (k! (k+1)!) with q = x^2/4 < 1,
# which underflows to 0 by k = 102, so both series loops stop inside the table
_K1_STEPS = tuple((float(k * (k + 1)), 1.0 / k, 1.0 / (k + 1)) for k in range(1, 103))


def _clenshaw(t: float, coeffs) -> float:
    b1 = 0.0
    b2 = 0.0
    for c in reversed(coeffs[1:]):
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    return t * b1 - b2 + 0.5 * coeffs[0]


def _k1_small(x: float) -> float:
    """K1 power series for 0 < x < 2.

    K1(x) = ln(x/2) I1(x) + 1/x
            - (x/4) * sum_k [psi(k+1) + psi(k+2)] (x^2/4)^k / (k! (k+1)!)
    """
    q = 0.25 * x * x
    # I1 series, Kahan-compensated
    term = 0.5 * x
    i1 = term
    comp = 0.0
    for kk, _, _ in _K1_STEPS:
        term *= q / kk
        y = term - comp
        t = i1 + y
        comp = (t - i1) - y
        i1 = t
        if term <= 1e-18 * i1:
            break
    # psi-weighted companion series
    hk = -_EULER_GAMMA          # psi(1)
    hk1 = 1.0 - _EULER_GAMMA    # psi(2)
    term = 1.0
    s = hk + hk1
    comp = 0.0
    for kk, inv_k, inv_k1 in _K1_STEPS:
        term *= q / kk
        hk += inv_k
        hk1 += inv_k1
        d = (hk + hk1) * term
        y = d - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if abs(d) <= 1e-18 * abs(s):
            break
    return math.log(0.5 * x) * i1 + 1.0 / x - 0.25 * x * s


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one.

    Power series below x = 2, Chebyshev-economized scaled form
    e^-x K1(x) sqrt(x) above. x K1(x) -> 1 as x -> 0+.
    """
    if math.isnan(x) or x <= 0.0:
        raise DomainError(f"bessel_k1: x must be > 0, got {x}")
    if x < 2.0:
        # at x = 5e-324, x / 2 rounds to 0 and the series' log(x / 2) fails;
        # K1 has saturated there anyway, as 1 / x overflows below ~5.6e-309
        return _k1_small(x) if 0.5 * x else math.inf
    t = 4.0 / x - 1.0
    return _clenshaw(t, _K1_CHEB) * math.exp(-x) / math.sqrt(x)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^-t / t dt for x > 0.

    Alternating series up to x = 1, modified-Lentz continued fraction beyond.
    x E1(x) -> 0 as x -> 0+.
    """
    if math.isnan(x) or x <= 0.0:
        raise DomainError(f"exp_integral_e1: x must be > 0, got {x}")
    if x <= 1.0:
        s = -_EULER_GAMMA - math.log(x)
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


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, with an explicit pole error.

    Raises DomainError at the poles (x a non-positive integer).
    """
    if math.isnan(x):
        raise DomainError("gamma_fn: x is NaN")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_fn: pole at non-positive integer x={x}")
    try:
        return math.gamma(x)
    except ValueError as exc:  # pragma: no cover - guarded above
        raise DomainError(f"gamma_fn: invalid argument x={x}") from exc


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0.

    Recurrence shift to x >= 8, then the Stirling-type tail.
    """
    if math.isnan(x) or x <= 0.0:
        raise DomainError(f"digamma: x must be > 0, got {x}")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    s = math.log(x) - 0.5 * inv
    p = inv2
    for c in _PSI_TAIL:
        s -= c * p
        p *= inv2
    return s + acc


def _hyp_series(a: float, b: float, c: float, z: float) -> float:
    """Direct Gauss series sum_k (a)_k (b)_k / ((c)_k k!) z^k, |z| <= ~0.5."""
    s = 1.0
    comp = 0.0
    term = 1.0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if abs(term) <= 1e-17 * abs(s):
            return s
    raise NonConvergenceError(
        f"hyp2f1: direct series stalled for (a={a}, b={b}, c={c}, z={z})"
    )


class _LogSeriesTable:
    """The part of _hyp_log_series that depends on (a, b, m) but not on w.

    pref1 and the finite-part coefficients fin_coefs of the first term,
    pref2 of the log term, and the log term's rows: rows[n] holds
    (coef, psi_1, psi_m1, psi_a, psi_b, |psi_1|, |psi_m1|, |psi_a|, |psi_b|)
    of index n. Each row comes from the same recurrence, in the same order,
    as a per-call evaluation takes, so a call returns the same bits. Rows are
    appended only when a call reads past the last one.
    """

    __slots__ = ("a", "b", "m", "pref1", "fin_coefs", "pref2", "rows")

    def __init__(self, a: float, b: float, m: int) -> None:
        self.a = a
        self.b = b
        self.m = m
        c = a + b + m
        # finite part: Gamma(m)Gamma(c)/(Gamma(a+m)Gamma(b+m)) *
        #              sum_{n<m} (a)_n (b)_n / (n! (1-m)_n) w^n
        self.pref1 = math.gamma(m) * (math.gamma(c) / (math.gamma(a + m) * math.gamma(b + m)))
        self.fin_coefs = []
        pa = 1.0
        pb = 1.0
        fact = 1.0
        p1m = 1.0
        for n in range(m):
            self.fin_coefs.append(pa * pb / (fact * p1m))
            pa *= a + n
            pb *= b + n
            fact *= n + 1
            p1m *= 1 - m + n
        # log part: -(-1)^m Gamma(c)/(Gamma(a)Gamma(b)) w^m *
        #           sum_n (a+m)_n (b+m)_n / (n! (n+m)!) w^n *
        #           [ln w - psi(n+1) - psi(n+m+1) + psi(a+m+n) + psi(b+m+n)]
        self.pref2 = ((-1.0) ** m) * (math.gamma(c) / (math.gamma(a) * math.gamma(b)))
        psi = (digamma(1.0), digamma(m + 1.0), digamma(a + m), digamma(b + m))
        self.rows = [_log_row(1.0 / math.gamma(m + 1.0), *psi)]

    def extend_to(self, n: int) -> None:
        """Append rows up to index n, unless another thread already has."""
        a = self.a
        b = self.b
        m = self.m
        rows = self.rows
        with _log_tables_lock:
            while len(rows) <= n:
                coef, psi_1, psi_m1, psi_a, psi_b = rows[-1][:5]
                k = len(rows)
                coef *= (a + m + k - 1) * (b + m + k - 1) / (k * (k + m))
                psi_1 += 1.0 / k
                psi_m1 += 1.0 / (k + m)
                psi_a += 1.0 / (a + m + k - 1)
                psi_b += 1.0 / (b + m + k - 1)
                rows.append(_log_row(coef, psi_1, psi_m1, psi_a, psi_b))


def _log_row(coef, psi_1, psi_m1, psi_a, psi_b):
    return (coef, psi_1, psi_m1, psi_a, psi_b,
            abs(psi_1), abs(psi_m1), abs(psi_a), abs(psi_b))


# One table per (a, b, m) seen, built on first use: at most MAX_N_TERMS,
# since hyp2f1_complement refuses every parameter set outside the family
_log_tables: dict[tuple[float, float, int], _LogSeriesTable] = {}
_log_tables_lock = threading.Lock()


def _log_table(a: float, b: float, m: int) -> _LogSeriesTable:
    key = (a, b, m)
    table = _log_tables.get(key)
    if table is None:
        with _log_tables_lock:
            table = _log_tables.get(key)
            if table is None:
                table = _log_tables[key] = _LogSeriesTable(a, b, m)
    return table


def _hyp_log_series(a: float, b: float, m: int, w: float) -> float:
    """F(a, b; a+b+m; 1-w) for integer m >= 1 via the logarithmic connection
    formula (DLMF 15.8.10 form), geometric in w.

    The w-independent factors come from the (a, b, m) table; the loop does
    only the w-dependent work."""
    table = _log_table(a, b, m)
    fin = 0.0
    wn = 1.0
    for fin_coef in table.fin_coefs:
        fin += fin_coef * wn
        wn *= w
    part1 = table.pref1 * fin
    pref2 = table.pref2
    lw = math.log(w)
    abs_lw = abs(lw)
    wn = w**m
    s = 0.0
    comp = 0.0
    rows = table.rows
    last = len(rows) - 1
    # rows appended by extend_to during the loop are read by the same loop
    for n, (coef, psi_1, psi_m1, psi_a, psi_b,
            abs_1, abs_m1, abs_a, abs_b) in enumerate(rows):
        coef_wn = coef * wn
        term = coef_wn * (lw - psi_1 - psi_m1 + psi_a + psi_b)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        # termination keyed to a sign-free envelope; the bracket itself can
        # pass through zero at one index without the tail being done. Its
        # first part |coef w^n| |ln w| alone rules out most indices, and
        # bound is 1e-17 max(|s|, 1e-300), NaN where max() gives NaN
        if n > 3:
            size = abs(coef_wn)
            bound = 1e-17 * (1e-300 if (abs_s := abs(s)) < 1e-300 else abs_s)
            if (size * abs_lw <= bound
                    and size * (abs_lw + abs_1 + abs_m1 + abs_a + abs_b) <= bound):
                return part1 - pref2 * s
        wn *= w
        if n == last and last + 1 < _SERIES_MAX_TERMS:
            table.extend_to(n + 1)
            last = len(rows) - 1
    raise NonConvergenceError(f"hyp2f1: log series stalled (a={a}, b={b}, m={m}, w={w})")


# (a, b, c) of SER term i -> (c - a, c - b), the Euler-transformed parameters;
# every term has c - a - b = -2
_SER_FAMILY = {(2 * i + 2.5, 1.5, 2.0 * i + 2.0): (-0.5, 2 * i + 0.5)
               for i in range(MAX_N_TERMS)}


def hyp2f1_complement(a: float, b: float, c: float, w: float) -> float:
    """2F1(a, b; c; 1 - w) of SER series term i, (a, b, c) = (2i + 5/2, 3/2,
    2i + 2) with 0 <= i < MAX_N_TERMS, for 0 < w <= 1.

    Taking the complement w keeps full relative accuracy when w underflows
    the spacing of doubles near 1 (w down to ~1e-300). The direct series
    serves w > 1/2; at or below 1/2 the Euler transform
    F(a, b; c; 1 - w) = w^-2 F(c - a, c - b; c; 1 - w) and the logarithmic
    series of the latter. Any other (a, b, c) raises DomainError.
    """
    euler = _SER_FAMILY.get((a, b, c))
    if euler is None:
        raise DomainError(
            f"hyp2f1_complement: (a, b, c) = ({a}, {b}, {c}) is not "
            f"(2i + 5/2, 3/2, 2i + 2) for 0 <= i < {MAX_N_TERMS}")
    if math.isnan(w):
        raise DomainError("hyp2f1_complement: NaN argument")
    if w <= 0.0:
        raise NonConvergenceError(f"hyp2f1_complement: need w > 0, got w={w}")
    if w > 1.0:
        raise DomainError(f"hyp2f1_complement: only 0 < w <= 1 supported, got w={w}")
    if w == 1.0:
        return 1.0
    if w > 0.5:
        return _hyp_series(a, b, c, 1.0 - w)
    g = _hyp_log_series(*euler, 2, w)
    try:
        scale = w ** -2.0
    except OverflowError:
        # the function value itself exceeds double range; saturate
        return math.copysign(math.inf, g)
    return scale * g
