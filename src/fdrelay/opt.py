"""Relay-location, power-split, and joint optimizers under the minimal-SER
criterion.

Closed forms are high-power approximations; the bounded Brent paths minimize
the full SER series directly. The joint problem is handled by enumerating all
first-order-condition roots (the SER surface is separately convex in each
ratio but not jointly convex) and selecting by evaluation.
"""

from __future__ import annotations

import math

from . import analytic
from .errors import DomainError
from .model import (RATIO_FLOOR, Allocation, SystemConfig, _Record, _setattr, _stats_along,
                    link_stats)

__all__ = [
    "OptResult",
    "optimal_location_closed",
    "optimal_power_closed",
    "closed_form_result",
    "minimize_1d",
    "joint_foc_roots",
    "joint_v3_closed",
    "select_joint_optimum",
]

_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


class OptResult(_Record):
    """Solver output with residual diagnostics.

    foc_residual is the largest magnitude among the surrogate-objective
    partial derivatives at the solution; closed-form results at finite power
    carry a nonzero residual because they are high-power approximations.
    iterations is the solve's cost: SER series evaluations for minimize_1d,
    candidates scored for select_joint_optimum, 0 for a closed form.
    """

    __slots__ = ("allocation", "ser", "method", "foc_residual", "iterations",
                 "bracket_width")

    def __init__(self, allocation: Allocation, ser: float, method: str,
                 foc_residual: float, iterations: int, bracket_width: float = 0.0):
        _setattr(self, "allocation", allocation)
        _setattr(self, "ser", ser)
        _setattr(self, "method", method)
        _setattr(self, "foc_residual", foc_residual)
        _setattr(self, "iterations", iterations)
        _setattr(self, "bracket_width", bracket_width)


def _residual(alloc: Allocation, cfg: SystemConfig) -> float:
    g = analytic.f_gradient(alloc, cfg)
    return max(abs(g[0]), abs(g[1]))


def _result(cfg: SystemConfig, alloc: Allocation, ser: float, method: str,
            iterations: int, bracket_width: float = 0.0) -> OptResult:
    return OptResult(alloc, ser, method, _residual(alloc, cfg), iterations, bracket_width)


def optimal_location_closed(cfg: SystemConfig, rho_lambda: float) -> float:
    """High-power optimal relay position for a fixed power split:

    rho_d* = 1 / (1 + ((1 + eps P_R) P_R / P_S)^(1/(v-1)))
    """
    if not 0.0 < rho_lambda < 1.0:
        raise DomainError(f"rho_lambda must be in (0,1), got {rho_lambda}")
    p_s = rho_lambda * cfg.total_power
    p_r = cfg.total_power - p_s
    ratio = (1.0 + cfg.rsi_level * p_r) * p_r / p_s
    try:
        return 1.0 / (1.0 + ratio ** (1.0 / (cfg.pathloss_exp - 1.0)))
    except OverflowError:
        return 0.0                              # the power overflows: its limit


def optimal_power_closed(cfg: SystemConfig, rho_d: float) -> float:
    """High-power optimal power split for a fixed relay position:

    rho_lambda* = 1 / (1 + (D_RD^v / (D_SR^v + P eps D_SR^v))^(1/2))
    """
    if not 0.0 < rho_d < 1.0:
        raise DomainError(f"rho_d must be in (0,1), got {rho_d}")
    v = cfg.pathloss_exp
    d_sr = rho_d * cfg.sum_distance
    d_rd = cfg.sum_distance - d_sr
    p_eps = cfg.total_power * cfg.rsi_level
    try:
        ratio = d_rd**v / (d_sr**v * (1.0 + p_eps))
    except (OverflowError, ZeroDivisionError):
        ratio = math.nan
    if ratio == ratio:
        return 1.0 / (1.0 + math.sqrt(ratio))
    # D^v leaves the float range (or is 0 against an infinite P eps): the
    # same value from log sqrt(ratio) = t, as e^-t / (1 + e^-t) when t > 0
    t = 0.5 * (v * math.log(d_rd / d_sr) - math.log1p(p_eps))
    return math.exp(-t) / (1.0 + math.exp(-t)) if t > 0.0 else 1.0 / (1.0 + math.exp(t))


# objective -> (the ratio it frees, the ratio it holds, its closed-form optimum)
_OBJECTIVES = {
    "location": ("rho_d", "rho_lambda", optimal_location_closed),
    "power": ("rho_lambda", "rho_d", optimal_power_closed),
}


def _objective(objective: str):
    try:
        return _OBJECTIVES[objective]
    except (KeyError, TypeError):
        raise DomainError(f"objective must be 'location' or 'power', got {objective!r}") from None


def closed_form_result(objective: str, cfg: SystemConfig, fixed_ratio: float,
                       n_terms: int = analytic.DEFAULT_N_TERMS) -> OptResult:
    """Wrap a closed-form solution with its SER and residual diagnostics.

    The closed forms are high-power approximations, so foc_residual is
    generally nonzero at finite power.
    """
    free, held, closed = _objective(objective)
    alloc = Allocation(**{free: closed(cfg, fixed_ratio), held: fixed_ratio})
    return _result(cfg, alloc, analytic.ser_series(link_stats(cfg, alloc), cfg, n_terms),
                   "closed_form", 0)


def _brent(fn, lo: float, hi: float, tol: float):
    """Bounded Brent minimization of a unimodal scalar function: parabolic
    steps with a golden-section fallback (Brent 1973, ch. 5; the loop of
    scipy's fminbound). The step floor tol1 = tol / 4 carries no relative
    term, so the stop test leaves hi - lo <= tol. Returns (x, fn(x),
    evaluations, width) at the best point evaluated."""
    a, b = lo, hi
    v = w = x = a + _GOLDEN_STEP * (b - a)
    fv = fw = fx = fn(x)
    evals = 1
    d = e = 0.0
    tol1 = 0.25 * tol
    tol2 = 2.0 * tol1
    xm = 0.5 * (a + b)
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN_STEP * e
        u = x + d if abs(d) >= tol1 else (x + tol1 if d >= 0.0 else x - tol1)
        fu = fn(u)
        evals += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
    return x, fx, evals, b - a


def minimize_1d(objective: str, cfg: SystemConfig, fixed_ratio: float,
                tol: float = 1e-8, n_terms: int = analytic.DEFAULT_N_TERMS) -> OptResult:
    """Bounded Brent search of the SER series over one free ratio.

    objective='location' varies rho_d at fixed rho_lambda; 'power' varies
    rho_lambda at fixed rho_d. Separate convexity of the surrogate makes the
    interior minimum unique, so bracketing is safe. The final bracket is at
    most tol wide (bracket_width), and iterations counts the SER series
    evaluations the solve made.
    """
    if not 1e-10 <= tol <= 1e-2:
        raise DomainError(f"tol must be in [1e-10, 1e-2], got {tol}")
    free, held, _ = _objective(objective)
    # Allocation refuses a non-finite held ratio; the free one is set per evaluation
    stats_at = _stats_along(cfg, Allocation(**{free: 0.5, held: fixed_ratio}), free)
    x, ser, evals, width = _brent(lambda x: analytic.ser_series(stats_at(x), cfg, n_terms),
                                  RATIO_FLOOR, 1.0 - RATIO_FLOOR, tol)
    return _result(cfg, Allocation(**{free: x, held: fixed_ratio}), ser, "brent", evals, width)


def _foc_log(rbar: float, eps_p: float, v: float, tail: float) -> float:
    # log-form of the stationarity equation in rbar = 1 - rho_lambda:
    # v ln(1 + eps P rbar) + (v-2) ln(1/rbar - 1) - (v-1) ln(1 + eps P) = 0,
    # given its constant tail (v-1) ln(1 + eps P)
    return (
        v * math.log1p(eps_p * rbar)
        + (v - 2.0) * math.log(1.0 / rbar - 1.0)
        - tail
    )


def _foc_log_noise(rbar: float, eps_p: float, v: float, tail: float) -> float:
    # rounding-error bound of _foc_log: a few ulps of its largest term
    return 8.0 * math.ulp(1.0) * (
        abs(v * math.log1p(eps_p * rbar))
        + abs((v - 2.0) * math.log(1.0 / rbar - 1.0))
        + abs(tail)
    )


def _foc_critical_points(eps_p: float, v: float) -> list[float]:
    # d/drbar _foc_log = 0  <=>  v eps_p r^2 - 2 eps_p r + (v - 2) = 0
    if eps_p == 0.0:
        return []
    disc = 1.0 - v * (v - 2.0) / eps_p
    if disc < 0.0:
        return []
    big = (1.0 + math.sqrt(disc)) / v
    # the product of the roots is (v-2) / (v eps_p); dividing avoids the
    # cancellation of 1 - sqrt(disc) at large eps_p
    return sorted({big, (v - 2.0) / (v * eps_p * big)})


def _bisect(fn, a: float, b: float, fa: float) -> float:
    # sign-change bisection down to adjacent doubles; fn(a) = fa and fn(b)
    # have opposite signs
    while True:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            return a if abs(fa) <= abs(fn(b)) else b
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid


def _pair_location(rbar: float, eps_p: float, v: float) -> float:
    # second stationarity line: the location induced by a power-split root
    return 1.0 / (1.0 + ((1.0 + eps_p * rbar) * rbar / (1.0 - rbar)) ** (1.0 / (v - 1.0)))


def joint_foc_roots(cfg: SystemConfig) -> list[Allocation]:
    """All joint stationary points as allocations.

    The log-form stationarity equation in rbar = 1 - rho_lambda has at most
    two critical points (the roots of a quadratic), which split
    [RATIO_FLOOR, 1 - RATIO_FLOOR] into at most three monotone segments;
    each segment holds at most one root, found by bisection to adjacent
    doubles. A critical point where the equation vanishes to rounding is a
    tangent root and is reported once. Each root is paired with its induced
    relay location.
    """
    eps_p = cfg.rsi_level * cfg.total_power
    v = cfg.pathloss_exp
    if eps_p == 0.0 and v == 2.0:
        # the equation vanishes identically (every point is stationary); the
        # symmetric particular solution stands in through selection
        return []

    tail = (v - 1.0) * math.log1p(eps_p)

    def foc(rbar: float) -> float:
        return _foc_log(rbar, eps_p, v, tail)

    lo = RATIO_FLOOR
    hi = 1.0 - RATIO_FLOOR
    marks = [lo] + [c for c in _foc_critical_points(eps_p, v) if lo < c < hi] + [hi]
    vals = []
    for i, r in enumerate(marks):
        fr = foc(r)
        if 0 < i < len(marks) - 1 and abs(fr) <= _foc_log_noise(r, eps_p, v, tail):
            fr = 0.0
        vals.append(fr)
    roots: list[float] = []
    for i, (r, fr) in enumerate(zip(marks, vals)):
        if fr == 0.0:
            # two critical points a rounding apart are one tangent root
            if i == 0 or vals[i - 1] != 0.0:
                roots.append(r)
        elif i + 1 < len(marks) and fr * vals[i + 1] < 0.0:
            roots.append(_bisect(foc, r, marks[i + 1], fr))
    return [
        Allocation(rho_lambda=1.0 - rbar, rho_d=_pair_location(rbar, eps_p, v))
        for rbar in roots
    ]


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


def _particular_solution(cfg: SystemConfig) -> Allocation:
    # the sequential optimum at v = 2: stationary for the surrogate, though for eps > 0
    # the series is lower elsewhere (eps 0.1, 30 dB: 1.38e-3 here, 2.95e-4 at 0.09, 0.01)
    s = math.sqrt(1.0 + cfg.rsi_level * cfg.total_power)
    return Allocation(rho_lambda=s / (s + 1.0), rho_d=0.5)


def select_joint_optimum(cfg: SystemConfig,
                         n_terms: int = analytic.DEFAULT_N_TERMS) -> OptResult:
    """Evaluate the SER series at every stationary candidate plus the
    symmetric particular solution and return the minimizer.

    Ties break toward the particular solution.
    """
    particular = _particular_solution(cfg)
    candidates = joint_foc_roots(cfg)

    def ser_at(alloc: Allocation) -> float:
        return analytic.ser_series(link_stats(cfg, alloc), cfg, n_terms)

    best = particular
    best_ser = ser_at(particular)
    method = "joint_particular"
    for alloc in candidates:
        ser = ser_at(alloc)
        if ser < best_ser - 1e-15:
            best = alloc
            best_ser = ser
            method = "joint_roots"
    return _result(cfg, best, best_ser, method, len(candidates) + 1)
