"""Monte Carlo oracle: Rayleigh link sampling and outage/SER estimation.

Independence from the closed forms is the whole point here; nothing in this
module touches the analytic module. Reproducibility contract: the randomness
of every lattice group or symbol is a pure function of (seed, estimator
tag, group or symbol index) through counter-based Philox streams, so
estimates are bit-identical for any worker count. The lattice estimators'
statistics read their one array of group means whole: its math.fsum
(exactly rounded, hence order-independent) and the centred squares about
the mean, so no split of the work is part of an estimate's bits.

The outage and semi-analytic SER run through one driver, _lattice_estimate.
Every estimator splits its groups or symbols into equal contiguous shares,
one per worker but at most one per CHUNK_SAMPLES requested samples, each
starting on a multiple of 4 so that its Philox offset is a whole block. A
task draws and evaluates one cache-sized block at a time from one stream,
and the lattice tasks write their group means into one array of the
estimate. A task allocates its workspace once: the block's shifts, its
lattice points (and the SER's weights and thresholds), the kernel's
scratch (half a block: points, then mirrors) and the stretch's weights, or
the symbol level's uniforms and chain columns. Every block runs in place in it,
through out= with the same operations on the same operands, so no block
allocates an array of its size (the SER's wrap is counted in the mirrors'
slot, not a bool buffer), and the allocator's dynamic thresholds do not
depend on how estimates interleave. Every step acts on single values or
groups, so neither blocks nor shares change a bit.

The outage and semi-analytic SER estimators are conditional Monte Carlo
(Asmussen & Glynn, *Stochastic Simulation*, 2007, ch. V) on the simulated
SINR ab / (a + b + 1), through one kernel: the outage probability at a
threshold x given the relay-destination fade's excess over x, with the other
two fades integrated in closed form. The outage integrates it over the
excess, with at most the variance of the indicator count. The SER writes
alpha Q(sqrt(beta gamma)) as (alpha / 2) P(Z^2 > beta gamma | gamma) with
Z ~ N(0, 1) independent of the fades: alpha / 2 times the outage at the
random threshold X = Z^2 / beta, a second coordinate, drawn by importance
sampling with its weights' group means as a control variate.

Both average groups of 233 points of a randomly shifted rank-1 lattice
(Cranley & Patterson 1976; L'Ecuyer & Lemieux 2000), each evaluated at
itself and at its mirror 1 - point (antithetic pairs; Hammersley & Morton
1956): v_j = (j + s) / 233 for the outage, (frac(89 j / 233 + s0),
(j + s1) / 233) for the SER, the Fibonacci lattice {(j, 144 j) / 233}
(89 * 144 = 1 mod 233) shifted modulo itself so that v_j rises with j.
Group g reads its shift from uniform g (outage) or 2g, 2g + 1 (SER) of its
stream. A balanced tail stretch maps the excess coordinate v to u = T(v)
at weight T'(v): with d = _STRETCH, m = min(v, d), t = max(v - 1 + d, 0),
T(v) = v - m + (m^2 + t^2) / (2 d) and T'(v) = (m + t) / d. Near u = 0 the
kernel behaves like min(1, k / u), a tail that plain draws seldom reach;
u = v^2 / (2 d) at weight v / d makes it a bounded integrand, which the
lattice integrates well. T'(1 - v) = 2 - T'(v), and the mirror's weight is
computed as 2 - w, so a pair's weights sum to exactly 2: a pair mean stays
within the kernel's [0, 1], and a certain event gives exactly 1. Groups are
independent, so value is the mean of the group means (the SER's less their
control variate), std_error their spread over the root of their number,
and n_samples counts evaluations, 466 a group: n rounds up to whole groups.

numpy (and scipy.special for the symbol level) is imported inside the
sampling functions, so that importing fdrelay loads neither; each estimator
imports what its tasks use before any worker thread starts.
concurrent.futures is imported inside parallel_map, only when it starts a
thread pool.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, UnsupportedModulationError
from .model import LinkStats, SystemConfig, _Record, _setattr

__all__ = [
    "McEstimate",
    "stream",
    "draw_gammas",
    "estimate_outage",
    "estimate_ser_semianalytic",
    "estimate_ser_symbol_level",
    "CHUNK_SAMPLES",
]

# Requested samples per thread: an estimate runs on at most one thread per
# CHUNK_SAMPLES of them, so small ones start no pool. No estimate depends on
# this size. Philox counts blocks of 4 uint64 outputs, so a task starts at a
# multiple of 4 uniforms: 4 groups of 1 (outage) or 2 (SER) uniforms, 4
# symbols of 9.
CHUNK_SAMPLES = 400_000

# Points of a lattice group (a Fibonacci number), the generator of the SER's
# lattice in the order that sorts v_j, the width of the balanced tail
# stretch, and the columns it reaches: (j + s) / 233 lies within 0.05 of 0
# or 1 only for j < 12 or j >= 221; the mean of the SER's proposal for |Z|
_GROUP = 233
_GEN = 89
_STRETCH = 0.05
_EDGE = 12
_SCALE = 1.6

# Uniforms or lattice coordinates evaluated at a time inside a task:
# _BLOCK_UNIFORMS // k rows of k (281 outage groups, 140 SER groups, 7 281
# symbols), so a worker thread's working set stays within ~2 MB whatever
# CHUNK_SAMPLES is, and no estimate changes.
_BLOCK_UNIFORMS = 65_536

_TAG_DRAW = 0
_TAG_OUTAGE = 1
_TAG_SER = 2
_TAG_SYMBOL = 3

_MIN_SAMPLES = 10_000
_MIN_SYMBOLS = 100_000


class McEstimate(_Record):
    """A Monte Carlo probability estimate with its standard error.

    `count` is the number of symbol errors behind the symbol-level SER, the
    one counting estimate, so that value == count / n_samples; it is None
    for the outage and the semi-analytic SER, which average conditional
    probabilities instead of counting. == and hash compare every field.
    No field depends on the worker count or on CHUNK_SAMPLES.
    """

    __slots__ = ("value", "std_error", "n_samples", "seed", "count")

    def __init__(self, value: float, std_error: float, n_samples: int, seed: int,
                 count: int | None = None):
        _setattr(self, "value", value)
        _setattr(self, "std_error", std_error)
        _setattr(self, "n_samples", n_samples)
        _setattr(self, "seed", seed)
        _setattr(self, "count", count)


def stream(seed: int, tag: int = _TAG_DRAW, uniform_offset: int = 0):
    """Counter-based uniform stream, a numpy Generator, at `uniform_offset` draws.

    The offset must be a multiple of 4 (one Philox block).
    """
    from numpy.random import Generator, Philox

    if uniform_offset % 4:
        raise DomainError("uniform_offset must be a multiple of 4")
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (tag << 64)
    return Generator(Philox(key=key, counter=uniform_offset // 4))


def draw_gammas(stats: LinkStats, u, out=None):
    """The exponential link SNRs (g_sr, g_rd, g_li) of each row of a uniform
    block u of shape (n, k), k >= 3, by inverse CDF from its columns 0, 1
    and 2; further columns are left to the caller. Returns them as the rows
    of out, shape (3, n), allocated when None. gamma_li is identically 0
    when lambda_li = 0.
    """
    import numpy as np

    if out is None:
        out = np.empty((3, len(u)))
    for col, (g, lam) in enumerate(zip(out, (stats.lambda_sr, stats.lambda_rd,
                                             stats.lambda_li))):
        np.log1p(np.negative(u[:, col], out=g), out=g)
        g *= -lam
    return out


def parallel_map(fn, items, workers: int) -> list:
    """Order-preserving map on a thread pool; results come back in item
    order regardless of completion order. Runs serially for one worker or
    one item.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _map_shares(fn, n: int, workers: int, samples: int) -> list:
    # fn(lo, hi) over equal contiguous shares of range(n), one per worker but
    # at most one per CHUNK_SAMPLES of the samples requested, each a multiple
    # of 4 long, so that any stream offset k lo is a multiple of 4
    tasks = min(max(1, workers), -(-samples // CHUNK_SAMPLES))
    share = -(-n // (4 * tasks)) * 4
    bounds = [(lo, min(n, lo + share)) for lo in range(0, n, share)]
    return parallel_map(lambda b: fn(*b), bounds, workers)


def _blocks(m: int, k: int):
    # (start, stop) of the block-sized slices of range(m), for k uniforms a row
    rows = _BLOCK_UNIFORMS // k
    return ((b, min(m, b + rows)) for b in range(0, m, rows))


def _check_n(n: int, minimum: int, label: str) -> None:
    if n < minimum:
        raise DomainError(f"{label}: need at least {minimum} samples, got {n}")


def _mean_estimate(g, seed: int, scale: float = 1.0) -> McEstimate:
    """Mean (within [0, scale]) and standard error of the group means g times
    scale, which it overwrites; n_samples counts evaluations, 2 * _GROUP per
    group. Rows (A, B), the SER's, give each group A - b (B - 1), b the slope
    of A on B over the other parity's groups: B's mean is 1, so A's is kept.

    The mean is the exactly rounded fsum of g over its size, so no order of
    the groups changes it. The variance is the corrected two-pass form (Chan,
    Golub & LeVeque, Am. Stat. 37, 1983): the sum of squared deviations from
    that mean less excess^2 / n, excess being the sum of the deviations. It
    does not cancel to noise when the group means are nearly constant, and
    reads 0 when they are all equal, whether or not the mean rounds.
    """
    g, *b = g if g.ndim == 2 else (g,)
    if b:
        b = b[0] - 1.0
        fits = [(g[k::2] - g[k::2].mean(), b[k::2] - b[k::2].mean()) for k in (1, 0)]
        for k, (da, db) in enumerate(fits):     # evens take the odds' slope, odds the evens'
            slope = (da * db).sum() / (db * db).sum() if db.max() > db.min() else 0.0
            g[k::2] -= slope * b[k::2]
    g *= scale
    n = g.size
    mean = math.fsum(g) / n
    g -= mean
    excess = float(g.sum())
    g *= g
    # clamped, since rounding can leave the difference just below 0
    var = max(float(g.sum()) - excess * excess / n, 0.0) / (n - 1)
    return McEstimate(min(max(mean, 0.0), scale), math.sqrt(var / n), 2 * _GROUP * n, seed)


def _outage_given_excess(v, x, stats: LinkStats, scratch=None):
    """In place, the uniforms v become estimate_outage's evaluations at
    threshold x, a scalar or an array shaped like v: the probability that
    the SINR falls below x given the relay-destination excess
    E = -lambda_rd log1p(-v) over x. E = 0 or x = inf makes k infinite, and
    the value is its limit 1. Returns v.

    scratch, shaped like v, holds the intermediate terms; one is allocated
    when None. An array x is spent: it ends as 1 + d.
    """
    import numpy as np

    if scratch is None:
        scratch = np.empty_like(v)
    array = isinstance(x, np.ndarray)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.log1p(np.negative(v, out=v), out=v)
        v *= -stats.lambda_rd                   # E
        np.divide(np.add(x, 1.0, out=scratch) if array else x + 1.0, v, out=v)
        v += 1.0
        v *= (np.divide(x, stats.lambda_sr, out=scratch) if array
              else x / stats.lambda_sr)         # c = x (1 + (x + 1) / E) / lambda_sr
        x_rd = np.divide(x, stats.lambda_rd, out=scratch) if array else x / stats.lambda_rd
        d = np.multiply(v, stats.lambda_li, out=x if array else scratch)
        # an infinite c makes d infinite, or NaN (inf * 0) when lambda_li = 0;
        # the largest double keeps the value at its limit 1
        np.fmin(d, sys.float_info.max, out=d)
        v += x_rd                               # s
        np.expm1(np.negative(v, out=v), out=v)
        np.subtract(d, v, out=v)
        d += 1.0
        v /= d
    return v


def _columns():
    import numpy as np
    return (np.arange(_GROUP) - _EDGE) % _GROUP     # the 2 _EDGE columns j near 0 or 1 first


def _lattice(s, cols, v):
    # v (2, m, _GROUP) becomes (cols + s) / _GROUP at the m shifts s, then the mirrors
    import numpy as np

    np.add(cols, s[:, None], out=v[0])
    v[0] /= _GROUP
    np.subtract(1.0, v[0], out=v[1])
    return v


def _stretch(v, room, w):
    # in place, the coordinates v of _lattice, m groups, become T(v); returns
    # the weights T'(v) of the points' first 2 _EDGE columns (elsewhere
    # T'(v) = 1) in w, shape (m, 2 _EDGE), with room (m _GROUP,) as scratch
    import numpy as np

    e = v[..., :2 * _EDGE]
    m, t = room[:2 * e.size].reshape((2,) + e.shape)
    v[..., 2 * _EDGE:] -= 0.5 * _STRETCH
    np.minimum(e, _STRETCH, out=m)
    np.subtract(e, 1.0, out=t)                  # exact near 1: t <= _STRETCH, T(v) <= 1
    t += _STRETCH
    np.maximum(t, 0.0, out=t)
    np.add(m[0], t[0], out=w)
    w /= _STRETCH
    e -= m
    m *= m
    t *= t
    m += t
    m /= 2.0 * _STRETCH
    e += m
    return w


def _group_means(vw, x, stats: LinkStats, room, w):
    # the group means at threshold x (scalar, or shaped like vw[0] and then
    # spent) from _lattice's v = vw[0], overwritten, in _stretch's room and w;
    # with the SER's weights vw[1] (spent), the weighted ones and the weights'
    import numpy as np

    v = vw[0]
    _stretch(v, room, w)
    scratch = room.reshape(v.shape[1:])
    for half, x_half in zip(v, x if isinstance(x, np.ndarray) else (x, x)):
        _outage_given_excess(half, x_half, stats, scratch)  # the points, then the mirrors
    vw[-1, 0, :, :2 * _EDGE] *= w               # the stretch's weights, on the kernel or on vw[1]
    vw[-1, 1, :, :2 * _EDGE] *= np.subtract(2.0, w, out=w)  # the mirrors' T'(1 - v)
    if len(vw) == 2:
        v *= vw[1]
    vw[:, 0] += vw[:, 1]                        # each pair's sum, at most 2 without weights
    return vw[:, 0].sum(axis=2) / (2 * _GROUP)


def _lattice_estimate(stats: LinkStats, n: int, seed: int, workers: int, tag: int,
                      dims: int, threshold, scale: float) -> McEstimate:
    # the outage (dims 1) or semi-analytic SER (dims 2) over ceil(n / 466)
    # groups, group g reading its dims shifts from offset dims g of stream
    # tag. threshold(shifts, out) returns a block's threshold: a scalar, or
    # written in out[-1], the lattice buffer past the lattice (empty when dims
    # is 1), with the weights in out[0]; _mean_estimate scales by `scale`
    import numpy as np

    cols = _columns()
    groups = -(-n // (2 * _GROUP))
    g = np.empty((dims, groups))

    def task(lo, hi):
        # the means of groups lo .. hi - 1 into g, from stream offset dims lo,
        # block by block
        gen = stream(seed, tag, dims * lo)
        size = min(hi - lo, _BLOCK_UNIFORMS // (dims * _GROUP))
        shifts = np.empty((size, dims))
        buf = np.empty((2 * dims - 1, 2, size, _GROUP))
        room, w = np.empty(size * _GROUP), np.empty((size, 2 * _EDGE))
        for b, e in _blocks(hi - lo, dims * _GROUP):
            m = e - b
            s = gen.random(out=shifts[:m])
            _lattice(s[:, -1], cols, buf[0, :, :m])
            x = threshold(s, buf[1:, :, :m])
            g[:, lo + b:lo + e] = _group_means(buf[:dims, :, :m], x, stats,
                                               room[:m * _GROUP], w[:m])

    _map_shares(task, groups, workers, n)
    return _mean_estimate(g, seed, scale)


def estimate_outage(stats: LinkStats, threshold: float, n: int, seed: int,
                    workers: int = 1) -> McEstimate:
    """Probability that the end-to-end SINR ab / (a + b + 1) falls below x,
    with a = g_sr / (g_li + 1) and b = g_rd, by conditional Monte Carlo.

    Outage is certain when b <= x. Given b > x, the excess E = b - x is again
    Exp(lambda_rd) (the exponential is memoryless), so each evaluation needs
    only E = -lambda_rd log1p(-u), one coordinate. Given b = x + E, outage is
    g_sr < (g_li + 1) k with k = x (x + 1 + E) / E; integrating g_sr and then
    g_li ~ Exp(lambda_li) gives the value 1 - e^-s / (1 + d), with
    c = k / lambda_sr, d = c lambda_li and s = x / lambda_rd + c, computed
    without cancellation as (d - expm1(-s)) / (1 + d). The estimate is
    unbiased, and as the conditional expectation of the outage indicator its
    variance is at most the indicator count's at every input.

    Relative variance per evaluation at threshold 1, the symmetric
    allocation and v = 3, independent draws -> antithetic pairs (30-digit
    quadrature) -> groups (pooled over 20 seeds of 1e6): 0.076 -> 0.028 ->
    4.5e-7 at 0 dB, 0.250 -> 0.249 -> 5.2e-4 at 20 dB (eps = 0.1) and 0.692
    -> 0.692 -> 1.8e-4 at 40 dB, eps = 0, where pairs left the tail near
    u = 0 to draws that 1e6 seldom reach and std_error understated it.
    Point v = 0 (E = 0, k infinite) takes the limit 1 at weight 0, its
    mirror (E = inf) the finite value at k = x. Threshold 0 returns exactly
    0 with std_error 0: the SINR is never negative.
    """
    import numpy.random  # noqa: F401  (stream's Philox)

    _check_n(n, _MIN_SAMPLES, "estimate_outage")
    if not threshold >= 0.0:
        raise DomainError(f"threshold must be >= 0, got {threshold}")
    if threshold == 0.0:
        return McEstimate(value=0.0, std_error=0.0, n_samples=2 * _GROUP * -(-n // (2 * _GROUP)),
                          seed=seed)
    x = float(threshold)
    return _lattice_estimate(stats, n, seed, workers, _TAG_OUTAGE, 1, lambda s, out: x, 1.0)


def estimate_ser_semianalytic(stats: LinkStats, cfg: SystemConfig, n: int,
                              seed: int, workers: int = 1) -> McEstimate:
    """Average SER alpha E[Q(sqrt(beta SINR))] of the simulated SINR
    ab / (a + b + 1), by conditional Monte Carlo through the outage kernel.

    With Z ~ N(0, 1) independent of the fades, Q(sqrt(beta g)) =
    P(Z^2 > beta g) / 2, so the SER is (alpha / 2) E[F(X)]: F is the SINR's
    CDF and X = Z^2 / beta a random threshold. A lattice point or mirror
    (u0, v) draws |Z| = t = -c ln u0, c = _SCALE, at the weight
    w = c sqrt(2 / pi) exp(t / c - t^2 / 2) <= 1.56 of the half-normal over
    the exponential, and gives w times estimate_outage's value at threshold
    X = t^2 / beta and excess coordinate T(v). u0 = 0 takes weight 0; its
    mirror gives X = 0 and the value 0. The weights' group means, of
    expectation exactly 1, are a cross-fitted control variate
    (_mean_estimate): the estimate is unbiased, within [0, alpha / 2], and
    exactly alpha / 2 where F is 1 at every point.

    Relative variance per evaluation (20 seeds of 1e6, symmetric, v = 3),
    groups at the normal quantile X = ndtri(u0 / 2)^2 / beta -> these: 0.067
    -> 0.0039 at 40 dB, 0.069 -> 0.0039 at 60 dB (eps 0); 0.021 -> 0.0035
    at 20 dB, 0.065 -> 0.0038 at 60 dB, 0.017 -> 0.0012 at 0 dB, 0.0041 ->
    0.00015 at -10 dB (eps 0.1). c = 1.6 is the largest c that keeps every
    cell of a sweep (-10, 0, 10, 20, 30, 40, 60 dB x eps 0, 0.1, 1, BPSK and
    QPSK alternating, 10 seeds of 1e6) 5x below the quantile map: at c 1.3,
    1.45, 1.6, 1.7, 2.0, 2.2, 2.5, 2.8 the least ratio was 4.7, 5.3, 5.2,
    3.2, 1.3, 0.94, 0.67, 0.52 and the 21 cells summed 0.088, 0.075, 0.063,
    0.055, 0.034, 0.029, 0.047, 0.091: a larger c serves high power, a
    smaller one low power.
    """
    import numpy as np
    import numpy.random  # noqa: F401  (stream's Philox)

    _check_n(n, _MIN_SAMPLES, "estimate_ser_semianalytic")
    rows = _GEN * _columns() % _GROUP / _GROUP
    weight = _SCALE * math.sqrt(2.0 / math.pi)

    def threshold(s, out):
        # the weights w and X at the points u0 = frac(89 j / 233 + s0), then
        # at their mirrors; the wrap is counted in the mirrors' slot before
        # they are written
        w, x = out
        np.add(rows, s[:, :1], out=x[0])
        np.greater_equal(x[0], 1.0, out=x[1])
        x[0] -= x[1]
        np.subtract(1.0, x[0], out=x[1])
        with np.errstate(divide="ignore"):
            np.log(x, out=x)
        x *= -_SCALE                                # t, infinite at u0 = 0
        np.multiply(x, -0.5, out=w)
        w += 1.0 / _SCALE
        w *= x                                      # t (1 / c - t / 2)
        np.exp(w, out=w)
        w *= weight
        np.square(x, out=x)
        x /= cfg.beta_mod                           # X = t^2 / beta
        return x

    return _lattice_estimate(stats, n, seed, workers, _TAG_SER, 2, threshold,
                             0.5 * cfg.alpha_mod)


def estimate_ser_symbol_level(stats: LinkStats, cfg: SystemConfig,
                              n_symbols: int, seed: int,
                              workers: int = 1) -> McEstimate:
    """End-to-end BPSK bit errors through the explicit amplify-and-forward chain.

    Per symbol: the relay receives the unit-power BPSK symbol over the
    source-relay fade plus a unit-power self-interference stream over the
    loopback fade plus noise, scales by the amplification gain
    1/sqrt(g_sr + g_li + 1) that meets the unit output-power constraint, and
    forwards; the destination decodes by sign. The interference stream is an
    independent circular Gaussian symbol (the forwarded signal of an
    amplify-and-forward relay is a scaled mixture, not a clean constellation
    point), which is what makes this chain agree with the semi-analytic
    estimator in expectation.

    Consumes 9 uniforms per symbol, symbol i reading uniforms 9i .. 9i + 8
    of one stream: 3 fades, 2 for the interference symbol, 4 for
    relay/destination noise. Channel phases are absorbed by circular
    symmetry; only fade magnitudes are drawn. The error count does not
    depend on how the symbols are split into tasks and blocks.

    The transmitted symbol is +1 and the gain, the fades and their square
    roots are real, so the decision statistic Re(y_d) depends only on the
    real parts of the interference symbol and the two noises. All 9 uniforms
    are still drawn, so the Philox layout holds, but only the real
    components (u3, u5, u7) go through ndtri; the imaginary ones (u4, u6,
    u8) are never read. The count equals that of the full complex chain bit
    for bit unless one of u3..u8 is exactly 0 (probability 2**-53 per
    uniform). There ndtri(0) = -inf, and an inf * 0 cross term of the
    complex products made Re(y_d) NaN, so the complex chain counted no
    error. The real chain ignores a zero in u4, u6 or u8 and counts one in
    u3 or u5 as an error, except u3 with g_li = 0, where sqrt(g_li) * x_int
    is still 0 * inf = NaN.
    """
    import numpy as np
    import numpy.random  # noqa: F401  (stream's Philox)
    from scipy.special import ndtri

    if not cfg.is_bpsk:
        raise UnsupportedModulationError(
            "estimate_ser_symbol_level supports BPSK only (alpha=1, beta=2)"
        )
    _check_n(n_symbols, _MIN_SYMBOLS, "estimate_ser_symbol_level")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def task(lo, hi):
        # symbols lo .. hi - 1 from stream offset 9 lo, in one workspace that
        # every block reuses
        gen = stream(seed, _TAG_SYMBOL, 9 * lo)
        size = min(hi - lo, _BLOCK_UNIFORMS // 9)
        uniforms = np.empty((size, 9))
        chain = np.empty((7, size))
        errs = np.empty(size, dtype=bool)
        errors = 0
        for b, e in _blocks(hi - lo, 9):
            m = e - b
            u = gen.random(out=uniforms[:m])
            g_sr, g_rd, g_li = draw_gammas(stats, u, out=chain[:3, :m])
            # real parts of the interference symbol, relay and destination noise
            x_int, n_r, n_d, gain = chain[3:, :m]
            for z, col in ((x_int, 3), (n_r, 5), (n_d, 7)):
                ndtri(u[:, col], out=z)
                z *= inv_sqrt2
            # transmitted symbol fixed at +1; BPSK error rate is symbol-symmetric.
            # gain = 1 / sqrt(g_sr + g_li + 1)
            np.add(g_sr, g_li, out=gain)
            gain += 1.0
            np.divide(1.0, np.sqrt(gain, out=gain), out=gain)
            # y_r = sqrt(g_sr) + sqrt(g_li) x_int + n_r, in x_int
            x_int *= np.sqrt(g_li, out=g_li)
            x_int += np.sqrt(g_sr, out=g_sr)
            x_int += n_r
            # y_d = sqrt(g_rd) gain y_r + n_d, in g_rd
            np.sqrt(g_rd, out=g_rd)
            g_rd *= gain
            g_rd *= x_int
            g_rd += n_d
            errors += int(np.count_nonzero(np.less(g_rd, 0.0, out=errs[:m])))
        return errors

    errors = sum(_map_shares(task, n_symbols, workers, n_symbols))
    p = errors / n_symbols
    return McEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n_symbols),
                      n_samples=n_symbols, seed=seed, count=errors)
