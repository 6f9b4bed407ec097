"""Monte Carlo oracle: Rayleigh link sampling and outage/SER estimation.

Independence from the closed forms is the whole point here; nothing in this
module touches the analytic module. Reproducibility contract: the randomness
of every antithetic pair or symbol is a pure function of (seed, estimator
tag, pair or symbol index) through counter-based Philox streams, so
estimates are bit-identical for any chunking or worker count. Chunk sums are
combined with math.fsum (exactly rounded, hence order-independent) and chunk
variances are merged pairwise in chunk order, which no worker count changes.

Two sizes split the work. A chunk of CHUNK_SAMPLES evaluations is one pool
task of the outage and semi-analytic SER: it fixes a Philox stream offset
and a moment boundary, so it is part of what an estimate's bits depend on.
A block of _BLOCK_UNIFORMS uniforms sets the working set: within a task,
uniforms are drawn and evaluated one block at a time from one stream, so a
worker thread's arrays stay cache-sized however large the chunk. The pair
means of a chunk (below) are written block by block into one array and
reduced whole, and every kernel step is elementwise, so blocks change no
bit. The symbol-level SER is an integer count, which does not depend on how
its samples are split; its pool tasks split the samples evenly over the
workers.

The outage and semi-analytic SER estimators are conditional Monte Carlo
(Asmussen & Glynn, *Stochastic Simulation*, 2007, ch. V) on the simulated
SINR ab / (a + b + 1), through one kernel: the outage probability at a
threshold x given the relay-destination fade's excess over x, with the other
two fades integrated in closed form. The outage reads one uniform per
evaluation (the excess) at its fixed threshold, and its variance is at most
that of the indicator count it replaces. The SER writes alpha
Q(sqrt(beta gamma)) as (alpha / 2) P(Z^2 > beta gamma | gamma) with
Z ~ N(0, 1) independent of the fades, so it is (alpha / 2) times the outage
probability at the random threshold X = Z^2 / beta: two uniforms per
evaluation, one for X and one for the excess.

Both draw antithetic pairs (Hammersley & Morton, *Proc. Camb. Phil. Soc.*
1956): each drawn row of uniforms u is evaluated at u and at 1 - u, so the
outage draws half a uniform per evaluation and the SER one. The value falls
as the excess uniform rises, and the SER's also as u0 rises (X falls, and
the kernel rises with X), so the two evaluations of a pair are never
positively correlated and a pair mean varies at most half as much as one
evaluation (Ross, *Simulation*, section 9.2). The pair mean is the unit the
moments reduce: value is the mean over evaluations, std_error the spread of
the pair means over the number of pairs, and n_samples the number of
evaluations, two per pair, so an odd n runs ceil(n / 2) pairs.

numpy and scipy.special are imported inside the sampling functions, so that
importing fdrelay loads neither; each estimator imports what its chunks use
before any worker thread starts. concurrent.futures is imported inside
parallel_map, only when it starts a thread pool.
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
    "sinr_exact",
    "estimate_outage",
    "estimate_ser_semianalytic",
    "estimate_ser_symbol_level",
    "CHUNK_SAMPLES",
]

# Evaluations per deterministic chunk of the outage and semi-analytic SER,
# CHUNK_SAMPLES // 2 antithetic pairs: each chunk starts its own Philox
# stream and contributes one (count, sum, centred sum of squares) of its pair
# means to the estimate, so the value depends on this size. Philox counts
# blocks of 4 uint64 outputs, so chunk boundaries must land on multiples of 4
# consumed uniforms; any multiple of 8 works for the outage (1 uniform a
# pair), the semi-analytic SER (2 a pair) and the 9-uniform symbol level.
CHUNK_SAMPLES = 400_000
_CHUNK_PAIRS = CHUNK_SAMPLES // 2

# Uniforms drawn at a time inside a chunk or task: a block is
# _BLOCK_UNIFORMS // k rows of k uniforms (65 536 outage pairs, 32 768 SER
# pairs, 7 281 symbols), so a worker thread's working set stays within
# ~2 MB whatever CHUNK_SAMPLES is, and no estimate changes. Counted in
# uniforms, not rows: the 1-uniform outage wants more rows per block than
# the 9-uniform symbol level (smaller blocks slow the 2-worker outage, larger
# ones the symbol level); 65 536 was the best of 32 768 ... 131 072 before
# the pairs, and 16 384 or 32 768 time the same within the host's noise.
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
    """

    __slots__ = ("value", "std_error", "n_samples", "seed", "count")

    def __init__(self, value: float, std_error: float, n_samples: int, seed: int,
                 count: int | None = None):
        _setattr(self, "value", value)
        _setattr(self, "std_error", std_error)
        _setattr(self, "n_samples", n_samples)
        _setattr(self, "seed", seed)
        _setattr(self, "count", count)


def stream(seed: int, tag: int = _TAG_DRAW, uniform_offset: int = 0) -> Generator:
    """Counter-based uniform stream positioned at `uniform_offset` draws.

    The offset must be a multiple of 4 (one Philox block).
    """
    from numpy.random import Generator, Philox

    if uniform_offset % 4:
        raise DomainError("uniform_offset must be a multiple of 4")
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) + (tag << 64)
    return Generator(Philox(key=key, counter=uniform_offset // 4))


def draw_gammas(stats: LinkStats, u):
    """The exponential link SNRs (g_sr, g_rd, g_li) of each row of a uniform
    block u of shape (n, k), k >= 3, by inverse CDF from its columns 0, 1
    and 2; further columns are left to the caller. gamma_li is identically 0
    when lambda_li = 0.
    """
    import numpy as np

    g_sr = -stats.lambda_sr * np.log1p(-u[:, 0])
    g_rd = -stats.lambda_rd * np.log1p(-u[:, 1])
    g_li = -stats.lambda_li * np.log1p(-u[:, 2])
    return g_sr, g_rd, g_li


def sinr_exact(g_sr, g_rd, g_li):
    """End-to-end SINR a*b / (a + b + 1) with a = g_sr / (g_li + 1), b = g_rd."""
    a = g_sr / (g_li + 1.0)
    b = g_rd
    return a * b / (a + b + 1.0)


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


def _map_chunks(fn, n: int, workers: int, size: int) -> list:
    # fn(lo, hi) over the size-sized slices of range(n)
    bounds = [(lo, min(n, lo + size)) for lo in range(0, n, size)]
    return parallel_map(lambda b: fn(*b), bounds, workers)


def _blocks(m: int, k: int):
    # (start, stop) of the block-sized slices of range(m), for k uniforms a row
    rows = _BLOCK_UNIFORMS // k
    return ((b, min(m, b + rows)) for b in range(0, m, rows))


def _check_n(n: int, minimum: int, label: str) -> None:
    if n < minimum:
        raise DomainError(f"{label}: need at least {minimum} samples, got {n}")


def _moments(v) -> tuple[int, float, float]:
    # (count, sum, sum of squared deviations from the mean) of one chunk's
    # pair means; two passes, and v is overwritten
    import numpy as np

    total = float(v.sum())
    v -= total / v.size
    np.square(v, out=v)
    return v.size, total, float(v.sum())


def _mean_estimate(parts: list, seed: int) -> McEstimate:
    """Mean and standard error of the pair means, from per-chunk _moments
    in chunk order; n_samples counts evaluations, two per pair.

    The mean is the exactly rounded fsum of the chunk sums over the number
    of pairs. The chunks' centred sums of squares are merged pairwise by the
    update of Chan, Golub & LeVeque (1979); unlike s2/n - mean^2 from raw
    sums, it does not cancel to noise when the pair means are nearly
    constant.
    """
    n = sum(p[0] for p in parts)
    mean = math.fsum(p[1] for p in parts) / n
    while len(parts) > 1:
        merged = []
        for (na, sa, ma), (nb, sb, mb) in zip(parts[::2], parts[1::2]):
            delta = sb / nb - sa / na
            merged.append((na + nb, sa + sb, ma + mb + delta * delta * na * nb / (na + nb)))
        parts = merged + parts[2 * len(merged):]
    var = parts[0][2] / (n - 1)
    return McEstimate(value=mean, std_error=math.sqrt(var / n), n_samples=2 * n, seed=seed)


def _outage_given_excess(v, x, stats: LinkStats):
    """In place, the uniforms v become estimate_outage's evaluations at
    threshold x, a scalar or an array shaped like v: the probability that
    the SINR falls below x given the relay-destination excess
    E = -lambda_rd log1p(-v) over x. E = 0 or x = inf makes k infinite, and
    the value is its limit 1. Returns v.
    """
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        np.log1p(np.negative(v, out=v), out=v)
        v *= -stats.lambda_rd                   # E
        np.divide(x + 1.0, v, out=v)
        v += 1.0
        v *= x / stats.lambda_sr                # c = x (1 + (x + 1) / E) / lambda_sr
        d = v * stats.lambda_li
        # an infinite c makes d infinite, or NaN (inf * 0) when lambda_li = 0;
        # the largest double keeps the value at its limit 1
        np.fmin(d, sys.float_info.max, out=d)
        v += x / stats.lambda_rd                # s
        np.expm1(np.negative(v, out=v), out=v)
        np.subtract(d, v, out=v)
        d += 1.0
        v /= d
    return v


def estimate_outage(stats: LinkStats, threshold: float, n: int, seed: int,
                    workers: int = 1) -> McEstimate:
    """Probability that the end-to-end SINR ab / (a + b + 1) falls below x,
    with a = g_sr / (g_li + 1) and b = g_rd, by conditional Monte Carlo.

    Outage is certain when b <= x. Given b > x, the excess E = b - x is again
    Exp(lambda_rd) (the exponential is memoryless), so each evaluation needs
    only E = -lambda_rd log1p(-u), one uniform. Given b = x + E, outage is
    g_sr < (g_li + 1) k with k = x (x + 1 + E) / E; integrating g_sr and then
    g_li ~ Exp(lambda_li) gives the value 1 - e^-s / (1 + d), with
    c = k / lambda_sr, d = c lambda_li and s = x / lambda_rd + c, computed
    without cancellation as (d - expm1(-s)) / (1 + d). The estimate is
    unbiased, and as the conditional expectation of the outage indicator its
    variance is at most the indicator count's at every input.

    Pair i draws uniform i of its stream and evaluates it at u and at 1 - u;
    the value falls as u rises, so the pair mean varies at most half as much
    as one evaluation. Relative variance per evaluation at threshold 1, the
    symmetric allocation and v = 3, independent draws -> pairs (30-digit
    quadrature over u): 0.076 -> 0.028 at 0 dB and 0.250 -> 0.249 at 20 dB
    (eps = 0.1). Where outage is rare (high power, eps = 0), the variance
    comes from evaluations with E near 0 that a run of 1e6 seldom reaches,
    and pairing leaves that tail as it was: 0.692 either way at 40 dB, eps =
    0. So std_error there usually understates the spread of the estimate.

    A uniform of exactly 0 gives E = 0, where k is infinite and the value is
    1; its partner 1 gives E = inf and the finite value at k = x. An odd n
    runs ceil(n / 2) pairs. Threshold 0 returns exactly 0 with std_error 0:
    the SINR is never negative.
    """
    import numpy as np
    import numpy.random  # noqa: F401  (stream's Philox)

    _check_n(n, _MIN_SAMPLES, "estimate_outage")
    if not threshold >= 0.0:
        raise DomainError(f"threshold must be >= 0, got {threshold}")
    pairs = -(-n // 2)
    if threshold == 0.0:
        return McEstimate(value=0.0, std_error=0.0, n_samples=2 * pairs, seed=seed)
    x = float(threshold)

    def chunk(lo, hi):
        # pairs lo .. hi - 1, one uniform each from stream offset lo
        gen = stream(seed, _TAG_OUTAGE, lo)
        v = np.empty(hi - lo)
        for b, e in _blocks(hi - lo, 1):
            m = e - b
            w = np.empty(2 * m)                     # u, then 1 - u
            gen.random(out=w[:m])
            np.subtract(1.0, w[:m], out=w[m:])
            _outage_given_excess(w, x, stats)
            np.add(w[:m], w[m:], out=v[b:e])
            v[b:e] *= 0.5
        return _moments(v)

    return _mean_estimate(_map_chunks(chunk, pairs, workers, _CHUNK_PAIRS), seed)


def estimate_ser_semianalytic(stats: LinkStats, cfg: SystemConfig, n: int,
                              seed: int, workers: int = 1) -> McEstimate:
    """Average SER alpha E[Q(sqrt(beta SINR))] of the simulated SINR
    ab / (a + b + 1), by conditional Monte Carlo through the outage kernel.

    With Z ~ N(0, 1) independent of the fades, Q(sqrt(beta g)) =
    P(Z^2 > beta g) / 2, so the SER is (alpha / 2) E[F(X)]: F is the SINR's
    CDF and X = Z^2 / beta a random threshold. Each evaluation reads two
    uniforms: u0 gives X = ndtri(u0 / 2)^2 / beta, and u1 the
    relay-destination excess E = -lambda_rd log1p(-u1) over X. The value is
    (alpha / 2) (d - expm1(-s)) / (1 + d), estimate_outage's value at
    threshold X. Pair i draws row i = (u0, u1) of its stream and evaluates
    it at (u0, u1) and at (1 - u0, 1 - u1). The value falls as u1 rises, and
    as u0 rises too (X falls, and the kernel rises with X at fixed excess),
    so the two evaluations never covary positively.

    A uniform of exactly 0 in either place (X infinite, or E = 0) gives
    alpha / 2. Its partner 1 gives X = 0, where the value is 0, or E = inf,
    the finite limit at k = X. An odd n runs ceil(n / 2) pairs.

    The estimate is unbiased. Its variance is not below that of averaging
    alpha Q(sqrt(beta SINR)) over sampled fades at every input, since it
    conditions on other variables. Relative variance per evaluation, fading
    average -> independent draws -> pairs, reported at 1e6 evaluations,
    symmetric allocation, v = 3: 1.5e4 -> 2.0 -> 1.13 at 40 dB and 3.7e5 ->
    2.0 -> 1.12 at 60 dB (eps = 0); 39 -> 2.6 -> 1.7 at 20 dB, 58 -> 1.9 ->
    1.06 at 60 dB, 0.77 -> 1.15 -> 0.38 at 0 dB and 0.035 -> 0.20 -> 0.10 at
    -10 dB (eps = 0.1), where any of them reaches 1 % error within 1e4
    evaluations. As in estimate_outage, evaluations with E near 0 carry a
    tail that 1e6 draws seldom reach, and pairing leaves it as it was: at
    40 dB, eps = 0 it adds 2 ln 2 E[X (X + 1)] / (lambda_sr lambda_rd) /
    (2 SER / alpha)^2 = 1.73 to the relative variance per evaluation, so
    the true value is 2.85 (3.73 without pairs, by quadrature over both
    uniforms) against the ~1.1 that std_error reports.
    """
    import numpy as np
    import numpy.random  # noqa: F401  (stream's Philox)
    from scipy.special import ndtri

    _check_n(n, _MIN_SAMPLES, "estimate_ser_semianalytic")
    pairs = -(-n // 2)
    quarter_alpha = 0.25 * cfg.alpha_mod          # alpha / 2 times the pair's 1 / 2
    beta = cfg.beta_mod

    def chunk(lo, hi):
        # pairs lo .. hi - 1, two uniforms each from stream offset 2 lo
        gen = stream(seed, _TAG_SER, 2 * lo)
        v = np.empty(hi - lo)
        for b, e in _blocks(hi - lo, 2):
            m = e - b
            # contiguous rows, the kernel's passes run faster on them than on
            # strided columns: x = (u0, 1 - u0) and u = (u1, 1 - u1)
            x, u = np.empty((2, 2 * m))
            x[:m], u[:m] = gen.random(2 * m).reshape(m, 2).T
            np.subtract(1.0, x[:m], out=x[m:])
            np.subtract(1.0, u[:m], out=u[m:])
            x *= 0.5
            ndtri(x, out=x)
            np.square(x, out=x)
            x /= beta                               # X = Z^2 / beta
            _outage_given_excess(u, x, stats)
            np.add(u[:m], u[m:], out=v[b:e])
            v[b:e] *= quarter_alpha
        return _moments(v)

    return _mean_estimate(_map_chunks(chunk, pairs, workers, _CHUNK_PAIRS), seed)


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
        gen = stream(seed, _TAG_SYMBOL, 9 * lo)
        errors = 0
        for b, e in _blocks(hi - lo, 9):
            m = e - b
            u = gen.random(9 * m).reshape(m, 9)
            g_sr, g_rd, g_li = draw_gammas(stats, u)
            # real parts of the interference symbol, relay and destination noise
            x_int = ndtri(u[:, 3]) * inv_sqrt2
            n_r = ndtri(u[:, 5]) * inv_sqrt2
            n_d = ndtri(u[:, 7]) * inv_sqrt2
            # transmitted symbol fixed at +1; BPSK error rate is symbol-symmetric
            y_r = np.sqrt(g_sr) + np.sqrt(g_li) * x_int + n_r
            gain = 1.0 / np.sqrt(g_sr + g_li + 1.0)
            y_d = np.sqrt(g_rd) * gain * y_r + n_d
            errors += int(np.count_nonzero(y_d < 0.0))
        return errors

    # equal tasks, one per worker but no more than the other estimators have
    # chunks (so no more threads either), each a multiple of 4 symbols long
    # so that every task's stream offset 9 lo is a multiple of 4
    tasks = min(max(1, workers), -(-n_symbols // CHUNK_SAMPLES))
    share = -(-n_symbols // (4 * tasks)) * 4
    errors = sum(_map_chunks(task, n_symbols, workers, share))
    p = errors / n_symbols
    return McEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n_symbols),
                      n_samples=n_symbols, seed=seed, count=errors)
