"""Seeded inputs of the three benchmark workloads.

Every input is a pure function of the workload seed, so one seed gives the
same inputs on any machine. Nothing here imports fdrelay: the program only
ever receives the values generated here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (alpha, beta) of the Q-function SER model, as the CLI maps them
MODULATIONS = {"bpsk": (1.0, 2.0), "qpsk": (2.0, 1.0)}

# figures 4, 5 and 9 sweep one ratio over 0.02, 0.04, ..., 0.98
GRID_RATIOS = tuple(0.02 * k for k in range(1, 50))

OUTAGE_THRESHOLD = 1.0
OPT_TOL = 1e-6

LARGE_SAMPLES = 1_000_000
SMALL_SAMPLES = 10_000
SMALL_SYMBOLS = 100_000

_SWEEP_COMMANDS = ("ser", "outage", "optimize-location", "optimize-power",
                   "optimize-joint")


def cli_commands(seed: int) -> list[list[str]]:
    """The cli-cold command list, rotated to a seeded starting point.

    The RSI level of the power sweeps and the MC seed of `validate` come from
    the seed; `validate` keeps the default BPSK scenario its bands are set for.
    """
    rng = random.Random(seed)
    rsi = f"{rng.uniform(0.0, 1.0):.3f}"
    mc_seed = str(rng.randrange(1, 2**31))
    cmds = [["figure", str(n)] for n in range(2, 10)]
    cmds += [[c, "--p-db", "0:60:5", "--rsi-level", rsi] for c in _SWEEP_COMMANDS]
    cmds.append(["validate", "--seed", mc_seed])
    start = rng.randrange(len(cmds))
    return cmds[start:] + cmds[:start]


@dataclass(frozen=True)
class Scenario:
    """One link scenario: power in dB, RSI level, path-loss exponent,
    modulation and the allocation the workload starts from."""

    p_db: float
    eps: float
    v: float
    modulation: str
    rho_lambda: float
    rho_d: float


@dataclass(frozen=True)
class SweepRound:
    """One analytic-sweep round.

    axis: the ratio part (a) sweeps over GRID_RATIOS, the other held at the
        scenario's value.
    oracle_points: indices into GRID_RATIOS where part (c) evaluates the
        quadrature oracle.
    """

    scenario: Scenario
    axis: str
    oracle_points: tuple[int, int]


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform draw in each of n equal slices of [lo, hi], in
    random order (Latin hypercube sampling)."""
    out = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _shares(rng: random.Random, n: int, share: float, yes, no) -> list:
    """Exactly round(share * n) of n values are `yes`, in random order."""
    k = round(share * n)
    out = [yes] * k + [no] * (n - k)
    rng.shuffle(out)
    return out


def sweep_rounds(seed: int, count: int) -> list[SweepRound]:
    """P -10..60 dB, eps 0..1 with a quarter exactly 0, v 2..5, ratios
    0.02..0.98, a quarter QPSK, half of the curves along each ratio.

    Every range is stratified and every share exact, so pools drawn from
    different seeds hold the same mix of cheap and costly scenarios.
    """
    rng = random.Random(seed)
    p_db = _strata(rng, count, -10.0, 60.0)
    eps = [0.0 if z else e for z, e in zip(_shares(rng, count, 0.25, True, False),
                                           _strata(rng, count, 0.0, 1.0))]
    v = _strata(rng, count, 2.0, 5.0)
    modulation = _shares(rng, count, 0.25, "qpsk", "bpsk")
    rho_lambda = _strata(rng, count, 0.02, 0.98)
    rho_d = _strata(rng, count, 0.02, 0.98)
    axis = _shares(rng, count, 0.5, "rho_d", "rho_lambda")
    out = []
    for i in range(count):
        sc = Scenario(p_db[i], eps[i], v[i], modulation[i], rho_lambda[i], rho_d[i])
        pts = tuple(sorted(rng.sample(range(len(GRID_RATIOS)), 2)))
        out.append(SweepRound(sc, axis[i], pts))
    return out


def mc_scenarios(seed: int) -> list[Scenario]:
    """Six MC scenarios over P 0..40 dB.

    The layout is fixed so every seed covers the same regimes: 0 dB (where
    the "exact" outage route and the simulated SINR part ways), a QPSK slice,
    and 40 dB with eps = 0 at the symmetric allocation, the rare-event case
    that dominates the time to 1% relative error. The seed draws the values
    inside each regime.
    """
    rng = random.Random(seed)

    def alloc():
        return rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)

    out = [Scenario(40.0, 0.0, 3.0, "bpsk", 0.5, 0.5)]
    for p_lo, p_hi, zero_eps, modulation in (
        (0.0, 0.0, False, "bpsk"),
        (5.0, 15.0, True, "bpsk"),
        (15.0, 25.0, False, "qpsk"),
        (25.0, 35.0, False, "bpsk"),
        (10.0, 30.0, False, "bpsk"),
    ):
        rl, rd = alloc()
        out.append(Scenario(
            p_db=rng.uniform(p_lo, p_hi),
            eps=0.0 if zero_eps else rng.uniform(0.01, 1.0),
            v=rng.uniform(2.0, 5.0),
            modulation=modulation,
            rho_lambda=rl,
            rho_d=rd,
        ))
    return out


def mc_seed(seed: int, round_index: int, slot: int) -> int:
    """MC seed of one estimate: distinct per workload seed, round and slot."""
    return (seed * 1_000_003 + round_index * 64 + slot) % 2**63
