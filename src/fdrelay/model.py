"""Scenario configuration, decision ratios, and derived mean link SNRs.

All powers are noise-normalized (N0 = 1), so dB-to-linear conversion
happens only at the CLI boundary. Distances are normalized so the
source-destination path length defaults to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "RATIO_FLOOR",
    "SystemConfig",
    "Allocation",
    "LinkStats",
    "link_stats",
    "db_to_linear",
    "linear_to_db",
]

# Decision ratios live strictly inside (0, 1); construction clamps to this box.
RATIO_FLOOR = 1e-6


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"db_to_linear: {db} dB overflows a float") from None


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"linear_to_db: x must be > 0, got {x}")
    return 10.0 * math.log10(x)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SystemConfig:
    """Global physical scenario.

    total_power: total transmit budget shared by source and relay, in units
        of the noise power (linear, not dB).
    rsi_level: residual self-interference coefficient; mean interference SNR
        at the relay is rsi_level * relay power.
    pathloss_exp: distance exponent of the mean-SNR model, > 1.
    sum_distance: source-relay plus relay-destination path length.
    alpha_mod / beta_mod: modulation constants of the Q-function SER model
        (BPSK: alpha=1, beta=2).
    """

    total_power: float
    rsi_level: float
    pathloss_exp: float
    sum_distance: float = 1.0
    alpha_mod: float = 1.0
    beta_mod: float = 2.0

    def __post_init__(self):
        for name in ("total_power", "rsi_level", "pathloss_exp", "sum_distance",
                     "alpha_mod", "beta_mod"):
            _require_finite(name, getattr(self, name))
        if self.total_power <= 0.0:
            raise DomainError(f"total_power must be > 0, got {self.total_power}")
        if self.rsi_level < 0.0:
            raise DomainError(f"rsi_level must be >= 0, got {self.rsi_level}")
        if self.pathloss_exp <= 1.0:
            raise DomainError(f"pathloss_exp must be > 1, got {self.pathloss_exp}")
        if self.sum_distance <= 0.0:
            raise DomainError(f"sum_distance must be > 0, got {self.sum_distance}")
        if self.alpha_mod <= 0.0 or self.beta_mod <= 0.0:
            raise DomainError("modulation constants must be > 0")

    @classmethod
    def bpsk(cls, total_power: float, rsi_level: float, pathloss_exp: float = 3.0,
             sum_distance: float = 1.0) -> "SystemConfig":
        return cls(total_power=total_power, rsi_level=rsi_level,
                   pathloss_exp=pathloss_exp, sum_distance=sum_distance,
                   alpha_mod=1.0, beta_mod=2.0)

    @property
    def is_bpsk(self) -> bool:
        return self.alpha_mod == 1.0 and self.beta_mod == 2.0


@dataclass(frozen=True)
class Allocation:
    """The two decision variables: power split and relay position.

    rho_lambda: fraction of total power given to the source.
    rho_d: fraction of the path length between source and relay.

    Construction clamps both into [RATIO_FLOOR, 1 - RATIO_FLOOR] and records
    whether clamping occurred.
    """

    rho_lambda: float
    rho_d: float
    clamped: bool = field(default=False, compare=False)

    def __post_init__(self):
        clamped = False
        vals = {}
        for name in ("rho_lambda", "rho_d"):
            v = getattr(self, name)
            _require_finite(name, v)
            w = min(max(v, RATIO_FLOOR), 1.0 - RATIO_FLOOR)
            clamped = clamped or (w != v)
            vals[name] = w
        object.__setattr__(self, "rho_lambda", vals["rho_lambda"])
        object.__setattr__(self, "rho_d", vals["rho_d"])
        object.__setattr__(self, "clamped", clamped)

    def powers(self, cfg: SystemConfig) -> tuple[float, float]:
        """(source power, relay power); the pair sums to cfg.total_power exactly."""
        return _exact_split(self.rho_lambda, cfg.total_power)

    def distances(self, cfg: SystemConfig) -> tuple[float, float]:
        """(source-relay, relay-destination); sums to cfg.sum_distance exactly."""
        return _exact_split(self.rho_d, cfg.sum_distance)


def _exact_split(ratio: float, total: float) -> tuple[float, float]:
    # Stabilized complement: one rounding of the first part is absorbed so
    # the two parts always add back to `total` bit-for-bit.
    first = ratio * total
    second = total - first
    first = total - second
    return first, second


@dataclass(frozen=True)
class LinkStats:
    """Mean SNRs of the three Rayleigh links and the interference ratio.

    eta is defined as lambda_li / lambda_sr and is kept consistent by
    construction in link_stats().
    """

    lambda_sr: float
    lambda_rd: float
    lambda_li: float
    eta: float

    def __post_init__(self):
        for name in ("lambda_sr", "lambda_rd", "lambda_li", "eta"):
            _require_finite(name, getattr(self, name))
        if self.lambda_sr <= 0.0 or self.lambda_rd <= 0.0:
            raise DomainError("lambda_sr and lambda_rd must be > 0")
        if self.lambda_li < 0.0 or self.eta < 0.0:
            raise DomainError("lambda_li and eta must be >= 0")


def link_stats(cfg: SystemConfig, alloc: Allocation) -> LinkStats:
    """Map scenario + allocation to mean link SNRs.

    lambda_sr = P_S * D_SR^-v, lambda_rd = P_R * D_RD^-v,
    lambda_li = rsi_level * P_R, eta = lambda_li / lambda_sr.
    """
    p_s, p_r = alloc.powers(cfg)
    d_sr, d_rd = alloc.distances(cfg)
    v = cfg.pathloss_exp
    lam_sr = p_s * d_sr ** (-v)
    lam_rd = p_r * d_rd ** (-v)
    lam_li = cfg.rsi_level * p_r
    return LinkStats(lambda_sr=lam_sr, lambda_rd=lam_rd, lambda_li=lam_li,
                     eta=lam_li / lam_sr)
