"""Scenario configuration, decision ratios, and derived mean link SNRs.

All powers are noise-normalized (N0 = 1), so dB-to-linear conversion
happens only at the CLI boundary. Distances are normalized so the
source-destination path length defaults to 1.
"""

from __future__ import annotations

import math

from .errors import DomainError, FrozenInstanceError

__all__ = [
    "RATIO_FLOOR",
    "SystemConfig",
    "Allocation",
    "LinkStats",
    "link_stats",
    "db_to_linear",
]

# Decision ratios live strictly inside (0, 1); construction clamps to this box.
RATIO_FLOOR = 1e-6
_RATIO_CEIL = 1.0 - RATIO_FLOOR


def db_to_linear(db: float) -> float:
    return _power(10.0, db / 10.0, f"db_to_linear: {db} dB")


def _power(base: float, exponent: float, name: str) -> float:
    """base ** exponent, or DomainError "`name` overflows a float" where it does."""
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError(f"{name} overflows a float") from None


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


_setattr = object.__setattr__


def _restore(cls, values):
    # unpickling and copying: set the fields as stored, without __init__,
    # so that nothing is clamped or computed again
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _setattr(obj, name, value)
    return obj


class _Record:
    """Immutable value with dataclass-style ==, hash and repr.

    A subclass names its fields in __slots__, in order, and its __init__ sets
    each once with _setattr. == and hash read the fields named in _compared
    (all of them by default); repr, pickle and copy read every field.
    """

    __slots__ = ()
    _compared: tuple[str, ...] | None = None

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared or self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (self.__class__, tuple(getattr(self, name) for name in self.__slots__))


class SystemConfig(_Record):
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

    __slots__ = ("total_power", "rsi_level", "pathloss_exp", "sum_distance",
                 "alpha_mod", "beta_mod")

    def __init__(self, total_power: float, rsi_level: float, pathloss_exp: float,
                 sum_distance: float = 1.0, alpha_mod: float = 1.0,
                 beta_mod: float = 2.0):
        _require_finite("total_power", total_power)
        _require_finite("rsi_level", rsi_level)
        _require_finite("pathloss_exp", pathloss_exp)
        _require_finite("sum_distance", sum_distance)
        _require_finite("alpha_mod", alpha_mod)
        _require_finite("beta_mod", beta_mod)
        if total_power <= 0.0:
            raise DomainError(f"total_power must be > 0, got {total_power}")
        if rsi_level < 0.0:
            raise DomainError(f"rsi_level must be >= 0, got {rsi_level}")
        if pathloss_exp <= 1.0:
            raise DomainError(f"pathloss_exp must be > 1, got {pathloss_exp}")
        if sum_distance <= 0.0:
            raise DomainError(f"sum_distance must be > 0, got {sum_distance}")
        if alpha_mod <= 0.0 or beta_mod <= 0.0:
            raise DomainError("modulation constants must be > 0")
        _setattr(self, "total_power", total_power)
        _setattr(self, "rsi_level", rsi_level)
        _setattr(self, "pathloss_exp", pathloss_exp)
        _setattr(self, "sum_distance", sum_distance)
        _setattr(self, "alpha_mod", alpha_mod)
        _setattr(self, "beta_mod", beta_mod)

    @classmethod
    def bpsk(cls, total_power: float, rsi_level: float, pathloss_exp: float = 3.0,
             sum_distance: float = 1.0) -> "SystemConfig":
        return cls(total_power=total_power, rsi_level=rsi_level,
                   pathloss_exp=pathloss_exp, sum_distance=sum_distance,
                   alpha_mod=1.0, beta_mod=2.0)

    def replace(self, **changes) -> "SystemConfig":
        """A copy with the named fields changed, validated like any new one."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return SystemConfig(**fields)

    @property
    def is_bpsk(self) -> bool:
        return self.alpha_mod == 1.0 and self.beta_mod == 2.0


class Allocation(_Record):
    """The two decision variables: power split and relay position.

    rho_lambda: fraction of total power given to the source.
    rho_d: fraction of the path length between source and relay.

    Construction clamps both into [RATIO_FLOOR, 1 - RATIO_FLOOR] and records
    whether clamping occurred; the `clamped` argument is ignored, and == and
    hash ignore the field.
    """

    __slots__ = ("rho_lambda", "rho_d", "clamped")
    _compared = ("rho_lambda", "rho_d")

    def __init__(self, rho_lambda: float, rho_d: float, clamped: bool = False):
        _require_finite("rho_lambda", rho_lambda)
        _require_finite("rho_d", rho_d)
        lam = min(max(rho_lambda, RATIO_FLOOR), _RATIO_CEIL)
        d = min(max(rho_d, RATIO_FLOOR), _RATIO_CEIL)
        _setattr(self, "rho_lambda", lam)
        _setattr(self, "rho_d", d)
        _setattr(self, "clamped", lam != rho_lambda or d != rho_d)

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


class LinkStats(_Record):
    """Mean SNRs of the three Rayleigh links and the interference ratio.

    eta is defined as lambda_li / lambda_sr and is kept consistent by
    construction in link_stats().
    """

    __slots__ = ("lambda_sr", "lambda_rd", "lambda_li", "eta")

    def __init__(self, lambda_sr: float, lambda_rd: float, lambda_li: float,
                 eta: float):
        _require_finite("lambda_sr", lambda_sr)
        _require_finite("lambda_rd", lambda_rd)
        _require_finite("lambda_li", lambda_li)
        _require_finite("eta", eta)
        if lambda_sr <= 0.0 or lambda_rd <= 0.0:
            raise DomainError("lambda_sr and lambda_rd must be > 0")
        if lambda_li < 0.0 or eta < 0.0:
            raise DomainError("lambda_li and eta must be >= 0")
        _setattr(self, "lambda_sr", lambda_sr)
        _setattr(self, "lambda_rd", lambda_rd)
        _setattr(self, "lambda_li", lambda_li)
        _setattr(self, "eta", eta)


def link_stats(cfg: SystemConfig, alloc: Allocation) -> LinkStats:
    """Map scenario + allocation to mean link SNRs.

    lambda_sr = P_S * D_SR^-v, lambda_rd = P_R * D_RD^-v,
    lambda_li = rsi_level * P_R, eta = lambda_li / lambda_sr. DomainError
    when a path gain D^-v overflows or lambda_sr underflows to 0.
    """
    p_s, p_r = alloc.powers(cfg)
    d_sr, d_rd = alloc.distances(cfg)
    return _link_stats(p_s, p_r, *_path_gains(d_sr, d_rd, cfg.pathloss_exp),
                       cfg.rsi_level)


def _path_gains(d_sr: float, d_rd: float, v: float) -> tuple[float, float]:
    # (D_SR^-v, D_RD^-v), or DomainError where either overflows a float
    try:
        return d_sr ** (-v), d_rd ** (-v)
    except OverflowError:
        raise DomainError(f"path gain D^-v overflows a float at v = {v}, "
                          f"D_SR = {d_sr}, D_RD = {d_rd}") from None


def _link_stats(p_s: float, p_r: float, gain_sr: float, gain_rd: float,
                rsi_level: float) -> LinkStats:
    # link_stats from the powers and the path gains D^-v (see _stats_along)
    lam_sr = p_s * gain_sr
    if not lam_sr:
        raise DomainError(f"lambda_sr = P_S D_SR^-v underflows to 0 (P_S = {p_s}, "
                          f"D_SR^-v = {gain_sr})")
    lam_li = rsi_level * p_r
    return LinkStats(lambda_sr=lam_sr, lambda_rd=p_r * gain_rd, lambda_li=lam_li,
                     eta=lam_li / lam_sr)


def _stats_along(cfg: SystemConfig, alloc: Allocation, free: str):
    """x -> link_stats(cfg, alloc with its ratio `free` set to x), bit for bit: x
    is clamped as in Allocation, and the half that the held ratio sets is formed once."""
    v, eps = cfg.pathloss_exp, cfg.rsi_level
    if free == "rho_d":
        powers = alloc.powers(cfg)

        def stats_at(x: float) -> LinkStats:
            d_sr, d_rd = _exact_split(min(max(x, RATIO_FLOOR), _RATIO_CEIL), cfg.sum_distance)
            return _link_stats(*powers, *_path_gains(d_sr, d_rd, v), eps)
        return stats_at
    gains = _path_gains(*alloc.distances(cfg), v)
    return lambda x: _link_stats(*_exact_split(min(max(x, RATIO_FLOOR), _RATIO_CEIL),
                                               cfg.total_power), *gains, eps)
