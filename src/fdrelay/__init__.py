"""Outage, SER, and power/location optimization for a full-duplex
amplify-and-forward relay link with residual self-interference.

The library keeps three independent routes to every headline number: closed
forms (analytic), adaptive quadrature of the defining integrals (analytic
oracles), and Monte Carlo over the fading links (mc). The opt module solves
the relay-placement / power-split problems against the closed forms and the
full series.
"""

from .errors import (
    DomainError,
    NonConvergenceError,
    QuadratureError,
    UnsupportedModulationError,
)
from .model import (
    Allocation,
    LinkStats,
    RATIO_FLOOR,
    SystemConfig,
    db_to_linear,
    link_stats,
)
from .analytic import (
    ApproxCoeffs,
    approx_coeffs,
    f_gradient,
    f_objective,
    kappa,
    outage,
    ser_floor,
    ser_high_power,
    ser_location_optimized,
    ser_power_optimized,
    ser_quadrature,
    ser_series,
    ser_series_terms,
    sinr_cdf_asymptotic,
    sinr_cdf_exact_numeric,
)
from .mc import (
    McEstimate,
    draw_gammas,
    estimate_outage,
    estimate_ser_semianalytic,
    estimate_ser_symbol_level,
)
from .opt import (
    OptResult,
    closed_form_result,
    joint_foc_roots,
    joint_v3_closed,
    minimize_1d,
    optimal_location_closed,
    optimal_power_closed,
    select_joint_optimum,
    sequential_v2,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ApproxCoeffs",
    "DomainError",
    "LinkStats",
    "McEstimate",
    "NonConvergenceError",
    "OptResult",
    "QuadratureError",
    "RATIO_FLOOR",
    "SystemConfig",
    "UnsupportedModulationError",
    "approx_coeffs",
    "closed_form_result",
    "db_to_linear",
    "draw_gammas",
    "estimate_outage",
    "estimate_ser_semianalytic",
    "estimate_ser_symbol_level",
    "f_gradient",
    "f_objective",
    "joint_foc_roots",
    "joint_v3_closed",
    "kappa",
    "link_stats",
    "minimize_1d",
    "optimal_location_closed",
    "optimal_power_closed",
    "outage",
    "select_joint_optimum",
    "sequential_v2",
    "ser_floor",
    "ser_high_power",
    "ser_location_optimized",
    "ser_power_optimized",
    "ser_quadrature",
    "ser_series",
    "ser_series_terms",
    "sinr_cdf_asymptotic",
    "sinr_cdf_exact_numeric",
    "__version__",
]
