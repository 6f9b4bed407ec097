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
from . import analytic, mc, model, opt
from .model import *  # noqa: F403
from .analytic import *  # noqa: F403
from .mc import *  # noqa: F403
from .opt import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the listing of its public names
__all__ = ["DomainError", "NonConvergenceError", "QuadratureError",
           "UnsupportedModulationError", *model.__all__, *analytic.__all__,
           *mc.__all__, *opt.__all__, "__version__"]
