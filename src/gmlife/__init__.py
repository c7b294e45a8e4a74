"""Closed-form life contingencies under Gompertz-Makeham mortality.

Survival, life expectancy, continuous annuity values and commutation
functions evaluated through the ordinary gamma function and the gamma
distribution function, with independent quadrature and Monte-Carlo
oracles for verification.  The public names are each module's ``__all__``.
"""

from . import life, mortality, oracle, special
from .life import *  # noqa: F403
from .mortality import *  # noqa: F403
from .oracle import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*mortality.__all__, *life.__all__, *oracle.__all__, *special.__all__,
           "__version__"]
