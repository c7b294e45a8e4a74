"""Closed-form life contingencies under Gompertz-Makeham mortality.

Survival, life expectancy, continuous annuity values and commutation
functions evaluated through the ordinary gamma function and the gamma
distribution function, with independent quadrature and Monte-Carlo
oracles for verification.
"""

from .life import (
    CommutationRow,
    ageing_factor,
    annuity,
    commutation_d,
    commutation_m,
    commutation_n,
    commutation_row,
    e0,
    life_table,
    positive_shape_check,
    remaining_life,
)
from .mortality import GmParams, cdf, mortality_rate, mortality_rates, survival
from .oracle import (
    McEstimate,
    QuadratureResult,
    integrate_m,
    integrate_m_table,
    integrate_survival,
    integrate_survival_table,
    mc_remaining_life,
    mc_remaining_life_table,
    sample_lifetime,
)
from .special import (
    ConvergenceError,
    exp_scaled_upper_inc_gamma,
    gamma_cdf,
    gamma_fn,
    ln_gamma_fn,
    upper_inc_gamma_general,
)

__version__ = "0.1.0"

__all__ = [
    "GmParams",
    "CommutationRow",
    "QuadratureResult",
    "McEstimate",
    "ConvergenceError",
    "survival",
    "mortality_rate",
    "mortality_rates",
    "cdf",
    "e0",
    "remaining_life",
    "annuity",
    "ageing_factor",
    "commutation_d",
    "commutation_n",
    "commutation_m",
    "commutation_row",
    "life_table",
    "positive_shape_check",
    "gamma_fn",
    "ln_gamma_fn",
    "gamma_cdf",
    "upper_inc_gamma_general",
    "exp_scaled_upper_inc_gamma",
    "integrate_survival",
    "integrate_survival_table",
    "integrate_m",
    "integrate_m_table",
    "sample_lifetime",
    "mc_remaining_life",
    "mc_remaining_life_table",
    "__version__",
]
