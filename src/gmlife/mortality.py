"""The Gompertz-Makeham mortality law.

Force of mortality mu(x) = alpha + beta * e**(gamma_exp * x): a flat
hazard alpha plus a senescent component growing exponentially with age.
The matching survival function is

    l(x) = exp(-alpha*x - (beta/gamma_exp) * (e**(gamma_exp*x) - 1)).

Survival and the force of mortality also come as batch twins over a numpy
array of ages, bit for bit the scalar functions at every age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import _per_element

__all__ = ["GmParams", "survival", "mortality_rate", "mortality_rates", "cdf"]


@dataclass(frozen=True)
class GmParams:
    """Immutable mortality basis (alpha, beta, gamma_exp), all per year.

    alpha >= 0 and beta >= 0.  gamma_exp must be positive whenever
    beta > 0; with beta = 0 the senescent term vanishes and gamma_exp is
    stored unused, so any finite value is accepted there.
    """

    alpha: float
    beta: float
    gamma_exp: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma_exp"):
            v = getattr(self, name)
            if math.isnan(v) or math.isinf(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta!r}")
        if self.beta > 0.0 and self.gamma_exp <= 0.0:
            raise ValueError(
                f"gamma_exp must be > 0 when beta > 0, got {self.gamma_exp!r}"
            )


def _check_age(x: float) -> None:
    if math.isnan(x) or math.isinf(x) or x < 0.0:
        raise ValueError(f"age must be finite and >= 0, got {x!r}")


def _check_ages(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or not np.all((xs >= 0.0) & (xs < math.inf)):
        raise ValueError("ages must be a 1-D array of finite values >= 0")
    return xs


def _ln_discounted_survival(params: GmParams, rate: float, x: float) -> float:
    # ln(l(x) * e**(-rate*x)), unvalidated
    exponent = -(params.alpha + rate) * x
    if params.beta != 0.0:
        # expm1 keeps the senescent exponent accurate for small gamma_exp * x
        exponent -= (params.beta / params.gamma_exp) * math.expm1(params.gamma_exp * x)
    return exponent


def _discounted_survival(params: GmParams, rate: float, x: float) -> float:
    # l(x) * e**(-rate*x), unvalidated; exactly l(x) at rate 0.0
    return math.exp(_ln_discounted_survival(params, rate, x))


def _senescent_exponent_array(params: GmParams, xs: np.ndarray) -> np.ndarray | None:
    # (beta/gamma_exp) expm1(gamma_exp * x) at every age of xs, the rate-free part of
    # _ln_discounted_survival; None where beta = 0 and there is none
    if params.beta == 0.0:
        return None
    return (params.beta / params.gamma_exp) * _per_element(math.expm1, params.gamma_exp * xs)


def _discounted_survival_array(params: GmParams, rate: float, xs: np.ndarray,
                               senescent: np.ndarray | None) -> np.ndarray:
    # _discounted_survival at every age of xs, in the same operation order, given
    # senescent = _senescent_exponent_array(params, xs)
    exponent = -(params.alpha + rate) * xs
    if senescent is not None:
        exponent -= senescent
    return _per_element(math.exp, exponent)


def survival(params: GmParams, x: float) -> float:
    """Probability l(x) of surviving from age 0 to age x.

    Underflows gracefully to 0.0 at ages extreme enough that the exponent
    drops below about -745.
    """
    _check_age(x)
    return _discounted_survival(params, 0.0, x)


def mortality_rate(params: GmParams, x: float) -> float:
    """Force of mortality mu(x) = alpha + beta * e**(gamma_exp * x)."""
    _check_age(x)
    if params.beta == 0.0:
        return params.alpha
    return params.alpha + params.beta * math.exp(params.gamma_exp * x)


def mortality_rates(params: GmParams, xs) -> np.ndarray:
    """:func:`mortality_rate` at every age of a 1-D array of ages.

    Bit for bit the scalar values; raises OverflowError, as the scalar
    does, when e**(gamma_exp * x) is not representable at some age, with a
    ``lane`` attribute: the index in xs of the first such age.
    """
    xs = _check_ages(xs)
    if params.beta == 0.0:
        return np.full(xs.shape, params.alpha)
    with np.errstate(all="ignore"):
        return params.alpha + params.beta * _per_element(math.exp, params.gamma_exp * xs)


def cdf(params: GmParams, x: float) -> float:
    """Lifetime distribution function F(x) = 1 - l(x).

    Formed as -expm1 of the exponent of l(x), so it keeps its relative
    accuracy at small ages, where 1 - l(x) would cancel.
    """
    _check_age(x)
    return -math.expm1(_ln_discounted_survival(params, 0.0, x))
