"""The Gompertz-Makeham mortality law.

Force of mortality mu(x) = alpha + beta * e**(gamma_exp * x): a flat
hazard alpha plus a senescent component growing exponentially with age.
The matching survival function is

    l(x) = exp(-alpha*x - (beta/gamma_exp) * (e**(gamma_exp*x) - 1)).

Survival and the force of mortality also come as batch twins over a numpy
array of ages, bit for bit the scalar functions at every age.  Wherever
gamma_exp * x overflows to inf, each function raises OverflowError, as it
does where e**(gamma_exp * x) alone overflows: the product is capped at the
largest double (``_gamma_x``, and ``_gamma_xs`` over an array) before exp
or expm1 takes it.  Where e**(gamma_exp * x) is finite but mu, or another
value scaled from beta * e**(gamma_exp * x), overflows, the functions that
read it (here mu; in :mod:`gmlife.life` every value that reads its gamma
argument; the Monte-Carlo's aged basis) raise one OverflowError
(``_finite_hazard``), while survival underflows to 0.0.  The rate check
every discounted value shares also requires alpha + rate to be finite,
since -(alpha + rate) x at x = 0 would otherwise be NaN.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .special import _check_lanes, _per_element

__all__ = ["GmParams", "survival", "mortality_rate", "mortality_rates", "cdf"]


@dataclass(frozen=True)
class GmParams:
    """Immutable mortality basis (alpha, beta, gamma_exp), all per year.

    alpha >= 0 and beta >= 0.  gamma_exp must be positive whenever
    beta > 0, and beta / gamma_exp, the scale of the senescent exponent, a
    finite double; with beta = 0 the senescent term vanishes and gamma_exp
    is stored unused, so any finite value is accepted there.
    """

    alpha: float
    beta: float
    gamma_exp: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma_exp"):
            _check_finite(name, getattr(self, name))
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta!r}")
        if self.beta > 0.0 and self.gamma_exp <= 0.0:
            raise ValueError(
                f"gamma_exp must be > 0 when beta > 0, got {self.gamma_exp!r}"
            )
        if self.beta > 0.0 and math.isinf(self.beta / self.gamma_exp):
            raise ValueError(f"beta / gamma_exp must be finite, got {self.beta!r} / "
                             f"{self.gamma_exp!r}")


def _check_finite(name: str, v: float) -> None:
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")


def _finite_hazard(v: float) -> float:
    # v, beta e**(gamma_exp x) or a value scaled from it (mu, life's gamma argument z,
    # the Monte-Carlo's aged beta), if it is finite: where it overflows while
    # e**(gamma_exp x) does not, every value that reads it raises this one error
    if v == math.inf:
        raise OverflowError("beta * e**(gamma_exp * x) is too large at this age: "
                            "the value overflows")
    return v


def _finite_hazards(v: np.ndarray) -> np.ndarray:
    # _finite_hazard at every lane of v, raising at the first lane that overflows
    _check_lanes(v != math.inf, _finite_hazard, v)
    return v


def _check_age(x: float) -> None:
    if not 0.0 <= x < math.inf:  # nan fails too
        raise ValueError(f"age must be finite and >= 0, got {x!r}")


def _check_ages(xs) -> np.ndarray:
    # _check_age at every age of a 1-D array, raising at the first bad one
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"ages must be a 1-D array, got {xs.ndim} dimensions")
    _check_lanes((xs >= 0.0) & (xs < math.inf), _check_age, xs)
    return xs


def _check_args(params: GmParams, delta: float, x: float = 0.0) -> None:
    if not 0.0 <= delta < math.inf:  # nan fails too
        raise ValueError(f"interest rate must be finite and >= 0, got {delta!r}")
    if params.alpha + delta == math.inf:
        raise ValueError(f"alpha + interest rate must be finite, got {params.alpha!r} "
                         f"+ {delta!r}")
    _check_age(x)


def _gamma_x(params: GmParams, x: float) -> float:
    # gamma_exp * x with inf capped at the largest double: exp and expm1 from math
    # then raise OverflowError there, as where the product is finite and only the
    # exponential overflows.  A finite product is unchanged
    gx = params.gamma_exp * x
    return gx if gx < math.inf else sys.float_info.max


def _gamma_xs(params: GmParams, xs: np.ndarray) -> np.ndarray:
    # _gamma_x at every age of xs
    return np.minimum(params.gamma_exp * xs, sys.float_info.max)


def _ln_discounted_survival(params: GmParams, rate: float, x: float) -> float:
    # ln(l(x) * e**(-rate*x)), unvalidated
    exponent = -(params.alpha + rate) * x
    if params.beta != 0.0:
        # expm1 keeps the senescent exponent accurate for small gamma_exp * x
        exponent -= (params.beta / params.gamma_exp) * math.expm1(_gamma_x(params, x))
    return exponent


def _discounted_survival(params: GmParams, rate: float, x: float) -> float:
    # l(x) * e**(-rate*x), unvalidated; exactly l(x) at rate 0.0
    return math.exp(_ln_discounted_survival(params, rate, x))


def _senescent_exponent_array(params: GmParams, xs: np.ndarray) -> np.ndarray | float:
    # (beta/gamma_exp) expm1(gamma_exp * x) at every age of xs, the rate-free part of
    # _ln_discounted_survival; 0.0 where beta = 0, whose subtraction changes no bit
    if params.beta == 0.0:
        return 0.0
    return (params.beta / params.gamma_exp) * _per_element(math.expm1, _gamma_xs(params, xs))


def _discounted_survival_array(params: GmParams, rate: float, xs: np.ndarray,
                               senescent: np.ndarray | float) -> np.ndarray:
    # _discounted_survival at every age of xs, in the same operation order, given
    # senescent = _senescent_exponent_array(params, xs)
    return _per_element(math.exp, -(params.alpha + rate) * xs - senescent)


def survival(params: GmParams, x: float) -> float:
    """Probability l(x) of surviving from age 0 to age x.

    Underflows gracefully to 0.0 at ages extreme enough that the exponent
    drops below about -745.
    """
    _check_age(x)
    return _discounted_survival(params, 0.0, x)


def mortality_rate(params: GmParams, x: float) -> float:
    """Force of mortality mu(x) = alpha + beta * e**(gamma_exp * x).

    Raises OverflowError where e**(gamma_exp * x), or mu itself, is not a
    finite double.
    """
    _check_age(x)
    if params.beta == 0.0:
        return params.alpha
    return _finite_hazard(params.alpha + params.beta * math.exp(_gamma_x(params, x)))


def mortality_rates(params: GmParams, xs) -> np.ndarray:
    """:func:`mortality_rate` at every age of a 1-D array of ages.

    Bit for bit the scalar values; where the scalar raises OverflowError at
    some age, this raises too, with a ``lane`` attribute: the index in xs of
    an age at which the scalar raises the same text.
    """
    xs = _check_ages(xs)
    if params.beta == 0.0:
        return np.full(xs.shape, params.alpha)
    with np.errstate(all="ignore"):
        return _finite_hazards(params.alpha + params.beta
                               * _per_element(math.exp, _gamma_xs(params, xs)))


def cdf(params: GmParams, x: float) -> float:
    """Lifetime distribution function F(x) = 1 - l(x).

    Formed as -expm1 of the exponent of l(x), so it keeps its relative
    accuracy at small ages, where 1 - l(x) would cancel.
    """
    _check_age(x)
    return -math.expm1(_ln_discounted_survival(params, 0.0, x))
