"""Closed-form life-contingency values under Gompertz-Makeham mortality.

The whole module rests on one identity: the present value of a continuous
life annuity at force of interest delta is

    a_bar(x) = e0(alpha + delta, beta * e**(gamma_exp * x), gamma_exp)

where e0 is the expected lifetime from age 0, which in turn has the
closed form (writing a for the first basis parameter, z = beta/gamma and
Gamma(.,.) for the upper incomplete gamma function)

    e0(a, beta, gamma) = z**(a/gamma) * e**z * Gamma(-a/gamma, z) / gamma
                       = (1/a) * (1 - z**(a/gamma) * e**z * Gamma(1 - a/gamma, z))

the second line being one partial integration of the first.  Discounting
is a shift of the flat hazard, and ageing by x years is a rescaling of
beta, so every quantity here (life expectancy, annuity value, ageing
factor, commutation functions) comes from one gamma-function evaluation.
No numerical integration is performed anywhere in this module.

Which line is evaluated depends on z.  For z >= 1 it is the first: there
the continued fraction H of :mod:`gmlife.special` gives it as
H(-a/gamma, z) / gamma exactly, with no subtraction and no power or
exponential of z formed on its own, so values hold about 1e-14 relative
accuracy long after survival has vanished (checked to z ~ 1e40).  The
second line subtracts a number that tends to 1 as z grows, so it serves
only for z < 1, where :func:`gmlife.special.exp_scaled_upper_inc_gamma`
evaluates the product through the positive-shape gamma CDF or the
shape-lifting recurrence; shapes 1 - a/gamma down to -10 are supported
there, covering bases where the combined hazard-plus-interest exceeds the
ageing rate.  At a = 0 the first line is used for every z, as
e**z * E1(z) / gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mortality import GmParams, _check_age
from .mortality import survival  # noqa: F401 (perfbench/tracing.py wraps life.survival)
from .special import _upper_cf, exp_scaled_upper_inc_gamma

__all__ = [
    "CommutationRow",
    "e0",
    "remaining_life",
    "annuity",
    "ageing_factor",
    "commutation_d",
    "commutation_n",
    "commutation_m",
    "commutation_row",
    "positive_shape_check",
]


@dataclass(frozen=True)
class CommutationRow:
    """One table row: age x with D(x), N(x) and M(x) at a single rate."""

    x: float
    d_val: float
    n_val: float
    m_val: float


def _check_rate(delta: float) -> None:
    if math.isnan(delta) or math.isinf(delta) or delta < 0.0:
        raise ValueError(f"interest rate must be finite and >= 0, got {delta!r}")


def _evaluate(params: GmParams, a: float, x: float) -> tuple[float, float]:
    # (a_bar, xi) at age x and combined flat hazard a = alpha + delta,
    # with a * a_bar = 1 - xi
    if params.beta == 0.0:
        if a == 0.0:
            raise ValueError("alpha, beta and delta are all zero: value is infinite")
        return 1.0 / a, 0.0
    gam = params.gamma_exp
    z = params.beta * math.exp(gam * x) / gam
    ratio = a / gam
    if z >= 1.0:
        # unintegrated form z**ratio * e**z * Gamma(-ratio, z) / gamma, which
        # for z >= 1 is exactly the continued fraction H(-ratio, z) / gamma:
        # nothing is subtracted and no power of z is formed on its own
        a_bar = _upper_cf(-ratio, z) / gam
    elif a == 0.0:
        # the same form at shape 0: e**z * E1(z) / gamma
        a_bar = exp_scaled_upper_inc_gamma(0.0, z) / gam
    else:
        xi = math.exp(ratio * math.log(z)) * exp_scaled_upper_inc_gamma(1.0 - ratio, z)
        # rounding can push xi a hair past 1; the true a_bar is always positive
        return max((1.0 - xi) / a, 0.0), xi
    return a_bar, 1.0 - a * a_bar


def e0(params: GmParams) -> float:
    """Expected lifetime from age 0; requires alpha + beta > 0."""
    return _evaluate(params, params.alpha, 0.0)[0]


def annuity(params: GmParams, delta: float, x: float) -> float:
    """Present value a_bar(x) of a continuous whole-life annuity of rate 1.

    Computed as e0 at the discount-shifted, age-shifted basis
    (alpha + delta, beta * e**(gamma_exp * x), gamma_exp).  Raises
    OverflowError when beta * e**(gamma_exp * x) is not representable.
    """
    _check_rate(delta)
    _check_age(x)
    return _evaluate(params, params.alpha + delta, x)[0]


def remaining_life(params: GmParams, x: float) -> float:
    """Expected remaining lifetime e_x; the undiscounted annuity value."""
    return annuity(params, 0.0, x)


def ageing_factor(params: GmParams, delta: float, x: float) -> float:
    """The ageing drag on the annuity: a_bar(x) = (1 - factor) / (alpha + delta).

    Zero for beta = 0 (no senescence), approaching 1 as survival vanishes.
    Undefined when alpha + delta = 0, since the defining relation
    degenerates there.
    """
    _check_rate(delta)
    _check_age(x)
    if params.alpha + delta == 0.0:
        raise ValueError("ageing factor is undefined when alpha + delta = 0")
    xi = _evaluate(params, params.alpha + delta, x)[1]
    return min(max(xi, 0.0), 1.0)


def commutation_d(params: GmParams, delta: float, x: float) -> float:
    """D(x) = l(x) * e**(-delta*x), i.e. survival at the rate-shifted basis."""
    _check_rate(delta)
    _check_age(x)
    a = params.alpha + delta
    if params.beta == 0.0:
        return math.exp(-a * x)
    return math.exp(
        -a * x - (params.beta / params.gamma_exp) * math.expm1(params.gamma_exp * x)
    )


def _commutation(params: GmParams, rate: float, x: float) -> tuple[float, float, float, float]:
    # D, N = D * a_bar and M = D - rate * N at one rate, plus the a_bar they share
    d = commutation_d(params, rate, x)
    a_bar = annuity(params, rate, x)
    n = d * a_bar
    return d, n, d - rate * n, a_bar


def commutation_n(params: GmParams, delta: float, x: float) -> float:
    """N(x) = integral of D over [x, inf) = D(x) * a_bar(x)."""
    return _commutation(params, delta, x)[1]


def commutation_m(params: GmParams, delta: float, x: float) -> float:
    """M(x) = integral of mu*D over [x, inf) = D(x) - delta * N(x)."""
    return _commutation(params, delta, x)[2]


def commutation_row(
    params: GmParams, delta: float, x: float, double_rate: bool = False
) -> CommutationRow:
    """All three commutation values at age x, at rate delta or 2*delta.

    Rows at twice the rate feed variance (second-moment) calculations for
    insurance contracts priced off the single-rate columns.
    """
    _check_rate(delta)
    rate = 2.0 * delta if double_rate else delta
    d, n, m, _ = _commutation(params, rate, x)
    return CommutationRow(x=x, d_val=d, n_val=n, m_val=m)


def positive_shape_check(params: GmParams, delta: float) -> float:
    """Shape parameter 1 - (alpha + delta)/gamma_exp of the gamma-function route.

    Positive for typical bases; a non-positive value means annuity
    evaluation runs through the negative-shape recurrence (or the
    exponential-integral path at exactly zero) instead of the gamma CDF.
    """
    _check_rate(delta)
    if params.gamma_exp <= 0.0:
        raise ValueError("shape is only defined for gamma_exp > 0")
    return 1.0 - (params.alpha + delta) / params.gamma_exp
