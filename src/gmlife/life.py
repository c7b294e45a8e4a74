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

Only the first line is evaluated, for every z and every shape.  With
r = a/gamma, :func:`gmlife.special.exp_scaled_upper_inc_gamma` returns in one
evaluation the pair z**r * e**z * (Gamma(-r, z), Gamma(1 - r, z)), which is
(gamma * e0, xi) with xi = 1 - a * e0 the ageing factor.  Neither member is
formed by subtraction, so e0 keeps its digits as xi tends to 1 (old ages) or
a to 0, and xi keeps its digits as it tends to 0.  For z >= 1.1 the pair is
the continued fraction H(-r, z) and 1 - r * H, with no power or exponential
of z formed, so values hold about 1e-14 relative accuracy long after
survival has vanished (checked to z ~ 1e40); below that a series smooth
through the poles of Gamma gives it, so no shape needs a special case.

There is one evaluation per table.  At one age, one gamma product gives
D, N, M, a_bar and the ageing factor.  At one rate the shape -r is fixed
and only z varies with age, so a table is one shape per rate over one grid
of z, and the batch twins in :mod:`gmlife.special` evaluate every age at
every rate in one call: one numpy pass of the continued fraction for all
the rates, and one of the series per rate, bit for bit the scalar values.
Arguments are validated once, at the public API.

The rates of one table share the arrays that do not depend on the rate,
computed once per table in ``_life_tables``: the senescent part
(beta/gamma) expm1(gamma x) of every D exponent, and e**(gamma x), which
gives z and the force of mortality mu (bit for bit
:func:`gmlife.mortality.mortality_rates`).  The batch pair splits z once
for every rate between the continued fraction (z >= 1.1) and the series,
the same at every shape -r <= 0.  Per rate remain the discount term
-(alpha + rate) x and the exp of D's exponent, the gamma product's shape
and its series below the split.  At beta = 0 no age changes a_bar or xi,
so the pair at age 0 fills the table.  One helper turns (D, a_bar, xi) into
the columns for the scalar and the batch code alike.  :func:`life_table` is
the one-rate case of the CLI's several-rate entry, which, where tables fail,
raises at a lane where some rate's table raises the same: not necessarily
the first rate's error, nor the first age's.

Where a_bar is not a finite double (1/a at beta = 0 with a tiny a, or
f/gamma with a tiny gamma), or the gamma argument z is not (where
beta * e**(gamma x) overflows and e**(gamma x) does not), the evaluation
raises OverflowError, at its age or, in a table, at that lane, and so does
every value it gives (the ageing factor among them): N = D a_bar and M,
bounded by D and a_bar, would otherwise be inf or NaN.  D itself underflows
to 0.0 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mortality import (GmParams, _check_age, _check_ages, _check_args,
                        _discounted_survival, _discounted_survival_array, _finite_hazard,
                        _finite_hazards, _gamma_x, _gamma_xs, _senescent_exponent_array)
from .mortality import survival  # noqa: F401 (perfbench/tracing.py wraps life.survival)
from .special import (_check_lanes, _on_lanes, _per_element, _ratio_pair_array,
                      exp_scaled_upper_inc_gamma)

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
    "life_table",
    "positive_shape_check",
]


@dataclass(frozen=True)
class CommutationRow:
    """One table row: age x with D(x), N(x) and M(x) at a single rate."""

    x: float
    d_val: float
    n_val: float
    m_val: float


def _finite_a_bar(a_bar: float) -> float:
    # a_bar, which bounds N = D * a_bar and M <= D * (xi + alpha * a_bar), if finite
    if not math.isfinite(a_bar):
        raise OverflowError(f"a_bar = {a_bar!r} is not a finite double")
    return a_bar


def _evaluate(params: GmParams, a: float, x: float) -> tuple[float, float]:
    # (a_bar, xi) at age x and combined flat hazard a = alpha + delta,
    # with a * a_bar = 1 - xi and xi clamped to [0, 1] against rounding
    if params.beta == 0.0:
        if a == 0.0:
            raise ValueError("alpha, beta and delta are all zero: value is infinite")
        return _finite_a_bar(1.0 / a), 0.0
    gam = params.gamma_exp
    z = _finite_hazard(params.beta * math.exp(_gamma_x(params, x)) / gam)
    # the pair z**r e**z (Gamma(-r, z), Gamma(1 - r, z)) at r = a / gamma is
    # (gamma * a_bar, xi): both come out of one evaluation, neither by subtraction
    f, xi = exp_scaled_upper_inc_gamma(-(a / gam), z, pair=True)
    return _finite_a_bar(f / gam), 0.0 if xi < 0.0 else 1.0 if xi > 1.0 else xi


def e0(params: GmParams) -> float:
    """Expected lifetime from age 0; requires alpha + beta > 0."""
    return _evaluate(params, params.alpha, 0.0)[0]


def annuity(params: GmParams, delta: float, x: float) -> float:
    """Present value a_bar(x) of a continuous whole-life annuity of rate 1.

    Computed as e0 at the discount-shifted, age-shifted basis
    (alpha + delta, beta * e**(gamma_exp * x), gamma_exp).  Raises
    OverflowError where e**(gamma_exp * x), its gamma argument
    beta * e**(gamma_exp * x) / gamma_exp or the value itself is not a finite
    double, and ValueError where alpha + delta is not.
    """
    _check_args(params, delta, x)
    return _evaluate(params, params.alpha + delta, x)[0]


def remaining_life(params: GmParams, x: float) -> float:
    """Expected remaining lifetime e_x; the undiscounted annuity value."""
    _check_age(x)
    return _evaluate(params, params.alpha, x)[0]


def ageing_factor(params: GmParams, delta: float, x: float) -> float:
    """The ageing drag on the annuity: a_bar(x) = (1 - factor) / (alpha + delta).

    Zero for beta = 0 (no senescence), approaching 1 as survival vanishes.
    """
    _check_args(params, delta, x)
    return _evaluate(params, params.alpha + delta, x)[1]


def commutation_d(params: GmParams, delta: float, x: float) -> float:
    """D(x) = l(x) * e**(-delta*x), i.e. survival at the rate-shifted basis."""
    _check_args(params, delta, x)
    return _discounted_survival(params, delta, x)


def _columns(params: GmParams, rate: float, d, a_bar, xi) -> tuple:
    # D, N = D * a_bar, M, a_bar and xi at one rate, scalars or arrays alike.
    # M = D - rate * N is formed as D * (xi + alpha * a_bar), a sum of non-negative
    # terms, since 1 - rate * a_bar cancels when alpha << rate; undiscounted, M is
    # D itself
    m = d * (xi + params.alpha * a_bar) if rate else d
    return d, d * a_bar, m, a_bar, xi


def _commutation(params: GmParams, rate: float, x: float) -> tuple:
    # _columns at age x; unvalidated
    return _columns(params, rate, _discounted_survival(params, rate, x),
                    *_evaluate(params, params.alpha + rate, x))


def commutation_n(params: GmParams, delta: float, x: float) -> float:
    """N(x) = integral of D over [x, inf) = D(x) * a_bar(x)."""
    _check_args(params, delta, x)
    return _commutation(params, delta, x)[1]


def commutation_m(params: GmParams, delta: float, x: float) -> float:
    """M(x) = integral of mu*D over [x, inf) = D(x) - delta * N(x)."""
    _check_args(params, delta, x)
    return _commutation(params, delta, x)[2]


def commutation_row(
    params: GmParams, delta: float, x: float, double_rate: bool = False
) -> CommutationRow:
    """All three commutation values at age x, at rate delta or 2*delta.

    Rows at twice the rate feed variance (second-moment) calculations for
    insurance contracts priced off the single-rate columns.
    """
    rate = 2.0 * delta if double_rate else delta
    _check_args(params, rate, x)
    d, n, m, _, _ = _commutation(params, rate, x)
    return CommutationRow(x=x, d_val=d, n_val=n, m_val=m)


def life_table(params: GmParams, delta: float, xs) -> dict[str, np.ndarray]:
    """Every closed-form column at each age of a 1-D array xs, at rate delta.

    Returns arrays keyed D, N, M, a_bar and ageing_factor, each bit for bit
    what :func:`commutation_row`, :func:`annuity` and :func:`ageing_factor`
    give at that age (at delta = 0, D is the survival l(x) and a_bar is
    e_x).  The gamma product is one numpy pass over all ages, since the
    shape is fixed at one rate.  Where the scalar functions raise at some age
    (OverflowError, ConvergenceError or ValueError), this raises too, and the
    exception's ``lane`` attribute is the index in xs of an age at which
    :func:`commutation_row` raises the same type and text.
    """
    return _life_tables(params, (delta,), xs)[1][0]


def _life_tables(params: GmParams, rates: tuple[float, ...],
                 xs) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    # mortality_rates(params, xs) and [life_table(params, rate, xs) for rate in
    # rates], with the rate-free terms computed once: the senescent part of every D
    # exponent, and e**(gamma x), which gives mu and the gamma argument z.  Rates and
    # ages are checked first; then, where some rate's table raises, this raises at a
    # lane where some rate's table raises the same.  (a_bar, xi) at every age for
    # each rate is _evaluate's, in the same operation order
    for rate in rates:
        _check_args(params, rate)
    xs = _check_ages(xs)
    a_values = [params.alpha + rate for rate in rates]
    gam = params.gamma_exp
    with np.errstate(all="ignore"):  # Python floats overflow to inf silently too
        senescent = _senescent_exponent_array(params, xs)
        if params.beta:
            # exp overflows at exactly the ages where expm1 did, first: this raises
            # what D, the first value at every rate, raises
            scaled = params.beta * _per_element(math.exp, _gamma_xs(params, xs))
            mu = params.alpha + scaled
            # in place, one array fewer alive; where z overflows every rate raises
            z = _finite_hazards(np.divide(scaled, gam, out=scaled))
            pairs = _ratio_pair_array([-(a / gam) for a in a_values], z)
            for a_bar, xi in pairs:  # (f, xi), made (a_bar, xi) in place
                a_bar /= gam
                _check_lanes(np.isfinite(a_bar), _finite_a_bar, a_bar)
                xi[xi < 0.0] = 0.0
                xi[xi > 1.0] = 1.0
        else:
            # no age changes a pair: _evaluate's at age 0, or its error, named at lane 0
            mu = np.full(xs.shape, params.alpha)
            pairs = [_on_lanes((0,), _evaluate, params, a, 0.0) if xs.size else (0.0, 0.0)
                     for a in a_values]
            pairs = [[np.full(xs.shape, v) for v in pair] for pair in pairs]
        # D, whose exponent is never positive, raises nothing: it comes after the pairs
        return mu, [dict(zip(("D", "N", "M", "a_bar", "ageing_factor"), _columns(
            params, rate, _discounted_survival_array(params, rate, xs, senescent), *pair)))
            for rate, pair in zip(rates, pairs)]


def positive_shape_check(params: GmParams, delta: float) -> float:
    """Shape parameter 1 - (alpha + delta)/gamma_exp of the paper's gamma CDF route.

    Positive for typical bases, where the paper's expression through the
    gamma function and the gamma CDF applies as written; a non-positive value
    means the combined hazard-plus-interest exceeds the ageing rate.  Either
    way the annuity is evaluated the same way (see the module docstring).
    Raises OverflowError where the shape is not a finite double (a tiny
    gamma_exp).
    """
    _check_args(params, delta)
    if params.gamma_exp <= 0.0:
        raise ValueError("shape is only defined for gamma_exp > 0")
    shape = 1.0 - (params.alpha + delta) / params.gamma_exp
    if not math.isfinite(shape):
        raise OverflowError(f"shape 1 - (alpha + delta)/gamma_exp = {shape!r} is not a "
                            "finite double")
    return shape
