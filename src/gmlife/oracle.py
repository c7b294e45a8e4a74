"""Independent verification of the closed-form life values.

Two deliberately simple routes that never touch the gamma-function code:

* Gauss-Legendre quadrature of the defining integrals (annuity and
  death-benefit commutation integrals), and
* a Monte-Carlo lifetime sampler built on the competing-risks split of
  the survival function, l(x) = e**(-alpha*x) * exp(-(beta/gamma)(e**(gamma*x)-1)),
  i.e. a lifetime is the minimum of an exponential(alpha) draw and a
  pure-Gompertz(beta, gamma) draw obtained by CDF inversion.

The quadrature is composite 15-point Gauss-Legendre on equal panels,
doubling the panel count until two successive sums agree within the
tolerance.  The upper limit is the power of two at which the integrand
first falls below 1e-16 of its value at t = 0 (found by doubling or
halving from 1), so a fast decay is resolved like a slow one.  Every
panel is refined at once, so no region can be declared converged on too
few samples, as adaptive Simpson can be (Lyness, J. ACM 16:483, 1969).
Plain and auditable on purpose: an oracle has to be simpler than the
code it checks.

Monte-Carlo functions take an explicit numpy Generator (``
numpy.random.default_rng``, the PCG64 algorithm) so results are exactly
reproducible from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mortality import GmParams, _check_age
from .special import ConvergenceError

__all__ = [
    "QuadratureResult",
    "McEstimate",
    "integrate_survival",
    "integrate_m",
    "sample_lifetime",
    "mc_remaining_life",
]

_TAIL_CUTOFF = 1e-16
_EVAL_BUDGET = 1_000_000
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_samples: int


def _integrate(f, tol):
    # f maps an array of t to the integrand; returns (value, abs_err, evaluations).
    # expm1(gamma t) may overflow to inf in the tail of either integrand, whose
    # log-ratio is then -inf and the integrand exactly 0
    with np.errstate(over="ignore"):
        return _gauss_legendre(f, tol)


def _gauss_legendre(f, tol):
    cutoff = _TAIL_CUTOFF * f(0.0)
    # bracket the tail between powers of two: f(upper/2) >= cutoff >= f(upper)
    upper, evaluations = 1.0, 3  # f(0.0) and the last test of each loop
    while f(upper) > cutoff:
        upper *= 2.0
        evaluations += 1
        if upper > 1e15:
            raise ConvergenceError("integrand does not decay; check the basis")
    while f(0.5 * upper) < cutoff:
        upper *= 0.5
        evaluations += 1
    previous, panels = math.inf, 1
    while True:
        if evaluations + panels * _NODES.size > _EVAL_BUDGET:
            raise ConvergenceError(
                f"quadrature evaluation budget of {_EVAL_BUDGET} exhausted"
            )
        half = 0.5 * upper / panels
        centres = half * (2.0 * np.arange(panels) + 1.0)
        t = (centres[:, None] + half * _NODES).ravel()
        value = half * float(np.sum(f(t).reshape(panels, -1) @ _WEIGHTS))
        evaluations += t.size
        if abs(value - previous) <= tol:
            return value, abs(value - previous), evaluations
        previous, panels = value, 2 * panels


def _ln_discounted_survival_ratio(params: GmParams, delta: float, x: float):
    # t -> ln(e**(-delta*t) * l(x+t)/l(x)), which starts at exactly 0
    a = params.alpha + delta
    if params.beta == 0.0:
        return lambda t: -a * t
    bg = params.beta * math.exp(params.gamma_exp * x) / params.gamma_exp
    gam = params.gamma_exp
    return lambda t: -a * t - bg * np.expm1(gam * t)


def _discounted_survival_ratio(params: GmParams, delta: float, x: float):
    # t -> e**(-delta*t) * l(x+t)/l(x), which starts at exactly 1
    ln_ratio = _ln_discounted_survival_ratio(params, delta, x)
    return lambda t: np.exp(ln_ratio(t))


def integrate_survival(
    params: GmParams, delta: float, x: float, tol: float = 1e-10
) -> QuadratureResult:
    """Quadrature of the annuity integral: e**(-delta*t) l(x+t)/l(x) over [0, inf).

    With delta = 0 this is the expected remaining lifetime at x.  The
    estimated absolute error of the returned value is at most tol.
    """
    _check_inputs(params, delta, x, tol)
    f = _discounted_survival_ratio(params, delta, x)
    value, err, evaluations = _integrate(f, tol)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evaluations)


def integrate_m(
    params: GmParams, delta: float, x: float, tol: float = 1e-10
) -> QuadratureResult:
    """Quadrature of the death-benefit integral mu(y) D(y) over [x, inf).

    Internally integrates the normalized form
    D(x) * integral of mu(x+t) e**(-delta*t) l(x+t)/l(x) dt, so the result
    keeps relative accuracy even where D(x) itself is tiny; tol still
    bounds the estimated absolute error of the final value.
    """
    _check_inputs(params, delta, x, tol)
    alpha, beta, gam = params.alpha, params.beta, params.gamma_exp

    ln_ratio = _ln_discounted_survival_ratio(params, delta, x)
    if beta == 0.0:
        def f(t):
            return alpha * np.exp(ln_ratio(t))
    else:
        # mu(x+t) times the ratio; its senescent part beta e**(gamma (x+t)) ratio
        # is one exponential, so it is 0, not inf * 0, where the ratio underflows
        ln_bx = math.log(beta) + gam * x

        def f(t):
            ln_r = ln_ratio(t)
            return alpha * np.exp(ln_r) + np.exp(ln_r + gam * t + ln_bx)

    # D(x) is the ratio from age 0, taken at t = x
    d_x = float(_discounted_survival_ratio(params, delta, 0.0)(x))
    value, err, evaluations = _integrate(f, tol / d_x if d_x > 0.0 else tol)
    return QuadratureResult(
        value=d_x * value, abs_error_estimate=d_x * err, evaluations=evaluations
    )


def _check_inputs(params: GmParams, delta: float, x: float, tol: float) -> None:
    _check_age(x)
    if math.isnan(delta) or math.isinf(delta) or delta < 0.0:
        raise ValueError(f"interest rate must be finite and >= 0, got {delta!r}")
    if params.alpha + params.beta + delta <= 0.0:
        raise ValueError("need alpha + beta + delta > 0 for a convergent integral")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")


def _sample_lifetimes(params: GmParams, n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random((2, n))
    if params.alpha > 0.0:
        t_flat = -np.log1p(-u[0]) / params.alpha
    else:
        t_flat = np.full(n, np.inf)
    if params.beta > 0.0:
        gam = params.gamma_exp
        # inversion of the pure-Gompertz survival function
        t_sen = np.log1p(-(gam / params.beta) * np.log1p(-u[1])) / gam
    else:
        t_sen = np.full(n, np.inf)
    return np.minimum(t_flat, t_sen)


def sample_lifetime(params: GmParams, rng: np.random.Generator) -> float:
    """One lifetime drawn from the Gompertz-Makeham law; needs alpha + beta > 0."""
    if params.alpha + params.beta <= 0.0:
        raise ValueError("need alpha + beta > 0 to sample a finite lifetime")
    return float(_sample_lifetimes(params, 1, rng)[0])


def mc_remaining_life(
    params: GmParams, x: float, n: int, rng: np.random.Generator
) -> McEstimate:
    """Monte-Carlo estimate of the expected remaining lifetime at age x.

    Samples directly from the age-shifted basis
    (alpha, beta * e**(gamma_exp * x), gamma_exp), whose lifetimes are
    distributed as the remaining lifetime of a survivor to x, so no
    rejection step is needed.
    """
    _check_age(x)
    if params.alpha + params.beta <= 0.0:
        raise ValueError("need alpha + beta > 0 to sample a finite lifetime")
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for a usable estimate, got {n}")
    if params.beta > 0.0:
        shifted = GmParams(
            params.alpha,
            params.beta * math.exp(params.gamma_exp * x),
            params.gamma_exp,
        )
    else:
        shifted = params
    draws = _sample_lifetimes(shifted, n, rng)
    mean = float(draws.mean())
    std_error = float(draws.std(ddof=1) / math.sqrt(n))
    return McEstimate(mean=mean, std_error=std_error, n_samples=n)
