"""Gamma-family special functions for the life-value formulas.

Everything here is scalar double precision with no external dependencies:
the complete gamma function (Lanczos approximation), its logarithm, the
gamma distribution function (regularized lower incomplete gamma), and the
upper incomplete gamma function for arbitrary real shape at positive
argument, including an exp-scaled variant that stays finite where the
plain product e^z * Gamma(eta, z) would overflow.

Algorithm split: power series for the lower incomplete gamma when
z < eta + 1, modified Lentz continued fraction for the upper incomplete
gamma when z >= eta + 1.  Non-positive shapes are reached by repeatedly
applying the partial-integration identity

    Gamma(eta, z) = (Gamma(eta + 1, z) - z**eta * e**-z) / eta

downward from a positive shape.  That recurrence is only stable for
z < 1 (once z exceeds |eta| each step amplifies rounding error by about
z / |step shape|), so for z >= 1 the continued fraction is used directly;
it converges for any real shape there.

Accuracy near non-positive *integer* shapes n (z < 1): exact integers are
routed through the exponential integral E1(z) = Gamma(0, z), and so are
shapes within 8 * 2**-52 * (1 + |eta|) of n, which are taken to be n.  Farther
off, the recurrence or Gamma(eta) * (1 - G) cancels, with a relative error
of roughly 1e-16 divided by the distance d from the pole: in the annuity at
z ~ 0.05, 8e-12 at d = 1e-5, 5e-7 at d = 1e-10 and 2e-4 at d = 1e-12 next
to 0, and 7e-15 at d = 1e-5 and 5e-10 at d = 1e-10 next to -2.  Shapes
below -10 are accepted but accuracy degrades by roughly one decimal digit
per unit of shape.
"""

from __future__ import annotations

import math

__all__ = [
    "ConvergenceError",
    "GAMMA_OVERFLOW_SHAPE",
    "gamma_fn",
    "ln_gamma_fn",
    "gamma_cdf",
    "upper_inc_gamma_general",
    "exp_scaled_upper_inc_gamma",
]

# Lanczos approximation, g = 7 with 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_MAX_ITER = 500
_REL_EPS = 1e-15
_LENTZ_TINY = 1e-300
_EULER_MASCHERONI = 0.5772156649015328606
_POLE_SNAP = 8.0 * 2.0**-52  # shapes this close (times 1 + |eta|) to a pole are the pole

#: Largest shape for which Gamma(eta) is representable in binary64.
GAMMA_OVERFLOW_SHAPE = 171.62437695630272


class ConvergenceError(ArithmeticError):
    """A series or continued fraction failed to converge within its budget."""


def _lanczos_series(u: float) -> float:
    acc = _LANCZOS_COEF[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEF[i] / (u + i)
    return acc


def _gamma_positive(x: float) -> float:
    # Lanczos core for x >= 0.5; split power keeps t**(x+0.5) representable
    # right up to the overflow shape.
    u = x - 1.0
    t = u + _LANCZOS_G + 0.5
    half = t ** (0.5 * (u + 0.5)) * math.exp(-0.5 * t)
    return math.sqrt(2.0 * math.pi) * half * half * _lanczos_series(u)


def _check_shape_positive(eta: float) -> None:
    if not eta > 0.0 or math.isinf(eta):  # nan fails the comparison too
        raise ValueError(f"shape must be positive and finite, got {eta!r}")


def gamma_fn(eta: float) -> float:
    """Complete gamma function Gamma(eta) for eta > 0.

    The measured relative error of the g=7 Lanczos coefficient set creeps
    past 1e-13 above eta ~ 150, so shapes beyond 64 are reduced into [2, 3)
    and multiplied back up with exact integer-offset factors, keeping the
    relative error below 1e-13 over the whole representable range.
    """
    _check_shape_positive(eta)
    if eta > GAMMA_OVERFLOW_SHAPE:
        raise OverflowError(f"gamma({eta}) exceeds the double-precision range")
    if eta < 0.5:
        return math.pi / (math.sin(math.pi * eta) * _gamma_positive(1.0 - eta))
    if eta <= 64.0:
        return _gamma_positive(eta)
    m = int(eta) - 2
    x0 = eta - m  # in [2, 3); the subtraction is exact for eta < 2**53
    val = _gamma_positive(x0)
    for k in range(m):
        val *= x0 + k
    return val


def ln_gamma_fn(eta: float) -> float:
    """Natural log of the gamma function for eta > 0."""
    _check_shape_positive(eta)
    if eta < 0.5:
        return math.log(math.pi / math.sin(math.pi * eta)) - ln_gamma_fn(1.0 - eta)
    u = eta - 1.0
    t = u + _LANCZOS_G + 0.5
    return (
        0.5 * math.log(2.0 * math.pi)
        + (u + 0.5) * math.log(t)
        - t
        + math.log(_lanczos_series(u))
    )


def _lower_reg_series(eta: float, z: float) -> float:
    # Regularized lower incomplete gamma by power series; needs z < eta + 1.
    if z == 0.0:
        return 0.0
    term = 1.0 / eta
    total = term
    ap = eta
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * _REL_EPS:
            return total * math.exp(-z + eta * math.log(z) - ln_gamma_fn(eta))
    raise ConvergenceError(f"lower incomplete gamma series stalled (eta={eta}, z={z})")


def _upper_cf(eta: float, z: float) -> float:
    # Modified Lentz continued fraction; returns H such that
    # Gamma(eta, z) = exp(-z) * z**eta * H.  Converges for any real eta
    # once z >= max(1, eta + 1).
    b = z + 1.0 - eta
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _LENTZ_TINY
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - eta)
        b += 2.0
        d = an * d + b
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = b + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            return h
    raise ConvergenceError(
        f"upper incomplete gamma continued fraction stalled (eta={eta}, z={z})"
    )


def _e1_series(z: float) -> float:
    # Exponential integral E1(z) = Gamma(0, z) for 0 < z < 1; the continued
    # fraction converges too slowly below 1.
    total = -_EULER_MASCHERONI - math.log(z)
    term = 1.0
    for k in range(1, _MAX_ITER + 1):
        term *= -z / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < abs(total) * _REL_EPS:
            return total
    raise ConvergenceError(f"exponential integral series stalled (z={z})")


def _snap_to_pole(eta: float) -> float:
    # A shape within a few ulps of a non-positive integer n is most likely n
    # itself after rounding (e.g. 1 - 0.3/0.1 = -1.9999999999999996).  Taken
    # as it is, it cancels to nothing in the recurrence or in
    # Gamma(eta) * (1 - G); taken as n, it goes down the E1 route, and
    # Gamma(eta, z) moves by only ~|eta - n| * (1 + |ln z|) relative.
    n = round(eta)
    if n <= 0 and abs(eta - n) <= _POLE_SNAP * (1.0 - eta):
        return float(n)
    return eta


def gamma_cdf(z: float, eta: float) -> float:
    """Gamma distribution function G(z; eta, 1) for eta > 0, z >= 0.

    G(z; eta, 1) = (1/Gamma(eta)) * integral of y**(eta-1) e**-y over [0, z],
    i.e. the CDF of a unit-scale gamma random variable with shape eta.
    """
    _check_shape_positive(eta)
    if math.isnan(z) or math.isinf(z) or z < 0.0:
        raise ValueError(f"argument must be finite and >= 0, got {z!r}")
    if z == 0.0:
        return 0.0
    if z < eta + 1.0:
        return _lower_reg_series(eta, z)
    q = math.exp(-z + eta * math.log(z) - ln_gamma_fn(eta)) * _upper_cf(eta, z)
    return 1.0 - q


def upper_inc_gamma_general(eta: float, z: float) -> float:
    """Upper incomplete gamma Gamma(eta, z) for any real shape.

    Gamma(eta, z) = integral of y**(eta-1) e**-y over [z, inf).  Requires
    z > 0 when eta <= 0 (the integral diverges at z = 0 there); z = 0 with
    eta > 0 gives the complete gamma function.

    For z >= max(1, eta + 1) the continued fraction gives it directly, in
    log space.  Below that, positive shapes take
    Gamma(eta) * (1 - G(z; eta, 1)) with G from its power series, and
    non-positive shapes (z < 1 there, so e**-z is harmless) are e**-z times
    :func:`exp_scaled_upper_inc_gamma`, which lifts the shape through the
    partial-integration recurrence or descends from E1(z) at exact integers.
    """
    if math.isnan(eta) or math.isinf(eta) or math.isnan(z) or math.isinf(z):
        raise ValueError(f"shape and argument must be finite, got ({eta!r}, {z!r})")
    if z < 0.0:
        raise ValueError(f"argument must be >= 0, got {z!r}")
    if z == 0.0:
        if eta > 0.0:
            return gamma_fn(eta)
        raise ValueError("argument must be > 0 when the shape is <= 0")
    if z >= max(1.0, eta + 1.0):
        return math.exp(-z + eta * math.log(z)) * _upper_cf(eta, z)
    if eta < 0.5:  # the poles are at 0, -1, -2, ...
        eta = _snap_to_pole(eta)
    if eta > 0.0:
        return gamma_fn(eta) * (1.0 - _lower_reg_series(eta, z))
    return math.exp(-z) * exp_scaled_upper_inc_gamma(eta, z)


def exp_scaled_upper_inc_gamma(eta: float, z: float) -> float:
    """e**z * Gamma(eta, z) without forming either factor on its own.

    For z >= max(1, eta + 1) the continued fraction gives
    Gamma(eta, z) = e**-z * z**eta * H, so the exponential cancels
    analytically and the result stays finite for arguments far beyond
    the overflow point of e**z.  For smaller z the exponential is
    representable and the plain route of :func:`upper_inc_gamma_general`
    is used in scaled form.
    """
    if math.isnan(eta) or math.isinf(eta) or math.isnan(z) or math.isinf(z):
        raise ValueError(f"shape and argument must be finite, got ({eta!r}, {z!r})")
    if z <= 0.0:
        raise ValueError(f"argument must be > 0, got {z!r}")
    if z >= max(1.0, eta + 1.0):
        return math.exp(eta * math.log(z)) * _upper_cf(eta, z)
    if eta < 0.5:  # the poles are at 0, -1, -2, ...
        eta = _snap_to_pole(eta)
    if eta > 0.0:
        return math.exp(z) * gamma_fn(eta) * (1.0 - _lower_reg_series(eta, z))
    # z < 1 from here on, so e**z never overflows
    if eta == round(eta):
        val = math.exp(z) * _e1_series(z)
        for j in range(1, int(-eta) + 1):
            val = (val - math.exp(-j * math.log(z))) / (-j)
        return val
    k = math.ceil(-eta) + 1
    val = exp_scaled_upper_inc_gamma(eta + k, z)
    for j in range(k - 1, -1, -1):
        s = eta + j
        val = (val - math.exp(s * math.log(z))) / s
    return val
