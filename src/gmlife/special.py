"""Gamma-family special functions for the life-value formulas.

Everything here is scalar double precision with no external dependencies:
the complete gamma function (Lanczos approximation), its logarithm, the
gamma distribution function (regularized lower incomplete gamma), and the
upper incomplete gamma function for arbitrary real shape at positive
argument, including an exp-scaled variant that stays finite where the
plain product e^z * Gamma(eta, z) would overflow.

Gamma(eta, z) takes a modified Lentz continued fraction for
z >= max(1.1, eta + 1), at any real shape.  Below that, shapes eta >= 1/2
take Gamma(eta) * (1 - G(z; eta, 1)) with gamma_cdf's power series, and lower
shapes one series that is smooth through the poles of Gamma (Gautschi, ACM
TOMS 5:466, 1979); for a base shape s in [-1/2, 1/2)

    Gamma(s, z) = (Gamma(1+s) - 1)/s - expm1(s ln z)/s
                  - z**s * sum_{k>=1} (-z)**k / (k! (s+k))

with 1/Gamma(1+s) from its Taylor series about 0 (at s = 0 this is E1(z)),
and a second sum in the same loop gives Gamma(s + 1, z).  Lower shapes step
down by partial integration, each step dividing by a shape of size >= 1/2.
The split: at z = 1.1 the fraction needs 78 iterations and the series 19
terms, and over shapes in [-1/2, 1/2) the series is within 4.9e-15 of
50-digit mpmath, the fraction 1.2e-14; from z ~ 1.2 up the series'
alternating sum cancels (3.8e-14 at z = 2) and the fraction wins.

Accuracy: over 742 shapes in -30..30 (200 of them within 1e-15..1e-2 of a
pole) and arguments in 1e-10..1e3, within 1e-14 * (1 + |eta ln z|) relative
of 50-digit mpmath; the factor is the sensitivity to rounding in eta and z.
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

# c_20 .. c_1 of 1/Gamma(1 + s) = 1 + sum c_k s**k, from
# mpmath.taylor(mpmath.rgamma, 1, 20); at |s| <= 1/2, c_21 adds below 1e-18
_RGAMMA_TAYLOR = (
    -3.696805618642206e-12, 7.782263439905071e-12, 1.0434267116911005e-10,
    -1.18127457048702e-09, 5.002007644469223e-09, 6.116095104481416e-09,
    -2.056338416977607e-07, 1.133027231981696e-06, -1.2504934821426706e-06,
    -2.013485478078824e-05, 0.0001280502823881162, -0.00021524167411495098,
    -0.0011651675918590652, 0.0072189432466631, -0.009621971527876973,
    -0.04219773455554433, 0.16653861138229148, -0.04200263503409524,
    -0.6558780715202539, 0.5772156649015329,
)

_MAX_ITER = 500
_REL_EPS = 1e-15
_LENTZ_TINY = 1e-300
# The continued fraction serves z >= max(_CF_MIN_Z, eta + 1); see the module docstring.
_CF_MIN_Z = 1.1

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


def _series_pair(s: float, z: float) -> tuple[float, float]:
    # (F(s), z F(s + 1)) for s in [-1/2, 1/2), F(eta) = z**-eta e**z Gamma(eta, z):
    #   z**-s Gamma(s, z) = (Gamma(1+s) - 1)/s + Gamma(1+s) expm1(-s ln z)/s - S_1
    #   z**-s Gamma(s + 1, z) = Gamma(1+s) z**-s + S_k
    # with S_c = sum_{k>=1} c (-z)**k / (k! (s+k)), c = 1 or k; all smooth through s = 0
    q = 0.0
    for c in _RGAMMA_TAYLOR:
        q = q * s + c
    rgamma = 1.0 + s * q  # 1/Gamma(1+s), and (Gamma(1+s) - 1)/s = -q/rgamma
    ln_z = math.log(z)
    lead_f = ((math.expm1(-s * ln_z) / s if s else -ln_z) - q) / rgamma
    lead_g = math.exp(-s * ln_z) / rgamma
    # below the split both results exceed lead_g / 16, so this leaves < 1e-15 of either
    tol = 0.1 * _REL_EPS * lead_g
    term = 1.0
    sum_f = sum_g = k = 0.0
    for _ in range(_MAX_ITER):
        k += 1.0
        term *= -z / k
        u = term / (s + k)
        sum_f += u
        sum_g += k * u
        if -tol < term < tol:
            e_z = math.exp(z)
            return e_z * (lead_f - sum_f), e_z * (lead_g + sum_g)
    raise ConvergenceError(f"shape-uniform series stalled (s={s}, z={z})")


def _ratio_pair(eta: float, z: float) -> tuple[float, float]:
    # (F(eta), z F(eta + 1)) = z**-eta e**z (Gamma(eta, z), Gamma(eta + 1, z)),
    # for eta < 1/2 or z >= max(_CF_MIN_Z, eta + 1); no power of z is formed
    if z >= max(_CF_MIN_Z, eta + 1.0):
        h = _upper_cf(eta, z)  # F itself
        return h, 1.0 + eta * h
    n = math.ceil(-0.5 - eta)  # steps down from the base shape eta + n in [-1/2, 1/2)
    if n > _MAX_ITER:
        raise ConvergenceError(f"shape {eta} is over {_MAX_ITER} steps below the series (z={z})")
    f, g = _series_pair(eta + n, z)
    for j in range(n - 1, -1, -1):  # z F(s + 1) = 1 + s F(s) downward, |s| >= 1/2
        f, g = (z * f - 1.0) / (eta + j), z * f
    return f, g


def upper_inc_gamma_general(eta: float, z: float) -> float:
    """Upper incomplete gamma Gamma(eta, z) for any real shape.

    Gamma(eta, z) = integral of y**(eta-1) e**-y over [z, inf).  Requires
    z > 0 when eta <= 0 (the integral diverges at z = 0 there); z = 0 with
    eta > 0 gives the complete gamma function.  The routes are those of
    :func:`exp_scaled_upper_inc_gamma`, with e**-z folded into the power of z.
    """
    if math.isnan(eta) or math.isinf(eta) or math.isnan(z) or math.isinf(z):
        raise ValueError(f"shape and argument must be finite, got ({eta!r}, {z!r})")
    if z < 0.0:
        raise ValueError(f"argument must be >= 0, got {z!r}")
    if z == 0.0:
        if eta > 0.0:
            return gamma_fn(eta)
        raise ValueError("argument must be > 0 when the shape is <= 0")
    if eta >= 0.5 and z < eta + 1.0:
        return gamma_fn(eta) * (1.0 - _lower_reg_series(eta, z))
    return math.exp(-z + eta * math.log(z)) * _ratio_pair(eta, z)[0]


def exp_scaled_upper_inc_gamma(eta: float, z: float, *, pair: bool = False):
    """e**z * Gamma(eta, z) without forming either factor on its own.

    For z >= max(1.1, eta + 1) the continued fraction gives it as z**eta * H,
    finite far beyond the overflow point of e**z; below that, shapes
    eta >= 1/2 take e**z * Gamma(eta) * (1 - G(z; eta, 1)) and lower shapes
    the shape-uniform series (see the module docstring).

    ``pair=True`` returns z**-eta e**z (Gamma(eta, z), Gamma(eta + 1, z)), the
    form in which :mod:`gmlife.life` reads an annuity and its ageing factor;
    for eta < 1/2 no power of z is formed, so it stays finite where z**eta is not.
    """
    if math.isnan(eta) or math.isinf(eta) or math.isnan(z) or math.isinf(z):
        raise ValueError(f"shape and argument must be finite, got ({eta!r}, {z!r})")
    if z <= 0.0:
        raise ValueError(f"argument must be > 0, got {z!r}")
    if eta >= 0.5 and z < eta + 1.0:
        val = math.exp(z) * gamma_fn(eta) * (1.0 - _lower_reg_series(eta, z))
        if not pair:
            return val
        f = val * math.exp(-eta * math.log(z))
        return f, 1.0 + eta * f
    f, g = _ratio_pair(eta, z)
    return (f, g) if pair else math.exp(eta * math.log(z)) * f
