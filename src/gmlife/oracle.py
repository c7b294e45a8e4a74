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
tolerance, or within 4 ulps of the sum where the tolerance is finer than
that rounding noise; a sum that is not finite fails at once.  The upper
limit is the power of two at which the integrand first falls below 1e-16
of its value at t = 0 (found by doubling or halving from 1), so a fast
decay is resolved like a slow one.  Every panel is refined at once, so
no region can be declared converged on too few samples, as adaptive
Simpson can be (Lyness, J. ACM 16:483, 1969).
Plain and auditable on purpose: an oracle has to be simpler than the
code it checks.

There is one quadrature engine, and it runs lanes: one lane per age of a
table, each with its own tolerance, tail bracket and evaluation count.
Ages run in blocks of ``_BLOCK_LANES``, in order, so a failing lane costs
at most its block's work.  Within a block each panel-doubling level of
all its lanes is one numpy call (split into chunks of ``_CHUNK_NODES``
integrand values, which bounds memory), and a lane leaves as soon as it
has converged.  Each lane repeats the one-lane arithmetic in the same
order, so ``integrate_survival_table`` and ``integrate_m_table`` equal
their scalar twins, which are one-lane calls of the same engine, bit for
bit and in evaluation count.  An age whose D(x) is 0 runs no quadrature of
M; one whose D(x) is NaN (beta/gamma underflows to 0 while expm1(gamma x)
overflows) fails with the error :func:`gmlife.life.commutation_d` raises
there.  Each public table entry ignores numpy's overflow and invalid
warnings once, for its whole call: an overflow that matters fails a lane.

Monte-Carlo functions take an explicit numpy Generator (``
numpy.random.default_rng``, the PCG64 algorithm) so results are exactly
reproducible from a seed.  Only the scale beta e**(gamma x) of the
Gompertz draw depends on the age: the flat draw is memoryless and
log1p(-v) is an Exp(1) variate up to sign at any age.  So a table makes
one draw, does the age-free part of the sampling once, and gives every
age the same uniforms (common random numbers): each lane equals a scalar
call from the generator's state at entry, and the generator advances as
for one scalar call.  Where beta > 0 the lifetimes are held in units of
1/gamma, so no age divides its draws by gamma: the mean and standard error
go back to years as two scalars.  They are within 1.5e-15 relative (7
ulps) of the textbook mean and std(ddof=1) of the same draws in years, over
4 bases, 20 seeds, 5 ages and 3 sample sizes.  Where a draw, or an age's mean
or standard error, is not finite (a steep basis), the sampler raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mortality import (GmParams, _check_age, _check_ages, _check_args,
                        _discounted_survival, _finite_hazard, _gamma_x, _gamma_xs)
from .special import ConvergenceError, _at_lane, _on_lanes, _per_element

__all__ = [
    "QuadratureResult",
    "McEstimate",
    "integrate_survival",
    "integrate_survival_table",
    "integrate_m",
    "integrate_m_table",
    "sample_lifetime",
    "mc_remaining_life",
    "mc_remaining_life_table",
]

_TAIL_CUTOFF = 1e-16
_EVAL_BUDGET = 1_000_000
_ULP_FLOOR = 4  # each lane's tolerance is at least this many ulps of its sum
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
_LADDER = np.arange(8)  # bracket tests per integrand call: upper * 2**0 ... 2**7
# ages run together, as a block (a failing lane costs at most one block's work)
_BLOCK_LANES = 1024
# integrand values per numpy call (512 KB an array; 1,092 lanes at 4 panels), or
# one lane's level where that alone is more: bounds memory whatever the table size
_CHUNK_NODES = 1 << 16


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature; from a ``*_table`` call each field is an array, one lane per age."""

    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate; from a ``*_table`` call mean and std_error are arrays."""

    mean: float
    std_error: float
    n_samples: int


def _gauss_legendre(f, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # f(t, rows) is the integrand of lanes rows at t of shape (rows.size, k); returns
    # (value, abs_err, evaluations) per lane.  The lanes run in blocks of ages, in
    # order, so a lane that fails stops the table once its own block has run
    if not tol.size:
        return np.empty(0), np.empty(0), np.empty(0, int)
    blocks = [_on_lanes(range(start, tol.size), _gauss_legendre_block,
                        lambda t, rows, start=start: f(t, start + rows),
                        tol[start:start + _BLOCK_LANES])
              for start in range(0, tol.size, _BLOCK_LANES)]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _gauss_legendre_block(f, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # _gauss_legendre on the lanes of one block
    lanes = np.arange(tol.size)
    cutoff = _TAIL_CUTOFF * f(np.zeros((tol.size, 1)), lanes)[:, 0]
    # bracket the tail between powers of two: f(upper/2) >= cutoff >= f(upper),
    # doubling while f(upper) > cutoff, then halving while f(upper/2) < cutoff
    upper = np.ones(tol.size)
    evaluations = np.full(tol.size, 3)  # f(0.0) and the last test of each loop
    rows = lanes
    while rows.size:
        k = _steps(f, upper, rows, cutoff, _LADDER, np.greater)
        upper[rows] *= 2.0 ** k
        evaluations[rows] += k
        far = upper[rows] > 1e15
        if far.any():
            raise _at_lane(ConvergenceError("integrand does not decay; check the basis"),
                           rows[far.argmax()])
        rows = rows[k == _LADDER.size]
    # a lane that doubled has f(upper/2) > cutoff, its last doubling test
    rows = lanes[upper == 1.0]
    while rows.size:
        k = _steps(f, upper, rows, cutoff, -1 - _LADDER, np.less)
        upper[rows] *= 0.5 ** k
        evaluations[rows] += k
        rows = rows[k == _LADDER.size]
    value, err, previous = np.empty(tol.size), np.empty(tol.size), np.full(tol.size, np.inf)
    rows, panels = lanes, 1
    while rows.size:
        over = evaluations[rows] + panels * _NODES.size > _EVAL_BUDGET
        if over.any():
            raise _at_lane(ConvergenceError(
                f"quadrature evaluation budget of {_EVAL_BUDGET} exhausted"), rows[over.argmax()])
        step = max(1, _CHUNK_NODES // (panels * _NODES.size))
        chunks = [rows[i:i + step] for i in range(0, rows.size, step)]
        level = np.concatenate([_level(f, upper[c], c, panels) for c in chunks])
        # a level that is not finite holds an integrand value that is not finite,
        # which the tolerance test cannot judge (inf - inf is NaN): the lane fails
        bad = ~np.isfinite(level)
        if bad.any():
            raise _at_lane(ConvergenceError("integrand is not finite; check the basis"),
                           rows[bad.argmax()])
        evaluations[rows] += panels * _NODES.size
        change = np.abs(level - previous[rows])
        # a tolerance finer than the sums' rounding noise could never be met
        done = change <= np.maximum(tol[rows], _ULP_FLOOR * np.spacing(np.abs(level)))
        value[rows[done]], err[rows[done]] = level[done], change[done]
        previous[rows] = level
        rows, panels = rows[~done], 2 * panels
    return value, err, evaluations


def _steps(f, upper, rows, cutoff, exponents, test) -> np.ndarray:
    # per lane, how many of the tests test(f(upper * 2**e), cutoff) pass in a row,
    # e running through exponents; one call evaluates the whole run
    passed = test(f(upper[rows, None] * 2.0 ** exponents, rows), cutoff[rows, None])
    return np.where(passed.all(axis=1), exponents.size, passed.argmin(axis=1))


def _level(f, upper: np.ndarray, rows: np.ndarray, panels: int) -> np.ndarray:
    # the composite rule on `panels` equal panels of [0, upper], lane by lane
    half = 0.5 * upper / panels
    centres = half[:, None] * (2.0 * np.arange(panels) + 1.0)
    t = centres[:, :, None] + (half[:, None] * _NODES)[:, None, :]
    fx = f(t.reshape(rows.size, -1), rows).reshape(rows.size, panels, -1)
    return half * np.sum(fx @ _WEIGHTS, axis=1)


def _ln_discounted_survival_ratio(params: GmParams, delta: float, xs: np.ndarray):
    # (t, rows) -> ln(e**(-delta*t) * l(x+t)/l(x)) at the ages xs[rows], which starts
    # at exactly 0
    a = params.alpha + delta
    if params.beta == 0.0:
        return lambda t, rows: -a * t
    gam = params.gamma_exp
    bg = (params.beta * _per_element(math.exp, _gamma_xs(params, xs)) / gam)[:, None]
    return lambda t, rows: -a * t - bg[rows] * np.expm1(gam * t)


def _first_lane(table):
    # the scalar result in lane 0 of a table call's QuadratureResult or McEstimate
    return type(table)(*(v[0].item() if isinstance(v, np.ndarray) else v
                         for v in vars(table).values()))


def integrate_survival(
    params: GmParams, delta: float, x: float, tol: float = 1e-10
) -> QuadratureResult:
    """Quadrature of the annuity integral: e**(-delta*t) l(x+t)/l(x) over [0, inf).

    With delta = 0 this is the expected remaining lifetime at x.  The
    estimated absolute error of the returned value is at most tol, or 4 ulps
    of the value where tol is finer than that.
    """
    _check_age(x)
    return _first_lane(integrate_survival_table(params, delta, [x], tol))


# expm1(gamma x) and expm1(gamma t) may overflow to inf: a log-ratio is then -inf and
# the integrand 0, or NaN (0 * inf, -inf + inf), which fails the lane if a level
# meets it
@np.errstate(over="ignore", invalid="ignore")
def integrate_survival_table(params: GmParams, delta: float, xs, tol=1e-10) -> QuadratureResult:
    """:func:`integrate_survival` at every age of a 1-D array of ages.

    ``tol`` is one tolerance or one per age.  Each field of the result is
    an array whose lanes are the scalar results, bit for bit.  If any lane
    fails, raises with a ``lane`` attribute: the index of an age at which
    the scalar call raises the same type and text.
    """
    xs, tol = _check_inputs(params, delta, xs, tol)
    ln_ratio = _ln_discounted_survival_ratio(params, delta, xs)
    value, err, evaluations = _gauss_legendre(lambda t, rows: np.exp(ln_ratio(t, rows)), tol)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evaluations)


def integrate_m(
    params: GmParams, delta: float, x: float, tol: float = 1e-10
) -> QuadratureResult:
    """Quadrature of the death-benefit integral mu(y) D(y) over [x, inf).

    Internally integrates the normalized form
    D(x) * integral of mu(x+t) e**(-delta*t) l(x+t)/l(x) dt, so the result
    keeps relative accuracy even where D(x) itself is tiny; tol still
    bounds the estimated absolute error of the final value (or 4 ulps of
    the normalized integral, as in :func:`integrate_survival`).
    """
    _check_age(x)
    return _first_lane(integrate_m_table(params, delta, [x], tol))


@np.errstate(over="ignore", invalid="ignore")  # as integrate_survival_table
def integrate_m_table(params: GmParams, delta: float, xs, tol=1e-10) -> QuadratureResult:
    """:func:`integrate_m` at every age of a 1-D array of ages.

    ``tol`` is one tolerance or one per age.  Each field of the result is
    an array whose lanes are the scalar results, bit for bit.  If any lane
    fails, raises with a ``lane`` attribute: the index of an age at which
    the scalar call raises the same type and text.
    """
    all_xs, tol = _check_inputs(params, delta, xs, tol)
    alpha, beta, gam = params.alpha, params.beta, params.gamma_exp
    # D(x) = e**(-delta x) l(x), 0 where e**(gamma x) overflows, and NaN where
    # beta/gamma also underflows to 0: there commutation_d raises, and so does this,
    # at the first such lane
    ln_d = -(alpha + delta) * all_xs
    if beta != 0.0:
        ln_d = ln_d - (beta / gam) * np.expm1(gam * all_xs)
    d_x = np.exp(ln_d)
    undefined = np.flatnonzero(np.isnan(d_x))
    if undefined.size:
        _on_lanes(undefined, _discounted_survival, params, delta, float(all_xs[undefined[0]]))
    # where D(x) underflows to 0, so does D(x) times the integral, whatever the
    # integral is: such lanes run no quadrature and return 0 with 0 evaluations
    live = np.flatnonzero(d_x > 0.0)
    xs = all_xs[live]

    ln_ratio = _ln_discounted_survival_ratio(params, delta, xs)
    if beta == 0.0:
        def f(t, rows):
            return alpha * np.exp(ln_ratio(t, rows))
    else:
        # mu(x+t) times the ratio; its senescent part beta e**(gamma (x+t)) ratio
        # is one exponential, so it is 0, not inf * 0, where the ratio underflows
        ln_bx = (math.log(beta) + gam * xs)[:, None]

        def f(t, rows):
            ln_r = ln_ratio(t, rows)
            return alpha * np.exp(ln_r) + np.exp(ln_r + gam * t + ln_bx[rows])

    value, err = np.zeros(all_xs.size), np.zeros(all_xs.size)
    evaluations = np.zeros(all_xs.size, int)
    # with the absolute tolerance of the normalized integral
    value[live], err[live], evaluations[live] = _on_lanes(live, _gauss_legendre,
                                                          f, tol[live] / d_x[live])
    return QuadratureResult(
        value=d_x * value, abs_error_estimate=d_x * err, evaluations=evaluations
    )


def _check_inputs(params: GmParams, delta: float, xs, tol) -> tuple[np.ndarray, np.ndarray]:
    # the ages, and one tolerance per age
    xs = _check_ages(xs)
    _check_args(params, delta)
    if params.alpha + params.beta + delta <= 0.0:
        raise ValueError("need alpha + beta + delta > 0 for a convergent integral")
    tol = np.full(xs.shape, tol, dtype=float)
    if not np.all(tol > 0.0):
        raise ValueError(f"tol must be > 0, got {float(tol[~(tol > 0.0)][0])!r}")
    return xs, tol


def _age_free_draws(params: GmParams, n: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # the age-free part of the sampling, in place in the rows of one (2, n) buffer
    # drawn as rng.random((2, n)): row 0 the flat lifetimes -log1p(-u) / alpha, in
    # units of 1/gamma where beta > 0 (so no age divides its draws by gamma), row 1
    # log1p(-v), an Exp(1) variate up to sign whatever the age
    flat, log_v = rng.random(out=np.empty((2, n)))
    if params.alpha > 0.0:
        np.log1p(np.negative(flat, out=flat), out=flat)
        np.divide(np.negative(flat, out=flat), params.alpha, out=flat)
    else:
        flat.fill(np.inf)
    if params.beta > 0.0:
        np.multiply(flat, params.gamma_exp, out=flat)
        np.log1p(np.negative(log_v, out=log_v), out=log_v)
    return flat, log_v


def _lifetimes(flat: np.ndarray, log_v: np.ndarray, beta: float, gam: float,
               out: np.ndarray) -> np.ndarray:
    # into out, the minimum of the flat lifetimes and the inversion of the
    # pure-Gompertz(beta, gam) survival function, in the units of _age_free_draws:
    # log1p(-(gam / beta) * log1p(-v)) in units of 1/gam
    if beta > 0.0:
        np.log1p(np.multiply(-(gam / beta), log_v, out=out), out=out)
    else:
        out.fill(np.inf)
    return np.minimum(flat, out, out=out)


def _check_sampleable(params: GmParams) -> None:
    if params.alpha + params.beta <= 0.0:
        raise ValueError("need alpha + beta > 0 to sample a finite lifetime")


def _sample_lifetimes(params: GmParams, n: int, rng: np.random.Generator) -> np.ndarray:
    # n lifetimes of the basis in years, in the second row of the one buffer drawn;
    # raises where one overflows (a steep basis) or is inf * -0.0 = NaN (at v = 0)
    with np.errstate(over="ignore", invalid="ignore"):
        flat, log_v = _age_free_draws(params, n, rng)
        draws = _lifetimes(flat, log_v, params.beta, params.gamma_exp, out=log_v)
        if params.beta > 0.0:
            np.divide(draws, params.gamma_exp, out=draws)
    if not np.isfinite(draws).all():
        raise OverflowError("sampled lifetime is not finite; check the basis")
    return draws


def sample_lifetime(params: GmParams, rng: np.random.Generator) -> float:
    """One lifetime drawn from the Gompertz-Makeham law; needs alpha + beta > 0.

    Raises OverflowError where the draw is not finite, as on a steep basis."""
    _check_sampleable(params)
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
    return _first_lane(mc_remaining_life_table(params, [x], n, rng))


# on a steep basis the draws in units of 1/gamma, or their sum, may overflow: the
# first lane whose mean or standard error is not finite fails
@np.errstate(over="ignore", invalid="ignore")
def mc_remaining_life_table(
    params: GmParams, xs, n: int, rng: np.random.Generator
) -> McEstimate:
    """:func:`mc_remaining_life` at every age of a 1-D array of ages.

    One draw serves every age (common random numbers): rng advances by the
    2n uniforms of one scalar call whatever the number of ages, and lane i
    of mean and std_error is ``mc_remaining_life(params, xs[i], n, g)`` bit
    for bit, for a generator g in rng's state at entry.  The age-free part
    of the sampling runs once per table; each age then only scales, inverts
    and averages its senescent draws, in one scratch row and in units of
    1/gamma where beta > 0 (see the module docstring).  Where an aged
    basis is not representable, or an age's mean or standard error is not
    finite (the draws overflow on a steep basis), raises with a ``lane``
    attribute: the index of the first such age, at which the scalar call
    raises the same.
    """
    xs = _check_ages(xs)
    _check_sampleable(params)
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for a usable estimate, got {n}")
    flat, log_v = _age_free_draws(params, n, rng)
    # one age may overwrite log_v, so a scalar call allocates only its draw buffer
    scratch = log_v if xs.size == 1 else np.empty(n)
    mean, std_error = np.empty(xs.size), np.empty(xs.size)
    unit = params.gamma_exp if params.beta > 0.0 else 1.0  # a draw d is d / unit years
    for i, x in enumerate(xs.tolist()):
        beta = params.beta  # aged to x, the one field of the basis that changes
        if beta > 0.0:
            try:  # the aged basis' lifetimes are the remaining lifetimes at x
                beta = _finite_hazard(beta * math.exp(_gamma_x(params, x)))
            except OverflowError as exc:  # e**(gamma x) or beta is inf
                raise _at_lane(exc, i)
        draws = _lifetimes(flat, log_v, beta, params.gamma_exp, out=scratch)
        # draws.mean() and draws.std(ddof=1), with the deviations formed in place
        # and taken from units of 1/gamma to years as two scalars.  The sum of
        # squares is one einsum pass: np.dot would call a BLAS whose threads
        # change its last bits with their number and take ms to start
        centre = np.add.reduce(draws) / n
        deviations = np.subtract(draws, centre, out=scratch)
        var = np.einsum("i,i->", deviations, deviations) / (n - 1)
        mean[i], std_error[i] = centre / unit, math.sqrt(var) / math.sqrt(n) / unit
        if not (math.isfinite(mean[i]) and math.isfinite(std_error[i])):
            raise _at_lane(OverflowError("Monte-Carlo mean or standard error "
                                         "is not finite"), i)
    return McEstimate(mean=mean, std_error=std_error, n_samples=n)
