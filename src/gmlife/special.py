"""Gamma-family special functions for the life-value formulas.

The scalar functions are double precision: the complete gamma function and
its logarithm (``math.gamma`` and ``math.lgamma`` behind argument checks), the
gamma distribution function (regularized lower incomplete gamma), and the
upper incomplete gamma function for arbitrary real shape at positive
argument, including an exp-scaled variant that stays finite where the
plain product e^z * Gamma(eta, z) would overflow.

Gamma(eta, z) takes a plain Lentz continued fraction (no denominator can
vanish, see _upper_cf) for z >= max(1.1, eta + 1), at any real shape.  Below
that, shapes eta >= 1/2 take Gamma(eta) * (1 - G(z; eta, 1)) with gamma_cdf's
power series, and lower shapes one series that is smooth through the poles
of Gamma (Gautschi, ACM TOMS 5:466, 1979); for a base shape s in [-1/2, 1/2)

    Gamma(s, z) = (Gamma(1+s) - 1)/s - expm1(s ln z)/s
                  - z**s * sum_{k>=1} (-z)**k / (k! (s+k))

with 1/Gamma(1+s) from its Taylor series about 0 (at s = 0 this is E1(z)),
and a second sum in the same loop gives Gamma(s + 1, z).  Lower shapes step
down by partial integration, each step dividing by a shape of size >= 1/2.
The split: at z = 1.1 the fraction needs 74-80 iterations over shapes in
[-1/2, 0.1] (76 at -0.272) and the series 19 terms, and over shapes in
[-1/2, 1/2) the series is within 4.9e-15 of 50-digit mpmath, the fraction
1.2e-14; from z ~ 1.2 up the series' alternating sum cancels (3.8e-14 at
z = 2) and the fraction wins.

Batch twins of the series, the continued fraction and the downward steps
evaluate a table's shapes, one per rate, at a numpy array of arguments, its
ages.  They do the scalar code's arithmetic in the same order, lane by lane,
and take exp, expm1 and log from ``math`` per element (numpy's own may
differ from the C library in the last bit), so every lane is bit for bit the
scalar result.  The split of the arguments between the fraction and the
series, with ln z and e**z on the series' lanes where the numpy series reads
them, is the same at every shape up to 0.1, so the batch pair computes it
once for all of a table's shapes, one per rate.  The fraction gives each
lane its own shape, and runs once over the lanes of every rate above the
split, one rate after another: its cost is mostly numpy's fixed cost per
iteration, which the rates then share.  The series and the downward steps
run once per rate: stacked, the series was no faster and took more memory.
A batch that fails raises at some failing lane what the scalar call raises
there, with the lane's index in the caller's array; which lane and rate fail
first is for the caller to find (the CLI does, for exit 3).  The twins only
converge lanes: a lane leaves the numpy loop at the term or iteration where
the scalar loop would return.  Each twin first sorts its lanes by z, stably,
in the order they converge (the fraction's largest z first, the series'
smallest first), then updates its state in place on the window of lanes from
the first live one on: a lane that converges is recorded and marked dead,
the window's start moves past the dead prefix, and no iteration copies the
live lanes.  A twin given at most _HANDOFF_LANES lanes (below that width
numpy's fixed cost per iteration exceeds the scalar loop's per lane) runs
them all in the scalar loop, in lane order, before it sorts them or builds
any numpy state.  A twin that starts its numpy loop runs it until every lane
has converged or the budget is spent.  A lane live then is rerun from the
start in the scalar loop, in lane order, where it stalls again and raises:
every failure is raised, and worded, by the scalar code.

Accuracy: over 742 shapes in -30..30 (200 of them within 1e-15..1e-2 of a
pole) and arguments in 1e-10..1e3, within 1e-14 * (1 + |eta ln z|) relative
of 50-digit mpmath; the factor is the sensitivity to rounding in eta and z.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "ConvergenceError",
    "GAMMA_OVERFLOW_SHAPE",
    "gamma_fn",
    "ln_gamma_fn",
    "gamma_cdf",
    "upper_inc_gamma_general",
    "exp_scaled_upper_inc_gamma",
]

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
_MIN_NORMAL = sys.float_info.min
# The continued fraction serves z >= max(_CF_MIN_Z, eta + 1); see the module docstring.
_CF_MIN_Z = 1.1
# A batch twin given at most this many lanes runs them all in the scalar loop, and
# one given more runs its numpy loop to the end.  Scalar / numpy time on N equal
# lanes (2-core VM, Python 3.11, one core, best of 21 x 20 calls, 2 runs): fraction
# 0.73-0.75 at N = 32, 0.90-0.93 at 40, 1.05-1.08 at 48, 1.44-1.47 at 64; series
# 0.89-0.93 at 32, 1.09 at 40, 1.32-1.33 at 48, 1.72-1.77 at 64.  The fraction's
# iteration forms each lane's -i * (i - eta), two array operations more, so it
# breaks even nearer 44, the series nearer 36.  On a table, whose lanes converge at
# different iterations, the fraction's scalar loop wins further up (63 lanes, ages
# 90-100 step 0.5 at three rates: 0.75 ms, numpy 0.85-0.92) and the series' does not
# (61 lanes a rate: 0.54 ms, numpy 0.45-0.49).  Re-measure from src at each N, with
# W = 0 (numpy) and W = 10**6 (scalar):
#   python3 -m timeit -s "import numpy as np, gmlife.special as sp; sp._HANDOFF_LANES
#   = W; z = np.full(N, 1.1); e = np.full(N, -0.272)" "sp._upper_cf_array(e, z)"
#                                                                        (76 iterations)
#   ... z = np.full(N, 1.09); l, e = np.log(z), np.exp(z)" "sp._series_pair_array(
#   0.466, z, l, e)"                                                          (19 terms)
_HANDOFF_LANES = 40

#: Largest shape for which Gamma(eta) is representable in binary64.
GAMMA_OVERFLOW_SHAPE = 171.62437695630272


class ConvergenceError(ArithmeticError):
    """A series or continued fraction failed to converge within its budget."""


def _at_lane(exc: Exception, lane) -> Exception:
    # exc, naming a lane at which the scalar code raises exc's type and text
    exc.lane = int(lane)
    return exc


def _on_lanes(index, fn, *args):
    # fn(*args), where lane i of fn's arrays is lane index[i] of the caller's; an
    # exception with no lane comes from scalar code, a call of one lane
    try:
        return fn(*args)
    except (OverflowError, ConvergenceError, ValueError) as exc:
        raise _at_lane(exc, index[getattr(exc, "lane", 0)])


def _check_lanes(ok: np.ndarray, check, values: np.ndarray) -> None:
    # check(values[i]) at the first lane i where ok is false: a batch rejects what the
    # scalar check rejects, with its error, named at lane i
    if not ok.all():
        lane = int(ok.argmin())
        _on_lanes((lane,), check, float(values[lane]))


def _hand_off(loop, lanes: np.ndarray, shape: np.ndarray, z: np.ndarray) -> list:
    # loop(shape, z) at each lane, in lane order; what a lane raises names that lane
    return [_on_lanes((lane,), loop, shape_lane, z_lane)
            for lane, shape_lane, z_lane in zip(lanes.tolist(), shape.tolist(), z.tolist())]


class _Lanes:
    # The lanes of a batch twin in the order they converge, sorted once, stably, by
    # key.  The live ones lie in the window [lo:], whose start moves past each
    # converged prefix; a lane that converges out of order stays in it, dead, until
    # the lanes before it have converged too
    def __init__(self, key: np.ndarray) -> None:
        self.live, self.lo = key.size, 0
        self.order = np.argsort(key, kind="stable")
        self.alive = np.ones(key.size, bool)

    def converged(self, done: np.ndarray) -> np.ndarray:
        # the positions of the lanes that leave, given done over the window
        lo = self.lo
        if self.live < done.size:  # the window holds dead lanes
            done &= self.alive[lo:]
        at = np.flatnonzero(done)
        if at.size:
            at += lo
            self.alive[at] = False
            self.live -= at.size
            self.lo = lo + int(self.alive[lo:].argmax()) if self.live else done.size + lo
        return at

    def remaining(self) -> np.ndarray:
        # the lanes still live, in lane order
        return np.sort(self.order[self.alive])


def _per_element(fn, a: np.ndarray) -> np.ndarray:
    # fn from math applied lane by lane, so a batch twin matches its scalar bit for bit
    values = iter(a.tolist())
    try:
        return np.fromiter(map(fn, values), float, a.size)
    except (OverflowError, ValueError) as exc:  # map stopped at the lane that raised
        raise _at_lane(exc, a.size - 1 - len(list(values)))


def _check_shape_positive(eta: float) -> None:
    if not eta > 0.0 or math.isinf(eta):  # nan fails the comparison too
        raise ValueError(f"shape must be positive and finite, got {eta!r}")


def gamma_fn(eta: float) -> float:
    """Complete gamma function Gamma(eta) for eta > 0, from ``math.gamma``.

    Over 6,000 shapes in 1e-10..171.6 it is within 6.4e-16 relative of
    50-digit mpmath.  Raises OverflowError wherever Gamma(eta) is not
    representable: above GAMMA_OVERFLOW_SHAPE, and at shapes below ~5.6e-309,
    where Gamma(eta) ~ 1/eta.
    """
    _check_shape_positive(eta)
    if eta > GAMMA_OVERFLOW_SHAPE:
        raise OverflowError(f"gamma({eta}) exceeds the double-precision range")
    return math.gamma(eta)


def ln_gamma_fn(eta: float) -> float:
    """Natural log of the gamma function for eta > 0, from ``math.lgamma``."""
    _check_shape_positive(eta)
    return math.lgamma(eta)


def _lower_reg_series(eta: float, z: float) -> float:
    # Regularized lower incomplete gamma by power series; needs z < eta + 1.  The
    # series is scaled by eta, so it starts at 1 and Gamma(eta + 1) divides it: no
    # 1/eta to overflow and no ln Gamma(eta) ~ -ln eta to round in the exponent
    term = total = 1.0
    ap = eta
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * _REL_EPS:
            return min(1.0, total * math.exp(-z + eta * math.log(z) - ln_gamma_fn(eta + 1.0)))
    raise ConvergenceError(f"lower incomplete gamma series stalled (eta={eta}, z={z})")


def _upper_cf(eta: float, z: float) -> float:
    # Lentz's continued fraction, plain; returns H such that
    # Gamma(eta, z) = exp(-z) * z**eta * H.  Only z >= eta + 1, z > 0 reach it, at
    # any real eta, and there no denominator can vanish, so none is floored: with
    # b_i = z + 2i + 1 - eta and a_i = -i (i - eta), d_i = b_i + a_i/d_(i-1) and
    # c_i = b_i + a_i/c_(i-1) are >= i + 1, by induction.  Where a_i >= 0 both exceed
    # b_i >= 2i + 2; where a_i < 0, i > eta and the previous one is >= i, so
    # a_i/prev >= -(i - eta) and both are >= z + i + 1.  inf and NaN fail |d| < tiny
    # too.  Only b_0 can round to 0 (at eta >= 2**53, z = eta, where every a_i >= 0),
    # so the start is guarded
    b = z + 1.0 - eta
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _LENTZ_TINY
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - eta)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            return h
    raise ConvergenceError(
        f"upper incomplete gamma continued fraction stalled (eta={eta}, z={z})"
    )


def _upper_cf_array(eta: np.ndarray, z: np.ndarray) -> np.ndarray:
    # _upper_cf at every lane of (eta, z), each lane with its own shape; a lane
    # leaves at the iteration where _upper_cf returns, and one live when the budget
    # is spent stalls again in _upper_cf.  The largest z converge first.  Its
    # shapes are <= 0.1 and its z >= 1.1, so b_0 >= 2 (or inf)
    if z.size <= _HANDOFF_LANES:
        return np.array(_hand_off(_upper_cf, np.arange(z.size), eta, z))
    out = np.empty_like(z)
    lanes = _Lanes(-z)
    shape = eta[lanes.order]
    b = z[lanes.order] + 1.0 - shape
    c = np.full(z.size, 1.0 / _LENTZ_TINY)
    d = 1.0 / b
    h, an = d.copy(), np.empty_like(z)
    i = 1
    while lanes.live and i <= _MAX_ITER:
        lo = lanes.lo  # the same arithmetic as _upper_cf, in place on the window
        bw, cw, dw, hw, aw = b[lo:], c[lo:], d[lo:], h[lo:], an[lo:]
        np.subtract(i, shape[lo:], out=aw)  # -i * (i - eta), as a double times -i
        aw *= -i
        bw += 2.0
        dw *= aw
        dw += bw
        np.divide(aw, cw, out=cw)
        cw += bw
        np.divide(1.0, dw, out=dw)
        tw = np.multiply(dw, cw, out=aw)  # delta, in the place of an, now read
        hw *= tw
        tw -= 1.0
        done = lanes.converged(np.abs(tw, out=tw) < _REL_EPS)
        if done.size:
            out[lanes.order[done]] = h[done]
        i += 1
    lane = lanes.remaining()
    out[lane] = _hand_off(_upper_cf, lane, eta[lane], z[lane])
    return out


def gamma_cdf(z: float, eta: float) -> float:
    """Gamma distribution function G(z; eta, 1) for eta > 0, z >= 0.

    G(z; eta, 1) = (1/Gamma(eta)) * integral of y**(eta-1) e**-y over [0, z],
    i.e. the CDF of a unit-scale gamma random variable with shape eta.

    Near the median of a large shape a loop runs out of its 500 iterations
    and raises ConvergenceError: the series at z = eta from eta ~ 3,989 up,
    the continued fraction at z = eta + 1 from eta ~ 1.64e5 (at every shape
    from 1.78e5 up).  Life values, whose shapes are <= 0.1, never do.
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
    # with S_c = sum_{k>=1} c (-z)**k / (k! (s+k)), c = 1 or k; all smooth through s = 0.
    q = 0.0
    for c in _RGAMMA_TAYLOR:
        q = q * s + c
    rgamma = 1.0 + s * q  # 1/Gamma(1+s), and (Gamma(1+s) - 1)/s = -q/rgamma
    ln_z = math.log(z)
    y = -s * ln_z
    # expm1(y)/s is -ln_z to within y/2 where y is 0 or subnormal, and y, rounded
    # there to an absolute 2**-1074, has lost its digits
    lead_f = ((math.expm1(y) / s if abs(y) >= _MIN_NORMAL else -ln_z) - q) / rgamma
    lead_g = math.exp(y) / rgamma
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


def _series_pair_array(s: float, z: np.ndarray, ln_z: np.ndarray | None,
                       e_z: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    # _series_pair at every lane of z, given ln z and e**z there (read only past
    # _HANDOFF_LANES lanes, so None at fewer); a lane leaves at the term where
    # _series_pair returns, and one live when the budget is spent stalls again in
    # _series_pair.  The smallest z converge first
    if z.size <= _HANDOFF_LANES:
        return np.reshape(_hand_off(_series_pair, np.arange(z.size), np.full(z.size, s), z),
                          (-1, 2)).T
    lanes = _Lanes(z)
    z_sorted, ln_z = z[lanes.order], ln_z[lanes.order]  # z and e_z stay in lane order
    q = 0.0
    for c in _RGAMMA_TAYLOR:
        q = q * s + c
    rgamma = 1.0 + s * q
    y = -s * ln_z
    expm1_y_by_s = -ln_z
    normal = np.abs(y) >= _MIN_NORMAL
    expm1_y_by_s[normal] = _per_element(math.expm1, y[normal]) / s
    lead_f = (expm1_y_by_s - q) / rgamma
    lead_g = _per_element(math.exp, y) / rgamma
    tol = 0.1 * _REL_EPS * lead_g
    f, g = np.empty_like(z), np.empty_like(z)
    term, u = np.ones_like(z), np.empty_like(z)
    sum_f, sum_g = np.zeros_like(z), np.zeros_like(z)
    k = 0.0
    while lanes.live and k < _MAX_ITER:
        lo = lanes.lo  # the same arithmetic as _series_pair, in place on the window
        tw, uw, fw, gw = term[lo:], u[lo:], sum_f[lo:], sum_g[lo:]
        k += 1.0
        tw *= np.divide(z_sorted[lo:], -k, out=uw)  # -z / k, exactly
        np.divide(tw, s + k, out=uw)
        fw += uw
        uw *= k
        gw += uw
        # -tol < term < tol, as |term| < tol at any tol
        done = lanes.converged(np.abs(tw, out=uw) < tol[lo:])
        if done.size:
            lane = lanes.order[done]
            f[lane] = e_z[lane] * (lead_f[done] - sum_f[done])
            g[lane] = e_z[lane] * (lead_g[done] + sum_g[done])
    lane = lanes.remaining()
    f[lane], g[lane] = np.reshape(_hand_off(_series_pair, lane, np.full(lane.size, s), z[lane]),
                                  (-1, 2)).T
    return f, g


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


def _ratio_pair_array(etas: list, z: np.ndarray) -> list:
    # [(f, g)] = [_ratio_pair at every lane of a 1-D array z for each shape of etas],
    # all <= _CF_MIN_Z - 1; lane for lane bit-identical.  The split of z, the same at
    # every such shape, is formed once: the continued fraction runs once, over every
    # shape's lanes from _CF_MIN_Z up, and the series and the downward steps per shape
    # below it, with ln z and e**z shared where the numpy series reads them.  Where
    # some shape's pair fails, this raises, at a lane of z, what
    # exp_scaled_upper_inc_gamma raises there at that shape
    ok = (z > 0.0) & (z < math.inf)  # nan fails too
    # exp_scaled_upper_inc_gamma's argument checks first: a lane at z = 0 is on
    # neither side of the split
    for eta in etas:
        _check_lanes(ok & math.isfinite(eta), lambda v: exp_scaled_upper_inc_gamma(eta, v), z)
    cf, low = np.flatnonzero(z >= _CF_MIN_Z), np.flatnonzero(ok & (z < _CF_MIN_Z))
    z_low, ln_z, e_z = z[low], None, None
    if low.size > _HANDOFF_LANES:  # fewer lanes go to _series_pair, which forms its own
        ln_z, e_z = _per_element(math.log, z_low), _per_element(math.exp, z_low)
    pairs = []
    with np.errstate(all="ignore"):  # Python floats overflow to inf silently too
        try:  # one fraction over every shape's lanes above the split, shape-major
            h = _upper_cf_array(np.repeat(etas, cf.size), np.tile(z[cf], len(etas)))
        except ConvergenceError as exc:  # tiled lane k is lane cf[k % cf.size] of z
            raise _at_lane(exc, cf[exc.lane % cf.size])
        h = h.reshape(len(etas), cf.size)
        for eta, h_eta in zip(etas, h):
            f, g = np.empty_like(z), np.empty_like(z)
            f[cf], g[cf] = h_eta, 1.0 + eta * h_eta
            if low.size:
                n = math.ceil(-0.5 - eta)
                if n > _MAX_ITER:  # _ratio_pair raises the step budget at the first lane
                    _on_lanes(low, _ratio_pair, eta, float(z_low[0]))
                fl, gl = _on_lanes(low, _series_pair_array, eta + n, z_low, ln_z, e_z)
                for j in range(n - 1, -1, -1):  # _ratio_pair's loop, unchanged
                    fl, gl = (z_low * fl - 1.0) / (eta + j), z_low * fl
                f[low], g[low] = fl, gl
            pairs.append((f, g))
    return pairs


def _check_finite_args(eta: float, z: float) -> None:
    if not (math.isfinite(eta) and math.isfinite(z)):
        raise ValueError(f"shape and argument must be finite, got ({eta!r}, {z!r})")


def upper_inc_gamma_general(eta: float, z: float) -> float:
    """Upper incomplete gamma Gamma(eta, z) for any real shape.

    Gamma(eta, z) = integral of y**(eta-1) e**-y over [z, inf).  Requires
    z > 0 when eta <= 0 (the integral diverges at z = 0 there); z = 0 with
    eta > 0 gives the complete gamma function.  The routes are those of
    :func:`exp_scaled_upper_inc_gamma`, with e**-z folded into the power of z.
    """
    _check_finite_args(eta, z)
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
    _check_finite_args(eta, z)
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
