"""Tests for the gamma-family special functions.

Frozen reference values were computed before the build with 50-digit
arithmetic (mpmath) through the stated independent routes: composite
Gauss quadrature of the defining integrals for the gamma function and
its incomplete variants, and an exact-integer log-factorial sum for
ln_gamma.  The quadrature-equivalence checks run a small self-contained
Simpson integrator at test time; it shares no code with the library.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmlife import life_table, special
from gmlife.mortality import GmParams
from gmlife.special import (
    ConvergenceError,
    exp_scaled_upper_inc_gamma,
    gamma_cdf,
    gamma_fn,
    ln_gamma_fn,
    upper_inc_gamma_general,
)

# gamma(0.727984): 50-digit composite Gauss quadrature of
# int_0^inf y^(eta-1) e^-y dy, split at y=1, tail truncated at y=700
GAMMA_0727984 = 1.2558503633163706

# ln(99!) from the exact integer factorial, log taken at 50 digits
LN_FACTORIAL_99 = 359.1342053695754

# (eta, Gamma(eta)) and (eta, ln Gamma(eta)) from mpmath.gamma and mpmath.loggamma
# at 50 digits; ln Gamma(eta) is finite where Gamma(eta) ~ 1/eta overflows
MPMATH_GAMMA_FN = [
    (1e-300, 9.9999999999999997494e299),
    (0.727984, 1.2558503633163706246),
    (7.3, 1271.4236336639088399),
    (63.5, 2.492900600836656441e86),
    (171.6, 1.585896909667256509e308),
]
MPMATH_LN_GAMMA_FN = [(1e-310, 713.8013788281541651), (5e-324, 744.44007192138126231)]

# G(0.000012/0.101314; 0.727984, 1): 50-digit quadrature over [0, z]
SMALL_Z = 0.000012 / 0.101314
GAMMA_CDF_SMALL_Z = 0.0015152978322637408

# (eta, z, G(z; eta, 1)) by 50-digit mpmath.gammainc(regularized=True) at tiny
# shapes, where G(0.5) is 1 - eta E1(0.5) and 1/eta overflows below ~5.6e-309
MPMATH_GAMMA_CDF_TINY_SHAPES = [
    (5e-324, 0.5, 1.0),
    (1e-310, 0.5, 1.0),
    (1e-300, 0.5, 1.0),
    (1e-20, 0.5, 0.99999999999999999999440226405223839218952020662555),
    (1e-3, 1e-300, 0.50147619801088660305807154192553285780409670164937),
]

# Gamma(-0.5, 1): 50-digit quadrature of int_1^inf y^-1.5 e^-y dy
UPPER_NEG_HALF_AT_1 = 0.1781477117815607

# Gamma(eta, z) at shapes 1.1e-16 and 4.4e-16 from the poles at 0 and -2:
# 50-digit mpmath.gammainc, confirmed by quadrature of the integral
NEAR_POLE_VALUES = [
    (1.1102230246251565e-16, 0.5, 0.5597735947761608),
    (-1.9999999999999996, 0.4, 1.6080401457496543),
]

# (eta, z, Gamma(eta, z), e^z Gamma(eta, z)) at 50 digits by mpmath.gammainc,
# confirmed by mpmath quadrature of the defining integral: shapes 1e-14, 1e-12
# and 1e-8 to each side of the poles at 0, -1 and -2, the exact poles 0, -1
# and -3, and one point to each side of the series/continued-fraction split
# at z = 1.1
MPMATH_GAMMA_VALUES = [
    (-1e-14, 0.25, 1.0442826344437437, 1.3408854448314003),
    (1e-14, 0.25, 1.0442826344437328, 1.3408854448313865),
    (-1e-12, 0.25, 1.0442826344442786, 1.3408854448320873),
    (1e-12, 0.25, 1.044282634443198, 1.3408854448306995),
    (-1e-08, 0.25, 1.0442826398475273, 1.3408854517699962),
    (1e-08, 0.25, 1.044282629039949, 1.3408854378927908),
    (-1.00000000000001, 0.5, 0.6532877246491076, 1.077089367516272),
    (-0.99999999999999, 0.5, 0.6532877246491045, 1.077089367516267),
    (-1.000000000001, 0.5, 0.6532877246492639, 1.0770893675165298),
    (-0.999999999999, 0.5, 0.6532877246489482, 1.0770893675160094),
    (-1.00000001, 0.5, 0.6532877262272262, 1.0770893701181496),
    (-0.99999999, 0.5, 0.6532877230709859, 1.0770893649143893),
    (-2.00000000000001, 0.8, 0.2255059399160872, 0.5018726989014153),
    (-1.99999999999999, 0.8, 0.2255059399160875, 0.5018726989014161),
    (-2.000000000001, 0.8, 0.22550593991607212, 0.5018726989013818),
    (-1.999999999999, 0.8, 0.22550593991610257, 0.5018726989014496),
    (-2.00000001, 0.8, 0.2255059397639035, 0.5018726985627243),
    (-1.99999999, 0.8, 0.22550594006827118, 0.501872699240107),
    (0.0, 0.1, 1.8229239584193906, 2.0146425447084515),
    (-1.0, 0.6, 0.46030655696730866, 0.8387332313931579),
    (-3.0, 0.9, 0.1341732872281414, 0.33001303470049165),
    (-0.272, 1.09, 0.16520713379464036, 0.4913712946478562),
    (-0.272, 1.11, 0.15930925508382057, 0.4834013754748854),
]

# (eta, z, z^-eta e^z Gamma(eta, z), z^-eta e^z Gamma(eta + 1, z)), the pair
# form, by the same two routes: the worked basis's annuity shape to each side
# of the split, and a shape three partial-integration steps below its base
MPMATH_PAIRS = [
    (-0.272, 1.09, 0.5030252543568978, 0.8631771308149238),
    (-0.272, 1.11, 0.49731977907380903, 0.864729020091924),
    (-2.534, 0.05, 0.3826222833429264, 0.0304351340090246),
]

# e^800 * Gamma(0.727984, 800): 50-digit evaluation, independently
# confirmed by the asymptotic expansion z^(eta-1) (1 + (eta-1)/z + ...)
EXP_SCALED_AT_800 = 0.16224286783454349


def simpson_tail_integral(f, lo, rel_cutoff=1e-18, rel_tol=1e-11):
    """Plain adaptive Simpson of f over [lo, inf), truncated where the
    integrand falls below rel_cutoff relative to f(lo).  Test-local oracle;
    runs twice, using the first pass only to scale the tolerance."""
    cutoff = rel_cutoff * max(f(lo), 1e-300)
    hi = max(2.0 * lo, 1.0)
    while f(hi) >= cutoff:
        hi *= 2.0

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol or depth >= 48:
            return left + right + err
        return recurse(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, 0.5 * tol, depth + 1
        )

    def run(tol):
        m = 0.5 * (lo + hi)
        fa, fb, fm = f(lo), f(hi), f(m)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        return recurse(lo, fa, hi, fb, m, fm, whole, tol, 0)

    rough = run(1e-6 * abs(f(lo)) * max(hi - lo, 1.0) + 1e-300)
    return run(rel_tol * abs(rough) + 1e-300)


class TestGammaFn:
    def test_at_one(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13, abs=0)

    def test_at_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13, abs=0)

    def test_frozen_quadrature_value(self):
        assert gamma_fn(0.727984) == pytest.approx(GAMMA_0727984, rel=1e-13, abs=0)

    def test_factorials(self):
        for n in range(1, 20):
            assert gamma_fn(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13, abs=0)

    def test_near_overflow_edge(self):
        assert gamma_fn(171.6) == pytest.approx(math.exp(ln_gamma_fn(171.6)), rel=1e-12, abs=0)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                gamma_fn(bad)

    def test_overflow_error(self):
        # Gamma(1e-310) ~ 1e310 is not representable either
        for eta in (172.0, 1e-310):
            with pytest.raises(OverflowError):
                gamma_fn(eta)

    def test_frozen_mpmath_values(self):
        for eta, want in MPMATH_GAMMA_FN:
            assert gamma_fn(eta) == pytest.approx(want, rel=2e-15, abs=0), eta


class TestLnGammaFn:
    def test_zeros(self):
        assert ln_gamma_fn(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma_fn(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_log_factorial(self):
        assert ln_gamma_fn(100.0) == pytest.approx(LN_FACTORIAL_99, rel=1e-13, abs=0)

    def test_frozen_mpmath_values(self):
        for eta, want in MPMATH_LN_GAMMA_FN:
            assert ln_gamma_fn(eta) == pytest.approx(want, rel=2e-15, abs=0), eta

    def test_consistent_with_gamma_fn(self):
        for eta in (1e-4, 0.1, 0.5, 0.999, 1.5, 7.3, 42.0, 100.0, 160.0, 171.0):
            assert math.exp(ln_gamma_fn(eta)) == pytest.approx(gamma_fn(eta), rel=1e-12, abs=0)

    def test_domain_errors(self):
        for bad in (0.0, -3.0, math.nan):
            with pytest.raises(ValueError):
                ln_gamma_fn(bad)


class TestGammaCdf:
    def test_at_zero(self):
        for eta in (0.3, 1.0, 5.0, 120.0):
            assert gamma_cdf(0.0, eta) == 0.0

    def test_exponential_case(self):
        assert gamma_cdf(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13, abs=0)

    def test_frozen_small_argument(self):
        assert gamma_cdf(SMALL_Z, 0.727984) == pytest.approx(GAMMA_CDF_SMALL_Z, rel=1e-12, abs=0)

    def test_frozen_tiny_shapes(self):
        # the series starts at 1, so no 1/eta overflows and no CDF exceeds 1;
        # within two float64 eps
        for eta, z, want in MPMATH_GAMMA_CDF_TINY_SHAPES:
            got = gamma_cdf(z, eta)
            assert got <= 1.0
            assert got == pytest.approx(want, rel=4.5e-16, abs=0), eta

    @given(
        st.floats(min_value=1e-3, max_value=170.0),
        st.floats(min_value=0.0, max_value=250.0),
        st.floats(min_value=0.0, max_value=250.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_argument(self, eta, z1, z2):
        lo, hi = sorted((z1, z2))
        assert gamma_cdf(hi, eta) >= gamma_cdf(lo, eta) - 1e-12

    @given(
        st.floats(min_value=1e-3, max_value=170.0),
        st.floats(min_value=0.0, max_value=300.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_complement_identity(self, eta, z):
        p = gamma_cdf(z, eta)
        q = upper_inc_gamma_general(eta, z) / gamma_fn(eta)
        assert 0.0 <= p <= 1.0
        assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_stops_near_the_median_of_a_large_shape(self):
        # where the docstring says each loop runs out of its 500-iteration budget
        assert 0.5 < gamma_cdf(3988.0, 3988.0) < 0.51
        with pytest.raises(ConvergenceError, match="series stalled"):
            gamma_cdf(3990.0, 3990.0)
        assert 0.5 < gamma_cdf(10001.0, 1e4) < 0.51
        assert 0.5 < gamma_cdf(164001.0, 164000.0) < 0.51
        with pytest.raises(ConvergenceError, match="continued fraction stalled"):
            gamma_cdf(200001.0, 2e5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_cdf(-0.1, 1.0)
        with pytest.raises(ValueError):
            gamma_cdf(1.0, 0.0)
        with pytest.raises(ValueError):
            gamma_cdf(1.0, -2.0)


class TestUpperIncGamma:
    def test_shape_one_is_plain_exponential(self):
        assert upper_inc_gamma_general(1.0, 2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-13, abs=0)

    def test_zero_argument_reduces_to_complete(self):
        assert upper_inc_gamma_general(0.5, 0.0) == pytest.approx(
            math.sqrt(math.pi), rel=1e-13, abs=0)

    def test_frozen_negative_shape(self):
        assert upper_inc_gamma_general(-0.5, 1.0) == pytest.approx(
            UPPER_NEG_HALF_AT_1, rel=1e-11, abs=0
        )
        for eta, z, expected in NEAR_POLE_VALUES:
            got = upper_inc_gamma_general(eta, z)
            assert got == pytest.approx(expected, rel=1e-13, abs=0), (eta, z)

    def test_frozen_against_mpmath(self):
        for eta, z, expected, _ in MPMATH_GAMMA_VALUES:
            got = upper_inc_gamma_general(eta, z)
            assert got == pytest.approx(expected, rel=1e-13, abs=0), (eta, z)

    def test_recurrence_consistency(self):
        # |eta*G(eta,z) + z^eta e^-z - G(eta+1,z)| <= 1e-10 |G(eta+1,z)|
        rng = np.random.default_rng(20240601)
        checked = 0
        while checked < 1000:
            eta = float(rng.uniform(-5.0, 5.0))
            if abs(eta - round(eta)) < 1e-3:
                continue
            z = float(rng.uniform(1e-6, 50.0))
            g_lo = upper_inc_gamma_general(eta, z)
            g_hi = upper_inc_gamma_general(eta + 1.0, z)
            power = math.exp(eta * math.log(z) - z)
            assert abs(eta * g_lo + power - g_hi) <= 1e-10 * abs(g_hi), (eta, z)
            checked += 1

    def test_quadrature_equivalence(self):
        rng = np.random.default_rng(77)
        cases = [(rng.uniform(-3.0, 5.0), 10 ** rng.uniform(-4, math.log10(30.0)))
                 for _ in range(40)]
        cases += [(0.0, 0.5), (-1.0, 0.25), (-2.0, 2.0), (-3.0, 12.0), (4.5, 29.0)]
        for eta, z in cases:
            if eta <= 0.0 and abs(eta - round(eta)) < 1e-2 and eta != round(eta):
                continue
            ref = simpson_tail_integral(lambda y: y ** (eta - 1.0) * math.exp(-y), z)
            got = upper_inc_gamma_general(eta, z)
            assert got == pytest.approx(ref, rel=1e-9, abs=0), (eta, z)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            upper_inc_gamma_general(-0.5, 0.0)
        with pytest.raises(ValueError):
            upper_inc_gamma_general(0.0, 0.0)
        with pytest.raises(ValueError):
            upper_inc_gamma_general(1.0, -1.0)


class TestExpScaledUpperIncGamma:
    def test_cancellation_identity(self):
        assert exp_scaled_upper_inc_gamma(1.0, 5.0) == pytest.approx(1.0, rel=1e-13, abs=0)

    def test_naive_product_cross_check(self):
        naive = gamma_fn(0.727984) * (1.0 - gamma_cdf(SMALL_Z, 0.727984)) * math.exp(SMALL_Z)
        assert exp_scaled_upper_inc_gamma(0.727984, SMALL_Z) == pytest.approx(
            naive, rel=1e-11, abs=0)

    def test_finite_beyond_exp_overflow(self):
        got = exp_scaled_upper_inc_gamma(0.727984, 800.0)
        assert got == pytest.approx(EXP_SCALED_AT_800, rel=1e-12, abs=0)
        # asymptotic expansion z^(eta-1) (1 + (eta-1)/z + (eta-1)(eta-2)/z^2 + ...)
        eta, z = 0.727984, 800.0
        term, total = 1.0, 1.0
        for k in range(1, 10):
            term *= (eta - k) / z
            total += term
        assert got == pytest.approx(z ** (eta - 1.0) * total, rel=1e-12, abs=0)

    def test_frozen_against_mpmath(self):
        for eta, z, _, expected in MPMATH_GAMMA_VALUES:
            got = exp_scaled_upper_inc_gamma(eta, z)
            assert got == pytest.approx(expected, rel=1e-13, abs=0), (eta, z)

    def test_subnormal_base_shape(self):
        # -s ln z is 0 or subnormal, where expm1(-s ln z)/s is -ln z to within
        # |s ln z|/2; forming the quotient there was 55% and 2.6e-5 off.  e^z E1(z)
        # at z = 1/2 by 50-digit mpmath.gammainc
        for eta in (-5e-324, -1e-319):
            got = exp_scaled_upper_inc_gamma(eta, 0.5)
            assert got == pytest.approx(0.92291063248373046883, rel=1e-13, abs=0), eta

    def test_frozen_pairs(self):
        for eta, z, f, g in MPMATH_PAIRS:
            got = exp_scaled_upper_inc_gamma(eta, z, pair=True)
            assert got == pytest.approx((f, g), rel=1e-13, abs=0), (eta, z)

    def test_pair_matches_single_products(self):
        # z^-eta e^z (Gamma(eta, z), Gamma(eta + 1, z)) on every route: the
        # series with and without steps down, the gamma CDF and the fraction
        for eta in (-7.3, -2.0, -0.5, -0.272, 0.0, 0.3, 0.5, 2.5):
            for z in (1e-3, 0.4, 1.0, 1.2, 3.0, 40.0):
                f, g = exp_scaled_upper_inc_gamma(eta, z, pair=True)
                scale = z ** -eta
                assert f == pytest.approx(
                    scale * exp_scaled_upper_inc_gamma(eta, z), rel=1e-12, abs=0), (eta, z)
                assert g == pytest.approx(
                    scale * exp_scaled_upper_inc_gamma(eta + 1.0, z), rel=1e-12, abs=0), (eta, z)

    def test_scaling_identity(self):
        rng = np.random.default_rng(123)
        for _ in range(400):
            eta = rng.uniform(-10.0, 10.0)
            z = 10 ** rng.uniform(-6, math.log10(700.0))
            u = upper_inc_gamma_general(eta, z)
            if u <= 0.0 or not math.isfinite(u):
                continue
            s = exp_scaled_upper_inc_gamma(eta, z)
            assert s * math.exp(-z) == pytest.approx(u, rel=1e-11, abs=0), (eta, z)

    def test_step_budget_is_reported(self):
        # below the split, shapes more than _MAX_ITER steps under the series
        # raise instead of looping; above it the continued fraction serves
        with pytest.raises(ConvergenceError):
            exp_scaled_upper_inc_gamma(-600.5, 0.5)
        assert exp_scaled_upper_inc_gamma(-600.5, 2.0) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exp_scaled_upper_inc_gamma(1.0, 0.0)
        with pytest.raises(ValueError):
            exp_scaled_upper_inc_gamma(1.0, -2.0)


def test_iteration_cap_is_reported(monkeypatch):
    import gmlife.special as special_mod

    monkeypatch.setattr(special_mod, "_MAX_ITER", 2)
    for z in (40.0, 0.5):  # the continued fraction, then the lower series
        with pytest.raises(ConvergenceError):
            special_mod.gamma_cdf(z, 3.0)


FRACTION_CALLERS = {
    "gamma_cdf": lambda eta, z: gamma_cdf(z, eta),
    "upper_inc_gamma_general": upper_inc_gamma_general,
    "exp_scaled_upper_inc_gamma": exp_scaled_upper_inc_gamma,
    "exp_scaled_upper_inc_gamma_pair": lambda eta, z: exp_scaled_upper_inc_gamma(
        eta, z, pair=True),
}
# shapes from -600 up: subnormal, on both sides of the split at 1/2 and of the
# fraction's shapes up to 0.1, and about 2**53, where z + 1 - eta rounds to 0 at z = eta
DOMAIN_SHAPES = st.one_of(
    st.sampled_from([-600.0, -0.272, -5e-324, 5e-324, 1e-310, 0.1, 0.3, 0.49, 0.5,
                     2.0**53 - 1.0, 2.0**53, 2.0**53 + 2.0, 1e17, 1e300]),
    st.floats(-600.0, 1e300))
# arguments at eta + 1, just above it, and at the batch split's 1.1
DOMAIN_ARGS = {
    "eta + 1": lambda eta: eta + 1.0,
    "above": lambda eta: math.nextafter(eta + 1.0, math.inf),
    "1.1": lambda eta: 1.1,
}


def test_the_fraction_runs_only_where_no_denominator_can_vanish(monkeypatch):
    # _upper_cf floors no Lentz denominator; its comment proves none can vanish where
    # z >= eta + 1 and z > 0.  Every route in must stay there, at every call and every
    # lane: the special functions, and the batch tables at the numpy and the default
    # handoff widths
    cf, cf_array, calls = special._upper_cf, special._upper_cf_array, set()

    def checked(eta, z):
        calls.add("scalar")
        assert z >= eta + 1.0 and z > 0.0, (eta, z)
        return cf(eta, z)

    def checked_array(eta, z):
        calls.add("array")
        bad = np.flatnonzero(~((z >= eta + 1.0) & (z > 0.0)))
        assert not bad.size, (eta[bad[0]], z[bad[0]])
        return cf_array(eta, z)

    monkeypatch.setattr(special, "_upper_cf", checked)
    monkeypatch.setattr(special, "_upper_cf_array", checked_array)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(FRACTION_CALLERS)), DOMAIN_SHAPES,
           st.sampled_from(sorted(DOMAIN_ARGS)))
    @example("exp_scaled_upper_inc_gamma_pair", 0.3, "1.1")
    def sweep(name, eta, arg):
        with contextlib.suppress(ValueError, OverflowError, ConvergenceError):
            FRACTION_CALLERS[name](eta, DOMAIN_ARGS[arg](eta))

    sweep()
    bases = [(GmParams(0.001, 0.000012, 0.101314), 0.026559),
             (GmParams(0.15, 3e-4, 0.08), 0.05), (GmParams(0.03, 1e-4, 0.1), 0.5)]
    for width in (0, special._HANDOFF_LANES):
        monkeypatch.setattr(special, "_HANDOFF_LANES", width)
        for params, delta in bases:
            for rate in (0.0, delta, 2.0 * delta):
                life_table(params, rate, np.arange(0.0, 130.0, 0.25))
    assert calls == {"scalar", "array"}
