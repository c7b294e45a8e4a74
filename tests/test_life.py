"""Tests for the closed-form life values.

Frozen references were computed before the build by 50-digit quadrature
of the defining integrals (annuity, remaining-life and commutation
integrals) at the worked basis alpha=0.001, beta=0.000012,
gamma=0.101314, delta=0.026559.  Grid comparisons against the package's
own Gauss-Legendre oracle live in test_acceptance; here the quadrature
cross-checks are pointwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlife import oracle
from gmlife.life import (
    ageing_factor,
    annuity,
    commutation_d,
    commutation_m,
    commutation_n,
    commutation_row,
    e0,
    positive_shape_check,
    remaining_life,
)
from gmlife.mortality import GmParams, survival
from gmlife.special import gamma_cdf, gamma_fn

BASIS = GmParams(alpha=0.001, beta=0.000012, gamma_exp=0.101314)
DELTA = 0.026559

# 50-digit quadrature of the defining integrals at BASIS
E0_BASIS = 80.08308960339007             # int_0^inf l(t) dt
E0_PURE_GOMPERTZ = 83.5519135863348      # same with alpha = 0
ANNUITY_40 = 24.81504022132592           # discounted at DELTA, age 40
REMAINING_65 = 20.842263621579175        # undiscounted, age 65
ANNUITY_110 = 1.0554145721685677         # discounted, age 110
D_50 = 0.24743586791810057               # l(50) e^(-50 delta), 50-digit product
N_30 = 11.993771067459337                # int_30^inf D(y) dy
M_30 = 0.1178879008334845                # int_30^inf mu(y) D(y) dy
ROW_40 = {"d": 0.32986976735393126, "n": 8.185731544687228, "m": 0.11246492325858318}
ROW_40_DOUBLE = {"d": 0.11401590226124948, "n": 1.8570078885679784,
                 "m": 0.01537535723629561}

# the shape 1 - (alpha+delta)/gamma at BASIS/DELTA is quoted to six figures
SHAPE_SIX_FIGURES = 0.727984

# 50-digit mpmath values, by two routes that agree to 25 digits or more:
# z**s * e**z * Gamma(-s, z) / gamma with mpmath.gammainc, and quadrature of
# e**-u (1 + u/z)**-s / (gamma (z + u)) over [0, inf), where s = (alpha+delta)/gamma
# and z = beta*e^(gamma*x)/gamma.  NEGATIVE_SHAPE_BASIS has shape 1 - s = -1.5;
# the next two bases have shapes a few ulps from the poles at -2 and 0, since
# s rounds to 2.9999999999999996 and 0.9999999999999999.  The rest are cases
# that used to come back silently wrong (parent error in brackets): shapes
# 1e-14 and 1e-12 to each side of the pole at 0 (2.2e-2 .. 2.8e-5), alpha +
# delta of 1e-10 and 1e-14 (1.0e-7, 4.4e-4), remaining life just below z = 1
# (1.2e-13, 3.0e-13), M with alpha << delta (5.8e-11; its reference is
# D * (1 - delta * a_bar) at 50 digits), and remaining life at a subnormal
# shape, alpha = 1e-322 (3.0e-4).
NEGATIVE_SHAPE_BASIS = GmParams(alpha=0.15, beta=0.0003, gamma_exp=0.08)
M_CANCELLING_BASIS = GmParams(alpha=0.0, beta=4.76191907872402e-08,
                              gamma_exp=0.03900903825799581)
SUBNORMAL_ALPHA_BASIS = GmParams(alpha=1e-322, beta=0.000012, gamma_exp=0.101314)
MPMATH_VALUES = [
    (annuity, (BASIS, DELTA, 110.0), ANNUITY_110),
    (annuity, (BASIS, DELTA, 200.0), 1.3206542537255526e-04),
    (annuity, (BASIS, DELTA, 300.0), 5.2575742146073167e-09),
    (annuity, (BASIS, DELTA, 500.0), 8.3322671171232089e-18),
    (annuity, (BASIS, DELTA, 1000.0), 8.3312010373311254e-40),
    (remaining_life, (BASIS, 200.0), 1.3206588859084694e-04),
    (remaining_life, (BASIS, 300.0), 5.2575742153414629e-09),
    (remaining_life, (BASIS, 500.0), 8.3322671171232089e-18),
    (remaining_life, (BASIS, 1000.0), 8.3312010373311254e-40),
    (annuity, (NEGATIVE_SHAPE_BASIS, 0.05, 200.0), 3.7507785475777879e-04),
    (annuity, (GmParams(0.3, 1e-4, 0.1), 0.0, 60.0), 2.8180845616379973),
    (annuity, (GmParams(0.01, 1e-5, 0.1), 0.09, 40.0), 9.745355750744418),
    (annuity, (GmParams(0.1 * (1 - 1e-14), 1e-4, 0.1), 0.0, 40.0), 8.625106734624492),
    (annuity, (GmParams(0.1 * (1 + 1e-14), 1e-4, 0.1), 0.0, 40.0), 8.625106734624358),
    (annuity, (GmParams(0.1 * (1 - 1e-12), 1e-4, 0.1), 0.0, 40.0), 8.625106734631041),
    (annuity, (GmParams(0.1 * (1 + 1e-12), 1e-4, 0.1), 0.0, 40.0), 8.625106734617809),
    (annuity, (GmParams(1e-10, BASIS.beta, BASIS.gamma_exp), 0.0, 40.0), 43.90624655956913),
    (annuity, (GmParams(1e-14, BASIS.beta, BASIS.gamma_exp), 0.0, 40.0), 43.90624666299805),
    (remaining_life, (BASIS, 85.0), 7.73088957768453),
    (remaining_life, (BASIS, 89.0), 5.956210371391469),
    (commutation_m, (M_CANCELLING_BASIS, 0.09476044875527334, 14.37), 3.833447736136324e-07),
    (remaining_life, (SUBNORMAL_ALPHA_BASIS, 40.0), 43.906246663008395787),
]


class TestE0:
    def test_exponential_lifetime(self):
        assert e0(GmParams(0.02, 0.0, 0.1)) == pytest.approx(50.0, rel=1e-14, abs=0)

    def test_frozen_value(self):
        assert e0(BASIS) == pytest.approx(E0_BASIS, rel=1e-11, abs=0)

    def test_pure_gompertz_limit(self):
        p = GmParams(0.0, 0.000012, 0.101314)
        assert e0(p) == pytest.approx(E0_PURE_GOMPERTZ, rel=1e-11, abs=0)

    def test_infinite_lifetime_rejected(self):
        with pytest.raises(ValueError):
            e0(GmParams(0.0, 0.0, 0.1))


class TestRemainingLife:
    def test_age_zero_matches_e0_bitwise(self):
        assert remaining_life(BASIS, 0.0) == e0(BASIS)

    def test_memoryless_exponential(self):
        p = GmParams(0.025, 0.0, 0.1)
        for x in (0.0, 10.0, 77.0):
            assert remaining_life(p, x) == pytest.approx(40.0, rel=1e-14, abs=0)

    def test_frozen_value(self):
        assert remaining_life(BASIS, 65.0) == pytest.approx(REMAINING_65, rel=1e-11, abs=0)

    def test_strictly_decreasing_in_age(self):
        vals = [remaining_life(BASIS, x) for x in np.linspace(0.0, 105.0, 36)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_overflow_at_absurd_age(self):
        with pytest.raises(OverflowError):
            remaining_life(BASIS, 10000.0)


class TestAnnuity:
    def test_perpetuity(self):
        assert annuity(GmParams(0.0, 0.0, 0.1), 0.04, 0.0) == pytest.approx(
            25.0, rel=1e-14, abs=0)

    def test_exponential_with_interest(self):
        assert annuity(GmParams(0.01, 0.0, 0.1), 0.03, 12.0) == pytest.approx(
            25.0, rel=1e-14, abs=0)

    def test_frozen_value(self):
        assert annuity(BASIS, DELTA, 40.0) == pytest.approx(ANNUITY_40, rel=1e-11, abs=0)

    def test_zero_rate_is_remaining_life_bitwise(self):
        for x in (0.0, 17.5, 65.0, 101.0):
            assert annuity(BASIS, 0.0, x) == remaining_life(BASIS, x)

    def test_undiscounted_perpetuity_rejected(self):
        with pytest.raises(ValueError):
            annuity(GmParams(0.0, 0.0, 0.1), 0.0, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            annuity(BASIS, -0.01, 0.0)

    def test_strictly_decreasing_in_rate(self):
        vals = [annuity(BASIS, d, 30.0) for d in np.linspace(0.0, 0.09, 19)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(st.floats(min_value=1e-4, max_value=0.05),
           st.floats(min_value=1e-4, max_value=0.08))
    @settings(max_examples=100, deadline=None)
    def test_shift_identity(self, alpha, delta):
        # discounting is a flat-hazard shift: a_bar at rate delta equals
        # the undiscounted value with alpha replaced by alpha + delta
        p = GmParams(alpha, 0.000012, 0.101314)
        shifted = GmParams(alpha + delta, 0.000012, 0.101314)
        assert annuity(p, delta, 0.0) == pytest.approx(e0(shifted), rel=1e-12, abs=0)

    def test_bitwise_equal_to_shifted_e0(self):
        # discount and age shifts land on the exact same code path
        for x in (0.0, 25.0, 65.0, 101.5):
            shifted = GmParams(
                BASIS.alpha + DELTA,
                BASIS.beta * math.exp(BASIS.gamma_exp * x),
                BASIS.gamma_exp,
            )
            assert annuity(BASIS, DELTA, x) == e0(shifted)

    def test_closed_formula_route(self):
        # independent evaluation through gamma_fn and gamma_cdf (valid while
        # the shape stays positive and e^z is representable)
        for x in (0.0, 20.0, 40.0, 70.0):
            a = BASIS.alpha + DELTA
            gam = BASIS.gamma_exp
            z = BASIS.beta * math.exp(gam * x) / gam
            shape = 1.0 - a / gam
            bracket = gamma_fn(shape) * (1.0 - gamma_cdf(z, shape))
            direct = (1.0 - z ** (a / gam) * math.exp(z) * bracket) / a
            assert annuity(BASIS, DELTA, x) == pytest.approx(direct, rel=1e-11, abs=0)


class TestAgeingFactor:
    def test_no_senescence_means_no_ageing(self):
        assert ageing_factor(GmParams(0.01, 0.0, 0.1), 0.02, 50.0) == 0.0

    def test_relation_to_annuity(self):
        a = BASIS.alpha + DELTA
        for x in (0.0, 33.0, 80.0, 150.0, 200.0, 300.0, 500.0, 1000.0):
            f = ageing_factor(BASIS, DELTA, x)
            # 1 - f is exact but inherits f's rounding near 1, about 1e-16
            assert a * annuity(BASIS, DELTA, x) == pytest.approx(
                1.0 - f, rel=1e-12, abs=1e-15)

    def test_approaches_one_at_extreme_age(self):
        f = ageing_factor(BASIS, DELTA, 150.0)
        assert 0.99 < f <= 1.0

    def test_in_unit_interval(self):
        for x in (0.0, 40.0, 90.0, 150.0, 200.0, 300.0):
            assert 0.0 <= ageing_factor(BASIS, DELTA, x) < 1.0
        # from about age 446 on, 1 - factor is below half an ulp of 1
        for x in (500.0, 1000.0):
            assert ageing_factor(BASIS, DELTA, x) == 1.0

    def test_quadrature_rearrangement(self):
        a = BASIS.alpha + DELTA
        q = oracle.integrate_survival(BASIS, DELTA, 0.0, tol=1e-10)
        assert ageing_factor(BASIS, DELTA, 0.0) == pytest.approx(
            1.0 - a * q.value, rel=1e-9, abs=0
        )

    def test_undefined_without_hazard_or_interest(self):
        with pytest.raises(ValueError):
            ageing_factor(GmParams(0.0, 1e-5, 0.1), 0.0, 10.0)


class TestCommutationD:
    def test_at_zero(self):
        assert commutation_d(BASIS, DELTA, 0.0) == 1.0

    def test_zero_rate_is_survival(self):
        for x in (0.0, 41.0, 88.0):
            assert commutation_d(BASIS, 0.0, x) == survival(BASIS, x)

    def test_product_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            alpha = rng.uniform(0.0, 0.05)
            beta = 10 ** rng.uniform(-7, -3)
            gam = rng.uniform(0.05, 0.15)
            delta = rng.uniform(0.0, 0.08)
            x = rng.uniform(0.0, 100.0)
            p = GmParams(alpha, beta, gam)
            assert commutation_d(p, delta, x) == pytest.approx(
                survival(p, x) * math.exp(-delta * x), rel=1e-13, abs=0
            )

    def test_frozen_value(self):
        assert commutation_d(BASIS, DELTA, 50.0) == pytest.approx(D_50, rel=1e-13, abs=0)


class TestCommutationNM:
    def test_n_perpetuity(self):
        p = GmParams(0.0, 0.0, 0.1)
        assert commutation_n(p, 0.05, 10.0) == pytest.approx(
            math.exp(-0.5) / 0.05, rel=1e-13, abs=0
        )

    def test_n_exponential_no_interest(self):
        p = GmParams(0.02, 0.0, 0.1)
        assert commutation_n(p, 0.0, 30.0) == pytest.approx(
            math.exp(-0.6) / 0.02, rel=1e-13, abs=0
        )

    def test_n_frozen_value(self):
        assert commutation_n(BASIS, DELTA, 30.0) == pytest.approx(N_30, rel=1e-11, abs=0)

    def test_n_strictly_decreasing_in_age(self):
        vals = [commutation_n(BASIS, DELTA, x) for x in np.linspace(0.0, 105.0, 22)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_m_equals_d_when_undiscounted(self):
        for x in (0.0, 25.0, 70.0):
            assert commutation_m(BASIS, 0.0, x) == survival(BASIS, x)

    def test_m_exponential_closed_form(self):
        p = GmParams(0.015, 0.0, 0.1)
        delta = 0.035
        for x in (0.0, 20.0, 60.0):
            expected = 0.015 / 0.05 * math.exp(-0.05 * x)
            assert commutation_m(p, delta, x) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_m_frozen_value(self):
        assert commutation_m(BASIS, DELTA, 30.0) == pytest.approx(M_30, rel=1e-11, abs=0)

    def test_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            alpha = rng.uniform(0.0, 0.05)
            beta = 10 ** rng.uniform(-7, -3)
            gam = rng.uniform(0.05, 0.15)
            delta = rng.uniform(1e-4, 0.08)
            x = rng.uniform(0.0, 100.0)
            p = GmParams(alpha, beta, gam)
            d = commutation_d(p, delta, x)
            if d < 1e-250:
                # harsh corner where D(x) underflows; ratios are meaningless
                continue
            n = commutation_n(p, delta, x)
            m = commutation_m(p, delta, x)
            assert n / d == pytest.approx(annuity(p, delta, x), rel=1e-12, abs=0)
            assert m == pytest.approx(d - delta * n, rel=1e-12, abs=0)
            assert d > 0.0 and n > 0.0 and m > 0.0 and d <= 1.0


class TestCommutationRow:
    def test_double_rate_collapses_at_zero_interest(self):
        single = commutation_row(BASIS, 0.0, 40.0)
        double = commutation_row(BASIS, 0.0, 40.0, double_rate=True)
        assert single == double

    def test_row_identity(self):
        for flag, rate in ((False, DELTA), (True, 2.0 * DELTA)):
            row = commutation_row(BASIS, DELTA, 40.0, double_rate=flag)
            assert row.m_val == pytest.approx(row.d_val - rate * row.n_val, rel=1e-12, abs=0)

    def test_frozen_values(self):
        row = commutation_row(BASIS, DELTA, 40.0)
        assert row.d_val == pytest.approx(ROW_40["d"], rel=1e-12, abs=0)
        assert row.n_val == pytest.approx(ROW_40["n"], rel=1e-11, abs=0)
        assert row.m_val == pytest.approx(ROW_40["m"], rel=1e-10, abs=0)
        double = commutation_row(BASIS, DELTA, 40.0, double_rate=True)
        assert double.d_val == pytest.approx(ROW_40_DOUBLE["d"], rel=1e-12, abs=0)
        assert double.n_val == pytest.approx(ROW_40_DOUBLE["n"], rel=1e-11, abs=0)
        assert double.m_val == pytest.approx(ROW_40_DOUBLE["m"], rel=1e-10, abs=0)


class TestPositiveShapeCheck:
    def test_six_figure_value(self):
        assert positive_shape_check(BASIS, DELTA) == pytest.approx(
            SHAPE_SIX_FIGURES, abs=5e-7
        )

    def test_trivial_cases(self):
        assert positive_shape_check(GmParams(0.0, 1e-5, 0.1), 0.0) == 1.0
        assert positive_shape_check(GmParams(0.04, 1e-5, 0.1), 0.06) == 0.0

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            positive_shape_check(GmParams(0.01, 0.0, 0.0), 0.0)


class TestShapeRegimes:
    def test_zero_shape_boundary(self):
        # alpha + delta = gamma: the series at shape 0, where it is E1(z)
        p = GmParams(0.04, 1e-5, 0.1)
        delta = 0.06
        assert positive_shape_check(p, delta) == 0.0
        q = oracle.integrate_survival(p, delta, 0.0, tol=1e-12)
        assert annuity(p, delta, 0.0) == pytest.approx(q.value, rel=1e-9, abs=0)

    def test_negative_shape_regime(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            gam = rng.uniform(0.05, 0.15)
            total = rng.uniform(gam, 3.0 * gam)
            alpha = rng.uniform(0.0, total)
            delta = total - alpha
            p = GmParams(alpha, 10 ** rng.uniform(-7, -3), gam)
            x = rng.uniform(0.0, 80.0)
            assert positive_shape_check(p, delta) < 0.0
            closed = annuity(p, delta, x)
            q = oracle.integrate_survival(p, delta, x, tol=1e-11 * closed)
            assert closed == pytest.approx(q.value, rel=1e-7, abs=0)

    def test_high_age_stability(self):
        # push beta e^{gamma x}/gamma up to ~700, past where e^z overflows
        x = math.log(700.0 * BASIS.gamma_exp / BASIS.beta) / BASIS.gamma_exp
        closed = annuity(BASIS, DELTA, x)
        assert math.isfinite(closed) and closed > 0.0
        q = oracle.integrate_survival(BASIS, DELTA, x, tol=1e-12 * closed)
        assert closed == pytest.approx(q.value, rel=1e-6, abs=0)

    def test_frozen_high_age(self):
        # ages where z = beta*e^(gamma*x)/gamma runs from 8 up to 1.2e40, shapes
        # next to a pole, vanishing alpha + delta, ages just below z = 1 and a
        # cancelling M (see MPMATH_VALUES)
        for fn, args, expected in MPMATH_VALUES:
            assert fn(*args) == pytest.approx(expected, rel=1e-13, abs=0), (fn.__name__, args)
