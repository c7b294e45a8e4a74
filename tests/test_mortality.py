"""Tests for the Gompertz-Makeham law.

The frozen survival and hazard values were evaluated from the defining
formulas in 50-digit arithmetic before the build.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlife.mortality import GmParams, cdf, mortality_rate, survival

# l(65) at alpha=0.001, beta=0.000012, gamma=0.101314 (50-digit formula)
SURVIVAL_65 = 0.8601161650140349
# mu(80) at the same basis (50-digit formula)
HAZARD_80 = 0.04073654808246019
# F(x) = 1 - l(x) at small ages, where the subtraction cancels (50-digit formula)
CDF_SMALL_AGES = {1e-8: 1.0120000000009582e-11, 1e-6: 1.012000000095812e-09,
                  1e-3: 1.012000095832087e-06}

BASIS = GmParams(alpha=0.001, beta=0.000012, gamma_exp=0.101314)

params_st = st.builds(
    GmParams,
    st.floats(min_value=0.0, max_value=0.05),
    st.floats(min_value=1e-7, max_value=1e-3),
    st.floats(min_value=0.05, max_value=0.15),
)


class TestGmParams:
    def test_rejects_negative_alpha_or_beta(self):
        with pytest.raises(ValueError):
            GmParams(-0.001, 0.0, 0.1)
        with pytest.raises(ValueError):
            GmParams(0.0, -1e-6, 0.1)

    def test_rejects_nonpositive_gamma_with_senescence(self):
        with pytest.raises(ValueError):
            GmParams(0.001, 1e-5, 0.0)
        with pytest.raises(ValueError):
            GmParams(0.001, 1e-5, -0.1)

    def test_gamma_inert_without_senescence(self):
        GmParams(0.01, 0.0, 0.0)
        GmParams(0.01, 0.0, -3.0)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                GmParams(bad, 0.0, 0.1)
            with pytest.raises(ValueError):
                GmParams(0.0, bad, 0.1)

    def test_rejects_an_infinite_senescent_scale(self):
        # beta / gamma_exp scales the senescent exponent: where it overflows, l(x)
        # would be NaN at gamma x = 0 and 0 just above.  A scale that underflows to
        # 0 is accepted: the exponent it drops is below 5e-16 wherever
        # e**(gamma x) is finite
        with pytest.raises(ValueError, match="beta / gamma_exp must be finite"):
            GmParams(0.0, 1e-3, 5e-324)
        GmParams(0.0, 5e-324, 1e308)

    def test_zero_hazard_is_constructible(self):
        GmParams(0.0, 0.0, 0.1)

    def test_frozen(self):
        p = GmParams(0.1, 0.2, 0.3)
        with pytest.raises(Exception):
            p.alpha = 0.5


class TestSurvival:
    def test_starts_at_one(self):
        assert survival(BASIS, 0.0) == 1.0
        assert survival(GmParams(0.0, 0.0, 0.1), 0.0) == 1.0

    def test_exponential_case(self):
        p = GmParams(0.001, 0.0, 7.7)  # gamma value irrelevant here
        assert survival(p, 100.0) == pytest.approx(math.exp(-0.1), rel=1e-15, abs=0)

    def test_frozen_value(self):
        assert survival(BASIS, 65.0) == pytest.approx(SURVIVAL_65, rel=1e-13, abs=0)

    def test_rejects_negative_or_nonfinite_age(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                survival(BASIS, bad)

    @given(params_st, st.floats(min_value=0.0, max_value=110.0))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, p, x):
        val = survival(p, x)
        assert 0.0 <= val <= 1.0
        # positive whenever the exponent stays above the underflow floor
        exponent = -p.alpha * x - (p.beta / p.gamma_exp) * math.expm1(p.gamma_exp * x)
        if exponent > -700.0:
            assert val > 0.0

    def test_strictly_decreasing(self):
        ages = [0.0, 1.0, 10.0, 40.0, 65.0, 90.0, 110.0]
        vals = [survival(BASIS, x) for x in ages]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMortalityRate:
    def test_flat_hazard(self):
        assert mortality_rate(GmParams(0.001, 0.0, 0.1), 50.0) == 0.001

    def test_at_zero_is_alpha_plus_beta(self):
        assert mortality_rate(BASIS, 0.0) == pytest.approx(0.001 + 0.000012, rel=1e-15, abs=0)

    def test_frozen_value(self):
        assert mortality_rate(BASIS, 80.0) == pytest.approx(HAZARD_80, rel=1e-13, abs=0)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            mortality_rate(BASIS, 10000.0)

    @given(params_st, st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing(self, p, x, dx):
        assert mortality_rate(p, x + dx) >= mortality_rate(p, x)


class TestCdf:
    def test_at_zero(self):
        assert cdf(BASIS, 0.0) == 0.0

    def test_exponential_case(self):
        p = GmParams(0.02, 0.0, 0.1)
        assert cdf(p, 30.0) == pytest.approx(1.0 - math.exp(-0.6), rel=1e-14, abs=0)

    def test_frozen_small_ages(self):
        for x, want in CDF_SMALL_AGES.items():
            assert cdf(BASIS, x) == pytest.approx(want, rel=1e-14, abs=0.0), x

    @given(params_st, st.floats(min_value=0.0, max_value=110.0))
    @settings(max_examples=200, deadline=None)
    def test_complements_survival(self, p, x):
        assert cdf(p, x) + survival(p, x) == pytest.approx(1.0, abs=1e-15)


class TestLawIdentities:
    def test_log_survival_derivative_is_hazard(self):
        # -d/dx log l(x) = mu(x), central difference at h = 1e-5.  The
        # difference quotient carries ~eps/(2h) = 1e-11 of absolute rounding
        # noise, so hazards below ~1e-4 cannot be resolved to 1e-6 relative
        # at this step and are left off the grid.
        h = 1e-5
        for alpha in (0.0, 0.001, 0.02):
            for beta in (1e-6, 1e-5, 5e-4):
                for gam in (0.05, 0.1, 0.15):
                    p = GmParams(alpha, beta, gam)
                    for x in (h, 1.0, 30.0, 65.0, 95.0):
                        mu = mortality_rate(p, x)
                        if mu < 1e-4 or survival(p, x + h) == 0.0:
                            continue
                        fd = -(
                            math.log(survival(p, x + h)) - math.log(survival(p, x - h))
                        ) / (2.0 * h)
                        assert fd == pytest.approx(mu, rel=1e-6, abs=0)

    def test_survival_factorizes(self):
        # l = (flat-hazard survival) * (pure-senescent survival)
        p = GmParams(0.004, 2e-5, 0.09)
        flat = GmParams(p.alpha, 0.0, p.gamma_exp)
        senescent = GmParams(0.0, p.beta, p.gamma_exp)
        for x in (0.5, 10.0, 55.0, 100.0):
            assert survival(p, x) == pytest.approx(
                survival(flat, x) * survival(senescent, x), rel=1e-12, abs=0
            )

    def test_age_shift_identity(self):
        # l(x+t)/l(x) equals survival at the basis (alpha, beta e^{gamma x}, gamma)
        p = BASIS
        for x in (0.0, 20.0, 65.0):
            shifted = GmParams(
                p.alpha, p.beta * math.exp(p.gamma_exp * x), p.gamma_exp
            )
            for t in (0.1, 5.0, 25.0, 60.0):
                assert survival(p, x + t) / survival(p, x) == pytest.approx(
                    survival(shifted, t), rel=1e-12, abs=0
                )
