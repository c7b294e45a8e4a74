"""Tests for the quadrature and Monte-Carlo oracles.

The quadrature routines are themselves checked against cases with
elementary closed forms (pure exponential decay) and against a frozen
50-digit reference at the worked basis; the sampler is checked by
Kolmogorov-Smirnov distance to the closed-form lifetime distribution.
"""

import math

import numpy as np
import pytest

from gmlife.life import annuity, commutation_m, remaining_life
from gmlife.mortality import GmParams, cdf
from gmlife.oracle import (
    McEstimate,
    QuadratureResult,
    integrate_m,
    integrate_survival,
    mc_remaining_life,
    sample_lifetime,
)

BASIS = GmParams(alpha=0.001, beta=0.000012, gamma_exp=0.101314)
DELTA = 0.026559

# 50-digit quadrature references (see test_life for the full set)
E0_BASIS = 80.08308960339007
M_30 = 0.1178879008334845

# 50-digit mpmath values at DELTA, at ages where 5-point-seeded adaptive
# Simpson converges falsely on the M integral (Lyness, J. ACM 16:483, 1969)
# at the tolerance --verify uses, 1e-9 of the value
A_BAR_MPMATH = {
    11.13: 31.007650583754813,
    27.13: 28.134399331522012,
    75.13: 10.78292507759037,
}
M_MPMATH = {
    11.13: 0.1298213730707899,
    27.13: 0.11947487154343335,
    75.13: 0.07084484761878981,
}

# asymptotic 1% two-sided Kolmogorov-Smirnov critical factor
KS_CRIT_1PCT = 1.6276


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(samples)
    order = np.argsort(samples)
    c = cdf_values[order]
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - c), np.max(c - (i - 1) / n)))


def _np_cdf(p: GmParams, t: np.ndarray) -> np.ndarray:
    # vectorized twin of mortality.cdf (agreement with the scalar version
    # is covered by spot checks below)
    if p.beta == 0.0:
        return 1.0 - np.exp(-p.alpha * t)
    return 1.0 - np.exp(
        -p.alpha * t - (p.beta / p.gamma_exp) * np.expm1(p.gamma_exp * t)
    )


class TestIntegrateSurvival:
    def test_exponential_case(self):
        p = GmParams(0.01, 0.0, 0.1)
        res = integrate_survival(p, 0.03, 0.0, tol=1e-10)
        assert isinstance(res, QuadratureResult)
        assert res.value == pytest.approx(25.0, abs=1e-8)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations >= 1

    def test_large_rate_dominates(self):
        # at rate 1e6 the integrand has decayed long before t = 1
        for rate in (10.0, 1e6):
            res = integrate_survival(BASIS, rate, 0.0, tol=1e-12)
            limit = 1.0 / (BASIS.alpha + rate)
            assert res.value <= limit
            assert res.value == pytest.approx(limit, rel=1e-4, abs=0), rate

    def test_frozen_reference(self):
        res = integrate_survival(BASIS, 0.0, 0.0, tol=1e-10)
        assert abs(res.value - E0_BASIS) <= 10.0 * 1e-10
        for x, ref in A_BAR_MPMATH.items():
            res = integrate_survival(BASIS, DELTA, x, tol=1e-9 * ref)
            assert res.value == pytest.approx(ref, rel=1e-9, abs=0), x

    def test_tolerance_halving_self_consistency(self):
        for tol in (1e-8, 1e-10):
            a = integrate_survival(BASIS, DELTA, 30.0, tol=tol)
            b = integrate_survival(BASIS, DELTA, 30.0, tol=0.5 * tol)
            assert abs(a.value - b.value) < max(a.abs_error_estimate, 1e-15)

    def test_rejects_degenerate_basis(self):
        with pytest.raises(ValueError):
            integrate_survival(GmParams(0.0, 0.0, 0.1), 0.0, 0.0, tol=1e-8)
        with pytest.raises(ValueError):
            integrate_survival(BASIS, DELTA, 0.0, tol=0.0)

    def test_budget_exhaustion_is_reported(self, monkeypatch):
        import gmlife.oracle as oracle_mod
        from gmlife.special import ConvergenceError

        monkeypatch.setattr(oracle_mod, "_EVAL_BUDGET", 10)
        with pytest.raises(ConvergenceError):
            integrate_survival(BASIS, DELTA, 0.0, tol=1e-12)


class TestIntegrateM:
    def test_undiscounted_total_death_probability(self):
        # with delta = 0, the integral of mu*D over (x, inf) is just l(x)
        from gmlife.mortality import survival

        # the last basis has mu(0) = 1e-20, far below the later peak of mu*l
        cases = [(BASIS, 0.0), (BASIS, 30.0), (BASIS, 70.0),
                 (GmParams(0.0, 1e-20, 0.1), 0.0)]
        for p, x in cases:
            res = integrate_m(p, 0.0, x, tol=1e-10)
            assert res.value == pytest.approx(survival(p, x), rel=1e-8, abs=0), (p, x)

    def test_no_nan_where_hazard_overflows_and_survival_underflows(self):
        # beta = 1e-300 puts the deaths near t = 691, just below where
        # e**(gamma t) overflows; past it, inf * 0 once gave nan and an
        # exhausted budget.  Undiscounted, everyone alive at 0 dies: M(0) = 1.
        p = GmParams(0.0, 1e-300, 1.0)
        res = integrate_m(p, 0.0, 0.0)
        assert res.value == pytest.approx(1.0, rel=1e-9, abs=0)
        # the survival integrand's expm1(gamma t) overflows in the same tail
        res = integrate_survival(p, 0.0, 0.0)
        assert res.value == pytest.approx(remaining_life(p, 0.0), rel=1e-9, abs=0)

    def test_exponential_closed_form(self):
        p = GmParams(0.02, 0.0, 0.1)
        delta = 0.03
        for x in (0.0, 25.0):
            res = integrate_m(p, delta, x, tol=1e-11)
            expected = 0.02 / 0.05 * math.exp(-0.05 * x)
            assert res.value == pytest.approx(expected, rel=1e-8, abs=0)

    def test_frozen_reference(self):
        res = integrate_m(BASIS, DELTA, 30.0, tol=1e-11)
        assert res.value == pytest.approx(M_30, rel=1e-8, abs=0)
        for x, ref in M_MPMATH.items():
            res = integrate_m(BASIS, DELTA, x, tol=1e-9 * ref)
            assert res.value == pytest.approx(ref, rel=1e-9, abs=0), x

    def test_keeps_relative_accuracy_at_tiny_scale(self):
        # D(100) is ~1e-7 here; the normalized form must still resolve it
        p = GmParams(0.05, 1e-5, 0.1)
        res = integrate_m(p, 0.08, 100.0, tol=1e-10 * 1e-6)
        assert res.value > 0.0
        d = math.exp(-0.13 * 100.0 - 1e-4 * math.expm1(10.0))
        assert res.value < d  # M(x) <= D(x)


class TestEvaluationCounts:
    def test_work_on_worked_grid(self):
        # a deterministic gate on quadrature work, at the tolerance the CLI's
        # --verify uses, over the grid of its benchmark workload
        for i in range(110):
            x = 0.13 + i
            for integrate, closed in ((integrate_survival, annuity),
                                      (integrate_m, commutation_m)):
                tol = 1e-9 * closed(BASIS, DELTA, x)
                res = integrate(BASIS, DELTA, x, tol=tol)
                assert res.evaluations <= 300, (integrate.__name__, x)


class TestSampleLifetime:
    def test_scalar_and_nonnegative(self):
        rng = np.random.default_rng(3)
        draws = [sample_lifetime(BASIS, rng) for _ in range(50)]
        assert all(isinstance(d, float) and d >= 0.0 for d in draws)

    def test_needs_positive_hazard(self):
        with pytest.raises(ValueError):
            sample_lifetime(GmParams(0.0, 0.0, 0.1), np.random.default_rng(0))

    def test_inversion_boundary_gives_zero_lifetime(self):
        # a unit uniform at the boundary (survival probability 1) must map
        # to lifetime 0 for both competing risks
        from gmlife.oracle import _sample_lifetimes

        class Boundary:  # fills the sampler's buffer, as Generator.random(out=...) does
            def random(self, out):
                out.fill(0.0)
                return out

        draws = _sample_lifetimes(GmParams(0.001, 1e-5, 0.1), 3, Boundary())
        assert np.all(draws == 0.0)
        # with gamma / beta = inf the Gompertz draw at v = 0 is inf * -0.0 = NaN
        with pytest.raises(OverflowError, match="^sampled lifetime is not finite"):
            _sample_lifetimes(GmParams(0.001, 1e-300, 1e10), 3, Boundary())

    def test_raises_where_the_draw_overflows(self):
        # the flat draw times gamma and gamma / beta overflow, where e_0 = 7.1e-8;
        # the warnings are errors here, so none may escape either
        with pytest.raises(OverflowError, match="^sampled lifetime is not finite"):
            sample_lifetime(GmParams(1e-300, 1e-300, 1e10), np.random.default_rng(0))

    def test_exponential_component_alone(self):
        p = GmParams(0.02, 0.0, 0.1)
        est = mc_remaining_life(p, 0.0, 200_000, np.random.default_rng(11))
        assert abs(est.mean - 50.0) <= 4.0 * est.std_error

    def test_ks_against_closed_form_cdf(self):
        from gmlife.oracle import _sample_lifetimes

        n = 1_000_000
        draws = _sample_lifetimes(BASIS, n, np.random.default_rng(2024))
        cdf_vals = _np_cdf(BASIS, draws)
        assert ks_statistic(draws, cdf_vals) < KS_CRIT_1PCT / math.sqrt(n)


class TestMcRemainingLife:
    def test_exponential_mean(self):
        p = GmParams(0.02, 0.0, 0.1)
        est = mc_remaining_life(p, 50.0, 100_000, np.random.default_rng(8))
        assert abs(est.mean - 50.0) <= 4.0 * est.std_error

    def test_age_zero_estimates_e0(self):
        est = mc_remaining_life(BASIS, 0.0, 200_000, np.random.default_rng(9))
        assert abs(est.mean - remaining_life(BASIS, 0.0)) <= 4.0 * est.std_error

    def test_deterministic_given_seed(self):
        a = mc_remaining_life(BASIS, 40.0, 10_000, np.random.default_rng(123))
        b = mc_remaining_life(BASIS, 40.0, 10_000, np.random.default_rng(123))
        assert a == b

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            mc_remaining_life(BASIS, 0.0, 999, np.random.default_rng(0))

    def test_fields(self):
        est = mc_remaining_life(BASIS, 65.0, 5_000, np.random.default_rng(4))
        assert isinstance(est, McEstimate)
        assert est.std_error >= 0.0
        assert est.n_samples == 5_000

    def test_age_shift_sampling_validity(self):
        # shifted samples must follow the conditional lifetime law l(x+t)/l(x)
        from gmlife.oracle import _sample_lifetimes

        n = 200_000
        cases = [
            (GmParams(0.001, 0.000012, 0.101314), 40.0),
            (GmParams(0.0, 5e-5, 0.08), 65.0),
            (GmParams(0.01, 1e-6, 0.13), 20.0),
        ]
        for i, (p, x) in enumerate(cases):
            shifted = GmParams(
                p.alpha, p.beta * math.exp(p.gamma_exp * x), p.gamma_exp
            )
            draws = _sample_lifetimes(shifted, n, np.random.default_rng(100 + i))
            cdf_vals = _np_cdf(shifted, draws)
            # spot check the vectorized cdf against the scalar one
            for t in draws[:5]:
                assert cdf(shifted, float(t)) == pytest.approx(
                    float(_np_cdf(shifted, np.array([t]))[0]), rel=1e-13, abs=0
                )
            assert ks_statistic(draws, cdf_vals) < KS_CRIT_1PCT / math.sqrt(n)
