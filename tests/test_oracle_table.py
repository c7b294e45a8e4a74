"""Lane equality of the table oracles with their scalar calls.

``integrate_survival_table`` and ``integrate_m_table`` run one lane per
age through the one quadrature engine, of which the scalar calls are
one-lane runs; ``mc_remaining_life_table`` gives every age the one draw
of a scalar call.  These tests pin that a lane's result does not depend on
the lanes beside it: value, error estimate and evaluation count bit for
bit, on the benchmark's verify grid and over a deterministic sweep of
bases and tolerances, and that each Monte-Carlo lane is a scalar call from
the generator's state at entry, which the table advances as one call does.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmlife.oracle as oracle_mod
from gmlife.life import annuity, commutation_d, commutation_m, commutation_row, life_table
from gmlife.mortality import GmParams, mortality_rate, mortality_rates
from gmlife.oracle import (
    integrate_m,
    integrate_m_table,
    integrate_survival,
    integrate_survival_table,
    mc_remaining_life,
    mc_remaining_life_table,
)
from gmlife.special import ConvergenceError

BASIS = GmParams(alpha=0.001, beta=0.000012, gamma_exp=0.101314)
DELTA = 0.026559
VERIFY_XS = 0.13 + np.arange(110.0)  # the benchmark's verify grid
PAIRS = ((integrate_survival_table, integrate_survival), (integrate_m_table, integrate_m))


def assert_lanes_match_scalar(table_fn, scalar_fn, params, delta, xs, tols):
    lanes = []
    for x, tol in zip(xs.tolist(), tols.tolist()):
        try:
            one = scalar_fn(params, delta, x, tol=tol)
        except ConvergenceError:  # e.g. an integrand that does not decay
            # a lane that raises must make the table raise, naming an age at
            # which the scalar call raises the same type and text
            with pytest.raises(ConvergenceError) as exc:
                table_fn(params, delta, xs, tol=tols)
            lane = exc.value.lane
            with pytest.raises(ConvergenceError) as at_lane:
                scalar_fn(params, delta, xs.tolist()[lane], tol=tols.tolist()[lane])
            assert str(at_lane.value) == str(exc.value)
            return None
        lanes.append((one.value, one.abs_error_estimate, one.evaluations))
    table = table_fn(params, delta, xs, tol=tols)
    # == on floats is bit equality here: no lane is nan
    assert list(zip(table.value.tolist(), table.abs_error_estimate.tolist(),
                    table.evaluations.tolist())) == lanes, (table_fn.__name__, params, delta)
    return table


def reference_gauss_legendre(f, tol):
    # the one-row engine the lanes replaced, kept as the reference: f maps a
    # float or an array of t to the integrand of one age
    nodes, weights = np.polynomial.legendre.leggauss(15)
    cutoff = 1e-16 * f(0.0)
    upper, evaluations = 1.0, 3
    while f(upper) > cutoff:
        upper *= 2.0
        evaluations += 1
    while f(0.5 * upper) < cutoff:
        upper *= 0.5
        evaluations += 1
    previous, panels = math.inf, 1
    while True:
        half = 0.5 * upper / panels
        centres = half * (2.0 * np.arange(panels) + 1.0)
        t = (centres[:, None] + half * nodes).ravel()
        value = half * float(np.sum(f(t).reshape(panels, -1) @ weights))
        evaluations += t.size
        if abs(value - previous) <= tol:
            return value, abs(value - previous), evaluations
        previous, panels = value, 2 * panels


def reference_quadratures(p, delta, x, tol_a, tol_m):
    # (value, abs_err, evaluations) of the annuity and M integrals, for beta > 0
    a, gam = p.alpha + delta, p.gamma_exp
    bg = p.beta * math.exp(gam * x) / gam
    ln_bx = math.log(p.beta) + gam * x

    def ln_ratio(t):
        return -a * t - bg * np.expm1(gam * t)

    survival = reference_gauss_legendre(lambda t: np.exp(ln_ratio(t)), tol_a)
    d_x = float(np.exp(-a * x - (p.beta * 1.0 / gam) * np.expm1(gam * x)))
    if d_x == 0.0:  # M = D(x) times the integral is 0, and no quadrature runs
        return survival, (0.0, 0.0, 0)
    m = reference_gauss_legendre(
        lambda t: p.alpha * np.exp(ln_ratio(t)) + np.exp(ln_ratio(t) + gam * t + ln_bx),
        tol_m / d_x)
    return survival, (d_x * m[0], d_x * m[1], m[2])


def test_lanes_match_the_one_row_engine():
    # the verify grid at the tolerances --verify uses there, 1e-9 of the closed
    # form, and rate 1e6, where the tail bracket halves
    tol_a = 1e-9 * np.array([annuity(BASIS, DELTA, x) for x in VERIFY_XS.tolist()])
    tol_m = 1e-9 * np.array([commutation_m(BASIS, DELTA, x) for x in VERIFY_XS.tolist()])
    fast_xs = np.array([0.0, 1e-6, 1e-5, 50.0])
    cases = [(DELTA, VERIFY_XS, tol_a, tol_m),
             (1e6, fast_xs, np.full(4, 1e-15), np.full(4, 1e-18))]
    for delta, xs, tol_a, tol_m in cases:
        tables = (integrate_survival_table(BASIS, delta, xs, tol=tol_a),
                  integrate_m_table(BASIS, delta, xs, tol=tol_m))
        for i, x in enumerate(xs.tolist()):
            want = reference_quadratures(BASIS, delta, x, tol_a[i], tol_m[i])
            for table, lane in zip(tables, want):
                got = (table.value[i], table.abs_error_estimate[i], table.evaluations[i])
                assert got == lane, (delta, x)


def test_verify_grid_lanes_match_scalar():
    # at the tolerances --verify uses there, 1e-9 of the closed form
    for (table_fn, scalar_fn), closed, total in zip(PAIRS, (annuity, commutation_m),
                                                    (16_724, 19_246)):
        tols = 1e-9 * np.array([closed(BASIS, DELTA, x) for x in VERIFY_XS.tolist()])
        table = assert_lanes_match_scalar(table_fn, scalar_fn, BASIS, DELTA, VERIFY_XS, tols)
        # the evaluation count of the per-row quadrature this engine replaced
        assert table.evaluations.sum() == total
        # no ages give empty lanes, as life_table does
        empty = assert_lanes_match_scalar(table_fn, scalar_fn, BASIS, DELTA,
                                          np.empty(0), np.empty(0))
        assert empty.evaluations.dtype == table.evaluations.dtype
        assert empty.value.shape == empty.abs_error_estimate.shape == (0,)


def test_blocks_do_not_change_lanes(monkeypatch):
    # blocks of 7 ages, and a handful of integrand values per numpy call: many
    # chunks per level, then one lane each
    monkeypatch.setattr(oracle_mod, "_BLOCK_LANES", 7)
    monkeypatch.setattr(oracle_mod, "_CHUNK_NODES", 100)
    tols = 1e-9 * np.array([commutation_m(BASIS, DELTA, x) for x in VERIFY_XS.tolist()])
    assert_lanes_match_scalar(integrate_m_table, integrate_m, BASIS, DELTA, VERIFY_XS, tols)


@st.composite
def grids(draw):
    regime = draw(st.sampled_from(("plain", "no_beta", "no_alpha", "fast", "tiny_beta",
                                   "no_decay")))
    if regime == "tiny_beta":  # deaths near t = 691, where e**(gamma t) overflows
        params, delta = GmParams(0.0, 1e-300, 1.0), 0.0
    elif regime == "no_decay":  # below age ~6.2e15 the integrand outlives t = 1e15
        params, delta = GmParams(0.0, 1e-300, 1e-13), 0.0
    else:
        gam = draw(st.floats(0.02, 0.2))
        alpha = 0.0 if regime == "no_alpha" else 10.0 ** draw(st.floats(-4.0, -1.0))
        beta = 0.0 if regime == "no_beta" else 10.0 ** draw(st.floats(-7.0, -3.0))
        params = GmParams(alpha, beta, gam)
        # rate 1e6: the integrand is spent long before t = 1, so the bracket halves
        delta = 1e6 if regime == "fast" else draw(st.sampled_from((0.0, 0.01, 0.05)))
    n = draw(st.integers(1, 12))
    x_lo, x_hi = (5e15, 7e15) if regime == "no_decay" else (0.0, 300.0)
    xs = np.array(draw(st.lists(st.floats(x_lo, x_hi), min_size=n, max_size=n)))
    # relative tolerances 1e-11..1e-3, so lanes converge at different levels
    rel = 10.0 ** np.array(draw(st.lists(st.floats(-11.0, -3.0), min_size=n, max_size=n)))
    return params, delta, xs, rel


@settings(max_examples=120, deadline=None, derandomize=True)
@given(grids())
def test_sweep_lanes_match_scalar(case):
    params, delta, xs, rel = case
    # scales of the two integrals with no gamma function, which fails at rate 1e6:
    # the annuity is at most 1/(mu(x) + delta), and M(x) at most D(x)
    mu = np.array([mortality_rate(params, x) for x in xs.tolist()])
    d = np.array([commutation_d(params, delta, x) for x in xs.tolist()])
    for (table_fn, scalar_fn), scale in zip(PAIRS, (np.minimum(1.0 / (mu + delta), 1e3), d)):
        assert_lanes_match_scalar(table_fn, scalar_fn, params, delta, xs, rel * scale + 1e-300)


def test_one_failing_lane_fails_the_table(monkeypatch):
    # on the worked basis a lane at 1e-9 of M takes 235 evaluations, and the lane
    # at age 10 with an absolute tolerance of 1e-300 takes 475: over a budget of
    # 300.  The blocks after the failing lane's block are not run
    monkeypatch.setattr(oracle_mod, "_EVAL_BUDGET", 300)
    monkeypatch.setattr(oracle_mod, "_BLOCK_LANES", 3)
    real, blocks = oracle_mod._gauss_legendre_block, []
    monkeypatch.setattr(oracle_mod, "_gauss_legendre_block",
                        lambda f, tol: blocks.append(tol.size) or real(f, tol))
    xs = np.array([2.0, 3.0, 10.0, 20.0, 30.0, 40.0, 50.0])
    tols = 1e-9 * np.array([commutation_m(BASIS, DELTA, x) for x in xs.tolist()])
    tols[2] = 1e-300
    for x, tol in zip(xs.tolist(), tols.tolist()):
        if x != 10.0:
            integrate_m(BASIS, DELTA, x, tol=tol)
    with pytest.raises(ConvergenceError, match="budget of 300 exhausted"):
        integrate_m(BASIS, DELTA, 10.0, tol=1e-300)
    blocks.clear()
    with pytest.raises(ConvergenceError, match="budget of 300 exhausted") as exc:
        integrate_m_table(BASIS, DELTA, xs, tol=tols)
    assert blocks == [3]
    assert exc.value.lane == 2


def test_tolerances_below_rounding_noise_are_floored():
    # on this basis the sums keep a rounding noise far above an absolute
    # tolerance of 1e-300, which they could never meet; floored at 4 ulps of
    # the sum, every lane converges (without the floor, 236 of 264 ages spent
    # the budget of 1,000,000 evaluations)
    params = GmParams(0.0, 1e-300, 1.0)
    xs = np.arange(0.0, 141.0, 20.0)
    tols = np.full(xs.size, 1e-300)
    for table_fn, scalar_fn in PAIRS:
        table = assert_lanes_match_scalar(table_fn, scalar_fn, params, 0.0, xs, tols)
        assert table is not None and table.evaluations.max() < 200_000
    assert integrate_m_table(params, 0.0, xs, tol=tols).value == pytest.approx(1.0)


def test_m_lanes_where_d_underflows_run_no_quadrature(monkeypatch):
    # D(x) is 0 from about age 140 on the worked basis, and so is M(x) = D(x)
    # times the integral: such lanes are 0, with 0 evaluations, whatever the
    # tolerance, and only the other lanes reach the engine
    real, lanes = oracle_mod._gauss_legendre, []
    monkeypatch.setattr(oracle_mod, "_gauss_legendre",
                        lambda f, tol: lanes.append(tol.size) or real(f, tol))
    xs = np.array([40.0, 200.0, 6990.0, 7000.0, 8000.0, 60.0])
    table = integrate_m_table(BASIS, DELTA, xs, tol=1e-300)
    assert lanes == [2]
    dead = [1, 2, 3, 4]
    assert table.value[dead].tolist() == table.abs_error_estimate[dead].tolist() == [0.0] * 4
    assert table.evaluations[dead].tolist() == [0] * 4
    for x in (40.0, 60.0):
        assert table.value[xs == x] == integrate_m(BASIS, DELTA, x, tol=1e-300).value
    assert integrate_m(BASIS, DELTA, 7000.0, tol=1e-300) == oracle_mod.QuadratureResult(
        value=0.0, abs_error_estimate=0.0, evaluations=0)


def test_one_lane_over_a_small_budget_fails_the_table(monkeypatch):
    # one age a block, so the failing lane is lane 0 of the second block
    monkeypatch.setattr(oracle_mod, "_EVAL_BUDGET", 100)
    monkeypatch.setattr(oracle_mod, "_BLOCK_LANES", 1)
    xs = np.array([10.0, 40.0, 70.0])
    loose = np.full(3, 1e-2)
    for table_fn, _ in PAIRS:
        table_fn(BASIS, DELTA, xs, tol=loose)
        with pytest.raises(ConvergenceError, match="budget of 100 exhausted") as exc:
            table_fn(BASIS, DELTA, xs, tol=np.array([1e-2, 1e-12, 1e-2]))
        assert exc.value.lane == 1


def test_an_integrand_that_is_not_finite_fails_its_lane():
    # beta e**(gamma x) / gamma underflows to 0 at age 0, not at 40, and 0 times
    # the overflowed expm1(gamma t) is NaN from t = 71 on, inside the bracket: the
    # lane fails at its first level, not at the evaluation budget
    params = GmParams(0.01, 5e-324, 10.0)
    for table_fn, scalar_fn in PAIRS:
        with pytest.raises(ConvergenceError, match="integrand is not finite") as exc:
            table_fn(params, 0.0, [40.0, 0.0])
        assert exc.value.lane == 1
        with pytest.raises(ConvergenceError, match="integrand is not finite"):
            scalar_fn(params, 0.0, 0.0)
    # with gamma 1e308 the bracket's tests past t = 1 form -inf + inf, which warns
    # of nothing; this lane's levels are finite, and it fails on its budget
    with pytest.raises(ConvergenceError, match="budget"):
        integrate_m(GmParams(0.0, 1e-3, 1e308), 0.0, 0.0)


def test_the_quadrature_fails_where_beta_e_gamma_x_overflows():
    # beta e**(gamma x) / gamma overflows at age 30 of (0, 1e300, 1), where the
    # survival integrand would start from exp(-inf * 0) = NaN, and at (0, 1e308,
    # 1e306) and age 1e-306, where D > 0, so M integrates that lane: each raises
    # what annuity raises, named at its age
    text = r"beta \* e\*\*\(gamma_exp \* x\) is too large"
    for (table_fn, scalar_fn), params, xs in (
            (PAIRS[0], GmParams(0.0, 1e300, 1.0), [1.0, 30.0, 31.0]),
            (PAIRS[1], GmParams(0.0, 1e308, 1e306), [5.0, 1e-306])):
        with pytest.raises(OverflowError, match=text) as exc:
            table_fn(params, 0.0, xs)
        assert exc.value.lane == 1
        for fn in (annuity, scalar_fn):
            with pytest.raises(OverflowError, match=text):
                fn(params, 0.0, xs[1])


def test_mc_fails_where_the_draws_overflow():
    # in units of 1/gamma the draws, or their sum, overflow on a steep basis: at
    # (110, 0.1, 1e308) e_0 is 7.1e-306, and at beta 5e-324 gamma / beta is inf at
    # age 0 but not at 40.  The table fails at the first such lane, as its scalar
    # call does
    text = "Monte-Carlo mean or standard error is not finite"
    for params, xs, lane in ((GmParams(110.0, 0.1, 1e308), [0.0], 0),
                             (GmParams(0.0, 5e-324, 1.0), [40.0, 0.0, 40.0], 1)):
        with pytest.raises(OverflowError, match=text) as exc:
            mc_remaining_life_table(params, xs, 20_000, np.random.default_rng(0))
        assert exc.value.lane == lane
        with pytest.raises(OverflowError, match=text):
            mc_remaining_life(params, xs[lane], 20_000, np.random.default_rng(0))
        assert math.isfinite(mc_remaining_life_table(
            params, xs[:lane], 20_000, np.random.default_rng(0)).mean.sum())


# each batch entry point as a call on its ages, beside its scalar call on one age
BATCH_AND_SCALAR = [
    (lambda xs: life_table(BASIS, DELTA, xs), lambda x: commutation_row(BASIS, DELTA, x)),
    (lambda xs: mortality_rates(BASIS, xs), lambda x: mortality_rate(BASIS, x)),
    (lambda xs: integrate_survival_table(BASIS, DELTA, xs),
     lambda x: integrate_survival(BASIS, DELTA, x)),
    (lambda xs: integrate_m_table(BASIS, DELTA, xs), lambda x: integrate_m(BASIS, DELTA, x)),
    (lambda xs: mc_remaining_life_table(BASIS, xs, 1000, np.random.default_rng(0)),
     lambda x: mc_remaining_life(BASIS, x, 1000, np.random.default_rng(0))),
]


def test_table_rejects_what_the_scalar_call_rejects():
    # a bad age fails at its lane, the first bad one, with the scalar call's error
    for table, scalar in BATCH_AND_SCALAR:
        for bad in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError) as exc:
                table([0.0, 1.0, bad, -2.0])
            with pytest.raises(ValueError) as want:
                scalar(bad)
            assert str(exc.value) == str(want.value)
            assert str(exc.value) == f"age must be finite and >= 0, got {bad!r}"
            assert exc.value.lane == 2
        with pytest.raises(ValueError, match="1-D"):
            table([[0.0, 1.0]])
    for table_fn, scalar_fn in PAIRS:
        # so does a per-age tolerance that is not > 0
        with pytest.raises(ValueError) as exc:
            table_fn(BASIS, DELTA, [0.0, 1.0, 2.0], tol=np.array([1e-9, 1e-9, 0.0]))
        with pytest.raises(ValueError) as want:
            scalar_fn(BASIS, DELTA, 2.0, tol=0.0)
        assert str(exc.value) == str(want.value) == "tol must be > 0, got 0.0"
        assert exc.value.lane == 2
        with pytest.raises(ValueError):
            table_fn(GmParams(0.0, 0.0, 0.1), 0.0, [0.0])
        with pytest.raises(ValueError):
            table_fn(BASIS, -DELTA, [0.0])
    for params, xs in ((BASIS, [0.0, -1.0]), (GmParams(0.0, 0.0, 0.1), [0.0])):
        with pytest.raises(ValueError):
            mc_remaining_life_table(params, xs, 1000, np.random.default_rng(0))
    # an aged basis that is not representable fails at its lane, with the scalar
    # call's error: e**(gamma x) overflows at age 8000, and beta e**(gamma x) at
    # 7000 when beta is 1e10
    xs = [40.0, 7000.0, 8000.0]
    for params, lane, text in ((BASIS, 2, "math range error"),
                               (GmParams(0.001, 1e10, 0.101314), 1,
                                r"beta \* e\*\*\(gamma_exp \* x\) is too large")):
        with pytest.raises((OverflowError, ValueError), match=text) as exc:
            mc_remaining_life_table(params, xs, 1000, np.random.default_rng(0))
        assert exc.value.lane == lane
        with pytest.raises(type(exc.value), match=text):
            mc_remaining_life(params, xs[lane], 1000, np.random.default_rng(0))


def reference_mc(p, x, n, rng):
    # the allocating sampler the in-place one replaced, kept as the reference
    beta = p.beta * math.exp(p.gamma_exp * x)
    u = rng.random((2, n))
    t_flat = -np.log1p(-u[0]) / p.alpha if p.alpha > 0.0 else np.full(n, np.inf)
    if beta > 0.0:
        t_sen = np.log1p(-(p.gamma_exp / beta) * np.log1p(-u[1])) / p.gamma_exp
    else:
        t_sen = np.full(n, np.inf)
    draws = np.minimum(t_flat, t_sen)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("params", [BASIS, GmParams(0.0, 5e-5, 0.08), GmParams(0.02, 0.0, 0.1)],
                         ids=["makeham", "no_alpha", "no_beta"])
def test_mc_table_lanes_are_scalar_calls_from_one_draw(params):
    # every age gets the draw of one scalar call from the generator's state at
    # entry, and the table advances the generator as that one call does.  The
    # sampler works in units of 1/gamma and sums squares in another order than
    # the textbook reference, so it matches that one to a few ulps, not bit for bit
    xs = np.array([0.0, 40.0, 40.0, 65.5, 110.0])
    rng = np.random.default_rng(77)
    table = mc_remaining_life_table(params, xs, 5_000, rng)
    for i, x in enumerate(xs.tolist()):
        est = mc_remaining_life(params, x, 5_000, np.random.default_rng(77))
        lane = (table.mean[i], table.std_error[i])
        assert lane == (est.mean, est.std_error), x
        assert lane == pytest.approx(reference_mc(params, x, 5_000, np.random.default_rng(77)),
                                     rel=1e-14, abs=0), x
    assert table.n_samples == 5_000
    one_call = np.random.default_rng(77)
    mc_remaining_life(params, 0.0, 5_000, one_call)
    assert rng.bit_generator.state == one_call.bit_generator.state


def test_mc_allocates_only_its_draw_buffer():
    # one (2, n) buffer of float64, drawn and transformed in place
    n = 20_000
    rng = np.random.default_rng(3)
    mc_remaining_life(BASIS, 40.0, n, rng)  # first call: imports and caches
    tracemalloc.start()
    try:
        mc_remaining_life(BASIS, 40.0, n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * 8 + 64 * 1024


def test_mc_table_memory_does_not_grow_with_the_ages():
    # the draw buffer and one scratch row, however many ages
    n = 20_000
    rng = np.random.default_rng(3)
    mc_remaining_life_table(BASIS, VERIFY_XS, n, rng)  # first call: imports and caches
    tracemalloc.start()
    try:
        mc_remaining_life_table(BASIS, VERIFY_XS, n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * 8 + 64 * 1024
