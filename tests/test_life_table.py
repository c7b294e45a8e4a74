"""Bit equality of the batch table engine with the scalar API.

``life.life_table``, ``mortality.mortality_rates`` and the batch twins in
``special`` are a second implementation of the scalar arithmetic, kept
bit for bit equal to it, lane by lane.  These tests are what keeps the two
from drifting apart: every column on the benchmark grid, then a
deterministic sweep over the hard regions (near-pole shapes, many downward
steps, no senescence or no flat hazard, z up to 1e250, grids across the
series/continued-fraction split at z = 1.1).  A twin given at most
``_HANDOFF_LANES`` lanes runs them in the scalar loop, so the sweeps check
every example at three widths: the pure numpy loop, the default, and the
pure scalar loop.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from gmlife import life, special
from gmlife.life import life_table, remaining_life
from gmlife.mortality import GmParams, mortality_rate, mortality_rates, survival
from gmlife.special import ConvergenceError, _ratio_pair, _ratio_pair_array

BASIS = GmParams(alpha=0.001, beta=0.000012, gamma_exp=0.101314)
DELTA = 0.026559
COLUMNS = ("D", "N", "M", "a_bar", "ageing_factor")
# the twins' entry width: no lanes go straight to the scalar loop, at most the
# default, or all; a sweep runs each example at every width, since drawing it costs more
WIDTHS = (0, special._HANDOFF_LANES, 10**6)


def assert_bits_equal(batch, scalar, what):
    b, s = np.asarray(batch, dtype=float), np.asarray(scalar, dtype=float)
    assert b.shape == s.shape, what
    bad = np.flatnonzero(b.view(np.int64) != s.view(np.int64))
    assert not bad.size, (f"{what}: {bad.size} lanes differ, first at {bad[0]}: "
                          f"{b[bad[0]]!r} != {s[bad[0]]!r}")


def assert_raises_the_same(exc, scalar, *args):
    # the lane contract: the scalar call at the age exc.lane names raises exc's
    # type and text
    with pytest.raises(type(exc)) as at_lane:
        scalar(*args)
    assert type(at_lane.value) is type(exc) and str(at_lane.value) == str(exc)


def assert_table_matches_scalar(params, rate, xs):
    # where the scalar calls all return, so must the batch, bit for bit
    try:
        table = life_table(params, rate, xs)
    except (OverflowError, ConvergenceError, ValueError) as exc:
        assert_raises_the_same(exc, life._commutation, params, rate, xs.tolist()[exc.lane])
    else:
        # _commutation is what commutation_row, annuity and ageing_factor read
        rows = np.array([life._commutation(params, rate, x) for x in xs.tolist()])
        for j, name in enumerate(COLUMNS):
            assert_bits_equal(table[name], rows[:, j], f"{name} at {params}, rate {rate}")
    try:
        mu = mortality_rates(params, xs)
    except OverflowError as exc:
        assert_raises_the_same(exc, mortality_rate, params, xs.tolist()[exc.lane])
    else:
        assert_bits_equal(mu, [mortality_rate(params, x) for x in xs.tolist()],
                          f"mu at {params}")


def test_benchmark_grid_every_column():
    # the table workload's 11,001 ages, the same reversed (the twins take their
    # lanes in z order, so each lane's place in the loop changes), and the verify
    # workload's 110 (0.13 to 109.13), whose 19 lanes above the split go to the
    # scalar loop at once
    grid = 0.0 + np.arange(11_001) * 0.01
    for xs in (grid, grid[::-1], 0.13 + np.arange(110) * 1.0):
        for rate in (0.0, DELTA, 2.0 * DELTA):
            assert_table_matches_scalar(BASIS, rate, xs)
        undiscounted = life_table(BASIS, 0.0, xs)
        assert_bits_equal(undiscounted["D"], [survival(BASIS, x) for x in xs.tolist()], "l")
        assert_bits_equal(undiscounted["a_bar"],
                          [remaining_life(BASIS, x) for x in xs.tolist()], "e_x")
    for rate in (0.0, DELTA, 2.0 * DELTA):
        forward, reversed_ = life_table(BASIS, rate, grid), life_table(BASIS, rate, grid[::-1])
        for name in COLUMNS:
            assert_bits_equal(reversed_[name], forward[name][::-1],
                              f"{name} reversed at rate {rate}")


def _x_at(z, params):
    # the age where beta e**(gamma x) / gamma reaches z, or 0 below age 0
    return max(0.0, math.log(z * params.gamma_exp / params.beta) / params.gamma_exp)


@st.composite
def tables(draw):
    gam = draw(st.floats(0.02, 1.0))
    regime = draw(st.sampled_from(("pole", "deep", "steep", "no_alpha", "no_beta", "plain")))
    if regime == "pole":  # shape -(alpha + rate)/gamma within 1e-15..1e-8 of 0, -1, -2
        k = draw(st.sampled_from((0, 1, 2)))
        eps = 10.0 ** draw(st.floats(-15.0, -8.0))
        a = gam * (k + (eps if k == 0 else draw(st.sampled_from((-1, 1))) * eps))
    elif regime == "deep":  # up to 15 downward steps from the series
        a = gam * draw(st.floats(2.0, 15.0))
    elif regime == "steep":  # 400 to 2,000 steps: over the budget of 500 in part
        a = gam * draw(st.floats(400.0, 2000.0))
    else:
        a = 10.0 ** draw(st.floats(-4.0, -0.5))
    if regime == "no_alpha":  # pure Gompertz, discounted or not (shape -0.0)
        alpha, rate = 0.0, draw(st.sampled_from((0.0, a)))
    else:  # a = alpha + rate, split three ways
        rate = a * draw(st.sampled_from((0.0, 0.5, 1.0)))
        alpha = a - rate
    beta = 0.0 if regime == "no_beta" else 10.0 ** draw(st.floats(-8.0, -2.0))
    params = GmParams(alpha, beta, gam)
    n = draw(st.integers(2, 40))
    if beta == 0.0:
        xs = np.linspace(0.0, draw(st.floats(0.0, 500.0)), n)
        return params, rate, xs
    # the grid's z runs from z_lo up to z_hi, across z = 1.1 or up to 1e250, or its
    # ages run on past 709.78 / gamma, where e**(gamma x) overflows
    span = draw(st.sampled_from(("across_split", "high", "low", "overflow")))
    if span == "across_split":
        z_lo, z_hi = 1.1 * 10.0 ** draw(st.floats(-3.0, -0.01)), 1.1 * 10.0 ** draw(
            st.floats(0.01, 2.0))
    elif span == "high":
        z_lo, z_hi = 10.0 ** draw(st.floats(0.0, 100.0)), 10.0 ** draw(st.floats(200.0, 250.0))
    else:
        z_lo, z_hi = 10.0 ** draw(st.floats(-8.0, -3.0)), 10.0 ** draw(st.floats(-3.0, 0.0))
    x_hi = draw(st.floats(700.0, 720.0)) / gam if span == "overflow" else _x_at(z_hi, params)
    xs = np.linspace(_x_at(z_lo, params), x_hi, n)
    return params, rate, xs


# 200 ages from z = 1.1 to 50: the fraction's numpy loop runs all 76 iterations
MID_LOOP = (BASIS, DELTA, np.linspace(_x_at(1.1, BASIS), _x_at(50.0, BASIS), 200))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables())
@example(MID_LOOP)
def test_sweep_matches_scalar(case):
    params, rate, xs = case
    with pytest.MonkeyPatch.context() as mp:
        for width in WIDTHS:
            note(f"handoff width {width}")
            mp.setattr(special, "_HANDOFF_LANES", width)
            assert_table_matches_scalar(params, rate, xs)


def _table_or_error(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ConvergenceError, ValueError) as exc:
        return exc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables())
@example(MID_LOOP)
# the verify grid: 19 fraction lanes a rate, which alone go to the scalar loop at
# once, and together, 57, enter the numpy loop
@example((BASIS, DELTA, 0.13 + np.arange(110) * 1.0))
# e**(gamma x) overflows in the shared step, from age 7005.8 on
@example((BASIS, DELTA, np.linspace(7000.0, 7010.0, 5)))
# beta = 0 and alpha = 0: only rate 0, the second, fails
@example((GmParams(0.0, 0.0, 0.1), 0.03, np.linspace(0.0, 10.0, 3)))
# z underflows to 0, or overflows to inf where e**(gamma x) does not: the argument
# checks name these lanes, not the shared logarithm
@example((GmParams(0.001, 5e-324, 10.0), 0.02, np.array([0.0, 0.5])))
@example((GmParams(0.001, 100.0, 1.0), 0.02, np.array([0.0, 709.0])))
# an age of -0.0, with no senescent term (where gamma_exp may be negative) and with one
@example((GmParams(0.001, 0.0, -1.0), DELTA, np.array([-0.0, 0.0, 1.0, 50.0])))
@example((GmParams(0.0, 0.0, -1.0), DELTA, np.array([-0.0, 0.0, 1.0, 50.0])))
@example((BASIS, DELTA, np.array([-0.0, 0.0, 1.0, 50.0])))
# gamma x overflows to inf at age 2, where exp raises as it does at age 1
@example((GmParams(0.0, 1e-3, 1e308), 0.0, np.array([0.0, 2.0])))
# a_bar overflows: 1/(alpha + rate) at beta = 0, f/gamma at beta > 0
@example((GmParams(5e-324, 0.0, 1.0), 1e-310, np.array([0.0, 1.0])))
@example((GmParams(5e-324, 5e-324, 5e-324), 5e-324, np.array([0.0, 1.0])))
def test_rates_share_one_grid(case):
    # the CLI's rates (r, 0, 2r) from one grid are three life_table calls and
    # mortality_rates: the same columns bit for bit, or what the first rate that
    # fails raises, with its lane
    params, rate, xs = case
    rates = (rate, 0.0, 2.0 * rate)
    with pytest.MonkeyPatch.context() as mp:
        for width in WIDTHS:
            note(f"handoff width {width}")
            mp.setattr(special, "_HANDOFF_LANES", width)
            shared = _table_or_error(life._life_tables, params, rates, xs)
            alone = [_table_or_error(life_table, params, r, xs) for r in rates]
            failed = [t for t in alone if isinstance(t, Exception)]
            if failed:
                want = failed[0]
                assert (type(shared), str(shared), shared.lane) == (
                    type(want), str(want), want.lane), width
                # life_table is the one-rate case of the same code: the scalar
                # call is the check on what both share
                assert_raises_the_same(want, life._commutation, params,
                                       rates[alone.index(want)], xs.tolist()[want.lane])
                continue
            assert not isinstance(shared, Exception), shared
            mu, shared = shared
            assert_bits_equal(mu, mortality_rates(params, xs), f"mu, width {width}")
            for r, got, table in zip(rates, shared, alone, strict=True):
                for name in COLUMNS:
                    assert_bits_equal(got[name], table[name],
                                      f"{name} at rate {r}, width {width}")


def test_a_twin_that_starts_its_numpy_loop_finishes_it(monkeypatch):
    # the benchmark table's rates from one grid: the fraction's 3 x 1,983 lanes and
    # each rate's series lanes all converge in numpy, and no scalar loop runs
    calls = {}
    for name in ("_upper_cf", "_series_pair", "_upper_cf_array", "_series_pair_array"):
        def counted(*args, loop=getattr(special, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return loop(*args)
        monkeypatch.setattr(special, name, counted)
    life._life_tables(BASIS, (DELTA, 0.0, 2.0 * DELTA), 0.0 + np.arange(11_001) * 0.01)
    assert calls == {"_upper_cf_array": 1, "_series_pair_array": 3}


def test_stall_after_the_handoff_names_its_age(monkeypatch):
    # MID_LOOP's ages from z = 50 down to 1.1, with 60 iterations of the fraction:
    # 14 lanes are live when the numpy loop's budget is spent, and the first of them
    # in lane order stalls again in the scalar loop and is named, at every width
    params, rate, xs = MID_LOOP
    xs = xs[::-1]
    monkeypatch.setattr(special, "_MAX_ITER", 60)
    for width in WIDTHS:
        monkeypatch.setattr(special, "_HANDOFF_LANES", width)
        with pytest.raises(ConvergenceError) as exc:
            life_table(params, rate, xs)
        assert exc.value.lane == 185, width
        assert_raises_the_same(exc.value, life._commutation, params, rate, xs[185])
    life._commutation(params, rate, xs[184])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.floats(-15.0, 0.1), st.floats(-2000.0, -400.0)),
       st.lists(st.floats(1e-8, 1e3), min_size=1, max_size=30), st.sampled_from((500, 12)))
@example(-0.3, [0.01, 500.0, 0.9, 1.05], 12)
@example(-0.3, np.geomspace(1e-3, 50.0, 200).tolist(), 500)
@example(-0.3, np.geomspace(50.0, 1.1, 200).tolist(), 60)
@example(-0.3, np.geomspace(1.09, 1e-3, 200).tolist(), 16)
# at 12 iterations over 200 lanes, the fraction has 127 lanes and the series 43
# live when the budget is spent: the first of them stalls again in the scalar loop
@example(-0.3, np.geomspace(1.1, 50.0, 200).tolist(), 12)
@example(-0.3, np.geomspace(1e-3, 1.09, 200).tolist(), 12)
# the twins sort their lanes by z, stably: z descending, all equal on each side of
# the split, and each z twice, far apart, on both sides of it
@example(-0.3, np.geomspace(50.0, 1e-3, 200).tolist(), 500)
@example(-0.3, [0.5] * 100 + [5.0] * 100, 500)
@example(-0.3, np.geomspace(1e-2, 1e2, 100).tolist() * 2, 500)
def test_ratio_pair_twin_matches_scalar(eta, zs, max_iter):
    # every shape that shares the split, up to 0.1, and so every base shape of the
    # series: those in [0.1, 1/2) are one step down from shapes in [-0.9, -0.5).
    # Also shapes whose arguments below the split are over 500 steps from it.  At
    # 12 iterations the fraction stalls near the split, and so does the series
    # (at lane 2 of the example, the second of its lanes below the split).  Over
    # 200 lanes, 1e-3 to 50, the series and the fraction both run their numpy loops
    # to the last lane; from 50 down to 1.1 at 60 iterations, and from 1.09 down to
    # 1e-3 at 16 terms, 15 and 14 lanes are live when the budget is spent.  Every
    # width names the same lane
    named = set()
    z = np.array(zs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_MAX_ITER", max_iter)
        for width in WIDTHS:
            note(f"handoff width {width}")
            mp.setattr(special, "_HANDOFF_LANES", width)
            try:
                [(f, g)] = _ratio_pair_array([eta], z)
            except ConvergenceError as exc:
                assert_raises_the_same(exc, _ratio_pair, eta, zs[exc.lane])
                named.add(exc.lane)
                continue
            want = np.array([_ratio_pair(eta, v) for v in zs])
            assert_bits_equal(f, want[:, 0], f"F at shape {eta}, width {width}")
            assert_bits_equal(g, want[:, 1], f"zF(s+1) at shape {eta}, width {width}")
    assert len(named) <= 1, named


@pytest.mark.parametrize("etas", [(-30.0, -0.3), (-30.0, -100.0), (-30.0, -30.0, -0.3)])
def test_a_later_shape_that_fails_names_a_lane_of_z(monkeypatch, etas):
    # at 30 iterations shape -30 converges at every lane, while -0.3's fraction
    # stalls from the split up and -100 is over the step budget below it.  The
    # fraction runs once over every shape's lanes, and its stall is named as a
    # lane of z: one at which the failing shape's scalar pair raises the same
    z = np.concatenate([np.geomspace(1e-3, 1.09, 30), np.geomspace(1.1, 50.0, 60)])
    monkeypatch.setattr(special, "_MAX_ITER", 30)
    for v in z.tolist():
        _ratio_pair(etas[0], v)
    for width in WIDTHS:
        monkeypatch.setattr(special, "_HANDOFF_LANES", width)
        with pytest.raises(ConvergenceError) as exc:
            _ratio_pair_array(list(etas), z)
        assert 0 <= exc.value.lane < z.size, width
        assert_raises_the_same(exc.value, _ratio_pair, etas[-1], z.tolist()[exc.value.lane])


def test_subnormal_shapes_match_scalar():
    # base shapes where -s ln z is 0 or subnormal take -ln z in both twins
    zs = np.array([1e-8, 0.5, 1.0, 1.05, 3.0])
    for eta in (-5e-324, 5e-324, -1e-319, -1e-300, 0.0):
        [(f, g)] = _ratio_pair_array([eta], zs)
        want = np.array([_ratio_pair(eta, v) for v in zs.tolist()])
        assert_bits_equal(f, want[:, 0], f"F at shape {eta}")
        assert_bits_equal(g, want[:, 1], f"zF(s+1) at shape {eta}")
    assert_table_matches_scalar(GmParams(1e-322, 0.000012, 0.101314), 0.0,
                                np.array([0.0, 40.0, 80.0, 100.0]))


def test_rejects_what_the_scalar_api_rejects():
    for bad in ([0.0, -1.0], [0.0, math.nan], [0.0, math.inf], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            life_table(BASIS, DELTA, bad)
        with pytest.raises(ValueError):
            mortality_rates(BASIS, bad)
    with pytest.raises(ValueError):
        life_table(BASIS, -DELTA, [0.0])


def test_empty_ages_return_empty_columns():
    # with no senescence and no flat hazard every age fails, and so does every age
    # where the shape -(alpha + rate)/gamma overflows to -inf; an empty table has
    # none: it returns empty columns, as it does on any other basis
    for params in (GmParams(0.0, 0.0, 0.1), GmParams(1.0, 1e-320, 5e-324)):
        _, shared = life._life_tables(params, (0.03, 0.0), [])
        for tables in ([life_table(params, 0.0, [])], shared):
            for table in tables:
                for name in COLUMNS:
                    assert table[name].shape == (0,), name
        with pytest.raises(ValueError) as exc:
            life._life_tables(params, (0.03, 0.0), [2.0, 5.0])
        assert exc.value.lane == 0
        assert_raises_the_same(exc.value, life._commutation, params, 0.0, 2.0)

