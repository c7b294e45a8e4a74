"""Bit equality of the batch table engine with the scalar API.

``life.life_table``, ``mortality.mortality_rates`` and the batch twins in
``special`` are a second implementation of the scalar arithmetic, kept
bit for bit equal to it, lane by lane.  These tests are what keeps the two
from drifting apart: every column on the benchmark grid, then a
deterministic sweep over the hard regions (near-pole shapes, many downward
steps, no senescence or no flat hazard, z up to 1e250, grids across the
series/continued-fraction split at z = 1.1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlife import life
from gmlife.life import life_table, remaining_life
from gmlife.mortality import GmParams, mortality_rate, mortality_rates, survival
from gmlife.special import _ratio_pair, _ratio_pair_array

BASIS = GmParams(alpha=0.001, beta=0.000012, gamma_exp=0.101314)
DELTA = 0.026559
COLUMNS = ("D", "N", "M", "a_bar", "ageing_factor")


def assert_bits_equal(batch, scalar, what):
    b, s = np.asarray(batch, dtype=float), np.asarray(scalar, dtype=float)
    assert b.shape == s.shape, what
    bad = np.flatnonzero(b.view(np.int64) != s.view(np.int64))
    assert not bad.size, (f"{what}: {bad.size} lanes differ, first at {bad[0]}: "
                          f"{b[bad[0]]!r} != {s[bad[0]]!r}")


def assert_table_matches_scalar(params, rate, xs):
    table = life_table(params, rate, xs)
    # _commutation is what commutation_row, annuity and ageing_factor read
    rows = np.array([life._commutation(params, rate, x) for x in xs.tolist()])
    for j, name in enumerate(COLUMNS):
        assert_bits_equal(table[name], rows[:, j], f"{name} at {params}, rate {rate}")
    assert_bits_equal(mortality_rates(params, xs),
                      [mortality_rate(params, x) for x in xs.tolist()], f"mu at {params}")


def test_benchmark_grid_every_column():
    xs = 0.0 + np.arange(11_001) * 0.01
    for rate in (0.0, DELTA, 2.0 * DELTA):
        assert_table_matches_scalar(BASIS, rate, xs)
    undiscounted = life_table(BASIS, 0.0, xs)
    assert_bits_equal(undiscounted["D"], [survival(BASIS, x) for x in xs.tolist()], "l")
    assert_bits_equal(undiscounted["a_bar"],
                      [remaining_life(BASIS, x) for x in xs.tolist()], "e_x")


def _x_at(z, params):
    # the age where beta e**(gamma x) / gamma reaches z, or 0 below age 0
    return max(0.0, math.log(z * params.gamma_exp / params.beta) / params.gamma_exp)


@st.composite
def tables(draw):
    gam = draw(st.floats(0.02, 1.0))
    regime = draw(st.sampled_from(("pole", "deep", "no_alpha", "no_beta", "plain")))
    if regime == "pole":  # shape -(alpha + rate)/gamma within 1e-15..1e-8 of 0, -1, -2
        k = draw(st.sampled_from((0, 1, 2)))
        eps = 10.0 ** draw(st.floats(-15.0, -8.0))
        a = gam * (k + (eps if k == 0 else draw(st.sampled_from((-1, 1))) * eps))
    elif regime == "deep":  # up to 15 downward steps from the series
        a = gam * draw(st.floats(2.0, 15.0))
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
    # the grid's z runs from z_lo up to z_hi, across z = 1.1 or up to 1e250
    span = draw(st.sampled_from(("across_split", "high", "low")))
    if span == "across_split":
        z_lo, z_hi = 1.1 * 10.0 ** draw(st.floats(-3.0, -0.01)), 1.1 * 10.0 ** draw(
            st.floats(0.01, 2.0))
    elif span == "high":
        z_lo, z_hi = 10.0 ** draw(st.floats(0.0, 100.0)), 10.0 ** draw(st.floats(200.0, 250.0))
    else:
        z_lo, z_hi = 10.0 ** draw(st.floats(-8.0, -3.0)), 10.0 ** draw(st.floats(-3.0, 0.0))
    xs = np.linspace(_x_at(z_lo, params), _x_at(z_hi, params), n)
    return params, rate, xs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables())
def test_sweep_matches_scalar(case):
    params, rate, xs = case
    assert_table_matches_scalar(params, rate, xs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-15.0, 0.4999), st.lists(st.floats(1e-8, 1e3), min_size=1, max_size=30))
def test_ratio_pair_twin_matches_scalar(eta, zs):
    # every base shape of the series, not only the non-positive shapes of life
    f, g = _ratio_pair_array(eta, np.array(zs))
    want = np.array([_ratio_pair(eta, v) for v in zs])
    assert_bits_equal(f, want[:, 0], f"F at shape {eta}")
    assert_bits_equal(g, want[:, 1], f"zF(s+1) at shape {eta}")


def test_rejects_what_the_scalar_api_rejects():
    for bad in ([0.0, -1.0], [0.0, math.nan], [0.0, math.inf], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            life_table(BASIS, DELTA, bad)
        with pytest.raises(ValueError):
            mortality_rates(BASIS, bad)
    with pytest.raises(ValueError):
        life_table(BASIS, -DELTA, [0.0])
