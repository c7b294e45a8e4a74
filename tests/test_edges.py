"""The public API at edge inputs: a value with no NaN, or a documented error.

Every public closed form and special function, with each argument drawn
from the CLI sweep's edge numbers, either returns a value with no NaN, and
with N, M, a_bar and e_x finite (nothing bounds them, so an inf there is as
silently wrong as a NaN), or raises ValueError, OverflowError or
ConvergenceError.  The suite turns numpy's warnings into errors, so a
warning that leaks from a call fails it too.  The oracles run only at fixed
inputs: on a steep basis a quadrature spends its whole evaluation budget,
which takes seconds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmlife import (
    ageing_factor,
    annuity,
    cdf,
    commutation_d,
    commutation_m,
    commutation_n,
    commutation_row,
    e0,
    exp_scaled_upper_inc_gamma,
    gamma_cdf,
    gamma_fn,
    integrate_m,
    integrate_m_table,
    integrate_survival,
    integrate_survival_table,
    life_table,
    ln_gamma_fn,
    mc_remaining_life,
    mc_remaining_life_table,
    mortality_rate,
    mortality_rates,
    positive_shape_check,
    remaining_life,
    survival,
    upper_inc_gamma_general,
)
from gmlife.mortality import GmParams
from gmlife.special import ConvergenceError
from test_cli import EDGE_NUMBERS

DOCUMENTED = (ValueError, OverflowError, ConvergenceError)
# the values that must be finite: a table's N, M and a_bar, and the one value of
# e0, remaining_life (e_x), annuity, commutation_n and commutation_m
FINITE = {"N", "M", "a_bar"}


def row_cells(row):
    return {"D": row.d_val, "N": row.n_val, "M": row.m_val}


# each public closed form as a call on (basis, rate, age)
CLOSED_FORMS = {
    "survival": lambda p, d, x: survival(p, x),
    "cdf": lambda p, d, x: cdf(p, x),
    "mortality_rate": lambda p, d, x: mortality_rate(p, x),
    "mortality_rates": lambda p, d, x: mortality_rates(p, [x]),
    "e0": lambda p, d, x: {"a_bar": e0(p)},
    "remaining_life": lambda p, d, x: {"a_bar": remaining_life(p, x)},
    "annuity": lambda p, d, x: {"a_bar": annuity(p, d, x)},
    "ageing_factor": lambda p, d, x: ageing_factor(p, d, x),
    "commutation_d": lambda p, d, x: commutation_d(p, d, x),
    "commutation_n": lambda p, d, x: {"N": commutation_n(p, d, x)},
    "commutation_m": lambda p, d, x: {"M": commutation_m(p, d, x)},
    "commutation_row": lambda p, d, x: row_cells(commutation_row(p, d, x)),
    "commutation_row_double": lambda p, d, x: row_cells(
        commutation_row(p, d, x, double_rate=True)),
    "life_table": lambda p, d, x: life_table(p, d, [x]),
    "positive_shape_check": lambda p, d, x: positive_shape_check(p, d),
}

# each special function as a call on (shape, argument)
SPECIAL = {
    "gamma_fn": lambda eta, z: gamma_fn(eta),
    "ln_gamma_fn": lambda eta, z: ln_gamma_fn(eta),
    "gamma_cdf": lambda eta, z: gamma_cdf(z, eta),
    "upper_inc_gamma_general": upper_inc_gamma_general,
    "exp_scaled_upper_inc_gamma": exp_scaled_upper_inc_gamma,
    "exp_scaled_upper_inc_gamma_pair": lambda eta, z: exp_scaled_upper_inc_gamma(
        eta, z, pair=True),
}

edge = st.sampled_from(EDGE_NUMBERS)
# the shapes of life are negative: -(alpha + delta) / gamma
signed_edge = st.sampled_from(EDGE_NUMBERS + [-v for v in EDGE_NUMBERS])


def assert_value_or_documented_error(call, *args):
    try:
        result = call(*args)
    except DOCUMENTED:
        return
    for name, v in (result if isinstance(result, dict) else {"value": result}).items():
        v = np.asarray(v, dtype=float)
        assert not np.isnan(v).any(), (name, args, v)
        assert name not in FINITE or np.isfinite(v).all(), (name, args, v)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CLOSED_FORMS)), edge, edge, edge, edge, edge)
# gamma x overflows to inf: beta/gamma is 0 (a NaN l(x) once) or not (an inf mu)
@example("survival", 0.0, 5e-324, 1e308, 0.0, 2.0)
@example("cdf", 0.0, 5e-324, 1e308, 0.0, 2.0)
@example("commutation_d", 0.0, 5e-324, 1e308, 0.0, 2.0)
@example("mortality_rate", 0.0, 1e-3, 1e308, 0.0, 2.0)
@example("mortality_rates", 0.0, 1e-3, 1e308, 0.0, 2.0)
@example("annuity", 0.0, 1e-3, 1e308, 0.0, 2.0)
@example("life_table", 0.0, 1e-3, 1e308, 0.0, 2.0)
# beta * e**(gamma x) alone overflows
@example("annuity", 1e-3, 1e300, 1.0, 0.0, 110.0)
# alpha + rate overflows, though each is finite
@example("commutation_d", 1e308, 1e-5, 0.1, 1e308, 0.0)
@example("commutation_n", 1e308, 0.0, 1.0, 1e308, 0.0)
@example("commutation_m", 1e308, 0.0, 1.0, 1e308, 0.0)
@example("commutation_row", 1e308, 0.0, 1.0, 1e308, 0.0)
@example("commutation_row_double", 1e308, 0.0, 1.0, 5e307, 0.0)
@example("life_table", 1e308, 0.0, 1.0, 1e308, 0.0)
@example("annuity", 1e308, 0.0, 1.0, 1e308, 0.0)
# a_bar overflows: 1/(alpha + rate) at beta = 0, f/gamma at beta > 0
@example("commutation_m", 0.0, 0.0, 0.0, 5e-324, 0.0)
@example("commutation_m", 5e-324, 0.0, 1.0, 1e-310, 0.0)
@example("life_table", 5e-324, 5e-324, 5e-324, 5e-324, 0.0)
@example("e0", 0.0, 5e-324, 5e-324, 0.0, 0.0)
# beta / gamma overflows, which the basis rejects
@example("survival", 0.0, 1e-3, 5e-324, 0.0, 0.0)
def test_closed_forms_return_no_nan_or_raise(name, alpha, beta, gamma, delta, x):
    assert_value_or_documented_error(
        lambda: CLOSED_FORMS[name](GmParams(alpha, beta, gamma), delta, x))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SPECIAL)), signed_edge, signed_edge)
# z + 1 - eta rounds to 0: the continued fraction's one guarded start
@example("gamma_cdf", 1e17, 1e17)
@example("exp_scaled_upper_inc_gamma", 1e17, 1e17)
# near the median of a large shape: the series stalls at z = eta from eta ~ 3,989,
# the fraction at z = eta + 1 from ~1.64e5, and at (1e4, 10001) it returns 0.5053
@example("gamma_cdf", 5011.872336272725, 5011.872336272725)
@example("gamma_cdf", 1e4, 1e4)
@example("gamma_cdf", 1e4, 10001.0)
@example("gamma_cdf", 2e5, 200001.0)
def test_special_functions_return_no_nan_or_raise(name, eta, z):
    assert_value_or_documented_error(SPECIAL[name], eta, z)


AGES = [0.0, 1.0, 40.0]


@pytest.mark.parametrize("table_fn, scalar_fn, params, xs", [
    # gamma x overflows to inf at age 40, and e**(gamma x) at age 1
    (integrate_survival_table, integrate_survival, GmParams(0.0, 5e-324, 1e308), AGES),
    (integrate_m_table, integrate_m, GmParams(0.0, 5e-324, 1e10), AGES),
    # beta/gamma underflows to 0 and numpy's expm1(2x) overflows from age 355 on,
    # where D(x) is 0 * inf = NaN: such a lane is not dead but fails
    (integrate_m_table, integrate_m, GmParams(0.0, 5e-324, 2.0), [0.0, 354.0, 360.0]),
])
def test_oracle_tables_fail_at_a_lane_with_no_warning(table_fn, scalar_fn, params, xs):
    # the lane contract: the scalar call at the age the error names raises the same
    with pytest.raises(DOCUMENTED) as table:
        table_fn(params, 0.0, xs)
    with pytest.raises(type(table.value)) as scalar:
        scalar_fn(params, 0.0, xs[table.value.lane])
    assert str(scalar.value) == str(table.value)


def test_a_nan_d_fails_as_commutation_d_does():
    params = GmParams(0.0, 5e-324, 2.0)
    with pytest.raises(OverflowError) as quadrature:
        integrate_m(params, 0.0, 360.0)
    with pytest.raises(OverflowError) as closed_form:
        commutation_d(params, 0.0, 360.0)
    assert str(quadrature.value) == str(closed_form.value)
    # at 354 the integral is D(354) = 1, in both
    assert integrate_m(params, 0.0, 354.0).value == pytest.approx(1.0, rel=1e-12)
    assert commutation_m(params, 0.0, 354.0) == 1.0


def test_monte_carlo_where_gamma_x_overflows():
    # e**(gamma x) overflows at age 1, and gamma x itself at age 2: both raise
    # what math.exp raises
    for x in (1.0, 2.0):
        with pytest.raises(OverflowError, match="math range error"):
            mc_remaining_life(GmParams(0.0, 1e-3, 1e308), x, 1000, np.random.default_rng(0))


def test_one_error_where_beta_e_gamma_x_overflows():
    # e**(gamma x) = e**110 is finite and beta e**(gamma x) is not: every value
    # that reads it raises one OverflowError, with one text, and a table names the
    # age's lane; survival and D underflow to 0
    params, x = GmParams(0.0, 1e300, 1.0), 110.0
    rng = np.random.default_rng
    calls = {
        "mortality_rate": lambda: mortality_rate(params, x),
        "remaining_life": lambda: remaining_life(params, x),
        "annuity": lambda: annuity(params, 0.03, x),
        "ageing_factor": lambda: ageing_factor(params, 0.03, x),
        "commutation_n": lambda: commutation_n(params, 0.03, x),
        "commutation_m": lambda: commutation_m(params, 0.03, x),
        "commutation_row": lambda: commutation_row(params, 0.03, x),
        "mc_remaining_life": lambda: mc_remaining_life(params, x, 1000, rng(0)),
    }
    tables = {
        "mortality_rates": lambda: mortality_rates(params, [0.0, x]),
        "life_table": lambda: life_table(params, 0.03, [0.0, x]),
        "mc_remaining_life_table": lambda: mc_remaining_life_table(params, [0.0, x],
                                                                   1000, rng(0)),
    }
    texts = set()
    for name, call in {**calls, **tables}.items():
        with pytest.raises(OverflowError) as exc:
            call()
        texts.add(str(exc.value))
        if name in tables:
            assert exc.value.lane == 1, name
    assert len(texts) == 1, texts
    assert survival(params, x) == 0.0
    assert commutation_d(params, 0.03, x) == 0.0
