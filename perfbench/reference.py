"""Independent references for gmlife outputs, and the checks built on them.

Nothing here imports gmlife.  Every value is computed by mpmath at 50
significant digits from the substitution y = z*e^(gamma*t) in the annuity
integral, which gives

    a_bar(x) = z**s * e**z * Gamma(-s, z) / gamma,   s = (alpha+delta)/gamma,
                                                      z = beta*e^(gamma*x)/gamma

with Gamma(-s, z) from ``mpmath.gammainc``.  That is not the program's route
(the program partially integrates to a positive shape and subtracts from 1),
so a shared algebra slip cannot hide.  D, N and M follow from their
definitions, again at 50 digits.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 50
#: Relative tolerance for every closed-form value against its reference.
REL_TOL = 1e-10
#: Absolute slack for values at the edge of binary64 range: survival and the
#: commutation values underflow to 0 (by design) once l(x) drops below ~1e-308.
ABS_FLOOR = 1e-300
#: Tolerance of the algebraic identities checked on every table row.
IDENTITY_TOL = 1e-12


def _annuity(alpha, beta, gam, rate, x):
    a = alpha + rate
    if beta == 0:
        return 1 / a
    z = beta * mpmath.exp(gam * x) / gam
    s = a / gam
    return z**s * mpmath.exp(z) * mpmath.gammainc(-s, z) / gam


def _discounted_survival(alpha, beta, gam, rate, x):
    exponent = -(alpha + rate) * x
    if beta != 0:
        exponent -= (beta / gam) * mpmath.expm1(gam * x)
    return mpmath.exp(exponent)


def scalar_reference(kind: str, alpha, beta, gam, delta, x) -> tuple[float, ...]:
    """Reference for one library call, shaped like the call's result.

    ``kind`` is one of annuity, remaining_life, e0, row, row2, ageing_factor;
    ``row`` and ``row2`` give (D, N, M) at delta and at 2*delta.
    """
    with mpmath.workdps(DIGITS):
        alpha, beta, gam, delta, x = (mpmath.mpf(v) for v in (alpha, beta, gam, delta, x))
        if kind == "annuity":
            return (float(_annuity(alpha, beta, gam, delta, x)),)
        if kind == "remaining_life":
            return (float(_annuity(alpha, beta, gam, 0, x)),)
        if kind == "e0":
            return (float(_annuity(alpha, beta, gam, 0, 0)),)
        if kind == "ageing_factor":
            if beta == 0:
                return (0.0,)
            return (float(1 - (alpha + delta) * _annuity(alpha, beta, gam, delta, x)),)
        rate = 2 * delta if kind == "row2" else delta
        d = _discounted_survival(alpha, beta, gam, rate, x)
        a_bar = _annuity(alpha, beta, gam, rate, x)
        return (float(d), float(d * a_bar), float(d * (1 - rate * a_bar)))


def row_reference(alpha, beta, gam, delta, x, columns) -> dict[str, float]:
    """Reference values of one ``gmlife`` table row, for the named columns."""
    with mpmath.workdps(DIGITS):
        alpha, beta, gam, delta, x = (mpmath.mpf(v) for v in (alpha, beta, gam, delta, x))
        a_bar = _annuity(alpha, beta, gam, delta, x)
        d = _discounted_survival(alpha, beta, gam, delta, x)
        ref = {
            "x": x,
            "l": _discounted_survival(alpha, beta, gam, 0, x),
            "mu": alpha + beta * mpmath.exp(gam * x),
            "D": d,
            "N": d * a_bar,
            "M": d * (1 - delta * a_bar),
            "a_bar": a_bar,
            "e_x": _annuity(alpha, beta, gam, 0, x),
        }
        if "D2" in columns:
            a_bar2 = _annuity(alpha, beta, gam, 2 * delta, x)
            d2 = _discounted_survival(alpha, beta, gam, 2 * delta, x)
            ref.update(D2=d2, N2=d2 * a_bar2, M2=d2 * (1 - 2 * delta * a_bar2))
        if "ageing_factor" in columns:
            ref["ageing_factor"] = 1 - (alpha + delta) * a_bar if beta != 0 else 0
            ref["shape"] = 1 - (alpha + delta) / gam
        return {k: float(v) for k, v in ref.items() if k in columns}


def close(got: float, want: float, tol: float = REL_TOL) -> bool:
    """True when ``got`` agrees with the reference ``want`` to ``tol`` relative."""
    return abs(got - want) <= tol * abs(want) + ABS_FLOOR


def row_mismatches(row: dict[str, float], ref: dict[str, float]) -> list[str]:
    """Columns of ``row`` that disagree with the reference row."""
    return [k for k, want in ref.items() if not close(row[k], want)]


def table_property_failures(cols: dict[str, np.ndarray], alpha, gam, delta) -> list[str]:
    """Identities and orderings every table row must satisfy, with no reference.

    ``cols`` maps column names to arrays in age order.  Returns one message
    per broken property, naming the first offending row index.
    """
    problems = []

    def require(name: str, ok: np.ndarray) -> None:
        bad = np.flatnonzero(~ok)
        if bad.size:
            problems.append(f"{name}: {bad.size} rows, first at row {bad[0]}")

    for k in ("D", "N", "M", "a_bar", "e_x"):
        require(f"{k} decreases with age", np.diff(cols[k]) < 0)
    require("M = D - delta*N", np.abs(cols["M"] - (cols["D"] - delta * cols["N"]))
            <= IDENTITY_TOL * np.abs(cols["M"]))
    require("a_bar <= 1/(alpha+delta)", cols["a_bar"] <= 1.0 / (alpha + delta))
    if "D2" in cols:
        require("M2 = D2 - 2*delta*N2",
                np.abs(cols["M2"] - (cols["D2"] - 2 * delta * cols["N2"]))
                <= IDENTITY_TOL * np.abs(cols["M2"]))
        require("D2 <= D", cols["D2"] <= cols["D"])
    if "ageing_factor" in cols:
        af = cols["ageing_factor"]
        require("0 <= ageing_factor <= 1", (af >= 0) & (af <= 1))
        require("shape = 1 - (alpha+delta)/gamma",
                np.abs(cols["shape"] - (1 - (alpha + delta) / gam)) <= IDENTITY_TOL)
    return problems
