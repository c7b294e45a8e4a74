"""Command-line table generator.

Given a mortality basis, a force of interest and an age grid, emits one
row per age with survival, hazard, commutation values, annuity value and
remaining life expectancy, as CSV (default) or JSON::

    gmlife --alpha 0.001 --beta 0.000012 --gamma 0.101314 \\
           --delta 0.026559 --x-min 0 --x-max 100 --step 1 --format csv

Optional extras: ``--double-rate`` appends D2/N2/M2 columns at twice the
rate, ``--diagnostics`` appends the ageing factor and the gamma-route
shape, and ``--verify`` recomputes the annuity and M columns with the
quadrature oracle, appending relative-difference columns and failing
(exit 4) if any difference exceeds ``--verify-tol``.  Verify mode also
reports a seeded Monte-Carlo estimate of e_x as a deviation in standard
errors (informational; seed set with ``--seed``).

A table is computed as columns, one evaluation per rate per table
(:func:`gmlife.life.life_table` over the whole age grid), and written with
one format call per row; only the ``--verify`` oracle and Monte-Carlo calls
run row by row, in age order.

Exit codes: 0 success, 2 bad flags or invalid basis, 3 numerical failure
at some age, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import life, oracle
from .life import _commutation
from .mortality import GmParams, mortality_rate, mortality_rates, survival
from .special import ConvergenceError

__all__ = ["main"]

_MC_SAMPLES = 20_000
_MAX_ROWS = 1_000_000  # the table is held as columns, ~100 B a row, until emitted
_EMIT_BLOCK = 1024  # rows formatted per write: only one block's Python floats are alive
_DIFF_COLUMNS = ("a_bar_rel_diff", "m_rel_diff")
_VERIFY_COLUMNS = _DIFF_COLUMNS + ("e_x_mc_dev",)


class _UsageError(Exception):
    pass


class _NumericalFailure(Exception):
    def __init__(self, x: float, cause: Exception) -> None:
        super().__init__(f"at age {x:g}: {cause}")


class _OneLineParser(argparse.ArgumentParser):
    # keep the exit-2 diagnostic to a single stderr line
    def error(self, message: str):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    p = _OneLineParser(prog="gmlife", description=__doc__.splitlines()[0])
    p.add_argument("--alpha", type=float, required=True, help="flat hazard per year")
    p.add_argument("--beta", type=float, required=True, help="senescent hazard scale per year")
    p.add_argument("--gamma", type=float, required=True, help="exponential ageing rate per year")
    p.add_argument("--delta", type=float, default=0.0, help="force of interest per year")
    p.add_argument("--x-min", type=float, required=True, help="first age of the grid")
    p.add_argument("--x-max", type=float, required=True, help="last age of the grid")
    p.add_argument("--step", type=float, required=True, help="age grid step in years")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--double-rate", action="store_true",
                   help="append D2/N2/M2 columns at twice the rate")
    p.add_argument("--diagnostics", action="store_true",
                   help="append ageing_factor and shape columns")
    p.add_argument("--verify", action="store_true",
                   help="cross-check a_bar and M against the quadrature oracle")
    p.add_argument("--verify-tol", type=float, default=1e-7,
                   help="relative tolerance for --verify (default 1e-7)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the Monte-Carlo check in --verify mode")
    return p


def _validate(args) -> GmParams:
    try:
        params = GmParams(args.alpha, args.beta, args.gamma)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if math.isnan(args.delta) or math.isinf(args.delta) or args.delta < 0.0:
        raise _UsageError(f"--delta must be finite and >= 0, got {args.delta}")
    if args.double_rate and math.isinf(2.0 * args.delta):
        raise _UsageError(f"--double-rate needs 2 * delta finite, got {args.delta}")
    if args.alpha + args.beta <= 0.0:
        raise _UsageError("need alpha + beta > 0 (otherwise e_x is infinite)")
    if not (0.0 <= args.x_min <= args.x_max):
        raise _UsageError("need 0 <= x-min <= x-max")
    if not args.step > 0.0:
        raise _UsageError("--step must be > 0")
    if not math.isfinite((args.x_max - args.x_min) / args.step):
        raise _UsageError("need finite x-min, x-max and (x-max - x-min) / step")
    n_rows = _row_count(args.x_min, args.x_max, args.step)
    if n_rows > _MAX_ROWS:
        raise _UsageError(f"the age grid has {n_rows:.7g} rows; at most {_MAX_ROWS} "
                          "are allowed")
    if args.verify and not args.verify_tol > 0.0:
        raise _UsageError("--verify-tol must be > 0")
    if args.diagnostics and args.gamma <= 0.0:
        raise _UsageError("--diagnostics needs gamma > 0 (shape is undefined)")
    if args.diagnostics and args.alpha + args.delta <= 0.0:
        raise _UsageError("--diagnostics needs alpha + delta > 0 (ageing factor "
                          "is undefined)")
    return params


def _row_count(x_min: float, x_max: float, step: float) -> int:
    return math.floor((x_max - x_min) / step + 1e-9) + 1


def _age_grid(x_min: float, x_max: float, step: float) -> np.ndarray:
    return x_min + np.arange(_row_count(x_min, x_max, step)) * step


def _quad_tol(closed_value: float, verify_tol: float) -> float:
    # keep oracle noise two orders below the comparison tolerance, scaled
    # by the value under check so tiny high-age quantities stay resolvable
    return max(0.01 * verify_tol, 1e-12) * abs(closed_value) + 1e-300


def _closed_forms(params: GmParams, args, xs: np.ndarray) -> dict[str, np.ndarray]:
    # one life_table per rate: at rate 0 its D is l and its a_bar is e_x
    undiscounted = life.life_table(params, 0.0, xs)
    single = life.life_table(params, args.delta, xs)
    cols = {"x": xs, "l": undiscounted["D"], "mu": mortality_rates(params, xs)}
    cols.update((k, single[k]) for k in ("D", "N", "M", "a_bar"))
    cols["e_x"] = undiscounted["a_bar"]
    if args.double_rate:
        double = life.life_table(params, 2.0 * args.delta, xs)
        cols.update((k + "2", double[k]) for k in ("D", "N", "M"))
    if args.diagnostics:
        cols["ageing_factor"] = single["ageing_factor"]
        cols["shape"] = np.full(xs.size, life.positive_shape_check(params, args.delta))
    return cols


def _verify_row(params: GmParams, args, x: float, a_bar: float, m: float, e_x: float,
                rng) -> tuple[float, float, float]:
    # the oracle differences of one row: a_bar, M, and the Monte-Carlo e_x in standard errors
    q_a = oracle.integrate_survival(params, args.delta, x,
                                    tol=_quad_tol(a_bar, args.verify_tol))
    q_m = oracle.integrate_m(params, args.delta, x, tol=_quad_tol(m, args.verify_tol))
    est = oracle.mc_remaining_life(params, x, _MC_SAMPLES, rng)
    return (abs(a_bar - q_a.value) / abs(q_a.value), abs(m - q_m.value) / abs(q_m.value),
            abs(est.mean - e_x) / est.std_error)


def _first_failure(params: GmParams, args, xs: np.ndarray) -> _NumericalFailure | None:
    # the scalar API along the grid, row by row in column order: names the
    # first age and the error a batch failure stands for
    rng = np.random.default_rng(args.seed)
    for x in xs.tolist():
        try:
            survival(params, x)
            mortality_rate(params, x)
            _, _, m, a_bar, _ = _commutation(params, args.delta, x)
            e_x = life.remaining_life(params, x)
            if args.double_rate:
                _commutation(params, 2.0 * args.delta, x)
            if args.verify:
                _verify_row(params, args, x, a_bar, m, e_x, rng)
        except (OverflowError, ConvergenceError, ValueError) as exc:
            return _NumericalFailure(x, exc)
    return None


def _compute_columns(params: GmParams, args) -> dict[str, np.ndarray]:
    xs = _age_grid(args.x_min, args.x_max, args.step)
    try:
        # perfbench/tracing.py times the mortality layer through these two
        # names, so each is called once per table until it reads counters (ROADMAP §4)
        survival(params, args.x_min)
        mortality_rate(params, args.x_min)
        cols = _closed_forms(params, args, xs)
    except (OverflowError, ConvergenceError, ValueError) as exc:
        failure = _first_failure(params, args, xs)
        if failure is None:  # the engines disagree, which the tests rule out
            raise
        raise failure from exc
    if args.verify:
        # oracle and Monte-Carlo calls stay per row, in age order, so the seeded
        # draws are those of a row-by-row run
        rng = np.random.default_rng(args.seed)
        diffs = []
        for x, a_bar, m, e_x in zip(*(cols[k].tolist() for k in ("x", "a_bar", "M", "e_x"))):
            try:
                diffs.append(_verify_row(params, args, x, a_bar, m, e_x, rng))
            except (OverflowError, ConvergenceError, ValueError) as exc:
                raise _NumericalFailure(x, exc) from exc
        for name, column in zip(_VERIFY_COLUMNS, zip(*diffs)):
            cols[name] = np.array(column)
    return cols


def _verify_failure(cols: dict[str, np.ndarray], tol: float) -> str | None:
    # None when every verified difference is within tol
    over = np.column_stack([cols[c] > tol for c in _DIFF_COLUMNS])
    failed = np.flatnonzero(over.any(axis=1))
    if not failed.size:
        return None
    diff, column, x = max((float(cols[c][i]), c, float(cols["x"][i])) for i in failed
                          for c in _DIFF_COLUMNS if cols[c][i] > tol)
    return (f"{failed.size} of {cols['x'].size} rows exceed {tol}; worst is "
            f"{column} = {diff:.3g} at age {x:g}")


def _rows(cols: dict[str, np.ndarray]):
    # the table's rows as tuples of floats, a block of rows at a time
    n = cols["x"].size
    for start in range(0, n, _EMIT_BLOCK):
        yield list(zip(*(c[start:start + _EMIT_BLOCK].tolist() for c in cols.values())))


def _emit(cols: dict[str, np.ndarray], fmt: str, out) -> None:
    fields = list(cols)
    if fmt == "csv":
        out.write(",".join(fields) + "\n")
        line = ",".join(["%.15g"] * len(fields)) + "\n"
        for rows in _rows(cols):
            out.write("".join([line % row for row in rows]))
    else:
        # json.dumps(all rows, indent=2) is "[\n" + items joined by ",\n" + "\n]";
        # each block contributes its items
        out.write("[\n")
        for i, rows in enumerate(_rows(cols)):
            block = json.dumps([dict(zip(fields, row)) for row in rows], indent=2)
            out.write((",\n" if i else "") + block[2:-2])
        out.write("\n]\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = _validate(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        cols = _compute_columns(params, args)
    except _NumericalFailure as exc:
        print(f"{parser.prog}: numerical failure {exc}", file=sys.stderr)
        return 3
    _emit(cols, args.format, sys.stdout)
    failure = _verify_failure(cols, args.verify_tol) if args.verify else None
    if failure:
        print(f"{parser.prog}: verification failed: {failure}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
