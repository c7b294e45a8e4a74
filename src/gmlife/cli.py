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

Exit codes: 0 success, 2 bad flags or invalid basis, 3 numerical failure
at some age, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import life, oracle
from .life import _commutation
from .mortality import GmParams, mortality_rate, survival
from .special import ConvergenceError

__all__ = ["main"]

_MC_SAMPLES = 20_000
_DIFF_COLUMNS = ("a_bar_rel_diff", "m_rel_diff")


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
    if args.verify and not args.verify_tol > 0.0:
        raise _UsageError("--verify-tol must be > 0")
    if args.diagnostics and args.gamma <= 0.0:
        raise _UsageError("--diagnostics needs gamma > 0 (shape is undefined)")
    if args.diagnostics and args.alpha + args.delta <= 0.0:
        raise _UsageError("--diagnostics needs alpha + delta > 0 (ageing factor "
                          "is undefined)")
    return params


def _age_grid(x_min: float, x_max: float, step: float) -> list[float]:
    n = int(math.floor((x_max - x_min) / step + 1e-9)) + 1
    return [x_min + i * step for i in range(n)]


def _quad_tol(closed_value: float, verify_tol: float) -> float:
    # keep oracle noise two orders below the comparison tolerance, scaled
    # by the value under check so tiny high-age quantities stay resolvable
    return max(0.01 * verify_tol, 1e-12) * abs(closed_value) + 1e-300


def _one_row(params: GmParams, args, x: float, rng, shape: float | None) -> dict:
    row: dict[str, float] = {"x": x}
    row["l"] = survival(params, x)
    row["mu"] = mortality_rate(params, x)
    row["D"], row["N"], row["M"], row["a_bar"], xi = _commutation(params, args.delta, x)
    row["e_x"] = life.remaining_life(params, x)
    if args.double_rate:
        row["D2"], row["N2"], row["M2"], _, _ = _commutation(params, 2.0 * args.delta, x)
    if args.diagnostics:
        row["ageing_factor"] = xi
        row["shape"] = shape
    if args.verify:
        q_a = oracle.integrate_survival(
            params, args.delta, x, tol=_quad_tol(row["a_bar"], args.verify_tol))
        q_m = oracle.integrate_m(
            params, args.delta, x, tol=_quad_tol(row["M"], args.verify_tol))
        row["a_bar_rel_diff"] = abs(row["a_bar"] - q_a.value) / abs(q_a.value)
        row["m_rel_diff"] = abs(row["M"] - q_m.value) / abs(q_m.value)
        est = oracle.mc_remaining_life(params, x, _MC_SAMPLES, rng)
        row["e_x_mc_dev"] = abs(est.mean - row["e_x"]) / est.std_error
    return row


def _compute_rows(params: GmParams, args) -> list[dict]:
    rows = []
    rng = np.random.default_rng(args.seed)
    shape = life.positive_shape_check(params, args.delta) if args.diagnostics else None
    for x in _age_grid(args.x_min, args.x_max, args.step):
        try:
            rows.append(_one_row(params, args, x, rng, shape))
        except (OverflowError, ConvergenceError) as exc:
            raise _NumericalFailure(x, exc) from exc
    return rows


def _verify_failure(rows: list[dict], tol: float) -> str | None:
    # None when every verified difference is within tol
    failed = [row for row in rows if any(row[c] > tol for c in _DIFF_COLUMNS)]
    if not failed:
        return None
    diff, column, x = max((row[c], c, row["x"]) for row in failed
                          for c in _DIFF_COLUMNS if row[c] > tol)
    return (f"{len(failed)} of {len(rows)} rows exceed {tol}; worst is "
            f"{column} = {diff:.3g} at age {x:g}")


def _emit(rows: list[dict], fmt: str, out) -> None:
    fields = list(rows[0].keys())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(f"{row[k]:.15g}" for k in fields)
        out.write(buf.getvalue())
    else:
        out.write(json.dumps(rows, indent=2))
        out.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = _validate(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = _compute_rows(params, args)
    except _NumericalFailure as exc:
        print(f"{parser.prog}: numerical failure {exc}", file=sys.stderr)
        return 3
    _emit(rows, args.format, sys.stdout)
    failure = _verify_failure(rows, args.verify_tol) if args.verify else None
    if failure:
        print(f"{parser.prog}: verification failed: {failure}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
