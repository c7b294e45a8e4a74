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

A table is computed as columns, one evaluation per rate per table over
the whole age grid, every rate from one set of rate-free per-age terms (as
:func:`gmlife.life.life_table` does for one rate), and written a block of
rows at a time: CSV by :func:`gmlife.formatting.format_cells`, in
numpy and byte for byte ``"%.15g" % v``, and JSON by one template per row.
``--verify`` adds one lane-batched quadrature per integral over the grid
and one Monte-Carlo table, whose ages share one seeded draw: a row's
``e_x_mc_dev`` depends only on its age and ``--seed``, not on where the row
sits in the grid.  A relative difference is 0 where both values are 0 and
inf where only the oracle's is; one that is NaN fails verification.

Exit codes: 0 success, 2 bad flags or invalid basis, 3 numerical failure
at some age, 4 verification failure.  Exit 3 names the first age at which
the scalar API raises, taking a row's calls in column order (rate delta,
rate 0, twice the rate, then the oracles), and that call's error.  The
columns find it on their own: a batch that fails names a lane, an age at
which the scalar call raises the same, and the ages before it run again.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import life, oracle
from .life import _life_tables  # by name: perfbench/tracing.py swaps cli.life for __all__
from .mortality import GmParams, mortality_rate, mortality_rates, survival
from .special import ConvergenceError

__all__ = ["main"]

_MC_SAMPLES = 20_000
# At this cap a --double-rate --diagnostics table holds ~92 MB of columns until
# emitted, and computing them peaks at ~295 MB RSS (~270 MB plain), the age grid
# shared by the rates (~38 B a row, freed once the columns are done) included
_MAX_ROWS = 1_000_000
_EMIT_BLOCK = 1024  # rows formatted per write: only one block's text is alive
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


@functools.cache  # built once per process: each parse_args call returns a new namespace
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
                   help="seed (>= 0) for the Monte-Carlo check in --verify mode")
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
    if args.verify and args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
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


def _quad_tol(closed_values, verify_tol: float):
    # keep oracle noise two orders below the comparison tolerance, scaled
    # by the value under check so tiny high-age quantities stay resolvable
    return max(0.01 * verify_tol, 1e-12) * np.abs(closed_values) + 1e-300


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # |num| / |den|, with 0/0 = 0 and d/0 = inf for d != 0, and no numpy warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.abs(num) / np.abs(den)
    ratio[num == 0.0] = 0.0
    return ratio


def _closed_forms(params: GmParams, args, xs: np.ndarray) -> dict[str, np.ndarray]:
    # one table per rate from one age grid, in the scalar API's row order (mu fails
    # only where D does): at rate 0 its D is l and its a_bar is e_x
    rates = (args.delta, 0.0) + ((2.0 * args.delta,) if args.double_rate else ())
    single, undiscounted, *double = _life_tables(params, rates, xs)
    cols = {"x": xs, "l": undiscounted["D"], "mu": mortality_rates(params, xs)}
    cols.update((k, single[k]) for k in ("D", "N", "M", "a_bar"))
    cols["e_x"] = undiscounted["a_bar"]
    for table in double:
        cols.update((k + "2", table[k]) for k in ("D", "N", "M"))
    if args.diagnostics:
        cols["ageing_factor"] = single["ageing_factor"]
        cols["shape"] = np.full(xs.size, life.positive_shape_check(params, args.delta))
    return cols


def _verify_columns(params: GmParams, args,
                    cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    # the oracle differences: a_bar and M against quadrature, relative, and the
    # Monte-Carlo e_x in standard errors
    xs, delta = cols["x"], args.delta
    q_a = oracle.integrate_survival_table(params, delta, xs,
                                          tol=_quad_tol(cols["a_bar"], args.verify_tol))
    q_m = oracle.integrate_m_table(params, delta, xs, tol=_quad_tol(cols["M"], args.verify_tol))
    est = oracle.mc_remaining_life_table(params, xs, _MC_SAMPLES,
                                         np.random.default_rng(args.seed))
    return dict(zip(_VERIFY_COLUMNS, (_ratio(cols["a_bar"] - q_a.value, q_a.value),
                                      _ratio(cols["M"] - q_m.value, q_m.value),
                                      _ratio(est.mean - cols["e_x"], est.std_error))))


def _compute_columns(params: GmParams, args, xs: np.ndarray) -> dict[str, np.ndarray]:
    try:
        cols = _closed_forms(params, args, xs)
        if args.verify:
            cols.update(_verify_columns(params, args, cols))
    except (OverflowError, ConvergenceError, ValueError) as exc:
        # the scalar API raises exc at age xs[exc.lane], and in its row order only
        # an earlier age can fail first: the ages before it run again
        if exc.lane:
            _compute_columns(params, args, xs[:exc.lane])
        raise _NumericalFailure(xs[exc.lane], exc) from exc
    # perfbench/tracing.py times the mortality layer through these two names, so
    # each is called once per table until it reads counters (ROADMAP §1)
    survival(params, args.x_min)
    mortality_rate(params, args.x_min)
    return cols


def _verify_failure(cols: dict[str, np.ndarray], tol: float) -> str | None:
    # None when every verified difference is <= tol; a NaN difference fails, and
    # is worse than any number
    over = np.column_stack([~(cols[c] <= tol) for c in _DIFF_COLUMNS])
    failed = np.flatnonzero(over.any(axis=1))
    if not failed.size:
        return None
    cells = [(float(cols[c][i]), c, float(cols["x"][i])) for i in failed
             for c in _DIFF_COLUMNS if not cols[c][i] <= tol]
    diff, column, x = max(cells, key=lambda cell: (math.isnan(cell[0]),
                                                   0.0 if math.isnan(cell[0]) else cell[0],
                                                   *cell[1:]))
    return (f"{failed.size} of {cols['x'].size} rows exceed {tol}; worst is "
            f"{column} = {diff:.3g} at age {x:g}")


def _json_cells(c: np.ndarray) -> list:
    # the floats of c, with each non-finite one as the token json writes for it
    values = c.tolist()
    for i in np.flatnonzero(~np.isfinite(c)).tolist():
        values[i] = "NaN" if math.isnan(values[i]) else (
            "Infinity" if values[i] > 0.0 else "-Infinity")
    return values


def _emit(cols: dict[str, np.ndarray], fmt: str, out) -> None:
    fields = list(cols)
    if fmt == "csv":
        from .formatting import format_cells  # JSON-only runs never compile it

        out.write(",".join(fields) + "\n")
        seps = np.full(len(fields), ord(","), np.uint8)
        seps[-1] = ord("\n")
        for start in range(0, cols["x"].size, _EMIT_BLOCK):
            block = np.column_stack([c[start:start + _EMIT_BLOCK] for c in cols.values()])
            out.write(format_cells(block.ravel(), np.tile(seps, len(block))).decode())
    else:
        # json.dumps(rows as dicts, indent=2) is "[\n" + items joined by ",\n" + "\n]",
        # and each item is one template filled with a row: %s of a float is its
        # repr, as json writes it
        item = "  {\n" + ",\n".join(
            "    %s: %%s" % json.dumps(k).replace("%", "%%") for k in fields) + "\n  }"
        out.write("[\n")
        for start in range(0, cols["x"].size, _EMIT_BLOCK):
            rows = zip(*(_json_cells(c[start:start + _EMIT_BLOCK]) for c in cols.values()))
            out.write((",\n" if start else "") + ",\n".join([item % row for row in rows]))
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
        cols = _compute_columns(params, args, _age_grid(args.x_min, args.x_max, args.step))
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
