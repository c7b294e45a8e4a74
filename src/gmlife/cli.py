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

A table is computed as columns, one evaluation per table over the whole
age grid at every rate, from one set of rate-free per-age terms (as
:func:`gmlife.life.life_table` does for one rate), and written a block of
rows at a time by one loop: CSV by :func:`gmlife.formatting.format_cells`, in
numpy and byte for byte ``"%.15g" % v``, and JSON by one template per row,
filled with the tokens ``json.dumps`` writes for the block's cells.
Where the process may run on more than one CPU and the table has more than
one CSV block, the blocks are formatted on a pool of two threads, since numpy
releases the GIL in most of the formatter's work; the main thread submits
them in order, with at most three in flight, and writes each in turn, so the
output is the same bytes.  JSON blocks, Python string work, stay serial.
``--verify`` adds one lane-batched
quadrature per integral over the grid and one Monte-Carlo table, whose ages
share one seeded draw: a row's ``e_x_mc_dev`` depends only on its age and
``--seed``, not on where the row sits in the grid.  A relative difference is
0 where both values are 0 and inf where only the oracle's is; one that is
NaN fails verification.

Exit codes: 0 success, 1 standard output closed before the whole table was
written (as by ``gmlife ... | head``; nothing is printed to stderr), 2 bad
flags or invalid basis (a non-finite ``--step`` or ``--verify-tol``, a rate of
the table whose sum with alpha is not finite, or, with ``--diagnostics``, a
shape that is not, among them), 3 numerical failure at some age (a mu, D, N,
M, a_bar or e_x that would overflow among them), 4 verification failure.
Exit 3
names the first age at which the scalar API raises, taking a row's calls in
column order (l and mu, rate delta, rate 0, twice the rate, then the
oracles), and that call's error.  A batch that fails raises at some failing
age, not necessarily the first: it names a lane, an age at which a scalar
call raises the same.  Only this module orders failures: the ages before
that lane run again, and then its row, mu and one table per rate, in column
order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import deque

import numpy as np

from . import life, oracle
from .life import _life_tables  # by name: perfbench/tracing.py swaps cli.life for __all__
from .mortality import (GmParams, _check_args, _finite_hazards, mortality_rate, mortality_rates,
                        survival)
from .special import ConvergenceError

__all__ = ["main"]

_MC_SAMPLES = 20_000
# At this cap a --double-rate --diagnostics table holds ~92 MB of columns until
# emitted, and computing them peaks at ~255 MB RSS (~239 MB plain), the age grid
# shared by the rates (~38 B a row, freed once the columns are done), mu, made
# from the grid, and the batch twins' lane order and window included.  Where
# every age takes the continued fraction (the worked basis from age 90), the
# peak is ~330 MB (~246 MB plain): the fraction holds its state for the lanes of
# all the rates at once.  Emitting
# on two threads keeps up to _EMIT_WINDOW blocks in flight, a formatter peak of
# ~8 MB (~4 MB serially) whatever the row count
_MAX_ROWS = 1_000_000
_EMIT_BLOCK = 1024  # rows formatted per write
# blocks in flight on the emit pool: with 2 the table's emit took ~15% longer, and 4
# was no faster than 3
_EMIT_WINDOW = 3
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
        # the library's check of each rate of the table
        for rate in _rates(args):
            _check_args(params, rate)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.alpha + args.beta <= 0.0:
        raise _UsageError("need alpha + beta > 0 (otherwise e_x is infinite)")
    if not (0.0 <= args.x_min <= args.x_max):
        raise _UsageError("need 0 <= x-min <= x-max")
    if not 0.0 < args.step < math.inf:
        raise _UsageError(f"--step must be finite and > 0, got {args.step}")
    if not math.isfinite((args.x_max - args.x_min) / args.step):
        raise _UsageError("need finite x-min, x-max and (x-max - x-min) / step")
    n_rows = _row_count(args.x_min, args.x_max, args.step)
    if n_rows > _MAX_ROWS:
        raise _UsageError(f"the age grid has {n_rows:.7g} rows; at most {_MAX_ROWS} "
                          "are allowed")
    if args.verify and not 0.0 < args.verify_tol < math.inf:
        raise _UsageError(f"--verify-tol must be finite and > 0, got {args.verify_tol}")
    if args.verify and args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.diagnostics:
        try:  # the shape is a property of the basis and the rate, not of an age
            life.positive_shape_check(params, args.delta)
        except (ValueError, OverflowError) as exc:
            raise _UsageError(str(exc)) from exc
    return params


def _rates(args) -> tuple[float, ...]:
    # the table's rates in column order: delta, 0 (l and e_x), and twice delta
    return (args.delta, 0.0) + ((2.0 * args.delta,) if args.double_rate else ())


def _row_count(x_min: float, x_max: float, step: float) -> int:
    return math.floor((x_max - x_min) / step + 1e-9) + 1


def _age_grid(x_min: float, x_max: float, step: float) -> np.ndarray:
    return x_min + np.arange(_row_count(x_min, x_max, step)) * step


def _quad_tol(closed_values, verify_tol: float):
    # keep oracle noise two orders below the comparison tolerance, scaled
    # by the value under check so tiny high-age quantities stay resolvable
    return max(0.01 * verify_tol, 1e-12) * np.abs(closed_values) + 1e-300


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # |num| / |den|, with 0/0 = 0 and d/0 = inf for d != 0
    ratio = np.abs(num) / np.abs(den)
    ratio[num == 0.0] = 0.0
    return ratio


def _closed_forms(params: GmParams, args, xs: np.ndarray) -> dict[str, np.ndarray]:
    # one table per rate, and mu, from one age grid: at rate 0 its D is l and its
    # a_bar is e_x.  mu overflows where D or the tables fail with the same error,
    # or else (alpha + beta e**(gamma x) past the largest double, the tables finite)
    # alone, where it is checked last
    mu, (single, undiscounted, *double) = _life_tables(params, _rates(args), xs)
    cols = {"x": xs, "l": undiscounted["D"], "mu": _finite_hazards(mu)}
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
    # Monte-Carlo e_x in standard errors.  numpy warns of nothing here: a
    # difference from an oracle value of 0 is inf, one that is NaN fails
    # verification, and an oracle that cannot form a finite value, or a quadrature
    # that never converges, raises at its lane
    xs, delta = cols["x"], args.delta
    with np.errstate(all="ignore"):
        q_a = oracle.integrate_survival_table(
            params, delta, xs, tol=_quad_tol(cols["a_bar"], args.verify_tol))
        q_m = oracle.integrate_m_table(params, delta, xs,
                                       tol=_quad_tol(cols["M"], args.verify_tol))
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
        # some call of the scalar API raises exc at age xs[exc.lane].  The ages
        # before it run again, then that age's row call by call, in column order:
        # mu, then each rate's table.  The first error wins; where none fails, exc
        # is an oracle's, which comes last in a row
        lane = exc.lane
        if lane:
            _compute_columns(params, args, xs[:lane])
        row = xs[lane:lane + 1]
        try:
            mortality_rates(params, row)
            for rate in _rates(args):
                life.life_table(params, rate, row)
        except (OverflowError, ConvergenceError, ValueError) as first:
            raise _NumericalFailure(xs[lane], first) from first
        raise _NumericalFailure(xs[lane], exc) from exc
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


def _cpu_count() -> int:
    # the CPUs this process may run on
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_blocks(block_text, starts: range, out) -> None:
    # out.write(block_text(start)) for start in starts, in order, with the texts
    # made on two pool threads and at most _EMIT_WINDOW blocks in flight.  Only this
    # thread writes.  If a block or a write raises, the blocks not yet started are
    # dropped and the pool is joined before the error reaches the caller
    from concurrent.futures import ThreadPoolExecutor  # serial runs never import it

    pending = deque()
    pool = ThreadPoolExecutor(2, thread_name_prefix="gmlife-emit")
    try:
        for start in starts:
            pending.append(pool.submit(block_text, start))
            if len(pending) == _EMIT_WINDOW:
                out.write(pending.popleft().result())
        for future in pending:
            out.write(future.result())
    finally:
        pool.shutdown(cancel_futures=True)


def _emit(cols: dict[str, np.ndarray], fmt: str, out) -> None:
    # a header, the text of each block of _EMIT_BLOCK rows, and a footer
    fields = list(cols)
    if fmt == "csv":
        from .formatting import format_cells  # JSON-only runs never build its tables

        head, foot = ",".join(fields) + "\n", ""
        seps = np.full(len(fields), ord(","), np.uint8)
        seps[-1] = ord("\n")

        def block_text(start: int) -> str:
            block = np.column_stack([c[start:start + _EMIT_BLOCK] for c in cols.values()])
            return format_cells(block.ravel(), np.tile(seps, len(block))).decode()
    else:
        # json.dumps(rows as dicts, indent=2) is "[\n" + items joined by ",\n" + "\n]",
        # and each item is one template filled with the tokens json.dumps writes for
        # the row's floats
        head, foot = "[\n", "\n]\n"
        item = "  {\n" + ",\n".join(
            "    %s: %%s" % json.dumps(k).replace("%", "%%") for k in fields) + "\n  }"

        def block_text(start: int) -> str:
            rows = zip(*(json.dumps(c[start:start + _EMIT_BLOCK].tolist())[1:-1].split(", ")
                         for c in cols.values()))
            return (",\n" if start else "") + ",\n".join([item % row for row in rows])

    out.write(head)
    starts = range(0, cols["x"].size, _EMIT_BLOCK)
    if fmt == "csv" and len(starts) > 1 and _cpu_count() > 1:
        # format_cells releases the GIL in most of its numpy calls; JSON's block is
        # Python work, which the pool measured slower
        _write_blocks(block_text, starts, out)
    else:
        for start in starts:
            out.write(block_text(start))
    out.write(foot)


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
    try:
        _emit(cols, args.format, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader has gone (gmlife ... | head): the recipe of the signal module's
        # docs, so that the flush at exit writes to nothing and prints no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    failure = _verify_failure(cols, args.verify_tol) if args.verify else None
    if failure:
        print(f"{parser.prog}: verification failed: {failure}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
