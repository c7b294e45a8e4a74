"""Tests for the command-line table generator."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gmlife.cli
import gmlife.life
import gmlife.oracle
import gmlife.special
from gmlife import (
    ageing_factor,
    annuity,
    commutation_d,
    commutation_row,
    integrate_m,
    integrate_survival,
    life_table,
    mc_remaining_life,
    mortality_rate,
    positive_shape_check,
    remaining_life,
    survival,
)
from gmlife import formatting
from gmlife.cli import main
from gmlife.formatting import format_cells
from gmlife.mortality import GmParams
from gmlife.special import ConvergenceError

BLOCK = gmlife.cli._EMIT_BLOCK
REMARK_FLAGS = [
    "--alpha", "0.001", "--beta", "0.000012", "--gamma", "0.101314",
    "--delta", "0.026559",
]


# argv that exit 3, and the stderr message after "gmlife: numerical failure "
EXIT_3_CASES = [
    # e**(gamma*x) is representable at 7000 and overflows at 8000
    (REMARK_FLAGS + ["--x-min", "7000", "--x-max", "8000", "--step", "1000"],
     "at age 8000: math range error"),
    # the shape -(alpha + delta)/gamma overflows to -inf
    (["--alpha", "0.001", "--beta", "0.000012", "--gamma", "0.101314",
      "--delta", "1e308", "--x-min", "5", "--x-max", "6", "--step", "1"],
     "at age 5: shape and argument must be finite, got "
     "(-inf, 0.0001965677830446641)"),
    # shape -600 needs 600 downward steps from the series, over the budget
    (["--alpha", "60", "--beta", "1e-5", "--gamma", "0.1",
      "--x-min", "0", "--x-max", "2", "--step", "1"],
     "at age 0: shape -600.0 is over 500 steps below the series (z=0.0001)"),
    # beta e**(gamma x) overflows at age 110, and e**(gamma x) does not
    (["--alpha", "0", "--beta", "1e300", "--gamma", "1",
      "--x-min", "10", "--x-max", "110", "--step", "100"],
     "at age 110: beta * e**(gamma_exp * x) is too large at this age: the value "
     "overflows"),
    # alpha + beta e**(gamma x) overflows, and every other value is finite
    (["--alpha", "1e300", "--beta", "1.7976931348623157e308", "--gamma", "1e300",
      "--x-min", "0", "--x-max", "0", "--step", "1"],
     "at age 0: beta * e**(gamma_exp * x) is too large at this age: the value "
     "overflows"),
    # alpha + beta e**(gamma x) overflows, and the fraction at shape -1e308 stalls at
    # the same age: mu comes first in a row
    (["--alpha", "1e308", "--beta", "1e308", "--gamma", "1",
      "--x-min", "0", "--x-max", "0", "--step", "1"],
     "at age 0: beta * e**(gamma_exp * x) is too large at this age: the value "
     "overflows"),
]

# (basis, delta, grid flags) that exit 3 with the scalar API's first failure
SCALAR_API_CASES = [
    # e**(gamma*x) overflows from age 7006.03 on: the 7th row
    (GmParams(0.001, 0.000012, 0.101314), 0.026559,
     ["--x-min", "7000", "--x-max", "8000", "--step", "1.005"]),
    # (alpha + delta)/gamma = 799.5 needs 800 steps down from the series,
    # over the budget; the series serves the rows below z = 1.1 only
    (GmParams(81.0, 0.01, 0.101314), 0.0,
     ["--x-min", "0", "--x-max", "60", "--step", "3", "--double-rate", "--verify"]),
    # every rate fails at age 0; the rate-delta column comes first in a row,
    # so its shape -600.3 is named, not the -600.0 of e_x
    (GmParams(60.0, 1e-5, 0.1), 0.03,
     ["--x-min", "0", "--x-max", "2", "--step", "1", "--double-rate"]),
    # D overflows at age 8000, but the step budget fails at age 0 already
    (GmParams(81.0, 0.01, 0.101314), 0.0,
     ["--x-min", "0", "--x-max", "8000", "--step", "1000"]),
    # mu overflows at age 0, where every rate's fraction stalls too
    (GmParams(1e308, 1e308, 1.0), 0.0, ["--x-min", "0", "--x-max", "0", "--step", "1"]),
    # at age 0 the shape at twice the rate overflows to -inf, whose argument check
    # the batch runs first, and the rate-delta column, first in a row, is over the
    # step budget
    (GmParams(0.0, 1e-301, 1e-300), 1.5e8,
     ["--x-min", "0", "--x-max", "2", "--step", "1", "--double-rate"]),
]

# argv whose grid or tolerance is not finite and which _validate must reject:
# past it, the age grid holds 0 * inf and the quadrature tolerance inf * 0
NON_FINITE_STEP_AND_TOL = [
    REMARK_FLAGS + ["--x-min", "5", "--x-max", "5", "--step", "inf"],
    REMARK_FLAGS + ["--x-min", "0", "--x-max", "1000", "--step", "100",
                    "--verify", "--verify-tol", "inf"],
]

# argv at an overflow edge, each with its exit code: gamma * x or e**(gamma x)
# (exit 3), alpha + a rate of the table (exit 2) or a_bar (exit 3) overflows
OVERFLOW_CASES = [
    (["--alpha", "0", "--beta", "1e-3", "--gamma", "1e308",
      "--x-min", "2", "--x-max", "2", "--step", "1"], 3),
    (["--alpha", "0", "--beta", "1e-3", "--gamma", "1e308",
      "--x-min", "0", "--x-max", "2", "--step", "1"], 3),
    (["--alpha", "1e308", "--beta", "0", "--gamma", "1", "--delta", "1e308",
      "--x-min", "0", "--x-max", "1", "--step", "1"], 2),
    (["--alpha", "1e308", "--beta", "0", "--gamma", "1", "--delta", "1e308",
      "--x-min", "0", "--x-max", "1", "--step", "1", "--verify"], 2),
    (["--alpha", "1e308", "--beta", "0", "--gamma", "1", "--delta", "5e307",
      "--x-min", "0", "--x-max", "1", "--step", "1", "--double-rate"], 2),
    (["--alpha", "5e-324", "--beta", "0", "--gamma", "1", "--delta", "1e-310",
      "--x-min", "0", "--x-max", "1", "--step", "1"], 3),
    (["--alpha", "5e-324", "--beta", "5e-324", "--gamma", "5e-324", "--delta", "5e-324",
      "--x-min", "0", "--x-max", "0", "--step", "1"], 3),
]

# each numeric flag of the traceback sweep takes one of these values
EDGE_NUMBERS = [0.0, -0.0, 5e-324, 1e-300, 1e-3, 0.1, 1.0, 110.0, 1e300, 1e308,
                math.inf, -math.inf, math.nan]


@st.composite
def edge_argv(draw):
    # "--flag=value", since argparse takes a bare "-inf" for a flag
    argv = [f"--{flag}={draw(st.sampled_from(EDGE_NUMBERS))!r}" for flag in
            ("alpha", "beta", "gamma", "delta", "x-min", "x-max", "step", "verify-tol")]
    argv.append(f"--seed={draw(st.sampled_from([0, 1, -1]))}")
    return argv + [flag for flag in ("--double-rate", "--diagnostics", "--verify",
                                     "--format=json") if draw(st.booleans())]


def src_env():
    # the environment of a python subprocess that imports this checkout's gmlife
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(gmlife.cli.__file__).parents[1]), env.get("PYTHONPATH"))
        if p)
    return env


def scalar_api_argv(params, delta, grid):
    return ["--alpha", repr(params.alpha), "--beta", repr(params.beta),
            "--gamma", repr(params.gamma_exp), "--delta", repr(delta), *grid]


def scalar_api_failure(params, delta, grid):
    # the stderr line for the first failing call of the scalar API, row by row
    # in column order
    x_min, x_max, step = (float(v) for v in grid[1:6:2])
    for i in range(math.floor((x_max - x_min) / step) + 1):
        x = x_min + i * step
        try:
            survival(params, x)
            mortality_rate(params, x)
            row = commutation_row(params, delta, x)
            remaining_life(params, x)
            if "--double-rate" in grid:
                commutation_row(params, delta, x, double_rate=True)
            if "--verify" in grid:  # at the CLI's tolerance, 1e-9 of the value
                integrate_survival(params, delta, x,
                                   tol=1e-9 * annuity(params, delta, x) + 1e-300)
                integrate_m(params, delta, x, tol=1e-9 * row.m_val + 1e-300)
                mc_remaining_life(params, x, 20_000, np.random.default_rng(0))
        except (OverflowError, ConvergenceError, ValueError) as exc:
            return f"gmlife: numerical failure at age {x:g}: {exc}\n"
    return None


@st.composite
def failing_double_rate_case(draw):
    # (max_iter, handoff width, basis, delta, grid flags): up to 6 ages from z in
    # 0.01..2.  The shape at twice the rate is 1.1 to 2 step budgets below the
    # series, and alpha takes a share of it: below the split the step budget fails
    # at rate 2 delta, and at rate delta where that share is large.  At 12
    # iterations the fraction and the series stall near the split too
    max_iter = draw(st.sampled_from((12, 500)))
    gam, beta = draw(st.floats(0.05, 0.5)), draw(st.floats(1e-5, 1e-2))
    size, share = draw(st.floats(1.1, 2.0)) * max_iter * gam, draw(st.floats(0.0, 1.0))
    alpha, delta = share * size, (1.0 - share) * size / 2.0
    x_min = max(0.0, math.log(draw(st.floats(0.01, 2.0)) * gam / beta) / gam)
    step = draw(st.floats(0.2, 2.0)) / gam
    rows = draw(st.integers(1, 6))
    grid = ["--x-min", repr(x_min), "--x-max", repr(x_min + (rows - 0.5) * step),
            "--step", repr(step), "--double-rate"]
    return (max_iter, draw(st.sampled_from((0, gmlife.special._HANDOFF_LANES))),
            GmParams(alpha, beta, gam), delta, grid)


def run_cli(capsys, *extra):
    code = main(REMARK_FLAGS + list(extra))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def row_writer(cols):
    # the CSV writer the block formatter replaced: one % template per row
    line = ",".join(["%.15g"] * len(cols)) + "\n"
    rows = zip(*(c.tolist() for c in cols.values()))
    return ",".join(cols) + "\n" + "".join(line % row for row in rows)


def mixed_columns(n):
    # n rows of CSV columns with every kind of cell the numpy digits leave to "%.15g"
    rng = np.random.default_rng(11)
    specials = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                -2.5e-310, 1 + 2**-15, 999999999999999.5]
    cols = {"x": np.arange(n) * 0.01, "normal": rng.standard_normal(n),
            "wide": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 308, n),
            "whole": np.floor(rng.uniform(0, 1e6, n)), "const": np.full(n, -0.25)}
    for c in ("normal", "wide", "whole"):
        picks = rng.choice(n, size=min(n, 3 * len(specials)), replace=False)
        cols[c][picks] = (specials * 3)[:picks.size]
    return cols


def emit_on_two_cpus(monkeypatch, cols, out, error):
    # cli._emit(cols, "csv", out) as where two CPUs are free, on a thread of its
    # own so that a hang fails; returns what it raised of type error, once every
    # thread it started has gone
    raised = []

    def emit():
        try:
            gmlife.cli._emit(cols, "csv", out)
        except error as exc:
            raised.append(exc)

    monkeypatch.setattr(gmlife.cli, "_cpu_count", lambda: 2)
    before = threading.active_count()
    caller = threading.Thread(target=emit, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert threading.active_count() == before
    return raised


def formatted(values):
    # the cell formatter over values, each cell followed by "," or "\n" in turn
    v = np.asarray(values, dtype=np.float64)
    seps = np.where(np.arange(v.size) % 2, ord("\n"), ord(",")).astype(np.uint8)
    return format_cells(v, seps).decode()


def percent_cells(values):
    return "".join("%.15g" % x + ",\n"[i % 2] for i, x in enumerate(values))


# cells the numpy digits cannot decide and "%.15g" must: ties at the 15th digit,
# decade carries, a log10 misestimate, and the edges of the fixed %g form and of
# the formatted range
ADVERSARIAL_CELLS = [
    (1 + 2**-15, "1.00003051757812"),  # a tie, rounded down to an even digit
    (1 + 3 * 2**-15, "1.00009155273438"),  # a tie, rounded up to an even digit
    (999999999999999.5, "1e+15"),
    (9.9999999999999995e-05, "0.0001"),
    (999999999999999.4, "999999999999999"),
    (1e-05, "1e-05"),
    (9.99999999999999e-05, "9.99999999999999e-05"),
    (0.0001, "0.0001"),
    (0.000123456789012345, "0.000123456789012345"),
    (99999999999999.9, "99999999999999.9"),
    (123456789012345.6, "123456789012346"),
    (1e15, "1e+15"),
    (1.5e15, "1.5e+15"),
    (1e100, "1e+100"),
    (-1.23e-100, "-1.23e-100"),
    (1e-199, "1e-199"),
    (1e199, "1e+199"),
    (9.99e198, "9.99e+198"),
    (1.7976931348623157e308, "1.79769313486232e+308"),
    (2.2250738585072014e-308, "2.2250738585072e-308"),
    (5e-324, "4.94065645841247e-324"),
    (-0.0, "-0"),
    (0.0, "0"),
]


class TestCsvTable:
    def test_worked_basis_full_grid(self, capsys):
        code, out, err = run_cli(
            capsys, "--x-min", "0", "--x-max", "100", "--step", "1",
            "--format", "csv",
        )
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["x", "l", "mu", "D", "N", "M", "a_bar", "e_x"]
        assert len(rows) == 101
        assert [float(r[0]) for r in rows] == list(map(float, range(101)))
        # spot-check the age-40 row against the library
        p = GmParams(0.001, 0.000012, 0.101314)
        row40 = rows[40]
        assert float(row40[6]) == pytest.approx(annuity(p, 0.026559, 40.0), rel=1e-14, abs=0)
        assert float(row40[7]) == pytest.approx(remaining_life(p, 40.0), rel=1e-14, abs=0)

    def test_single_row_perpetuity_like(self, capsys):
        code = main([
            "--alpha", "0.01", "--beta", "0", "--gamma", "0.1",
            "--delta", "0.03", "--x-min", "0", "--x-max", "0", "--step", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1
        a_bar = float(rows[0][header.index("a_bar")])
        assert a_bar == pytest.approx(25.0, rel=1e-12, abs=0)

    def test_fifteen_digit_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--x-min", "0", "--x-max", "60",
                               "--step", "7.5")
        assert code == 0
        header, rows = parse_csv(out)
        p = GmParams(0.001, 0.000012, 0.101314)
        for row in rows:
            x = float(row[0])
            want = commutation_d(p, 0.026559, x)
            got = float(row[header.index("D")])
            # one unit in the 15th significant digit
            ulp15 = 10.0 ** (math.floor(math.log10(abs(want))) - 14)
            assert abs(got - want) <= ulp15

    def test_lf_line_endings_and_decimal_points(self, capsys):
        code, out, _ = run_cli(capsys, "--x-min", "0", "--x-max", "3", "--step", "1")
        assert code == 0
        assert "\r" not in out
        assert "," in out and ";" not in out.splitlines()[0]

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "--x-min", "0", "--x-max", "20", "--step", "5")
        _, out2, _ = run_cli(capsys, "--x-min", "0", "--x-max", "20", "--step", "5")
        assert out1 == out2

    def test_calls_in_one_process_share_no_parsed_state(self, capsys):
        # main builds its parser once per process: a call after another, with
        # other flags, writes what the same call writes with a parser of its own
        grid = ["--x-min", "80", "--x-max", "100", "--step", "5"]
        pairs = ((grid + ["--double-rate", "--diagnostics"], grid),
                 (grid + ["--verify", "--seed", "0"], grid + ["--verify", "--seed", "1"]))
        for pair in pairs:
            lone = []
            for argv in pair:
                gmlife.cli._build_parser.cache_clear()
                lone.append(run_cli(capsys, *argv))
            gmlife.cli._build_parser.cache_clear()
            assert [run_cli(capsys, *argv) for argv in pair] == lone
            assert lone[0] != lone[1]


class TestCsvEmitter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(0, 2**64 - 1),
                              st.floats().map(lambda x: int(np.float64(x).view(np.uint64)))),
                    min_size=1, max_size=40))
    def test_cell_formatter_is_percent_format(self, bits):
        # raw 64-bit patterns: NaN payloads, subnormals and both zeros among them
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert formatted(values) == percent_cells(values.tolist())

    def test_cell_formatter_on_adversarial_cells(self):
        values = [v for v, _ in ADVERSARIAL_CELLS]
        assert ["%.15g" % v for v in values] == [text for _, text in ADVERSARIAL_CELLS]
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values += [-v for v in values] + np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]).tolist()
        assert formatted(values) == percent_cells(values)

    def test_table_is_what_the_row_writer_writes(self):
        # three blocks of rows, the last one partial
        cols = mixed_columns(2 * gmlife.cli._EMIT_BLOCK + 37)
        out = io.StringIO()
        gmlife.cli._emit(cols, "csv", out)
        assert out.getvalue() == row_writer(cols)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rows", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 37])
    def test_serial_and_threaded_emit_write_the_same_bytes(self, monkeypatch, cpus,
                                                           rows):
        # a pool of at most two threads formats blocks where there are two CPUs or
        # more and two blocks or more, and no thread is started otherwise; either
        # way the text is the row writer's, and every thread is joined
        started = []

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(gmlife.cli, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", Thread)
        cols = mixed_columns(rows)
        out = io.StringIO()
        gmlife.cli._emit(cols, "csv", out)
        assert out.getvalue() == row_writer(cols)
        assert bool(started) == (cpus > 1 and rows > BLOCK)
        assert len(started) <= 2
        assert not any(t.is_alive() for t in started)

    def test_formatter_tables_under_concurrent_first_use(self):
        # two threads read the power and layout tables at once, each formatting
        # its own cells, a few at a time, over every exponent and many layout
        # keys, with the interpreter switching threads as often as it can
        rng = np.random.default_rng(3)
        n = 4_000
        digits = 10.0 ** rng.integers(0, 15, n)  # 1 to 15 significant digits
        mantissas = np.floor(rng.uniform(1.0, 10.0, n) * digits) / digits
        cells = rng.choice([-1.0, 1.0], n) * mantissas * 10.0 ** rng.integers(-320, 308, n)
        halves = [cells[0::2], cells[1::2]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                start = threading.Barrier(2)
                texts = [None, None]

                def work(k):
                    start.wait(timeout=30)
                    texts[k] = "".join(formatted(halves[k][i:i + 10])
                                       for i in range(0, halves[k].size, 10))

                threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for half, text in zip(halves, texts):
                    assert text == percent_cells(half.tolist())
        finally:
            sys.setswitchinterval(interval)

    def test_benchmark_table_serial_and_threaded(self, monkeypatch):
        # the benchmark's table, 11,001 rows of --double-rate --diagnostics on the
        # worked basis: formatted serially on one CPU and on two threads with two,
        # it is the row writer's text both ways
        args = gmlife.cli._build_parser().parse_args(
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "110", "--step", "0.01",
                            "--double-rate", "--diagnostics"])
        xs = gmlife.cli._age_grid(args.x_min, args.x_max, args.step)
        cols = gmlife.cli._compute_columns(gmlife.cli._validate(args), args, xs)
        texts = []
        for cpus in (1, 2):
            monkeypatch.setattr(gmlife.cli, "_cpu_count", lambda: cpus)
            out = io.StringIO()
            gmlife.cli._emit(cols, "csv", out)
            texts.append(out.getvalue())
        assert len(cols["x"]) == 11_001
        assert texts[0] == texts[1] == row_writer(cols)

    def test_formatter_tables_are_built_for_csv_only_and_read_only(self):
        # importing gmlife and its CLI builds no formatter table; importing the
        # formatter builds every one, and nothing can write them after
        probe = "import sys, gmlife, gmlife.cli; print('gmlife.formatting' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=src_env(), timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
        tables = [v for v in vars(formatting).values() if isinstance(v, np.ndarray)]
        assert len(tables) == 6
        assert not any(table.flags.writeable for table in tables)

    @pytest.mark.parametrize("failing", [2, 1, 3, 6])
    def test_a_failing_write_leaves_no_thread(self, monkeypatch, failing):
        # the write of one block, the second by default, raises: the pool threads
        # formatting blocks are joined before the error reaches the caller.
        # Writes are slow, so the pool runs ahead and its window fills
        class ClosedAfterSomeBlocks(io.StringIO):
            blocks = 0

            def write(self, text):
                if text.startswith("x,"):  # the header
                    return super().write(text)
                time.sleep(0.02)
                self.blocks += 1
                if self.blocks == failing:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        out = ClosedAfterSomeBlocks()
        raised = emit_on_two_cpus(monkeypatch, mixed_columns(8 * BLOCK), out,
                                  BrokenPipeError)
        assert len(raised) == 1 and out.blocks == failing

    @pytest.mark.parametrize("failing", [0, 1, 3])
    def test_a_failing_block_leaves_no_thread(self, monkeypatch, failing):
        # formatting one block raises on a pool thread: the error reaches the
        # caller once the pool is joined, and the blocks before it are written
        cols = mixed_columns(8 * BLOCK)
        real = formatting.format_cells

        def format_cells(cells, seps):
            if cells[0] == cols["x"][failing * BLOCK]:  # the block's first age
                raise ArithmeticError(f"block {failing}")
            return real(cells, seps)

        monkeypatch.setattr(formatting, "format_cells", format_cells)
        out = io.StringIO()
        raised = emit_on_two_cpus(monkeypatch, cols, out, ArithmeticError)
        assert [str(exc) for exc in raised] == [f"block {failing}"]
        assert out.getvalue() == row_writer({k: c[:failing * BLOCK]
                                             for k, c in cols.items()})

    def test_a_closed_pipe_exits_1_quietly(self):
        # `gmlife ... | head -c 100`: the reader goes away after 100 bytes of an
        # 11,001-row table, and gmlife exits 1 with nothing on stderr
        argv = [sys.executable, "-m", "gmlife.cli", *REMARK_FLAGS,
                "--x-min", "0", "--x-max", "110", "--step", "0.01"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=src_env()) as proc:
            try:
                assert len(proc.stdout.read(100)) == 100
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert (proc.returncode, err) == (1, b"")

    def test_verify_table_is_what_the_row_writer_writes(self, capsys):
        grid = ["--x-min", "0", "--x-max", "100", "--step", "10", "--verify"]
        _, text, _ = run_cli(capsys, *grid, "--format", "json")
        rows = json.loads(text)
        cols = {k: np.array([row[k] for row in rows]) for k in rows[0]}
        code, out, err = run_cli(capsys, *grid, "--format", "csv")
        assert code == 0, err
        assert out == row_writer(cols)


class TestJsonTable:
    def test_keys_match_csv_header(self, capsys):
        code, out_csv, _ = run_cli(capsys, "--x-min", "0", "--x-max", "5",
                                   "--step", "1", "--double-rate", "--diagnostics")
        assert code == 0
        header, _ = parse_csv(out_csv)
        code, out_json, _ = run_cli(capsys, "--x-min", "0", "--x-max", "5",
                                    "--step", "1", "--double-rate", "--diagnostics",
                                    "--format", "json")
        assert code == 0
        data = json.loads(out_json)
        assert isinstance(data, list) and len(data) == 6
        for obj in data:
            assert list(obj.keys()) == header

    def test_values_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "--x-min", "30", "--x-max", "30",
                               "--step", "1", "--format", "json")
        data = json.loads(out)
        p = GmParams(0.001, 0.000012, 0.101314)
        assert data[0]["a_bar"] == pytest.approx(annuity(p, 0.026559, 30.0), rel=1e-14, abs=0)

    def test_emitter_writes_what_json_dumps_writes(self):
        # two emit blocks of rows, with every kind of float json spells out on
        # its own, and keys that need escaping in json and in a % template
        from gmlife.cli import _emit

        n = 1_500
        rng = np.random.default_rng(5)
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300]
        cols = {"x": np.arange(n) * 0.01, "a_bar": rng.standard_normal(n),
                '50% "q"\\': rng.random(n) * 1e-200}
        for c in cols.values():
            c[rng.choice(n, size=4 * len(specials), replace=False)] = specials * 4
        out = io.StringIO()
        _emit(cols, "json", out)
        rows = [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]
        assert out.getvalue() == json.dumps(rows, indent=2) + "\n"


class TestDoubleRateAndDiagnostics:
    def test_double_rate_columns(self, capsys):
        code, out, _ = run_cli(capsys, "--x-min", "40", "--x-max", "40",
                               "--step", "1", "--double-rate", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        for key in ("D2", "N2", "M2"):
            assert key in row
        assert row["M2"] == pytest.approx(
            row["D2"] - 2.0 * 0.026559 * row["N2"], rel=1e-12, abs=0
        )

    def test_diagnostics_columns(self, capsys):
        code, out, _ = run_cli(capsys, "--x-min", "0", "--x-max", "0",
                               "--step", "1", "--diagnostics", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["shape"] == pytest.approx(0.727984, abs=5e-7)
        assert 0.0 <= row["ageing_factor"] < 1.0


class TestOneEngine:
    def test_rows_equal_scalar_api_bit_for_bit(self, capsys):
        # the worked basis crosses z = 1 at age 89.24; the second basis has
        # shape -1.5, the third no senescence, and the fourth alpha + delta = 0,
        # where the ageing factor is 1 to within rounding and the shape is 1
        bases = [(GmParams(0.001, 0.000012, 0.101314), 0.026559),
                 (GmParams(0.15, 3e-4, 0.08), 0.05),
                 (GmParams(0.01, 0.0, 0.1), 0.03),
                 (GmParams(0.0, 0.000012, 0.101314), 0.0)]
        for p, delta in bases:
            code = main(["--alpha", repr(p.alpha), "--beta", repr(p.beta),
                         "--gamma", repr(p.gamma_exp), "--delta", repr(delta),
                         "--x-min", "0", "--x-max", "1000", "--step", "7.3",
                         "--double-rate", "--diagnostics", "--format", "json"])
            rows = json.loads(capsys.readouterr().out)
            assert code == 0 and len(rows) == 137
            for row in rows:
                x = row["x"]
                single = commutation_row(p, delta, x)
                double = commutation_row(p, delta, x, double_rate=True)
                assert (row["D"], row["N"], row["M"]) == (
                    single.d_val, single.n_val, single.m_val), (p, x)
                assert (row["D2"], row["N2"], row["M2"]) == (
                    double.d_val, double.n_val, double.m_val), (p, x)
                assert row["a_bar"] == annuity(p, delta, x), (p, x)
                assert row["e_x"] == remaining_life(p, x), (p, x)
                assert row["ageing_factor"] == ageing_factor(p, delta, x), (p, x)
                assert row["l"] == survival(p, x), (p, x)
                assert row["mu"] == mortality_rate(p, x), (p, x)
                assert row["shape"] == positive_shape_check(p, delta), (p, x)

    def test_one_engine_evaluation_per_table(self, capsys, monkeypatch):
        real = gmlife.life._ratio_pair_array
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        def per_row(*args):
            raise AssertionError("a table evaluated row by row")

        monkeypatch.setattr(gmlife.life, "_ratio_pair_array", counting)
        # every scalar route (remaining_life, annuity, _commutation) looks _evaluate
        # up when it runs, so this also catches a per-row _commutation beside the batch
        monkeypatch.setattr(gmlife.life, "_evaluate", per_row)
        # one batch per table, whatever the row count, for the shapes of every rate:
        # a_bar at delta (which also gives the ageing factor), e_x, and a_bar at
        # 2 * delta
        for extra, rates in ((["--double-rate", "--diagnostics"], 3), ([], 2)):
            for step in ("10", "0.1"):
                calls.clear()
                code, _, _ = run_cli(capsys, "--x-min", "0", "--x-max", "110",
                                     "--step", step, *extra)
                assert code == 0
                assert [len(args[0]) for args in calls] == [rates], (extra, step)

    @pytest.mark.parametrize("width", [gmlife.special._HANDOFF_LANES, 0])
    def test_small_tables_build_no_lane_state(self, capsys, monkeypatch, width):
        # a batch twin given at most _HANDOFF_LANES lanes runs them all in the scalar
        # loop before it sorts them: a one-age table (the series at age 40, the
        # fraction at 95) and a one-row CLI run give the scalar API's bits without
        # building _Lanes or forming ln z and e**z per element.  At width 0 every twin
        # builds _Lanes, so this can fail
        def no_lanes(key):
            raise AssertionError("lane state built for a small table")

        def outcome():
            return (contextlib.nullcontext() if width else
                    pytest.raises(AssertionError, match="lane state"))

        real, per_element = gmlife.special._per_element, []
        monkeypatch.setattr(gmlife.special, "_per_element",
                            lambda *args: per_element.append(args) or real(*args))
        monkeypatch.setattr(gmlife.special, "_Lanes", no_lanes)
        monkeypatch.setattr(gmlife.special, "_HANDOFF_LANES", width)
        p, delta = GmParams(0.001, 0.000012, 0.101314), 0.026559
        for x in (40.0, 95.0):
            row, double = (commutation_row(p, delta, x, double_rate=twice)
                           for twice in (False, True))
            want = {"D": row.d_val, "N": row.n_val, "M": row.m_val,
                    "a_bar": annuity(p, delta, x), "ageing_factor": ageing_factor(p, delta, x)}
            with outcome():
                table = life_table(p, delta, [x])
                assert {k: v.tolist() for k, v in table.items()} == {
                    k: [v] for k, v in want.items()}, x
            assert not (width and per_element), x
            with outcome():
                code, out, _ = run_cli(capsys, "--x-min", repr(x), "--x-max", repr(x),
                                       "--step", "1", "--double-rate", "--diagnostics",
                                       "--format", "json")
                assert code == 0 and json.loads(out) == [{
                    **want, "x": x, "l": survival(p, x), "mu": mortality_rate(p, x),
                    "e_x": remaining_life(p, x), "D2": double.d_val, "N2": double.n_val,
                    "M2": double.m_val, "shape": positive_shape_check(p, delta)}], x

    def test_verify_calls_each_oracle_once_per_table(self, capsys, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(gmlife.oracle, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        def per_row(*args, **kwargs):
            raise AssertionError("an oracle called row by row")

        for name in ("integrate_survival", "integrate_m", "mc_remaining_life"):
            monkeypatch.setattr(gmlife.oracle, name + "_table", counting(name + "_table"))
            monkeypatch.setattr(gmlife.oracle, name, per_row)
        code, _, err = run_cli(capsys, "--x-min", "0", "--x-max", "110", "--step", "5",
                               "--verify")
        assert code == 0, err
        assert sorted(calls) == ["integrate_m_table", "integrate_survival_table",
                                 "mc_remaining_life_table"]


class TestVerifyMode:
    def test_verify_passes_on_worked_basis(self, capsys):
        # the second grid is the benchmark's verify workload; it holds ages
        # (11.13, 27.13, 75.13) where adaptive Simpson converges falsely.  The
        # Monte-Carlo e_x of every row is within 5 standard errors, at 4 seeds
        for x_min, x_max, step in (("0", "100", "10"), ("0.13", "110", "1")):
            for seed in range(4):
                code, out, err = run_cli(
                    capsys, "--x-min", x_min, "--x-max", x_max, "--step", step,
                    "--verify", "--verify-tol", "1e-7", "--seed", str(seed),
                )
                assert code == 0, err
                header, rows = parse_csv(out)
                for col in ("a_bar_rel_diff", "m_rel_diff", "e_x_mc_dev"):
                    assert col in header
                for row in rows:
                    assert float(row[header.index("a_bar_rel_diff")]) <= 1e-7
                    assert float(row[header.index("m_rel_diff")]) <= 1e-7
                    mc_dev = float(row[header.index("e_x_mc_dev")])
                    assert math.isfinite(mc_dev) and mc_dev < 5.0, (seed, row[0])

    def test_mc_column_does_not_depend_on_the_grid(self, capsys):
        # a row's Monte-Carlo deviation depends only on its age and the seed: age
        # 40.13 reads the same in the benchmark's 110-row grid as on its own
        _, grid, _ = run_cli(capsys, "--x-min", "0.13", "--x-max", "110", "--step", "1",
                             "--verify", "--seed", "1", "--format", "json")
        _, one, _ = run_cli(capsys, "--x-min", "40.13", "--x-max", "40.13", "--step", "1",
                            "--verify", "--seed", "1", "--format", "json")
        (row,) = [r for r in json.loads(grid) if r["x"] == 40.13]
        assert row["e_x_mc_dev"] == json.loads(one)[0]["e_x_mc_dev"]

    def test_verify_fails_with_impossible_tolerance(self, capsys):
        # several rows, since the oracle can agree with a single row exactly
        code, out, err = run_cli(
            capsys, "--x-min", "0", "--x-max", "100", "--step", "10",
            "--verify", "--verify-tol", "1e-16", "--format", "json",
        )
        assert code == 4
        rows = json.loads(out)  # the table is still emitted
        columns = ("a_bar_rel_diff", "m_rel_diff")
        failed = [row for row in rows if max(row[c] for c in columns) > 1e-16]
        diff, column, x = max((row[c], c, row["x"]) for row in rows for c in columns)
        assert err == (
            f"gmlife: verification failed: {len(failed)} of 11 rows exceed 1e-16; "
            f"worst is {column} = {diff:.3g} at age {x:g}\n"
        )

    def test_verify_where_m_underflows_to_zero(self, capsys):
        # M is 0 in the closed form and in the oracle: 0/0 reads 0, not a traceback.
        # From 6990 on, D(x) is 0 too, and the M oracle runs no quadrature: not
        # a budget failure at age 7000
        for x_min, x_max, step, n_rows in (("200", "210", "1", 11), ("6990", "7000", "5", 3)):
            code, out, err = run_cli(capsys, "--x-min", x_min, "--x-max", x_max,
                                     "--step", step, "--verify", "--format", "json")
            assert code == 0, err
            rows = json.loads(out)
            assert len(rows) == n_rows
            assert all(row["M"] == 0.0 and row["m_rel_diff"] == 0.0 for row in rows)

    def test_verify_difference_from_a_zero_oracle_value_is_inf_and_fails(
            self, capsys, monkeypatch):
        real = gmlife.oracle.integrate_m_table

        def zero_at_age_30(params, delta, xs, tol):
            q = real(params, delta, xs, tol)
            value = np.where(xs == 30.0, 0.0, q.value)
            return gmlife.oracle.QuadratureResult(value, q.abs_error_estimate, q.evaluations)

        monkeypatch.setattr(gmlife.oracle, "integrate_m_table", zero_at_age_30)
        code, out, err = run_cli(capsys, "--x-min", "0", "--x-max", "100", "--step", "10",
                                 "--verify", "--format", "json")
        assert code == 4
        assert json.loads(out)[3]["m_rel_diff"] == math.inf
        assert err == ("gmlife: verification failed: 1 of 11 rows exceed 1e-07; "
                       "worst is m_rel_diff = inf at age 30\n")

    def test_verify_fails_on_a_nan_difference_and_names_it(self, capsys, monkeypatch):
        # a NaN difference is not within any tolerance, and it is the worst cell
        # even beside an inf one
        real = gmlife.oracle.integrate_m_table

        def nan_at_age_1(params, delta, xs, tol):
            q = real(params, delta, xs, tol)
            value = np.where(xs == 1.0, math.nan, np.where(xs == 2.0, 0.0, q.value))
            return gmlife.oracle.QuadratureResult(value, q.abs_error_estimate, q.evaluations)

        monkeypatch.setattr(gmlife.oracle, "integrate_m_table", nan_at_age_1)
        code, out, err = run_cli(capsys, "--x-min", "0", "--x-max", "3", "--step", "1",
                                 "--verify")
        header, rows = parse_csv(out)
        assert [row[header.index("m_rel_diff")] for row in rows][1:3] == ["nan", "inf"]
        assert code == 4
        assert err == ("gmlife: verification failed: 2 of 4 rows exceed 1e-07; "
                       "worst is m_rel_diff = nan at age 1\n")

    def test_verify_seed_changes_only_mc_column(self, capsys):
        _, out1, _ = run_cli(capsys, "--x-min", "0", "--x-max", "0", "--step", "1",
                             "--verify", "--seed", "1", "--format", "json")
        _, out2, _ = run_cli(capsys, "--x-min", "0", "--x-max", "0", "--step", "1",
                             "--verify", "--seed", "2", "--format", "json")
        a, b = json.loads(out1)[0], json.loads(out2)[0]
        assert a["a_bar"] == b["a_bar"]
        assert a["e_x_mc_dev"] != b["e_x_mc_dev"]


class TestExitCodes:
    def test_missing_flag_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--alpha", "0.01"])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_validation_failures_are_exit_2(self, capsys, monkeypatch):
        # every case must stop in _validate, before any age grid is built
        def no_grid(*args):
            raise AssertionError("age grid built for an invalid argv")

        monkeypatch.setattr(gmlife.cli, "_age_grid", no_grid)
        bad_cases = [
            REMARK_FLAGS + ["--x-min", "5", "--x-max", "1", "--step", "1"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1", "--step", "0"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1", "--step", "1",
                            "--verify", "--verify-tol", "0"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1", "--step", "1",
                            "--verify", "--seed", "-1"],
            ["--alpha", "0.001", "--beta", "0.001", "--gamma", "-0.1",
             "--x-min", "0", "--x-max", "1", "--step", "1"],
            ["--alpha", "0", "--beta", "0", "--gamma", "0.1",
             "--delta", "0.03", "--x-min", "0", "--x-max", "1", "--step", "1"],
            ["--alpha", "0.01", "--beta", "0", "--gamma", "0.1", "--delta", "1e308",
             "--x-min", "0", "--x-max", "1", "--step", "1", "--double-rate"],
            REMARK_FLAGS[:6] + ["--delta", "-0.01", "--x-min", "0", "--x-max", "1",
                                "--step", "1"],
            REMARK_FLAGS[:6] + ["--delta", "nan", "--x-min", "0", "--x-max", "1",
                                "--step", "1"],
            # --diagnostics needs a shape
            ["--alpha", "0.01", "--beta", "0", "--gamma", "0", "--delta", "0.03",
             "--x-min", "0", "--x-max", "1", "--step", "1", "--diagnostics"],
            # the shape 1 - (alpha + delta)/gamma overflows to -inf
            ["--alpha", "1", "--beta", "0", "--gamma", "5e-324", "--delta", "0",
             "--x-min", "0", "--x-max", "0", "--step", "1", "--diagnostics"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "inf", "--step", "1"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1e300", "--step", "1e-300"],
            *NON_FINITE_STEP_AND_TOL,
            # finite, but ~1e300 rows
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1e300", "--step", "1"],
        ]
        for argv in bad_cases:
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.strip(), argv
        assert "1e+300 rows; at most 1000000" in err

    def test_diagnostics_shape_is_checked_by_the_library(self, capsys):
        # --diagnostics' shape check is life.positive_shape_check's, with its text
        code = main(["--alpha", "0.01", "--beta", "0", "--gamma", "0", "--delta", "0.03",
                     "--x-min", "0", "--x-max", "1", "--step", "1", "--diagnostics"])
        assert code == 2
        assert capsys.readouterr().err == (
            "gmlife: error: shape is only defined for gamma_exp > 0\n")

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(edge_argv())
    @example(NON_FINITE_STEP_AND_TOL[0])
    @example(NON_FINITE_STEP_AND_TOL[1])
    @example(OVERFLOW_CASES[2][0])
    @example(OVERFLOW_CASES[3][0])
    def test_no_argv_ends_in_a_traceback(self, argv):
        # every flag at an edge value: gmlife exits with a code it documents and
        # says nothing on stderr, or one line, never a traceback.  A numpy warning,
        # which the CLI would print as more stderr lines, raises here, since the
        # suite turns warnings into errors
        args = gmlife.cli._build_parser().parse_args(argv)
        try:
            rows = gmlife.cli._row_count(args.x_min, args.x_max, args.step)
        except (ValueError, OverflowError, ZeroDivisionError):  # _validate rejects it
            rows = 0
        assume(rows <= 200)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4), (argv, code)
        if code == 0:
            assert err == "", argv
        else:
            assert err.startswith("gmlife: ") and err.count("\n") == 1, (argv, err)
            assert err.endswith("\n"), (argv, err)

    @pytest.mark.parametrize("argv, want", OVERFLOW_CASES)
    def test_an_overflow_is_an_error_not_a_cell(self, capsys, argv, want):
        # where gamma * x, alpha + rate or a_bar overflows, no nan or inf is printed
        # as a value: the argv is rejected (exit 2) or fails (exit 3), on one line
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == want and out == "", (code, out)
        assert err.startswith("gmlife: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_numerical_failure_is_exit_3_and_names_age(self, capsys):
        for argv, message in EXIT_3_CASES:
            code = main(argv)
            assert code == 3, argv
            assert capsys.readouterr().err == f"gmlife: numerical failure {message}\n"

    def test_numerical_failure_matches_the_scalar_api(self, capsys):
        # the batch path names the age and error of the first failing call
        # of the scalar API, taken row by row in column order
        for case in SCALAR_API_CASES:
            code = main(scalar_api_argv(*case))
            err = capsys.readouterr().err
            want = scalar_api_failure(*case)
            assert code == 3 and err == want, (err, want)

    def test_an_oracle_failure_names_the_earliest_failing_row(self, capsys, monkeypatch):
        # where every closed form of a row returns, the row's oracle error is named:
        # the Monte-Carlo's at index 3, though the quadrature's at index 7 is raised
        # first and the Monte-Carlo comes last in a row
        xs = gmlife.cli._age_grid(20.0, 42.5, 2.5)

        def failing_at(name, at, error):
            real = getattr(gmlife.oracle, name)

            def table(*args, **kwargs):  # raises at the lane of xs[at] where there is one
                lane = np.flatnonzero(next(a for a in args if isinstance(a, np.ndarray))
                                      == xs[at])
                if lane.size:
                    raise gmlife.special._at_lane(error(), lane[0])
                return real(*args, **kwargs)

            monkeypatch.setattr(gmlife.oracle, name, table)

        failing_at("integrate_m_table", 7,
                   lambda: ConvergenceError("integrand does not decay; check the basis"))
        failing_at("mc_remaining_life_table", 3, lambda: OverflowError("math range error"))
        code, out, err = run_cli(capsys, "--x-min", "20", "--x-max", "42.5", "--step", "2.5",
                                 "--verify")
        assert xs.size == 10 and (code, out) == (3, "")
        assert err == f"gmlife: numerical failure at age {xs[3]:g}: math range error\n"

    @pytest.mark.parametrize("width", [0, 40, 10**6])
    def test_a_row_fails_in_column_order(self, capsys, monkeypatch, width):
        # at 12 iterations the fraction stalls at rate 0 from z = 1.1 up, and the
        # step budget of rate delta's shape -300 fails at the first age, z = 0.5:
        # rate delta comes first in a row, so its error is named
        monkeypatch.setattr(gmlife.special, "_MAX_ITER", 12)
        monkeypatch.setattr(gmlife.special, "_HANDOFF_LANES", width)
        code = main(["--alpha", "0.03", "--beta", "1e-4", "--gamma", "0.1", "--delta",
                     "29.97", "--double-rate", "--x-min", "62.1460897625", "--x-max", "80.06",
                     "--step", "0.3"])
        assert code == 3
        assert capsys.readouterr().err == (
            "gmlife: numerical failure at age 62.1461: shape -300.0 is over 12 steps "
            "below the series (z=0.5000004389140968)\n")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(failing_double_rate_case())
    def test_a_failing_double_rate_table_matches_the_scalar_api(self, case):
        # the batch raises at some failing lane of some rate; the CLI names the
        # scalar API's first failing call, row by row in column order
        max_iter, width, *case = case
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gmlife.special, "_MAX_ITER", max_iter)
            mp.setattr(gmlife.special, "_HANDOFF_LANES", width)
            want = scalar_api_failure(*case)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(scalar_api_argv(*case))
        assert (code, err.getvalue()) == ((3, want) if want else (0, "")), case

    def test_numerical_failure_makes_no_scalar_call(self, capsys, monkeypatch):
        # the batch columns alone name the failing age: with the scalar life and
        # oracle calls raising, every pinned case gives the same stderr, and no
        # case computes the closed-form columns more than twice
        cases = [(argv, f"gmlife: numerical failure {message}\n")
                 for argv, message in EXIT_3_CASES]
        cases += [(scalar_api_argv(*case), scalar_api_failure(*case))
                  for case in SCALAR_API_CASES]

        def scalar_call(*args, **kwargs):
            raise AssertionError("a scalar call on the failure path")

        monkeypatch.setattr(gmlife.life, "_evaluate", scalar_call)
        for name in ("integrate_survival", "integrate_m", "mc_remaining_life"):
            monkeypatch.setattr(gmlife.oracle, name, scalar_call)
        real, passes = gmlife.cli._closed_forms, []
        monkeypatch.setattr(gmlife.cli, "_closed_forms",
                            lambda *args: passes.append(args) or real(*args))
        for argv, want in cases:
            passes.clear()
            code = main(argv)
            assert code == 3 and capsys.readouterr().err == want, argv
            assert 1 <= len(passes) <= 2, argv


def dispatched_cpu_features():
    # the CPU features numpy dispatches to at run time that this CPU has: those
    # NPY_DISABLE_CPU_FEATURES may switch off
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


class TestReproducibleBytes:
    def test_tables_and_failures_do_not_depend_on_numpy_cpu_dispatch(self):
        # tables and exit-3 text take every transcendental from math, so they are
        # the same bytes on numpy's baseline code path as on its fastest one.
        # --verify columns are not: the oracles use numpy's exp, expm1 and log1p,
        # whose last bit may differ between the two paths, so they agree only to
        # tolerance, and the verify run gives the same exit code and failing ages
        features = dispatched_cpu_features()
        if not features:
            pytest.skip("numpy dispatches to no CPU feature here beyond its baseline")
        grid = ["--x-min", "0", "--x-max", "110", "--step", "0.01"]
        verify = REMARK_FLAGS + ["--x-min", "0.13", "--x-max", "109.13", "--step", "1",
                                 "--verify", "--seed", "0"]
        cases = [REMARK_FLAGS + grid + ["--double-rate", "--diagnostics"],
                 REMARK_FLAGS + grid + ["--format", "json"],
                 EXIT_3_CASES[-1][0], verify]
        baseline = dict(src_env(), NPY_DISABLE_CPU_FEATURES=" ".join(features))
        for argv in cases:
            runs = [subprocess.run([sys.executable, "-m", "gmlife.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=120)
                    for env in (src_env(), baseline)]
            assert runs[0].returncode in (0, 3) and runs[0].stdout + runs[0].stderr, argv
            same = [(r.returncode, r.stderr, r.stdout if argv is not verify else None)
                    for r in runs]
            assert same[1] == same[0], (argv, features)
