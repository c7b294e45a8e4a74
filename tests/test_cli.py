"""Tests for the command-line table generator."""

import csv
import io
import json
import math

import pytest

import gmlife.life
from gmlife import (
    ageing_factor,
    annuity,
    commutation_d,
    commutation_row,
    mortality_rate,
    remaining_life,
    survival,
)
from gmlife.cli import main
from gmlife.mortality import GmParams
from gmlife.special import ConvergenceError

REMARK_FLAGS = [
    "--alpha", "0.001", "--beta", "0.000012", "--gamma", "0.101314",
    "--delta", "0.026559",
]


def run_cli(capsys, *extra):
    code = main(REMARK_FLAGS + list(extra))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


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
        assert float(row40[6]) == pytest.approx(annuity(p, 0.026559, 40.0), rel=1e-14)
        assert float(row40[7]) == pytest.approx(remaining_life(p, 40.0), rel=1e-14)

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
        assert a_bar == pytest.approx(25.0, rel=1e-12)

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
        assert data[0]["a_bar"] == pytest.approx(annuity(p, 0.026559, 30.0), rel=1e-14)


class TestDoubleRateAndDiagnostics:
    def test_double_rate_columns(self, capsys):
        code, out, _ = run_cli(capsys, "--x-min", "40", "--x-max", "40",
                               "--step", "1", "--double-rate", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        for key in ("D2", "N2", "M2"):
            assert key in row
        assert row["M2"] == pytest.approx(
            row["D2"] - 2.0 * 0.026559 * row["N2"], rel=1e-12
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
        # shape -1.5 and the third no senescence
        bases = [(GmParams(0.001, 0.000012, 0.101314), 0.026559),
                 (GmParams(0.15, 3e-4, 0.08), 0.05),
                 (GmParams(0.01, 0.0, 0.1), 0.03)]
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

    def test_one_engine_evaluation_per_rate(self, capsys, monkeypatch):
        real = gmlife.life._evaluate_table
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        def per_row(*args):
            raise AssertionError("a table evaluated row by row")

        monkeypatch.setattr(gmlife.life, "_evaluate_table", counting)
        # every scalar route (remaining_life, annuity, _commutation) looks _evaluate
        # up when it runs, so this also catches a per-row _commutation beside the batch
        monkeypatch.setattr(gmlife.life, "_evaluate", per_row)
        # one batch per table for a_bar at delta (which also gives the ageing
        # factor), e_x, and a_bar at 2 * delta, whatever the row count
        for extra, per_table in ((["--double-rate", "--diagnostics"], 3), ([], 2)):
            for step in ("10", "0.1"):
                calls.clear()
                code, _, _ = run_cli(capsys, "--x-min", "0", "--x-max", "110",
                                     "--step", step, *extra)
                assert code == 0
                assert len(calls) == per_table, (extra, step)


class TestVerifyMode:
    def test_verify_passes_on_worked_basis(self, capsys):
        # the second grid is the benchmark's verify workload; it holds ages
        # (11.13, 27.13, 75.13) where adaptive Simpson converges falsely
        for x_min, x_max, step in (("0", "100", "10"), ("0.13", "110", "1")):
            code, out, err = run_cli(
                capsys, "--x-min", x_min, "--x-max", x_max, "--step", step,
                "--verify", "--verify-tol", "1e-7",
            )
            assert code == 0, err
            header, rows = parse_csv(out)
            for col in ("a_bar_rel_diff", "m_rel_diff", "e_x_mc_dev"):
                assert col in header
            for row in rows:
                assert float(row[header.index("a_bar_rel_diff")]) <= 1e-7
                assert float(row[header.index("m_rel_diff")]) <= 1e-7

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
            ["--alpha", "0.001", "--beta", "0.001", "--gamma", "-0.1",
             "--x-min", "0", "--x-max", "1", "--step", "1"],
            ["--alpha", "0", "--beta", "0", "--gamma", "0.1",
             "--delta", "0.03", "--x-min", "0", "--x-max", "1", "--step", "1"],
            ["--alpha", "0.01", "--beta", "0", "--gamma", "0.1", "--delta", "1e308",
             "--x-min", "0", "--x-max", "1", "--step", "1", "--double-rate"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "inf", "--step", "1"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1e300", "--step", "1e-300"],
            # finite, but ~1e300 rows
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1e300", "--step", "1"],
        ]
        for argv in bad_cases:
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.strip(), argv
        assert "1e+300 rows; at most 1000000" in err

    def test_numerical_failure_is_exit_3_and_names_age(self, capsys):
        cases = [
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
        ]
        for argv, message in cases:
            code = main(argv)
            assert code == 3, argv
            assert capsys.readouterr().err == f"gmlife: numerical failure {message}\n"

    def test_numerical_failure_matches_the_scalar_api(self, capsys):
        # the batch path names the age and error of the first failing call
        # of the scalar API, taken row by row in column order
        p = GmParams(0.001, 0.000012, 0.101314)
        cases = [
            # e**(gamma*x) overflows from age 7006.03 on: the 7th row
            (p, 0.026559, ["--x-min", "7000", "--x-max", "8000", "--step", "1.005"]),
            # (alpha + delta)/gamma = 799.5 needs 800 steps down from the series,
            # over the budget; the series serves the rows below z = 1.1 only
            (GmParams(81.0, 0.01, 0.101314), 0.0,
             ["--x-min", "0", "--x-max", "60", "--step", "3", "--double-rate", "--verify"]),
        ]
        for params, delta, grid in cases:
            code = main(["--alpha", repr(params.alpha), "--beta", repr(params.beta),
                         "--gamma", repr(params.gamma_exp), "--delta", repr(delta), *grid])
            err = capsys.readouterr().err
            x_min, x_max, step = (float(v) for v in grid[1:6:2])
            want = None
            for i in range(math.floor((x_max - x_min) / step) + 1):
                x = x_min + i * step
                try:
                    survival(params, x)
                    mortality_rate(params, x)
                    commutation_row(params, delta, x)
                    remaining_life(params, x)
                    commutation_row(params, delta, x, double_rate=True)
                except (OverflowError, ConvergenceError, ValueError) as exc:
                    want = f"gmlife: numerical failure at age {x:g}: {exc}\n"
                    break
            assert code == 3 and err == want, (err, want)
