"""Tests for the command-line table generator."""

import csv
import io
import json
import math

import pytest

from gmlife import annuity, commutation_d, remaining_life
from gmlife.cli import main
from gmlife.mortality import GmParams

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


class TestVerifyMode:
    def test_verify_passes_on_worked_basis(self, capsys):
        code, out, err = run_cli(
            capsys, "--x-min", "0", "--x-max", "100", "--step", "10",
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
        code, out, err = run_cli(
            capsys, "--x-min", "0", "--x-max", "0", "--step", "1",
            "--verify", "--verify-tol", "1e-16", "--format", "json",
        )
        assert code == 4
        (row,) = json.loads(out)  # the table is still emitted
        column = max(("a_bar_rel_diff", "m_rel_diff"), key=row.get)
        assert err == (
            "gmlife: verification failed: 1 of 1 rows exceed 1e-16; worst is "
            f"{column} = {row[column]:.3g} at age 0\n"
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

    def test_validation_failures_are_exit_2(self, capsys):
        bad_cases = [
            REMARK_FLAGS + ["--x-min", "5", "--x-max", "1", "--step", "1"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1", "--step", "0"],
            REMARK_FLAGS + ["--x-min", "0", "--x-max", "1", "--step", "1",
                            "--verify", "--verify-tol", "0"],
            ["--alpha", "0.001", "--beta", "0.001", "--gamma", "-0.1",
             "--x-min", "0", "--x-max", "1", "--step", "1"],
            ["--alpha", "0", "--beta", "0", "--gamma", "0.1",
             "--delta", "0.03", "--x-min", "0", "--x-max", "1", "--step", "1"],
        ]
        for argv in bad_cases:
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.strip(), argv

    def test_numerical_failure_is_exit_3_and_names_age(self, capsys):
        code = main(REMARK_FLAGS + ["--x-min", "7000", "--x-max", "8000",
                                    "--step", "1000"])
        err = capsys.readouterr().err
        assert code == 3
        assert "7000" in err or "8000" in err
