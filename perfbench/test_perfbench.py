"""Self-tests of the benchmark's own checkers and input generation.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gmlife.cli  # noqa: E402
import gmlife.life  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PERTURB = 1 + 1e-6


def small_scalar(fixed: bool) -> workloads.ScalarWorkload:
    wl = workloads.ScalarWorkload(seed=3)
    wl.inputs = [c for c in wl.inputs if c.fixed == fixed][:24]
    wl.rounds_per_pass = 1
    wl.prepare()
    wl.bind(gmlife.life)
    return wl


def perturbed(value):
    if isinstance(value, float):
        return value * PERTURB
    return dataclasses.replace(value, m_val=value.m_val * PERTURB)


def test_scalar_value_off_by_1e_6_is_reported():
    wl = small_scalar(fixed=False)
    results, _ = wl.run_pass()
    assert wl.check_pass((results, None)) == 0 and wl.problems == []
    for k in range(len(results)):
        if abs(wl.refs[k][-1]) < 1e-200:  # 0 times (1 + 1e-6) is still right
            continue
        wl.problems = []
        bad = results[:k] + [perturbed(results[k])] + results[k + 1:]
        assert wl.check_pass((bad, None)) == 0
        assert len(wl.problems) == 1, wl.inputs[k]


def test_fixed_slice_value_off_by_1e_6_counts_as_failed():
    wl = small_scalar(fixed=True)
    results, _ = wl.run_pass()
    base = wl.check_pass((results, None))
    passing = [k for k, r in enumerate(results)
               if all(reference.close(g, w) for g, w in
                      zip(workloads._as_tuple(r), wl.refs[k]))
               and abs(wl.refs[k][-1]) > 1e-200]
    assert passing
    k = passing[0]
    bad = results[:k] + [perturbed(results[k])] + results[k + 1:]
    assert wl.check_pass((bad, None)) == base + 1
    assert wl.problems == []


@pytest.fixture(scope="module")
def table_pass():
    wl = workloads.TableWorkload(seed=5)
    return wl.run_pass(gmlife.cli.main)


def perturb_cell(text: str, row: int, column: str) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    j = workloads.TABLE_COLUMNS.index(column)
    cells[j] = f"{float(cells[j]) * PERTURB:.15g}"
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def test_table_passes_its_checks(table_pass):
    wl = workloads.TableWorkload(seed=5)
    assert wl.check_pass(table_pass) == 0
    assert wl.problems == []


def test_table_cell_off_by_1e_6_is_reported(table_pass):
    wl = workloads.TableWorkload(seed=5)
    code, text = table_pass
    row = wl.sample[1]
    wl.check_output(code, perturb_cell(text, row, "a_bar"))
    assert any(f"row {row} " in p and "a_bar" in p for p in wl.problems), wl.problems


def test_unsampled_row_is_still_checked_by_the_identities(table_pass):
    wl = workloads.TableWorkload(seed=5)
    code, text = table_pass
    row = next(i for i in range(1, workloads.TABLE_ROWS) if i not in wl.sample)
    wl.check_output(code, perturb_cell(text, row, "M"))
    assert any(p.startswith("M = D - delta*N") for p in wl.problems), wl.problems


def test_verify_flags_exactly_the_known_ages_and_checks_closed_forms():
    wl = workloads.VerifyWorkload(seed=5)
    code, text = wl.run_pass(gmlife.cli.main)
    assert wl.check_pass((code, text)) == len(workloads.VERIFY_KNOWN_FAILURES)
    assert wl.flagged_ages == list(workloads.VERIFY_KNOWN_FAILURES)
    assert wl.problems == []
    rows = json.loads(text)
    rows[wl.sample[1]]["M"] *= PERTURB
    wl.check_output(code, json.dumps(rows))
    assert wl.problems


def test_same_seed_reproduces_inputs_bit_for_bit():
    assert repr(workloads.scalar_inputs(7)) == repr(workloads.scalar_inputs(7))
    assert workloads.sampled_rows(7, 11_001, 40) == workloads.sampled_rows(7, 11_001, 40)
    assert workloads.VerifyWorkload(7).argv == workloads.VerifyWorkload(7).argv


def test_different_seed_changes_inputs():
    assert workloads.scalar_inputs(7) != workloads.scalar_inputs(8)
    assert workloads.sampled_rows(7, 11_001, 40) != workloads.sampled_rows(8, 11_001, 40)
    assert workloads.VerifyWorkload(7).argv != workloads.VerifyWorkload(8).argv


def test_fixed_slice_does_not_depend_on_the_seed():
    fixed = [sorted(repr(c) for c in workloads.scalar_inputs(s) if c.fixed) for s in (1, 2)]
    assert fixed[0] == fixed[1] and len(fixed[0]) == 6 * len(workloads.HIGH_AGES)


def test_branch_points_take_their_branch():
    for name, (eta, z) in tracing.BRANCH_POINTS.items():
        assert tracing.route(eta, z) == name


def test_tracing_leaves_outputs_alone_and_undoes_itself():
    argv = tracing.PROBE_TABLE_ARGV
    plain = workloads.run_cli(gmlife.cli.main, argv)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = workloads.run_cli(tracer.span("cli.main", gmlife.cli.main), argv)
    finally:
        undo()
    assert traced == plain
    assert gmlife.cli.life is gmlife.life
    assert tracer.stats["special.product"][0] == 4 * 111
    calls, self_ns, total_ns = tracer.stats["cli.main"]
    assert calls == 1 and 0 < self_ns < total_ns
