"""gmlife benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload table|verify|scalar [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; gmlife is imported from its ``src``.  One
single-threaded process runs the workload in a closed loop (one caller).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that measures half its time untraced and half traced.
See README.md in this directory for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from clock import ScaledTimer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_RUNS = 11  # fresh interpreters per run; the median is reported
MIN_PASSES = 3
WARMUP_S = 1.5


def measure_setup(wl) -> tuple[dict[str, float], bool]:
    """Median time from starting a fresh interpreter to the workload's first
    result, with that result checked; an extra first run fills the bytecode
    caches and is not counted.  Scaled by the mean probe chunk of the set-up
    phase, which follows the machine's slow drift between runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "first_result.py"), *wl.first_result_argv()]
    timer = ScaledTimer()
    results = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=env, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        timer.add(elapsed)
        results.append(json.loads(line) if line.strip() else None)
    try:
        ok = all(r is not None and wl.first_result_ok(r) for r in results)
    except (ValueError, KeyError):  # output that does not parse
        ok = False
    scale = timer.factor()

    def median(key: str) -> float:
        return statistics.median(r[key] for r in results[1:]) * scale if ok else 0.0

    return {"setup_s": statistics.median(timer.raw_s[1:]) * scale,
            "numpy_s": median("numpy_s"), "gmlife_s": median("gmlife_s")}, ok


class Measured:
    """One measured stretch: its timer, operation counts and call latencies."""

    def __init__(self, timer, attempted: int, failed: int,
                 call_us_p50: float, call_us_p90: float) -> None:
        self.timer = timer
        self.attempted, self.failed = attempted, failed
        self.call_us_p50, self.call_us_p90 = call_us_p50, call_us_p90

    def ops_per_s(self) -> float:
        return self.attempted / self.timer.scaled_total_s()

    def raw_ops_per_s(self) -> float:
        return self.attempted / sum(self.timer.raw_s)


def measure(wl, entry, seconds: float) -> Measured:
    """Run whole passes for ``seconds`` (at least MIN_PASSES), checking each."""
    timer = ScaledTimer()
    attempted = failed = 0
    p50, p90 = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timer.raw_s) < MIN_PASSES:
        result = timer.time(lambda: wl.run_pass(entry))
        failed += wl.check_pass(result)
        attempted += wl.ops_per_pass
        if wl.times_each_call:  # result[1] holds every call's latency in ns
            scale = timer.block_factor(len(timer.raw_s) - 1) * 1e-3
            p50.append(np.percentile(result[1], 50) * scale)
            p90.append(np.percentile(result[1], 90) * scale)
    if not wl.times_each_call:  # the per-operation share of each pass
        us = [t * timer.block_factor(i) / wl.ops_per_pass * 1e6
              for i, t in enumerate(timer.raw_s)]
        p50, p90 = [np.percentile(us, 50)], [np.percentile(us, 90)]
    return Measured(timer, attempted, failed, float(np.median(p50)), float(np.median(p90)))


def warm_up(wl, entry) -> None:
    deadline = time.perf_counter() + WARMUP_S
    while True:
        wl.check_pass(wl.run_pass(entry))
        if time.perf_counter() >= deadline:
            return


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_run(wl, workload: str, seconds: float, setup: dict) -> tuple[dict, list]:
    """Half the time untraced, half traced; then the probes of idle layers
    and the isolated branch timings.  Returns the per-layer metrics."""
    import gmlife.cli
    import gmlife.life

    import tracing

    plain = measure(wl, gmlife.cli.main, seconds / 2)
    work = tracing.Tracer()
    undo = tracing.install(work)
    try:
        if wl.times_each_call:
            wl.bind(work.view(gmlife.life, "life"))
        traced = measure(wl, work.span("cli.main", gmlife.cli.main), seconds / 2)
    finally:
        undo()
        if wl.times_each_call:
            wl.bind(gmlife.life)
    probe = tracing.Tracer()
    probe_timer = ScaledTimer()
    probe_timer.time(lambda: tracing.run_probes(probe))
    metrics = tracing.layer_metrics(work, traced.timer.factor(), probe,
                                    probe_timer.factor(), traced.attempted,
                                    wl.out_bytes / wl.ops_per_pass)
    metrics.update({f"special.{k}_us": metric(v, "us")
                    for k, v in tracing.branch_timings().items()})
    metrics.update({
        "setup.numpy_import_s": metric(setup["numpy_s"], "s"),
        "setup.gmlife_import_s": metric(setup["gmlife_s"], "s"),
        "trace.untraced_ops_per_s": metric(plain.ops_per_s(), "1/s"),
        "trace.traced_ops_per_s": metric(traced.ops_per_s(), "1/s"),
        "trace.overhead_pct": metric(100 * (1 - traced.ops_per_s() / plain.ops_per_s()), "%"),
        "machine.probe_ms": metric(plain.timer.mean_probe_s() * 1e3, "ms"),
        "machine.raw_ops_per_s": metric(plain.raw_ops_per_s(), "1/s"),
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}.json").write_text(json.dumps(tracing.trace_record(work, probe)))
    return metrics, [plain, traced]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gmlife.cli

    import workloads

    wl = {"table": workloads.TableWorkload, "verify": workloads.VerifyWorkload,
          "scalar": workloads.ScalarWorkload}[workload](seed)
    setup, setup_ok = measure_setup(wl)
    wl.prepare()
    warm_up(wl, gmlife.cli.main)
    if trace:
        metrics, runs = traced_run(wl, workload, seconds, setup)
    else:
        m = measure(wl, gmlife.cli.main, seconds)
        metrics = {
            "setup_s": metric(setup["setup_s"], "s"),
            "ops_per_s": metric(m.ops_per_s(), "1/s"),
            "call_us_p50": metric(m.call_us_p50, "us"),
            "call_us_p90": metric(m.call_us_p90, "us"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        runs = [m]
    problems = wl.problems + ([] if setup_ok else ["first result from a fresh interpreter"])
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    if getattr(wl, "flagged_ages", None):
        print(f"verify flagged ages {wl.flagged_ages}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("table", "verify", "scalar"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gmlife" / "__init__.py").is_file():
        print(f"run.py: no gmlife package under {SRC}; run from a gmlife checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
