"""Layer tracing at gmlife's module boundaries, installed only for a traced run.

Each wrapper replaces the name a *calling* module uses for a function of
another module, e.g. ``gmlife.cli.life.annuity`` (cli's view of life),
``gmlife.life.exp_scaled_upper_inc_gamma`` (life's view of special) or
``gmlife.cli.oracle.integrate_m``.  Calls inside one module are not wrapped,
so a span covers exactly one crossing of a layer boundary.  A span's self
time is its duration minus the durations of the spans opened inside it.
Inside ``special`` the log-gamma and gamma functions are only counted, not
timed: they run several times per gamma product and a span would cost
more than they do.

Nothing here changes gmlife's code; ``install`` patches module attributes
and the function it returns puts the originals back.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np

import gmlife.cli as cli
import gmlife.life as life
import gmlife.mortality as mortality
import gmlife.oracle as oracle
import gmlife.special as special
from clock import ScaledTimer

import workloads

#: Raw spans kept for the trace file; the aggregates cover every span.
KEPT_SPANS = 20_000


def route(eta: float, z: float) -> str:
    """Branch of exp_scaled_upper_inc_gamma taken at (eta, z), per gmlife.special."""
    if z >= max(1.0, eta + 1.0):
        return "cf"
    if eta > 0.0:
        return "series"
    return "e1" if eta == round(eta) else "recurrence"


class Tracer:
    """Spans and counts in memory: per span name [calls, self ns, total ns]."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.counts: Counter[str] = Counter()
        self.kept: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self._stack: list[list[int]] = []  # [child ns, span id] of each open span
        self._next_id = 1

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(*args)`` and ``after(result)`` may count."""
        stack, kept, clock = self._stack, self.kept, time.perf_counter_ns
        rec = self.stats.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            span_id = self._next_id
            self._next_id += 1
            frame = [0, span_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[0] += 1
                rec[1] += end - start - frame[0]
                rec[2] += end - start
                if stack:
                    stack[-1][0] += end - start
                if len(kept) < KEPT_SPANS:
                    kept.append((span_id, parent, name, start, end))
            if after is not None:
                after(result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def view(self, module, layer: str, after=None) -> SimpleNamespace:
        """The module's public names, with its functions wrapped in spans."""
        after = after or {}
        names = {}
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, type):
                obj = self.span(f"{layer}.{name}", obj, after=after.get(name))
            names[name] = obj
        return SimpleNamespace(**names)

    def oracle_view(self) -> SimpleNamespace:
        def quad(result):
            self.counts["oracle.quad_evals"] += result.evaluations

        def mc(result):
            self.counts["oracle.mc_samples"] += result.n_samples

        return self.view(oracle, "oracle", after={
            "integrate_survival": quad, "integrate_m": quad, "mc_remaining_life": mc})

    def self_per_call_ns(self, name: str) -> float | None:
        calls, self_ns, _ = self.stats.get(name, (0, 0, 0))
        return self_ns / calls if calls else None


def install(tracer: Tracer):
    """Wrap every cross-module name gmlife uses; returns the undo function."""
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    patch(cli, "life", tracer.view(life, "life"))
    patch(cli, "oracle", tracer.oracle_view())
    for module in (cli, life):
        patch(module, "survival", tracer.span("mortality.survival", mortality.survival))
    patch(cli, "mortality_rate", tracer.span("mortality.mortality_rate",
                                             mortality.mortality_rate))
    for module in (cli, life, oracle):
        patch(module, "GmParams", tracer.span("mortality.GmParams", mortality.GmParams))

    def count_route(eta, z):
        tracer.counts["special.route." + route(eta, z)] += 1

    patch(life, "exp_scaled_upper_inc_gamma",
          tracer.span("special.product", special.exp_scaled_upper_inc_gamma,
                      before=count_route))
    for name in ("ln_gamma_fn", "gamma_fn"):
        patch(special, name, tracer.count("special." + name, getattr(special, name)))

    def undo():
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

    return undo


PROBE_TABLE_ARGV = workloads.BASIS_FLAGS + [
    "--x-min", "0", "--x-max", "110", "--step", "1", "--double-rate", "--diagnostics"]


def run_probes(tracer: Tracer) -> None:
    """Fixed calls into every layer, so a layer that a workload leaves idle
    still has a measured time in that workload's traced run."""
    undo = install(tracer)
    try:
        main = tracer.span("cli.main", cli.main)
        for _ in range(3):
            workloads.run_cli(main, PROBE_TABLE_ARGV)
        lf, orc = tracer.view(life, "life"), tracer.oracle_view()
        p = mortality.GmParams(workloads.ALPHA, workloads.BETA, workloads.GAMMA)
        d, x = workloads.DELTA, 40.0
        for _ in range(200):
            lf.e0(p)
            lf.annuity(p, d, x)
            lf.remaining_life(p, x)
            lf.commutation_d(p, d, x)
            lf.commutation_row(p, d, x)
            lf.ageing_factor(p, d, x)
        for _ in range(3):
            orc.integrate_survival(p, d, x, tol=1e-12)
            orc.integrate_m(p, d, x, tol=1e-12)
            orc.mc_remaining_life(p, x, 20_000, np.random.default_rng(0))
    finally:
        undo()


BRANCH_POINTS = {
    "series": (0.727984, 0.5),
    "cf": (0.727984, 5.0),
    "recurrence": (-1.5, 0.5),
    "e1": (-1.0, 0.5),
}


def branch_timings(calls: int = 2000, batches: int = 5) -> dict[str, float]:
    """Scaled microseconds per call of each special-function branch at a fixed
    (eta, z), and of gamma_fn and gamma_cdf, timed with tracing off."""
    cases = {name: (special.exp_scaled_upper_inc_gamma, point)
             for name, point in BRANCH_POINTS.items()}
    cases["gamma_fn"] = (special.gamma_fn, (3.7,))
    cases["gamma_cdf"] = (special.gamma_cdf, (0.5, 0.727984))
    out = {}
    for name, (fn, args) in cases.items():
        timer = ScaledTimer()

        def batch():
            for _ in range(calls):
                fn(*args)

        for _ in range(batches):
            timer.time(batch)
        out[name] = statistics.median(t * timer.block_factor(i)
                                      for i, t in enumerate(timer.raw_s)) / calls * 1e6
    return out


NS_PER = {"us": 1e3, "ms": 1e6}
LIFE_CALLS = ("annuity", "remaining_life", "e0", "commutation_d", "commutation_row",
              "ageing_factor")


def layer_metrics(work: Tracer, work_factor: float, probe: Tracer, probe_factor: float,
                  ops: int, out_bytes_per_op: float) -> dict[str, dict]:
    """Per-layer metrics of a traced stretch of ``ops`` operations.

    Times are self times per call, scaled like every other time (see clock);
    a span name the workload never opened is timed from the probe tracer.
    Counts are per operation and come from the workload alone.
    """

    def per_call(name: str, unit: str) -> dict:
        for tracer, factor in ((work, work_factor), (probe, probe_factor)):
            ns = tracer.self_per_call_ns(name)
            if ns is not None:
                return {"value": ns * factor / NS_PER[unit], "unit": unit}
        raise KeyError(name)

    def per_op(n: float) -> dict:
        return {"value": n / ops, "unit": "count"}

    def calls(name: str) -> int:
        return work.stats.get(name, (0,))[0]

    mc_tracer, mc_factor = ((work, work_factor) if calls("oracle.mc_remaining_life")
                            else (probe, probe_factor))
    mc_s = mc_tracer.stats["oracle.mc_remaining_life"][2] * mc_factor * 1e-9
    return {
        "cli.self_ms_per_pass": per_call("cli.main", "ms"),
        "cli.out_bytes_per_row": {"value": out_bytes_per_op, "unit": "bytes"},
        **{f"life.{name}_us": per_call(f"life.{name}", "us") for name in LIFE_CALLS},
        "life.calls_per_row": per_op(sum(s[0] for k, s in work.stats.items()
                                         if k.startswith("life."))),
        "mortality.survival_us": per_call("mortality.survival", "us"),
        "mortality.mortality_rate_us": per_call("mortality.mortality_rate", "us"),
        "mortality.params_built_per_row": per_op(calls("mortality.GmParams")),
        "special.products_per_row": per_op(calls("special.product")),
        "special.ln_gamma_per_row": per_op(work.counts["special.ln_gamma_fn"]),
        "special.gamma_fn_per_row": per_op(work.counts["special.gamma_fn"]),
        "special.product_us": per_call("special.product", "us"),
        **{f"special.calls_{r}": per_op(work.counts["special.route." + r])
           for r in BRANCH_POINTS},
        "oracle.integrate_survival_ms": per_call("oracle.integrate_survival", "ms"),
        "oracle.integrate_m_ms": per_call("oracle.integrate_m", "ms"),
        "oracle.quad_evals_per_row": per_op(work.counts["oracle.quad_evals"]),
        "oracle.mc_ms": per_call("oracle.mc_remaining_life", "ms"),
        "oracle.mc_samples_per_s": {
            "value": mc_tracer.counts["oracle.mc_samples"] / mc_s, "unit": "1/s"},
    }


def trace_record(work: Tracer, probe: Tracer) -> dict:
    """What the trace file holds: aggregates of both tracers and the first
    KEPT_SPANS raw spans of the workload."""
    return {
        "columns": ["calls", "self_ns", "total_ns"],
        "workload": {"stats": work.stats, "counts": work.counts},
        "probe": {"stats": probe.stats, "counts": probe.counts},
        "spans": {"columns": ["id", "parent", "name", "start_ns", "end_ns"],
                  "rows": work.kept},
    }
