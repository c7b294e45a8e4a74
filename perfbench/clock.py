"""Wall-clock timing scaled to a reference machine speed.

On a shared virtual machine the speed of the CPU a process gets drifts by
+-30% from second to second and from minute to minute, with the process
itself unchanged, so raw wall times of identical code disagree between runs
far more than any change worth measuring.  Every timed block is therefore
followed by a fixed speed probe that touches no gmlife code and takes about
a quarter of the block's time, so that the probes sample the same machine
states as the blocks.  The probe mixes the three kinds of work gmlife does
(tight float arithmetic, Python calls with math functions, dicts and string
formatting, and numpy vector operations) because the drift slows them by
different amounts.  A stretch's scaled time is its raw time times
``REFERENCE_PROBE_S / mean probe chunk time``: the time it would have taken
on a machine whose probe chunk takes ``REFERENCE_PROBE_S``.  A change to
gmlife moves the block time and leaves the probe alone, so it moves the
scaled time by the same factor.  Raw times are reported next to the scaled
ones in the traced run (``machine.*``).
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Time of one probe chunk on the 2-core VM this benchmark was tuned on,
#: when that machine ran at its fastest.
REFERENCE_PROBE_S = 0.020
#: Probe time after a block, as a share of the block's own time.
PROBE_SHARE = 0.25


def _arithmetic() -> float:
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    return acc


def _term(x: float) -> float:
    return math.exp(-x) * math.log1p(x)


def _calls_and_formatting() -> int:
    acc, seen, out = 0.0, {}, []
    for i in range(5_000):
        acc += _term(i * 0.001)
        seen[i & 63] = acc
        out.append(f"{acc:.15g}")
    return len("".join(out))


def _vectors() -> float:
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(20):
        u = rng.random((2, 20_000))
        v = np.minimum(-np.log1p(-u[0]) / 0.3, np.log1p(u[1]))
        acc += float(v.mean() + v.std())
    return acc


def probe_s() -> float:
    """Seconds one chunk of the fixed speed probe takes right now."""
    start = time.perf_counter()
    _arithmetic()
    _calls_and_formatting()
    _vectors()
    return time.perf_counter() - start


class ScaledTimer:
    """Times blocks of work, each followed by speed probes.

    ``probes[i]`` is the mean chunk time of the probes taken just before
    block ``i``, and ``probes[i + 1]`` of those just after it.
    """

    def __init__(self) -> None:
        self.raw_s: list[float] = []
        self.probes: list[float] = []
        self.probe_total_s = 0.0
        self.probe_chunks = 0
        self._probe(0.0)

    def _probe(self, budget_s: float) -> None:
        spent, chunks = 0.0, 0
        while chunks == 0 or spent < budget_s:
            spent += probe_s()
            chunks += 1
        self.probes.append(spent / chunks)
        self.probe_total_s += spent
        self.probe_chunks += chunks

    def time(self, fn):
        """Run ``fn()``, record its raw wall time and return its result."""
        start = time.perf_counter()
        result = fn()
        self.add(time.perf_counter() - start)
        return result

    def add(self, raw_s: float) -> None:
        """Record a block timed by the caller, then probe."""
        self.raw_s.append(raw_s)
        self._probe(raw_s * PROBE_SHARE)

    def factor(self) -> float:
        """Scale of the whole stretch, from every probe chunk taken in it."""
        return REFERENCE_PROBE_S / self.mean_probe_s()

    def block_factor(self, i: int) -> float:
        """Scale of block ``i`` alone, from the probes on either side of it."""
        return REFERENCE_PROBE_S / (0.5 * (self.probes[i] + self.probes[i + 1]))

    def scaled_total_s(self) -> float:
        return sum(self.raw_s) * self.factor()

    def mean_probe_s(self) -> float:
        return self.probe_total_s / self.probe_chunks
