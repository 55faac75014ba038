"""Rescale measured times to a fixed machine speed.

This benchmark runs on shared machines whose speed drifts by a quarter
within seconds (a fixed pure-Python loop took 0.105-0.163 s back to back
on a 2-core x86-64 virtual machine, in CPU time as in wall time), and that drift swamped
every difference worth detecting.  So the benchmark times a fixed probe,
plain interpreter work that shares no code with the package, about every
PROBE_EVERY_S of measured work, and scales each measured time by
PROBE_REF_S over the probe time around it.  A reported time reads as the
time on a machine where the probe takes PROBE_REF_S; the raw times are
printed beside them.  Probes that also walk a few MB of memory tracked the
program no better than this one.
"""

from __future__ import annotations

from time import perf_counter

# about the probe's time in a worker on the machine the baseline was taken on
PROBE_REF_S = 0.00025
PROBE_EVERY_S = 0.1


def _probe_work() -> int:
    # ints and one small dict only: no tuples or lists, so the probe never
    # triggers a garbage collection whose cost would follow the heap size
    table = {}
    x = 3
    for i in range(1500):
        x = (x * x + i) % 1_000_000_007
        table[i & 255] = x
    return x


def probe_s() -> float:
    """Seconds the probe takes now: the best of three, to skip interruptions."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning times measured between two probes into reference time."""
    return PROBE_REF_S / ((before + after) / 2)
