"""The machine-speed probe, and pinning to whichever CPU is fastest now.

On the 2-vCPU VM these numbers come from, each vCPU's speed drifts by up
to 2x, over fractions of a second and over stretches of minutes, and
independently of the other. A short fixed piece of pure-Python work
measures that speed: it makes small objects, looks them up in a dict,
calls ``math`` and sorts, as the package's own code does. It is the
benchmark's own code and runs with the garbage collector off, so nothing
the package does changes what it costs, only the machine does. run.py
scales every timing by the probe times taken next to it (see NOTES.md),
and pinning to the CPU whose probe runs fastest lets a run use whichever
CPU is fast at the moment. Only this process's own affinity changes, which
its children inherit.
"""

import gc
import math
import os
import statistics
import time

PROBE_ROUNDS = 2_000  # about 1 ms of pure-Python work
PROBE_REF_MS = 1.0    # the probe time that scaled times are referred to
_TABLE = {i: float(i) for i in range(PROBE_ROUNDS)}


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b


def probe_ms() -> float:
    """Time of one probe on the current CPU, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        points, acc = [], 0.0
        for i in range(PROBE_ROUNDS):
            point = _Point(_TABLE[i], math.sqrt(i + 1.0))
            points.append(point)
            acc += math.exp(-point.a / 1000.0) * point.b
        points.sort(key=lambda q: q.b - q.a)
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def _probe_on(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    return probe_ms()


def pin_fastest(cpus) -> float:
    """Pin to the allowed CPU whose probe is fastest; that probe's time."""
    if len(cpus) == 1:
        return _probe_on(cpus[0])
    times = {cpu: _probe_on(cpu) for cpu in cpus}
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return times[best]


def scaled(ms: float, probes) -> float:
    """ms referred to the speed at which the probe takes PROBE_REF_MS: the
    time divided by the median of the probes taken around it."""
    return ms * PROBE_REF_MS / statistics.median(probes)
