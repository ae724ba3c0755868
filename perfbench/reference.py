"""Fixed reference work, timed beside every scenario to gauge machine speed.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent between processes minutes apart, and within a process from second
to second; every kind of work slows together.  Timing this fixed piece of
work before each scenario, and dividing each scenario's wall time by the
reference times around it, cancels that drift: the ratio moves only when
the program does.

The reference is the benchmark's own code and never calls the program, so
no change to the program can change it.  It mixes the program's kinds of
work: small-array numpy expressions evaluated each step, an upwind update,
and plain Python over scalars, lists and dicts.
"""

from __future__ import annotations

import math
from time import perf_counter, process_time, thread_time
from typing import List, Sequence

import numpy as np

NX = 241
STEPS = 4000
# wall seconds of one ``reference_work()`` on the machine the benchmark was
# written on (a shared 2-vCPU x86-64 VM), at its usual speed: the scale of
# the normalised seconds
NOMINAL_S = 0.09
# a scenario's speed gauge: the median of the reference times taken before
# it and before the WINDOW scenarios on either side of it
WINDOW = 2
# CPU time of other threads allowed during the reference, as a share of it
OTHER_CPU_SHARE = 0.05

_X = np.linspace(0.0, 1.0, NX)


def reference_work() -> float:
    """Run the fixed work once; return its wall time in seconds.

    A thread left busy by the program would slow the reference and so shrink
    every normalised time; if other threads of the process used more than
    ``OTHER_CPU_SHARE`` of the reference's wall time in CPU, the run stops.
    """
    t0, cpu0, own0 = perf_counter(), process_time(), thread_time()
    dt, dx = 1.0 / STEPS, 1.0 / (NX - 1)
    u = np.cos(3.0 * _X)
    history = []
    names = {"t": 0.0, "x": _X}
    for k in range(STEPS):
        t = k * dt
        names["t"] = t
        v = 1.2 + 0.2 * np.sin(math.pi * names["x"] + t) * np.cos(0.7 * t)
        u[1:] -= (dt / dx) * v[1:] * (u[1:] - u[:-1])
        u[0] = math.sin(2.0 * t)
        history.append(float(np.max(np.abs(u))))
        acc = 0.0
        for j, h in enumerate(history[-8:]):
            acc += h * (j + 1) - math.log1p(h)
        names["acc"] = acc
    if not all(math.isfinite(h) for h in history):
        raise AssertionError("reference work diverged")
    wall = perf_counter() - t0
    other = (process_time() - cpu0) - (thread_time() - own0)
    if other > OTHER_CPU_SHARE * wall:
        raise RuntimeError(f"other threads used {other:.3f} s of CPU during "
                           f"{wall:.3f} s of reference work, so it does not "
                           "gauge the machine")
    return wall


def gauge(runs: int = 5) -> float:
    """The median reference time over ``runs`` runs in a row."""
    return float(np.median([reference_work() for _ in range(runs)]))


def normalised(seconds: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Each scenario's wall time at the nominal machine speed.

    ``refs[i]`` is the reference time taken just before scenario ``i``, in
    run order.  Scenario ``i`` is scaled by ``NOMINAL_S`` over the median of
    ``refs[i - WINDOW : i + WINDOW + 1]`` (cut at the ends of the run).
    """
    if len(seconds) != len(refs) or not refs:
        raise ValueError("one reference time per scenario is needed")
    gauges = [np.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
              for i in range(len(refs))]
    return [s * NOMINAL_S / float(g) for s, g in zip(seconds, gauges)]
