"""Scale wall times to a reference machine speed.

The benchmark runs on shared boxes whose CPU speed drifts by 1.5-2 times
from one few-second stretch to the next (a fixed pure-Python loop run
back to back for 30 s took 30 ms in some seconds and 50 ms in others).
That drift, not the program, set the run-to-run spread of every timing.

So the closed loop pauses every PROBE_EVERY_S to time two fixed probe
tasks that do not touch the program: a depth-first search over a fixed
sparse graph (the idiom of the solvers) and a plain integer loop.  A
probe's cost is the geometric mean of the two times.  A span of wall time
is multiplied by REF_PROBE_S over the median probe cost within WINDOW_S of
the span (at least the nearest probe on each side).  The result is the
time the span would take on a box where the probe costs REF_PROBE_S: the
same program on a steady box gives the same figure, and a slower program
gives a larger one.

How the probe was chosen: over 150 s of solver calls from three workloads
interleaved with candidate probes, the log of the solver's slowdown in
2 s windows had a standard deviation of 0.15-0.16.  After dividing by
this probe it was 0.053-0.062; by the loop alone 0.058-0.065, by the
search alone 0.060-0.078, and by a probe that fills a fresh 3,000-entry
dict and set 0.061-0.083.  That last one swung more than the solver did
in some stretches (it allocates large tables), and over-corrected them.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time

PROBE_EVERY_S = 0.05
WINDOW_S = 0.25
# About the probe's cost on a quiet two-core x86-64 box under Python 3.11,
# so that scaled figures read close to wall time there.
REF_PROBE_S = 0.0004


def _probe_graph() -> dict[int, set[int]]:
    rng = random.Random(5)
    adj: dict[int, set[int]] = {v: set() for v in range(600)}
    for _ in range(700):
        u, v = rng.sample(range(600), 2)
        adj[u].add(v)
        adj[v].add(u)
    return adj


PROBE_GRAPH = _probe_graph()


def search_task() -> int:
    """Count the components of PROBE_GRAPH by depth-first search."""
    seen: set[int] = set()
    components = 0
    for start in PROBE_GRAPH:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        stack = [start]
        while stack:
            for w in PROBE_GRAPH[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return components


def loop_task() -> int:
    total = 0
    for i in range(20000):
        total += i
    return total


def probe_cost() -> float:
    """Geometric mean of the two tasks' times, in seconds."""
    started = time.perf_counter()
    search_task()
    middle = time.perf_counter()
    loop_task()
    ended = time.perf_counter()
    return math.sqrt((middle - started) * (ended - middle))


class SpeedLog:
    """Probe costs along one run, and the scale factors they give."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []

    def probe(self) -> None:
        cost = probe_cost()
        self.times.append(time.perf_counter())
        self.costs.append(cost)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REF_PROBE_S over the median probe cost around [start, end]."""
        if not self.times:
            raise ValueError("no probe taken")
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.times, start) - 1))
        hi = max(hi, min(len(self.times), bisect.bisect_right(self.times, end) + 1))
        return REF_PROBE_S / statistics.median(self.costs[lo:hi])

    def timed(self, fn):
        """(value, scaled seconds) of fn(), probed three times on each side."""
        for _ in range(3):
            self.probe()
        started = time.perf_counter()
        value = fn()
        ended = time.perf_counter()
        for _ in range(3):
            self.probe()
        return value, (ended - started) * self.scale(started, ended)
