"""A fixed reference computation that gauges the machine's current speed.

The benchmark runs on a shared host whose speed for one single-threaded
process drifts by up to 1.7x over minutes, for every program alike.  Timing
this computation next to each op turns wall-clock times into times at a
nominal speed: ``t * NOMINAL_NS / t_reference`` (see `normalize`).

The computation is the benchmark's own and never calls the program under
test, so no change to the program moves it.  It does the same kind of work
as the program - small dense LPs pivoted from Python with NumPy row
operations, and a JSON round trip - so contention slows both alike.  Garbage
collection is off while it runs, so the program's heap cannot slow it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

#: The reference computation's time at nominal speed, a round figure near its
#: time on the 2-vCPU x86_64 VM the benchmark was defined on.  Normalized times
#: are wall times scaled to a machine on which one unit takes this long.
NOMINAL_NS = 2_400_000

#: Units on each side of an op whose median gauges the speed around that op.
#: Speed can change from one op to the next, so the window is short.
WINDOW = 2

_RNG = np.random.default_rng(20240611)
_LPS = [(_RNG.uniform(0.1, 1.0, (4, 9)), _RNG.uniform(1.0, 2.0, 4), _RNG.uniform(0.1, 1.0, 9))
        for _ in range(12)]


def _tableau(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """max c.x s.t. a x <= b, x >= 0 (b > 0): Dantzig tableau, Bland's rule."""
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -c
    basis = list(range(n, n + m))
    while True:
        entering = np.flatnonzero(t[m, :-1] < -1e-12)
        if entering.size == 0:
            break
        e = int(entering[0])
        col = t[:m, e]
        best, leave = np.inf, -1
        for i in range(m):
            if col[i] > 1e-12:
                ratio = t[i, -1] / col[i]
                if ratio < best - 1e-15:
                    best, leave = ratio, i
        t[leave] /= t[leave, e]
        for i in range(m + 1):
            if i != leave:
                t[i] -= t[i, e] * t[leave]
        basis[leave] = e
    x = np.zeros(n + m)
    x[basis] = t[:m, -1]
    return float(t[m, -1]), x[:n]


def _unit() -> int:
    rows = []
    for a, b, c in _LPS:
        value, x = _tableau(a, b, c)
        rows.append({"value": value, "x": [round(float(v), 12) for v in x],
                     "feasible": bool(np.all(a @ x <= b + 1e-9))})
    return len(json.loads(json.dumps(rows)))


def unit_ns() -> int:
    """Wall time of one reference unit, in ns, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _unit()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def local_slowdown(ref_ns: list[int]) -> list[float]:
    """Per position, the median reference time within WINDOW positions, over NOMINAL_NS."""
    return [statistics.median(ref_ns[max(0, i - WINDOW):i + WINDOW + 1]) / NOMINAL_NS
            for i in range(len(ref_ns))]


def normalize(times: list[float], ref_ns: list[int]) -> list[float]:
    """Times at nominal speed: each time over the slowdown measured around it."""
    return [t / s for t, s in zip(times, local_slowdown(ref_ns))]
