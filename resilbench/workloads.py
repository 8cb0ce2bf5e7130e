"""Seeded input generators: one op plan per workload.

A plan is a list of ops.  Each op is the argv of one `resil` CLI call plus
the facts the output check needs: its ``kind`` label, whether HiGHS re-derives
it (``highs``), and its model, lost columns and direction where it has them.
Model JSON files are written into the work directory before any timing starts.

Shapes, op mixes and parameter ranges are fixed per workload; the seed only
draws the numbers.  That keeps the work per run the same from seed to seed,
so run-to-run spread measures the program, not the draw.  Generated inputs
are never filtered: an input that makes the program fail stays in the plan
and is counted as a failed op.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

#: Share of planned ops whose outputs are re-derived with HiGHS (the rest get
#: invariant checks plus byte-equality with repeated inputs).
HIGHS_SHARE = 0.1

#: Upper estimate of ops per second, used to size a plan.  A faster program
#: wraps around the plan; it never runs out of ops.
PLAN_RATE = {"sweep": 30, "scan": 25, "multiloss": 30, "lagsim": 150}

#: Ops per traced pass.  Fixed, so traced counts repeat exactly at one seed.
TRACE_OPS = {"sweep": 24, "scan": 20, "multiloss": 40, "lagsim": 100}

SWEEP_CATALOG = ["spacecraft-printed", "spacecraft-appendix", "octocopter-rot", "octocopter-trans"]
#: (n states, columns) of the generated sweep systems, in slot order.  With
#: the catalog, the 12 slots sort by cost into clusters of 3 cheap (about the
#: octocopter), 5 middle and 4 dear (about the spacecraft) systems, so the
#: median falls inside the middle cluster and the 90th percentile inside the
#: dear one.
SWEEP_SHAPES = [(3, 8), (4, 10), (4, 11), (4, 16), (3, 11), (3, 13), (5, 9), (6, 13)]

#: Lost-column counts of one 40-op multiloss cycle.  Sorted by cost, the
#: cumulative shares are 22.5/42.5/57.5/75/95/97.5/100 %, so the median sits
#: inside the p=6 mode and the 90th percentile inside the p=8 mode.
MULTILOSS_MIX = {4: 9, 5: 8, 6: 6, 7: 7, 8: 8, 9: 1, 10: 1}

SCAN_GRID = 21
SCAN_SAMPLES = 60

#: One lagsim block: 40 lag ops and 10 bang-bang ops (20 %), so the median
#: sits inside the short lag mode and the 90th percentile inside the bang mode.
LAG_BLOCK = 50
BANG_EVERY = 5
TAU_RANGE = (0.01, 0.3)
SPEED_RANGE = (0.2, 3.0)


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_model(path: str, name: str, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> str:
    doc = {
        "name": name,
        "order": 1,
        "B": [[float(x) for x in row] for row in b],
        "u_min": [float(x) for x in lo],
        "u_max": [float(x) for x in hi],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def mixed_scale_system(rng: np.random.Generator, n: int, cols: int):
    """Controllable system with entries spread over 1e-6..1e-2, plus a repeated
    and an anti-parallel column.

    Every box has u_min < 0 < u_max, so 0 is interior to the image whenever
    B has full row rank, which a Gaussian draw has with probability one.
    """
    b = rng.standard_normal((n, cols)) * 10.0 ** rng.uniform(-6.0, -2.0, size=(n, cols))
    src, dup, par_src, par = rng.permutation(cols)[:4]
    b[:, dup] = b[:, src]
    b[:, par] = -rng.uniform(0.2, 2.0) * b[:, par_src]
    lo = -rng.uniform(0.2, 1.0, cols)
    hi = rng.uniform(0.2, 1.0, cols)
    return b, lo, hi


def redundant_system(rng: np.random.Generator, n: int, p: int):
    """System whose kept columns dominate the p lost ones.

    Kept: n axis columns a_i e_i and 2 random columns, boxes [-1, 1], so the
    kept image contains the box with half-widths a_i.  Lost: p columns with
    sum_j |C_ij| max|w_j| <= a_i / 2, so -C w stays inside the kept image for
    every vertex w of W_c, every vertex reach time is finite, and each single
    loss is resilient (r_q > 0).  Columns are shuffled; returns the 0-based
    lost positions too.
    """
    a = 10.0 ** rng.uniform(-3.0, 0.0, n)
    extra = rng.standard_normal((n, 2)) * a[:, None] * 0.3
    kept = np.hstack([np.diag(a), extra])
    w_lo = -rng.uniform(0.5, 1.0, p)
    w_hi = rng.uniform(0.5, 1.0, p)
    raw = rng.standard_normal((n, p))
    reach_w = np.maximum(-w_lo, w_hi)
    row_load = np.abs(raw) @ reach_w
    lost = raw * (0.5 * a / row_load)[:, None]
    cols = kept.shape[1] + p
    order = rng.permutation(cols)
    b = np.empty((n, cols))
    lo = np.empty(cols)
    hi = np.empty(cols)
    b[:, order[: kept.shape[1]]] = kept
    lo[order[: kept.shape[1]]] = -1.0
    hi[order[: kept.shape[1]]] = 1.0
    lost_pos = np.sort(order[kept.shape[1]:])
    # Lost columns keep the order of the draw: position k holds lost column k.
    b[:, lost_pos] = lost
    lo[lost_pos] = w_lo
    hi[lost_pos] = w_hi
    return b, lo, hi, [int(j) for j in lost_pos]


def _stratified(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """count values, one per equal-width stratum of [lo, hi], in random order."""
    u = (np.arange(count) + rng.random(count)) / count
    return rng.permutation(lo + (hi - lo) * u)


def _plan_sweep(rng, work, size):
    ops = []
    slots = len(SWEEP_CATALOG) + len(SWEEP_SHAPES)
    for i in range(size):
        slot = i % slots
        order = 1 + (i // slots + slot) % 2
        if slot % 3 == 0:
            name = SWEEP_CATALOG[slot // 3]
            if name == "octocopter-trans":
                name = f"octocopter-trans:{rng.uniform(0.0, 360.0)!r}"
            model = "catalog:" + name
            kind = "check " + name.split(":")[0]
        else:
            n, cols = SWEEP_SHAPES[slot - slot // 3 - 1]
            b, lo, hi = mixed_scale_system(rng, n, cols)
            model = _write_model(os.path.join(work, f"sweep{i}.json"), f"gen{i}", b, lo, hi)
            kind = f"check gen n={n} cols={cols}"
        ops.append({"kind": kind, "model": model, "order": order,
                    "argv": ["check", "--model", model, "--lost", "all", "--order", str(order)]})
    return ops


def _plan_scan(rng, work, size):
    ops = []
    for i in range(size):
        if i % 2 == 0:
            model = f"catalog:octocopter-trans:{rng.uniform(0.0, 360.0)!r}"
            lost = int(rng.integers(0, 4))
            kind = "oracle octocopter-trans"
        else:
            b, lo, hi, lost_pos = redundant_system(rng, 3, 1)
            model = _write_model(os.path.join(work, f"scan{i}.json"), f"gen{i}", b, lo, hi)
            lost = lost_pos[0]
            kind = "oracle gen n=3 cols=6"
        d = _unit(rng, 3)
        ops.append({"kind": kind, "model": model, "lost": [lost], "d": d.tolist(),
                    "argv": ["oracle", "--model", model, "--lost", str(lost + 1),
                             "--direction=" + _fmt(d), "--grid", str(SCAN_GRID),
                             "--samples", str(SCAN_SAMPLES),
                             "--seed", str(int(rng.integers(0, 100_000)))]})
    return ops


def _multiloss_cycle() -> list[int]:
    ps = [p for p, count in sorted(MULTILOSS_MIX.items()) for _ in range(count)]
    # Stride through the sorted cycle so every prefix holds the mix too.
    step = 17
    assert math.gcd(step, len(ps)) == 1
    return [ps[(k * step) % len(ps)] for k in range(len(ps))]


def _plan_multiloss(rng, work, size):
    cycle = _multiloss_cycle()
    ops = []
    for i in range(size):
        p = cycle[i % len(cycle)]
        b, lo, hi, lost_pos = redundant_system(rng, 3, p)
        model = _write_model(os.path.join(work, f"multi{i}.json"), f"gen{i}", b, lo, hi)
        d = _unit(rng, 3)
        ops.append({"kind": f"ratio p={p}", "model": model, "lost": lost_pos, "d": d.tolist(),
                    "argv": ["ratio", "--model", model,
                             "--lost", ",".join(str(j + 1) for j in lost_pos),
                             "--direction=" + _fmt(d)]})
    return ops


def _plan_lagsim(rng, _work, size):
    ops = []
    bangs = LAG_BLOCK // BANG_EVERY
    lags = LAG_BLOCK - bangs
    for start in range(0, size, LAG_BLOCK):
        taus = iter(_stratified(rng, lags, *TAU_RANGE))
        lag_speeds = iter(_stratified(rng, lags, *SPEED_RANGE))
        bang_speeds = iter(_stratified(rng, bangs, *SPEED_RANGE))
        for k in range(min(LAG_BLOCK, size - start)):
            if k % BANG_EVERY == BANG_EVERY // 2:
                argv = ["simulate", "octo-vertical-bang",
                        "--target-speed", repr(float(next(bang_speeds)))]
                kind = "simulate bang"
            else:
                argv = ["simulate", "octo-vertical-lag", "--tau", repr(float(next(taus))),
                        "--target-speed", repr(float(next(lag_speeds)))]
                kind = "simulate lag"
            ops.append({"kind": kind, "argv": argv})
    return ops


PLANNERS = {
    "sweep": _plan_sweep,
    "scan": _plan_scan,
    "multiloss": _plan_multiloss,
    "lagsim": _plan_lagsim,
}


def make_plan(workload: str, seed: int, seconds: int, work: str) -> list[dict]:
    """Write the inputs of one run into `work` and return its op plan."""
    rng = np.random.default_rng([seed, sorted(PLANNERS).index(workload)])
    size = max(100, PLAN_RATE[workload] * seconds, TRACE_OPS[workload])
    ops = PLANNERS[workload](rng, work, size)
    check_rng = np.random.default_rng([seed, 99])
    for i, op in enumerate(ops):
        op["highs"] = bool(i < 10 or check_rng.random() < HIGHS_SHARE)
    return ops
