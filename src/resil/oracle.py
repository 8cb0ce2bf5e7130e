"""Brute-force oracles: independent numerical checks of the structural theorems.

These are falsifiers, not estimators: each scan hammers one closed-form claim
(vertex optimality of the worst undesirable input, the worst direction being
collinear with +/-C, positive homogeneity of reach times) with exhaustive or
quasi-random sampling and reports the worst observed violation.

The scans evaluate all grid points, sampled directions or homogeneity rays in
gauge batches of the box images of B and B_bar (reach.malfunction_times,
reach.time_ratios, reach.nominal_times, reach.worst_times, each at the system's
order; zonotope.py), one LP per query where a build is declined; the split and
its system each build their image once, for all the scans.  The grid's theory
value and the probe's T*(a d) read the same images (B's eroded slabs, B_bar's
one-ray pass; cold LPs where a build is declined); the direction scan's is
1/r_{k,q} of the report that gates it, so it tests the paper's whole claim (the
worst direction is collinear with +/-C, its ratio the closed form).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import reach
from .errors import CapacityError, LpError, ResilError, UnsupportedLossError
from .model import ActuatorSplit, to_machine
from .resilience import quantitative_resilience

#: Relative violations at or below this are attributed to LP tolerance and clamped.
VIOLATION_CLAMP = 1e-9

#: Hard cap on the number of grid points in grid_worst_w.
GRID_CAP = 1_000_000


@dataclass(frozen=True)
class ScanReport:
    """Worst value found by a scan versus the closed-form theory value."""

    worst_value: float
    worst_argument: np.ndarray
    theory_value: float
    max_violation: float

    def to_dict(self) -> dict:
        return {
            "worst_value": to_machine(self.worst_value),
            "worst_argument": [float(v) for v in np.atleast_1d(self.worst_argument)],
            "theory_value": to_machine(self.theory_value),
            "max_violation": float(self.max_violation),
        }


def _relative_excess(found: float, theory: float) -> float:
    """Clamped relative amount by which a scan exceeded the theory value."""
    if math.isinf(found) and math.isinf(theory):
        return 0.0
    if math.isinf(found):
        return math.inf
    excess = (found - theory) / max(1.0, abs(theory))
    return 0.0 if excess <= VIOLATION_CLAMP else excess


def grid_worst_w(split: ActuatorSplit, d: np.ndarray, points_per_axis: int) -> ScanReport:
    """Scan a uniform grid over W_c for a w worse than the vertex-enumeration T_M*."""
    d = reach._directions(d, split.base.n, ndim=1)
    if not np.any(d):
        raise LpError("direction d must be nonzero")
    if points_per_axis < 2:
        raise ResilError("points_per_axis must be >= 2 (vertices must be included)")
    if points_per_axis**split.p > GRID_CAP:
        raise CapacityError(
            f"grid of {points_per_axis}^{split.p} points exceeds the cap of {GRID_CAP}"
        )
    theory = reach.malfunctioning_reach_time(split, d).time
    axes = [
        np.linspace(lo, hi, points_per_axis)
        for lo, hi in zip(split.w_min, split.w_max)
    ]
    grid = np.array(list(itertools.product(*axes)))
    times = reach.malfunction_times(split, grid, d)
    worst = float(times.max())
    return ScanReport(
        worst_value=worst,
        worst_argument=grid[int(np.argmax(times))],
        theory_value=theory,
        max_violation=_relative_excess(worst, theory),
    )


def _unit_directions(n: int, samples: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy unit directions.

    A Kronecker (R_d) sequence on the unit cube, pushed through Box-Muller to
    Gaussian coordinates and normalized; the seed offsets the sequence.
    """
    if samples <= 0:
        return np.empty((0, n))
    pairs = max(1, (n + 1) // 2)
    dim = 2 * pairs
    # Root of x^(dim+1) = x + 1 gives the R_d irrational basis.
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([phi ** -(j + 1) for j in range(dim)])
    idx = np.arange(1, samples + 1)[:, None]
    u = np.mod(0.5 + (seed % 100_000) * alpha + idx * alpha, 1.0)
    u1 = np.clip(u[:, 0::2], 1e-12, 1.0)
    u2 = u[:, 1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    normals = np.empty((samples, dim))
    normals[:, 0::2] = radius * np.cos(2.0 * math.pi * u2)
    normals[:, 1::2] = radius * np.sin(2.0 * math.pi * u2)
    vec = normals[:, :n]
    norms = np.linalg.norm(vec, axis=1)
    norms[norms == 0.0] = 1.0
    return vec / norms[:, None]


def direction_scan(split: ActuatorSplit, samples: int, seed: int) -> ScanReport:
    """Scan unit directions for a time ratio above 1/r_{k,q} = max(t(C), t(-C)).

    Only meaningful on resilient single-loss splits (off the resilient set the
    ratio is unbounded and the theorem says nothing).  The gate's report gives the theory
    value, at +C/|C| where r(C) <= r(-C), else at -C/|C| (t(+/-C) = r(+/-C)^(-1/k)).
    """
    report, c = quantitative_resilience(split), split.c[:, 0]
    if not np.any(c):
        raise UnsupportedLossError("direction_scan requires a nonzero lost column")
    if not report.resilient:
        raise UnsupportedLossError("direction_scan requires a resilient split "
                                   "(ratio is unbounded otherwise)")
    c_unit, theory = c / np.linalg.norm(c), 1.0 / report.r_kq
    worst, worst_d = theory, (c_unit if report.r_plus <= report.r_minus else -c_unit)
    if samples > 0:
        directions = _unit_directions(split.base.n, samples, seed)
        ratios = reach.time_ratios(split, directions)
        best = int(np.argmax(ratios))
        if ratios[best] > worst:
            worst, worst_d = float(ratios[best]), directions[best]
    return ScanReport(
        worst_value=worst,
        worst_argument=worst_d,
        theory_value=theory,
        max_violation=_relative_excess(worst, theory),
    )


def homogeneity_probe(
    split: ActuatorSplit, d: np.ndarray, scales: "list[float] | tuple[float, ...]"
) -> float:
    """Max relative error of the batch T*(alpha d) against (alpha/a)^(1/k) T*(a d), over
    alpha = 1 and each scale, a the largest of them, for T_N* and T_M* of a split at its
    system's order k (T_k(alpha d) = alpha^(1/k) T_k(d)).

    Infinite anchor times T*(a d) are skipped (homogeneity is trivial there).  One batch per
    image answers every alpha d (reach.nominal_times, reach.worst_times).  With the images
    built, the anchor is the gauge too (B_bar's one-ray pass, B's eroded slabs), so the probe
    compares the gauge with itself and sees rounding.  A declined image answers both by cold
    LPs, which pose the same LP for alpha d and d up to the rounding of d/|d|.
    """
    d = reach._directions(d, split.base.n, ndim=1)
    if not np.any(d):
        raise LpError("direction d must be nonzero")
    alphas = np.array([1.0, *scales], dtype=float)
    if np.any(alphas <= 0.0):
        raise LpError("scales must be positive")

    rays, top, base = alphas[:, None] * d, alphas.max(), split.base
    pairs = [(reach.nominal_reach_time(base, top * d), reach.nominal_times(base, rays)),
             (reach.malfunctioning_reach_time(split, top * d), reach.worst_times(split, rays))]
    err = 0.0
    for anchor, batch in pairs:  # x ** 1.0 is x: at k = 1 the order-1 bits
        lifted = (alphas / top) ** (1.0 / base.order) * anchor.time
        if math.isfinite(lifted[0]) and lifted[0] > 0.0:
            err = max(err, float((np.abs(batch - lifted) / lifted).max()))
    return err
