"""Brute-force oracles: independent numerical checks of the structural theorems.

These are falsifiers, not estimators: each scan hammers one closed-form claim
(vertex optimality of the worst undesirable input, the worst direction being
collinear with +/-C, positive homogeneity of reach times) with exhaustive or
quasi-random sampling and reports the worst observed violation.

The scans evaluate all grid points or sampled directions in gauge batches of
the box images of B and B_bar (reach.malfunction_times, reach.time_ratios;
zonotope.py), one LP per query where a build is declined; op_images builds
both once per oracle op.  Each theory value still comes from the scalar reach
path, whose reported times are LP solutions, so a scan compares two engines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import reach, zonotope
from .errors import CapacityError, LpError, UnsupportedLossError
from .model import ActuatorSplit, IntegratorSystem, to_machine
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


def _grid_direction(split: ActuatorSplit, d: np.ndarray, points_per_axis: int) -> np.ndarray:
    """d as an array, once d and the grid of a grid_worst_w scan are checked valid."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.any(d):
        raise LpError("direction d must be nonzero")
    if points_per_axis < 2:
        raise CapacityError("points_per_axis must be >= 2 (vertices must be included)")
    if points_per_axis**split.p > GRID_CAP:
        raise CapacityError(
            f"grid of {points_per_axis}^{split.p} points exceeds the cap of {GRID_CAP}"
        )
    return d


def op_images(split: ActuatorSplit, d: np.ndarray, points_per_axis: int, samples: int, probes: int):
    """Images of B and B_bar (None: declined) for one oracle op, after grid_worst_w's checks.

    B's is offered the grid points and 2^p LPs per T_M* screen (grid theory, 1 + `probes`
    homogeneity points, t(+/-C) and each scan direction); B_bar's, built only when the
    direction scan runs (samples > 0), its directions and the 2n + 2 LPs of its gate.
    """
    _grid_direction(split, d, points_per_axis)
    screens = 2 + probes + (2 + samples if samples > 0 else 0)
    lps = points_per_axis**split.p + 2**split.p * screens
    base, image = split.base, zonotope.build(split.b, split.u_min, split.u_max, lps=lps)
    if samples <= 0:
        return image, None
    return image, zonotope.build(base.b_bar, base.u_min, base.u_max, lps=samples + 2 * base.n + 2)


def grid_worst_w(
    split: ActuatorSplit, d: np.ndarray, points_per_axis: int, *, image=reach._BUILD
) -> ScanReport:
    """Scan a uniform grid over W_c for a w worse than the vertex-enumeration T_M*."""
    d = _grid_direction(split, d, points_per_axis)
    theory = reach.malfunctioning_reach_time(split, d, image=image).time
    axes = [
        np.linspace(lo, hi, points_per_axis)
        for lo, hi in zip(split.w_min, split.w_max)
    ]
    grid = np.array(list(itertools.product(*axes)))
    times = reach.malfunction_times(split, grid, d, image=image)
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


def direction_scan(
    split: ActuatorSplit, samples: int, seed: int, *, image=reach._BUILD, full=reach._BUILD
) -> ScanReport:
    """Scan unit directions for a time ratio above max(t(C), t(-C)).

    Only meaningful on resilient single-loss splits (off the resilient set the
    ratio is unbounded and the theorem says nothing); decided from `full` if given.
    """
    if split.p != 1:
        raise UnsupportedLossError("direction_scan requires a single lost column")
    c = split.c[:, 0]
    if not np.any(c):
        raise UnsupportedLossError("direction_scan requires a nonzero lost column")
    report = quantitative_resilience(split, image=None if full is reach._BUILD else full)
    if not report.resilient:
        raise UnsupportedLossError(
            "direction_scan requires a resilient split (ratio is unbounded otherwise)"
        )
    c_unit = c / np.linalg.norm(c)
    t_plus = reach.time_ratio(split, c_unit, image=image)
    t_minus = reach.time_ratio(split, -c_unit, image=image)
    theory = max(t_plus, t_minus)

    worst, worst_d = theory, (c_unit if t_plus >= t_minus else -c_unit)
    if samples > 0:
        directions = _unit_directions(split.base.n, samples, seed)
        ratios = reach.time_ratios(split, directions, image=image, full=full)
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
    obj: "IntegratorSystem | ActuatorSplit",
    d: np.ndarray,
    scales: "list[float] | tuple[float, ...]",
    *, image=reach._BUILD,
) -> float:
    """Max relative error of T*(alpha d) versus alpha T*(d) over the scales.

    Checks T_N* always, and T_M* additionally when given a split.  Infinite
    times are skipped (homogeneity is trivial there).
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.any(d):
        raise LpError("direction d must be nonzero")
    scales = [float(a) for a in scales]
    if any(a <= 0.0 for a in scales):
        raise LpError("scales must be positive")

    # Homogeneity in d is an order-1 statement; evaluate there regardless of
    # the system's declared order.
    nominal = obj.base if isinstance(obj, ActuatorSplit) else obj
    evaluators = [lambda dd: reach.nominal_reach_time(nominal, dd, order=1).time]
    if isinstance(obj, ActuatorSplit):
        evaluators.append(lambda dd: reach.malfunctioning_reach_time(obj, dd, 1, image=image).time)

    err = 0.0
    for evaluate in evaluators:
        base = evaluate(d)
        if not math.isfinite(base) or base == 0.0:
            continue
        for a in scales:
            scaled = evaluate(a * d)
            err = max(err, abs(scaled - a * base) / (a * base))
    return err
