"""Reach times T_N*, T_M(w, d), T_M*, the ratio t(d), and order-k extensions.

All computations go through the lam = 1/T transformation: the minimal time to
cover a target distance d with a constant input is 1/lam*, where lam* is the
largest nonnegative scaling of d realizable inside the input box.  The worst
constant adversarial input is always a vertex of the box W_c, so T_M* is a
maximum over the 2^p vertices.

Two engines compute lam*: the simplex LP of lp.max_scaled_direction, one solve
per query, and the facet inequalities of the box image (zonotope.py), one
batch per matrix.  Single reach times (T_N*, T_M(w, d)) and every reported
optimizer are LP optima, started at the facet where the ray leaves the image
(zonotope.Zonotope.start) when B's was built or B_bar's given: for T_M* the
facet its screen named, else one ray's, asked only when the LP is solved.
T_M* screens its 2^p vertices with one gauge batch and solves one LP at the
worst vertex; the batched malfunction_times and time_ratios answer the oracle
scans from the gauge alone.  Each takes the image as image= (time_ratios
B_bar's as full=), built when omitted; a declined build (None: rank-deficient,
or not worth its LPs) keeps the call on the LP path.

+inf is a first-class value throughout ("direction not guaranteed reachable");
it is serialized as the string "inf" in machine output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp, zonotope
from .errors import CapacityError, LpError, ModelError
from .model import ActuatorSplit, IntegratorSystem

#: Default cap on the number of lost columns in vertex enumeration (2^p vertices).
P_MAX_DEFAULT = 20

#: Screened vertex times within this relative distance of the largest count as
#: tied; the lowest lexicographic index among them is the worst vertex.  The
#: gauge agrees with the LP to about 1e-13 relative on the catalog systems.
VERTEX_TIE_RTOL = 1e-12

_BUILD = object()  # default of image= and full=: the function builds the image


@dataclass(frozen=True)
class ReachResult:
    """A reach time with its optimizing constant inputs (when finite)."""

    time: float
    order: int
    optimizer_u: np.ndarray | None = None
    optimizer_w: np.ndarray | None = None


def order_k_time(t1, k: int):
    """Lift an order-1 reach time (or an array of them) to order k: T_k = (k! * T_1)^(1/k).

    +inf stays +inf.
    """
    return (math.factorial(k) * t1) ** (1.0 / k)


def _resolve_order(sys: IntegratorSystem, order: int | None) -> int:
    k = sys.order if order is None else int(order)
    if k < 1:
        raise ModelError(f"order must be >= 1, got {k}")
    return k


def _order1_time(scaling: lp.DirectionScaling) -> tuple[float, np.ndarray | None]:
    """Order-1 reach time 1/lam* and optimizer of a max_scaled_direction outcome.

    Time 0 when lam is unbounded, +inf when lam* = 0 or infeasible; no optimizer then.
    """
    if scaling.status == lp.OPTIMAL:
        return 1.0 / scaling.value, scaling.argument
    return (0.0 if scaling.status == lp.UNBOUNDED else math.inf), None


def nominal_reach_time(
    sys: IntegratorSystem, d: np.ndarray, order: int | None = None, *, image=None
) -> ReachResult:
    """Shortest time for the fully functional system to cover the distance d.

    Returns time 0 for d = 0 and +inf when no input in the box pushes along d.
    """
    k = _resolve_order(sys, order)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.any(d):
        return ReachResult(time=0.0, order=k)
    t1, u = _order1_time(_scaling_lp(sys.b_bar, sys.u_min, sys.u_max, d, np.zeros(sys.n), image))
    return ReachResult(time=order_k_time(t1, k), order=k, optimizer_u=u)


def _check_in_w_box(split: ActuatorSplit, ws: np.ndarray) -> None:
    w_scale = 1.0 + max(np.abs(split.w_min).max(), np.abs(split.w_max).max())
    outside = np.any(ws < split.w_min - 1e-9 * w_scale, axis=1) | np.any(
        ws > split.w_max + 1e-9 * w_scale, axis=1
    )
    if outside.any():
        w = ws[int(np.argmax(outside))]
        raise ModelError(f"w {w.tolist()} outside the undesirable-input box W_c")


def _image(image, m: np.ndarray, lower: np.ndarray, upper: np.ndarray, lps: int):
    """`image` as passed (None: declined), or built for lps LPs when omitted (_BUILD)."""
    return zonotope.build(m, lower, upper, lps=lps) if image is _BUILD else image


def _scaling_lp(m, lower, upper, d, shift, image, facet=None) -> lp.DirectionScaling:
    """lp.max_scaled_direction, started at M's image's Zonotope.start when it is given."""
    basis = None if image is None else (lambda: image.start(d, shift, facet))
    return lp.max_scaled_direction(m, lower, upper, d, rhs_shift=shift, basis=basis)


def _vertex_lp(
    split: ActuatorSplit, w: np.ndarray, d: np.ndarray, image=None, facet=None
) -> lp.DirectionScaling:
    """The scaling LP of T_M(w, d): max{lam >= 0 : B u = lam d - C w, u in U_c}."""
    return _scaling_lp(split.b, split.u_min, split.u_max, d, -(split.c @ w), image, facet)


def _gauge_times(directions: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Order-1 reach times from the gauge's lam (directions x shifts), as _order1_time maps the LP.

    Time 0 when lam is unbounded, +inf when the normalized lam is at or below the
    threshold lp.max_scaled_direction applies to a unit direction, or infeasible.
    """
    directions = np.atleast_2d(directions)
    with np.errstate(divide="ignore"):
        times = np.linalg.norm(directions, axis=1)[:, None] / lam
    return np.where(lam > lp.lambda_threshold(np.ones(1)), times, math.inf)


def malfunction_time_for_w(
    split: ActuatorSplit, w: np.ndarray, d: np.ndarray, order: int | None = None
) -> float:
    """Reach time of the malfunctioning system for one frozen undesirable input w.

    T_M(w, d) = 1 / max{lam >= 0 : B u + C w = lam d, u in U_c}, +inf when the
    maximum is 0 or the constraint is infeasible; solved as one LP.
    """
    k = _resolve_order(split.base, order)
    return order_k_time(float(malfunction_times(split, w, d, 1, image=None)[0]), k)


def malfunction_times(
    split: ActuatorSplit, ws: np.ndarray, d: np.ndarray, order: int | None = None, *, image=_BUILD
) -> np.ndarray:
    """T_M(w, d) for each row w of ws: malfunction_time_for_w as one gauge batch.

    One LP per row instead when the image of B is declined.
    """
    k = _resolve_order(split.base, order)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    ws = np.atleast_2d(np.asarray(ws, dtype=float))
    if not np.any(d):
        raise LpError("direction d must be nonzero")
    _check_in_w_box(split, ws)
    zono = _image(image, split.b, split.u_min, split.u_max, len(ws))
    if zono is None:
        t1 = np.array([_order1_time(_vertex_lp(split, w, d))[0] for w in ws])
    else:
        t1 = _gauge_times(d, zono.scalings(d, -(ws @ split.c.T)))[0]
    return order_k_time(t1, k)


def w_vertices(split: ActuatorSplit) -> np.ndarray:
    """All 2^p vertices of W_c in lexicographic order (w_min before w_max per axis)."""
    axes = [(float(lo), float(hi)) for lo, hi in zip(split.w_min, split.w_max)]
    return np.array(list(itertools.product(*axes)), dtype=float)


def _capped_vertices(split: ActuatorSplit, p_max: int) -> np.ndarray:
    if split.p > p_max:
        raise CapacityError(
            f"vertex enumeration needs 2^{split.p} vertices; cap is p_max={p_max}"
        )
    return w_vertices(split)


def malfunctioning_reach_time(
    split: ActuatorSplit,
    d: np.ndarray,
    order: int | None = None,
    p_max: int = P_MAX_DEFAULT,
    *, image=_BUILD,
) -> ReachResult:
    """Worst-case reach time T_M*(d): max over the vertices of W_c.

    Ties between vertices are broken toward the lowest lexicographic vertex
    index, and the first vertex with an infinite time wins, so the reported
    optimizer_w is deterministic.  One gauge batch screens all vertices and one
    LP at the worst of them gives the time and optimizer_u.  Every vertex gets
    its LP when the image of B is declined, or when that LP and the screen
    disagree on whether the time is finite.
    """
    k = _resolve_order(split.base, order)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.any(d):
        return ReachResult(time=0.0, order=k)
    vertices = _capped_vertices(split, p_max)
    zono = _image(image, split.b, split.u_min, split.u_max, len(vertices))
    if zono is not None:
        lam, facets = zono.scalings(d, -(vertices @ split.c.T), facets=True)
        screened = _gauge_times(d, lam)[0]
        worst = int(np.argmax(screened >= screened.max() * (1.0 - VERTEX_TIE_RTOL)))
        t1, u = _order1_time(_vertex_lp(split, vertices[worst], d, zono, facets[0, worst]))
        if math.isinf(t1) == math.isinf(screened[worst]):
            return ReachResult(
                time=order_k_time(t1, k), order=k, optimizer_u=u, optimizer_w=vertices[worst]
            )
    best_time = -1.0
    best_w: np.ndarray | None = None
    best_u: np.ndarray | None = None
    for w in vertices:
        t1, u = _order1_time(_vertex_lp(split, w, d, zono))
        if math.isinf(t1):
            return ReachResult(time=math.inf, order=k, optimizer_w=w)
        if t1 > best_time:
            best_time, best_w, best_u = t1, w, u
    return ReachResult(
        time=order_k_time(best_time, k), order=k, optimizer_u=best_u, optimizer_w=best_w
    )


def time_ratio(
    split: ActuatorSplit,
    d: np.ndarray,
    order: int | None = None,
    p_max: int = P_MAX_DEFAULT,
    *, image=_BUILD, full=None,
) -> float:
    """Ratio of reach times t_k(d) = T_{k,M}*(d) / T_{k,N}*(d); see ratio_of_times.

    T_N* is not computed when T_M* is infinite: the ratio is +inf regardless.
    """
    t_m = malfunctioning_reach_time(split, d, order=order, p_max=p_max, image=image).time
    if math.isinf(t_m):
        return math.inf
    return ratio_of_times(t_m, nominal_reach_time(split.base, d, order=order, image=full).time)


def time_ratios(
    split: ActuatorSplit,
    directions: np.ndarray,
    order: int | None = None,
    p_max: int = P_MAX_DEFAULT,
    *, image=_BUILD, full=_BUILD,
) -> np.ndarray:
    """t_k(d) for each (nonzero) row d of directions: time_ratio as two gauge batches.

    One batch over the directions and W_c vertices for B, one over the
    directions for B_bar (`full`); time_ratio per row instead when either image
    is declined.
    """
    k = _resolve_order(split.base, order)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if not np.all(np.any(directions, axis=1)):
        raise LpError("every direction must be nonzero")
    vertices = _capped_vertices(split, p_max)
    base = split.base
    lost = _image(image, split.b, split.u_min, split.u_max, len(directions) * len(vertices))
    full = _image(full, base.b_bar, base.u_min, base.u_max, len(directions))
    if lost is None or full is None:
        return np.array([time_ratio(split, d, k, p_max, image=lost, full=full) for d in directions])
    t_m = _gauge_times(directions, lost.scalings(directions, -(vertices @ split.c.T))).max(axis=1)
    t_n = _gauge_times(directions, full.scalings(directions, np.zeros(base.n)))[:, 0]
    return ratio_of_times(order_k_time(t_m, k), order_k_time(t_n, k))


def ratio_of_times(t_m, t_n):
    """t(d) = T_M*(d) / T_N*(d) from the two reach times (floats, or arrays of them).

    +inf whenever T_M* is infinite, regardless of T_N*; 1 when both are 0 (d = 0).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(
            np.isinf(t_m), math.inf, np.where((t_m == 0.0) & (t_n == 0.0), 1.0, np.divide(t_m, t_n))
        )
    return float(t) if t.ndim == 0 else t
