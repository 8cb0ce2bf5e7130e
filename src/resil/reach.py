"""Reach times T_N*, T_M(w, d), T_M*, the ratio t(d), and order-k extensions.

All computations go through the lam = 1/T transformation: the minimal time to
cover a target distance d with a constant input is 1/lam*, where lam* is the
largest nonnegative scaling of d realizable inside the input box.  The worst
constant adversarial input is always a vertex of the box W_c, so T_M* is a
maximum over the 2^p vertices.  While every -C w lies inside the image of B, the
worst vertex is the one attaining the facet where the ray leaves that image
eroded by -C W_c (its Minkowski difference), read off the facets with no
vertex enumerated.

Two engines compute lam* as the multiplier lam_hat of d/|d|, which _order1_times
turns into a time: the simplex LP of lp.max_scaled_direction, one solve per
query, and the facet inequalities of the box image (zonotope.py), one batch.
B_bar's image is the system's (IntegratorSystem.image) and B's the split's
(ActuatorSplit.image), each built at its first query and kept by its owner.
Single reach times (T_N*, T_M*) and every reported optimizer are LP optima,
started at the facet where the LP's own ray leaves the image.  T_N* starts at
B_bar's zonotope.Zonotope.start.  T_M* takes its worst vertex from
B's eroded facets (zonotope.Zonotope.worst_vertex), which also name the facet
its LP starts at, or else screens its 2^p vertices with one gauge batch, which
returns lam only, and solves one LP at that vertex, started at B's
Zonotope.start.  malfunction_times, nominal_times and worst_times (and
time_ratios, their ratio) answer the oracle scans from the gauge alone.  Where
zonotope.build declines an image (None: rank below n, or over
zonotope.MAX_CANDIDATES) the LP path answers instead, and its LPs start cold.

Every time, single or batched, is at the system's order k (IntegratorSystem.order;
order_k_time lifts the order-1 time), and every entry point rejects a direction of the
wrong length or with a non-finite entry (_directions) before any engine.

+inf is a first-class value throughout ("direction not guaranteed reachable");
it is serialized as the string "inf" in machine output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import CapacityError, LpError, ModelError
from .model import ActuatorSplit, IntegratorSystem, outside_box
from .zonotope import VERTEX_TIE_RTOL

#: Cap on the number of lost columns in vertex enumeration (2^p vertices).
P_MAX_DEFAULT = 20


@dataclass(frozen=True)
class ReachResult:
    """A reach time at the system's order, with its optimizing inputs (when finite)."""

    time: float
    optimizer_u: np.ndarray | None = None
    optimizer_w: np.ndarray | None = None


def order_k_time(t1, k: int):
    """Lift an order-1 reach time (or an array of them) to order k: T_k = (k! * T_1)^(1/k),
    as T_1^(1/k) exp(lgamma(k + 1) / k), finite where k! or k! T_1 overflows a float.

    +inf stays +inf; at k = 1 the factor is exp(0) = 1, so T_1 comes back unchanged.
    """
    return t1 ** (1.0 / k) * math.exp(math.lgamma(k + 1) / k)


def _order1_times(lam_hat, norms):
    """Order-1 reach times 1/lam, lam = lam_hat/|d| (norms), from either engine's lam_hat:
    +inf where lam_hat is at most lp.UNIT_THRESHOLD or nan (infeasible), 0 where +inf."""
    lam = np.divide(lam_hat, norms)
    return np.divide(1.0, lam, out=np.full_like(lam, math.inf), where=lam_hat > lp.UNIT_THRESHOLD)


def _order1_time(scaling: lp.DirectionScaling, d) -> tuple[float, np.ndarray | None]:
    """_order1_times of one max_scaled_direction outcome along d, and its optimizer where
    that time is finite."""
    t1 = float(_order1_times(scaling.lam_hat, np.sqrt(d @ d)))  # np.linalg.norm(d)
    return t1, (scaling.argument if math.isfinite(t1) else None)


def _directions(directions, n: int, ndim: int = 2) -> np.ndarray:
    """directions as 2-D rows (ndim 2) or as one 1-D direction (ndim 1), once each has
    length n, which a gauge batch would broadcast, and finite entries, which neither engine
    takes: every entry point converts its directions here, before any engine runs."""
    d = np.asarray(directions, dtype=float)
    d = np.atleast_2d(d) if ndim == 2 else np.atleast_1d(d)
    if d.ndim != ndim or d.shape[-1] != n:
        raise LpError(f"direction must have length {n}, got shape {d.shape[ndim - 1:]}")
    if not np.isfinite(d).all():
        raise LpError("direction has a non-finite entry")
    return d


def nominal_reach_time(sys: IntegratorSystem, d: np.ndarray) -> ReachResult:
    """Shortest time for the fully functional system to cover d, at the system's order.

    Returns time 0 for d = 0 and +inf when no input in the box pushes along d.
    """
    d = _directions(d, sys.n, ndim=1)
    if not d.any():
        return ReachResult(time=0.0)
    scaling = _scaling_lp(sys.b_bar, sys.u_min, sys.u_max, d, np.zeros(sys.n), sys.image)
    t1, u = _order1_time(scaling, d)
    return ReachResult(time=order_k_time(t1, sys.order), optimizer_u=u)


def _scaling_lp(m, lower, upper, d, shift, image, basis=None) -> lp.DirectionScaling:
    """lp.max_scaled_direction, started at basis, else at M's image's Zonotope.start when
    it is given."""
    if basis is None and image is not None:
        basis = image.start(d, shift)
    return lp.max_scaled_direction(m, lower, upper, d, rhs_shift=shift, basis=basis)


def _vertex_lp(split: ActuatorSplit, w, d, image=None, basis=None) -> lp.DirectionScaling:
    """The scaling LP of T_M(w, d): max{lam >= 0 : B u = lam d - C w, u in U_c}."""
    return _scaling_lp(split.b, split.u_min, split.u_max, d, -(split.c @ w), image, basis)


def _times(m, lower, upper, directions, shifts, image) -> np.ndarray:
    """Order-1 reach times 1/max{lam >= 0 : M x = lam d + s, x in box} per (row d of
    directions, row s of shifts): _order1_times of one gauge batch of M's image, or
    _order1_time of one cold lp.max_scaled_direction per pair where image is None.
    """
    directions, shifts = np.atleast_2d(directions), np.atleast_2d(shifts)
    if image is None:  # |d| per pair as the scalar path takes it: the same bits
        times = [_order1_time(lp.max_scaled_direction(m, lower, upper, d, rhs_shift=s), d)[0]
                 for d in directions for s in shifts]
        return np.reshape(times, (len(directions), len(shifts)))
    norms = np.linalg.norm(directions, axis=1)[:, None]
    return _order1_times(image.scalings(directions, shifts), norms)


def malfunction_times(split: ActuatorSplit, ws: np.ndarray, d: np.ndarray) -> np.ndarray:
    """T_M(w, d) at the system's order per row w of ws (a 1-D ws is one w): the reach time of
    the malfunctioning system for a frozen w, 1 / max{lam >= 0 : B u + C w = lam d, u in U_c},
    +inf when the maximum is 0 or the constraint is infeasible.

    d must be a nonzero n-vector and each w a p-vector in W_c.  One gauge batch of B's
    image, or one cold LP per row when that image is declined.
    """
    ws = np.atleast_2d(np.asarray(ws, dtype=float))
    d = _directions(d, split.base.n, ndim=1)
    if not d.any():
        raise LpError("direction d must be nonzero")
    if ws.shape[1] != split.p:
        raise ModelError(f"w must have length {split.p}, got shape {ws.shape[1:]}")
    outside = outside_box(ws, split.w_min, split.w_max)
    if outside.any():
        w = ws[int(np.argmax(outside))]
        raise ModelError(f"w {w.tolist()} outside the undesirable-input box W_c")
    t1 = _times(split.b, split.u_min, split.u_max, d, -(ws @ split.c.T), split.image)[0]
    return order_k_time(t1, split.base.order)


def w_vertices(split: ActuatorSplit) -> np.ndarray:
    """All 2^p vertices of W_c in lexicographic order (w_min before w_max per axis)."""
    axes = [(float(lo), float(hi)) for lo, hi in zip(split.w_min, split.w_max)]
    return np.array(list(itertools.product(*axes)), dtype=float)


def _vertex_count(split: ActuatorSplit) -> int:
    """2^p, the W_c vertices T_M* ranges over, once p is within P_MAX_DEFAULT."""
    if split.p > P_MAX_DEFAULT:
        raise CapacityError(
            f"vertex enumeration needs 2^{split.p} vertices; cap is p_max={P_MAX_DEFAULT}"
        )
    return 2**split.p


def _worst(times: np.ndarray) -> int:
    """Index of the worst vertex time: the first within VERTEX_TIE_RTOL of the largest (the
    first infinite one, if any)."""
    return int(np.argmax(times >= times.max() * (1.0 - VERTEX_TIE_RTOL)))


def malfunctioning_reach_time(split: ActuatorSplit, d: np.ndarray) -> ReachResult:
    """Worst-case reach time T_M*(d) at the system's order: max over the vertices of W_c.

    The worst vertex comes from B's eroded slabs (zonotope.Zonotope.worst_vertex, the
    first in lexicographic order on ties, as the screen's), and one LP there, started at
    the eroded slab its ray leaves first, gives the time and optimizer_u.  Where those
    slabs cannot tell, one gauge batch screens all vertices.  Every vertex gets its LP when
    the image of B is declined, when the LP at the eroded slabs' vertex is infinite, or
    when the LP at the screened vertex and the screen disagree on whether the time is
    finite.  The screen and the per-vertex LPs pick alike: the first vertex with an
    infinite time wins (the LPs stop there), else the lowest lexicographic vertex index
    within VERTEX_TIE_RTOL of the largest time.
    """
    k, d = split.base.order, _directions(d, split.base.n, ndim=1)
    if not d.any():
        return ReachResult(time=0.0)
    _vertex_count(split)  # CapacityError before any build or enumeration
    zono = split.image
    vertices = None  # enumerated at most once, by the screen or the LP fallback
    if zono is not None:
        found, finite = zono.worst_vertex(d, split.c, split.w_min, split.w_max), True
        if found is None:  # the screen's vertex LP starts at Zonotope.start
            vertices = w_vertices(split)
            shifts = -(vertices @ split.c.T)
            screened = _times(split.b, split.u_min, split.u_max, d, shifts, zono)[0]
            worst = _worst(screened)
            found, finite = (vertices[worst], None), math.isfinite(screened[worst])
        w, row = found
        t1, u = _order1_time(_vertex_lp(split, w, d, zono, row), d)
        if math.isfinite(t1) == finite:
            return ReachResult(time=order_k_time(t1, k), optimizer_u=u, optimizer_w=w)
    solved = []  # (t1, w, u) per vertex
    for w in w_vertices(split) if vertices is None else vertices:
        t1, u = _order1_time(_vertex_lp(split, w, d, zono), d)
        if math.isinf(t1):
            return ReachResult(time=math.inf, optimizer_w=w)
        solved.append((t1, w, u))
    t1, w, u = solved[_worst(np.array([t1 for t1, _, _ in solved]))]
    return ReachResult(time=order_k_time(t1, k), optimizer_u=u, optimizer_w=w)


def time_ratio(split: ActuatorSplit, d: np.ndarray) -> float:
    """t_k(d) = T_{k,M}*(d) / T_{k,N}*(d) at the system's order k; see ratio_of_times.

    T_N* is not computed when T_M* is infinite: the ratio is +inf regardless.
    """
    t_m = malfunctioning_reach_time(split, d).time
    if math.isinf(t_m):
        return math.inf
    return ratio_of_times(t_m, nominal_reach_time(split.base, d).time)


def nominal_times(sys: IntegratorSystem, directions: np.ndarray) -> np.ndarray:
    """T_N*(d) at the system's order per (nonzero) row d: one gauge batch of B_bar's image
    with a zero shift, or one cold LP per row when that image is declined."""
    directions = _directions(directions, sys.n)
    t1 = _times(sys.b_bar, sys.u_min, sys.u_max, directions, np.zeros(sys.n), sys.image)[:, 0]
    return order_k_time(t1, sys.order)


def worst_times(split: ActuatorSplit, directions: np.ndarray) -> np.ndarray:
    """T_M*(d) at the system's order per (nonzero) row d: the max over the W_c vertex shifts
    of one gauge batch of B's image, or of one cold LP per pair when that image is declined."""
    directions = _directions(directions, split.base.n)
    _vertex_count(split)  # CapacityError before any build or enumeration
    shifts = -(w_vertices(split) @ split.c.T)
    t1 = _times(split.b, split.u_min, split.u_max, directions, shifts, split.image).max(axis=1)
    return order_k_time(t1, split.base.order)


def time_ratios(split: ActuatorSplit, directions: np.ndarray) -> np.ndarray:
    """t_k(d) at the system's order k for each (nonzero) row d of directions: time_ratio as
    the ratio of worst_times and nominal_times, two gauge batches."""
    directions = _directions(directions, split.base.n)
    if not np.all(np.any(directions, axis=1)):
        raise LpError("every direction must be nonzero")
    return ratio_of_times(worst_times(split, directions), nominal_times(split.base, directions))


def ratio_of_times(t_m, t_n):
    """t(d) = T_M*(d) / T_N*(d) from the two reach times (floats, or arrays of them).

    +inf whenever T_M* is infinite, regardless of T_N*; 1 when both are 0 (d = 0).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(
            np.isinf(t_m), math.inf, np.where((t_m == 0.0) & (t_n == 0.0), 1.0, np.divide(t_m, t_n))
        )
    return float(t) if t.ndim == 0 else t
