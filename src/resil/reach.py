"""Reach times T_N*, T_M(w, d), T_M*, the ratio t(d), and order-k extensions.

All computations go through the lam = 1/T transformation: the minimal time to
cover a target distance d with a constant input is 1/lam*, where lam* is the
largest nonnegative scaling of d realizable inside the input box.  The worst
constant adversarial input is always a vertex of the box W_c, so T_M* is a
maximum over the 2^p vertices.

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
from .model import ActuatorSplit, IntegratorSystem

#: Default cap on the number of lost columns in vertex enumeration (2^p vertices).
P_MAX_DEFAULT = 20


@dataclass(frozen=True)
class ReachResult:
    """A reach time with its optimizing constant inputs (when finite)."""

    time: float
    order: int
    optimizer_u: np.ndarray | None = None
    optimizer_w: np.ndarray | None = None


def order_k_time(t1: float, k: int) -> float:
    """Lift an order-1 reach time to order k: T_k = (k! * T_1)^(1/k)."""
    if not math.isfinite(t1):
        return math.inf
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
    sys: IntegratorSystem, d: np.ndarray, order: int | None = None
) -> ReachResult:
    """Shortest time for the fully functional system to cover the distance d.

    Returns time 0 for d = 0 and +inf when no input in the box pushes along d.
    """
    k = _resolve_order(sys, order)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.any(d):
        return ReachResult(time=0.0, order=k)
    t1, u = _order1_time(lp.max_scaled_direction(sys.b_bar, sys.u_min, sys.u_max, d))
    return ReachResult(time=order_k_time(t1, k), order=k, optimizer_u=u)


def malfunction_time_for_w(
    split: ActuatorSplit, w: np.ndarray, d: np.ndarray, order: int | None = None
) -> float:
    """Reach time of the malfunctioning system for one frozen undesirable input w.

    T_M(w, d) = 1 / max{lam >= 0 : B u + C w = lam d, u in U_c}, +inf when the
    maximum is 0 or the constraint is infeasible.
    """
    k = _resolve_order(split.base, order)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.any(d):
        raise LpError("direction d must be nonzero")
    w_scale = 1.0 + max(np.abs(split.w_min).max(), np.abs(split.w_max).max())
    if np.any(w < split.w_min - 1e-9 * w_scale) or np.any(w > split.w_max + 1e-9 * w_scale):
        raise ModelError(f"w {w.tolist()} outside the undesirable-input box W_c")
    scaling = lp.max_scaled_direction(
        split.b, split.u_min, split.u_max, d, rhs_shift=-(split.c @ w)
    )
    return order_k_time(_order1_time(scaling)[0], k)


def w_vertices(split: ActuatorSplit) -> np.ndarray:
    """All 2^p vertices of W_c in lexicographic order (w_min before w_max per axis)."""
    axes = [(float(lo), float(hi)) for lo, hi in zip(split.w_min, split.w_max)]
    return np.array(list(itertools.product(*axes)), dtype=float)


def malfunctioning_reach_time(
    split: ActuatorSplit,
    d: np.ndarray,
    order: int | None = None,
    p_max: int = P_MAX_DEFAULT,
) -> ReachResult:
    """Worst-case reach time T_M*(d): max over the vertices of W_c.

    Ties between vertices are broken toward the lowest lexicographic vertex
    index, so the reported optimizer_w is deterministic.
    """
    k = _resolve_order(split.base, order)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not np.any(d):
        return ReachResult(time=0.0, order=k)
    if split.p > p_max:
        raise CapacityError(
            f"vertex enumeration needs 2^{split.p} vertices; cap is p_max={p_max}"
        )
    best_time = -1.0
    best_w: np.ndarray | None = None
    best_u: np.ndarray | None = None
    for w in w_vertices(split):
        scaling = lp.max_scaled_direction(
            split.b, split.u_min, split.u_max, d, rhs_shift=-(split.c @ w)
        )
        t1, u = _order1_time(scaling)
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
) -> float:
    """Ratio of reach times t_k(d) = T_{k,M}*(d) / T_{k,N}*(d); see ratio_of_times.

    T_N* is not computed when T_M* is infinite: the ratio is +inf regardless.
    """
    t_m = malfunctioning_reach_time(split, d, order=order, p_max=p_max).time
    if math.isinf(t_m):
        return math.inf
    return ratio_of_times(t_m, nominal_reach_time(split.base, d, order=order).time)


def ratio_of_times(t_m: float, t_n: float) -> float:
    """t(d) = T_M*(d) / T_N*(d) from the two reach times.

    +inf whenever T_M* is infinite, regardless of T_N*; 1 when both are 0 (d = 0).
    """
    if math.isinf(t_m):
        return math.inf
    if t_m == 0.0 and t_n == 0.0:
        return 1.0
    return t_m / t_n
