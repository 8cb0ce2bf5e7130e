"""Quantitative resilience: lambda+/- LPs, closed forms r(C), r(-C), verdicts.

For a single lost column C with box [w_min, w_max], the closed form is

    lam+ = max{lam : B v = +lam C, v in U_c}
    lam- = max{lam : B v = -lam C, v in U_c}
    r(C)  = (w_min + lam+) / (w_max + lam+)
    r(-C) = (w_max - lam-) / (w_min - lam-)

and the system is resilient to that loss iff it is controllable and both
values lie in (0, 1]; then r_q = min(r(C), r(-C)) and r_{k,q} = r_q^(1/k).
sweep answers lam+/- and controllability from one zonotope.build of B_bar.  The
reach-time route (four reach times along +/-C) is kept as an independent
cross-check: both verdicts must agree.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import lp, reach, zonotope
from .errors import UnsupportedLossError
from .model import ActuatorSplit, IntegratorSystem, split as make_split, to_machine
from .zonotope import Zonotope

#: Relative margin for the interior-membership tests of Prop-style diagnostics.
INTERIOR_MARGIN = 1e-7


@dataclass(frozen=True)
class ResilienceReport:
    """Per-lost-column resilience record."""

    lost_column: int
    order: int
    lambda_plus: float
    lambda_minus: float
    r_plus: float
    r_minus: float
    r_q: float
    r_kq: float
    controllable: bool
    resilient: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lost_column": self.lost_column,
            "order": self.order,
            "lambda_plus": to_machine(self.lambda_plus),
            "lambda_minus": to_machine(self.lambda_minus),
            "r_plus": float(self.r_plus),
            "r_minus": float(self.r_minus),
            "r_q": float(self.r_q),
            "r_kq": float(self.r_kq),
            "controllable": self.controllable,
            "resilient": self.resilient,
            "diagnostics": dict(self.diagnostics),
        }


@dataclass(frozen=True)
class ReachTimeVerdict:
    """Resilience decided through the four reach times along +/-C."""

    t_n_plus: float
    t_m_plus: float
    t_n_minus: float
    t_m_minus: float
    resilient: bool


def _lp_lambdas(m, lower, upper, directions):
    """max{lam : M x = lam d, x in box} per d, lazily by LP: 0 unless optimal or unbounded."""
    scalings = (lp.max_scaled_direction(m, lower, upper, d) for d in directions)
    return (s.value if s.status in (lp.OPTIMAL, lp.UNBOUNDED) else 0.0 for s in scalings)


def check_controllability(sys: IntegratorSystem, *, image: Zonotope | None = None) -> bool:
    """rank(B_bar) = n and 0 interior to the image polytope {B_bar u : u in box}.

    Interiority: the image extends a positive distance along +e_j and -e_j for
    every basis direction, by up to 2n LPs or one gauge batch of `image` (sweep).
    """
    sv = np.linalg.svd(sys.b_bar, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    if np.sum(sv > zonotope.RANK_RTOL * sv[0]) < sys.n:
        return False
    axes = np.vstack([sign * e for e in np.eye(sys.n) for sign in (1.0, -1.0)])
    if image is None:
        return all(lam > 0.0 for lam in _lp_lambdas(sys.b_bar, sys.u_min, sys.u_max, axes))
    lam_hat = image.scalings(axes, np.zeros((1, sys.n)))[:, 0]
    return bool(np.all(lam_hat > lp.lambda_threshold(np.ones(1))))


def _single_column(split: ActuatorSplit) -> np.ndarray:
    if split.p != 1:
        raise UnsupportedLossError(
            f"this operation covers a single lost column; got p={split.p}"
        )
    return split.c[:, 0]


def lambda_pair(split: ActuatorSplit, *, image: Zonotope | None = None) -> tuple[float, float]:
    """(lam+, lam-): max speeds of the remaining actuators along +/-C.

    From the leave-one-out pass of `image`, B_bar's (see sweep), if given, else 2 LPs.
    """
    c = _single_column(split)
    if not np.any(c):
        raise UnsupportedLossError("C = 0 has no lambda pair; see quantitative_resilience")
    if image is None:
        return tuple(_lp_lambdas(split.b, split.u_min, split.u_max, [c, -c]))
    return _lambda_pairs(split.base, split.lost_columns, image)[0]


def _lambda_pairs(sys: IntegratorSystem, columns, image: Zonotope | None) -> list[tuple]:
    """lambda_pair of each nonzero column of sys from one image.lambdas_without pass, lam
    kept where lam |C| passes lp.lambda_threshold; 2 LPs where the other columns have
    rank < n, or without an image."""
    cols = np.asarray(columns, dtype=int)
    if image is None:
        return [lambda_pair(make_split(sys, col)) for col in cols.tolist()]
    lams, solid = image.lambdas_without(cols)
    lams = lams * ((sys.u_max - sys.u_min) / 2.0)[cols, None]
    norms = np.linalg.norm(sys.b_bar, axis=0)[cols, None]
    lams = np.where(lams * norms > lp.lambda_threshold(np.ones(1)), lams, 0.0)
    return [tuple(lam) if full else lambda_pair(make_split(sys, col))
            for col, lam, full in zip(cols.tolist(), lams.tolist(), solid)]


def r_closed_form(lam_p: float, lam_m: float, w_min: float, w_max: float) -> tuple[float, float]:
    """Closed-form (r(C), r(-C)) from the lambda pair and the lost input's box.

    An unbounded lambda (B has a kernel direction aligned with C) sends both
    quotients to their limit 1; a vanishing denominator is reported as r = 0.
    """
    def quotient(num: float, den: float) -> float:
        if abs(den) <= 1e-12 * max(1.0, abs(num)):
            return 0.0
        return num / den

    r_p = 1.0 if math.isinf(lam_p) else quotient(w_min + lam_p, w_max + lam_p)
    r_m = 1.0 if math.isinf(lam_m) else quotient(w_max - lam_m, w_min - lam_m)
    return r_p, r_m


def r_pair(split: ActuatorSplit) -> tuple[float, float]:
    """Closed-form (r(C), r(-C)) for a single nonzero lost column."""
    return r_closed_form(*lambda_pair(split), float(split.w_min[0]), float(split.w_max[0]))


def sweep(
    sys: IntegratorSystem, columns: Iterable[int], order: int | None = None
) -> list[ResilienceReport]:
    """Single-loss reports for each (0-based) lost column in `columns`.

    One zonotope.build of B_bar decides controllability, and one leave-one-out pass
    of its image (Zonotope.lambdas_without) every lam+/-; where the build declines,
    LPs do: 2n, plus 2 per nonzero column (and 2 per column the pass leaves).
    """
    k = reach._resolve_order(sys, order)
    splits = [make_split(sys, col) for col in columns]
    cols = [sp.lost_columns[0] for sp in splits if np.any(sp.c)]
    image = zonotope.build(sys.b_bar, sys.u_min, sys.u_max, lps=2 * sys.n + 2 * len(cols))
    ctrl = check_controllability(sys, image=image)
    pairs = dict(zip(cols, _lambda_pairs(sys, cols, image))) if ctrl else {}
    return [_report(sp, k, ctrl, pairs.get(sp.lost_columns[0])) for sp in splits]


def quantitative_resilience(
    split: ActuatorSplit, order: int | None = None, *, image: Zonotope | None = None
) -> ResilienceReport:
    """Full single-loss resilience report for a split (Algorithm-1 style).

    `image`, B_bar's, if given, answers controllability and lam+/- as in sweep.
    """
    k = reach._resolve_order(split.base, order)
    c = _single_column(split)
    controllable = check_controllability(split.base, image=image)
    pair = lambda_pair(split, image=image) if controllable and np.any(c) else None
    return _report(split, k, controllable, pair)


def _report(split: ActuatorSplit, k: int, controllable: bool, pair) -> ResilienceReport:
    """The report of a single loss from its lam pair (None: not controllable, or C = 0)."""
    col = split.lost_columns[0]
    diagnostics: dict = {}

    if not controllable:
        diagnostics["note"] = "system not controllable; not resilient to any loss"
        return ResilienceReport(col, k, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, False, diagnostics)

    if pair is None:
        # Losing a zero column costs nothing: the malfunctioning system equals
        # the nominal one for every w.
        diagnostics["zero_column"] = True
        return ResilienceReport(col, k, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, True, True, diagnostics)

    lam_p, lam_m = pair
    r_p, r_m = r_closed_form(lam_p, lam_m, float(split.w_min[0]), float(split.w_max[0]))
    if math.isinf(lam_p) or math.isinf(lam_m):
        diagnostics["unbounded_lambda"] = True

    threshold = lp.lambda_threshold(split.c[:, 0])
    in_unit = lambda r: threshold < r <= 1.0 + threshold  # noqa: E731
    resilient = in_unit(r_p) and in_unit(r_m)
    for name, r in (("r_plus", r_p), ("r_minus", r_m)):
        if -threshold < r <= threshold:
            diagnostics[f"{name}_boundary"] = True
    r_q = min(r_p, r_m) if resilient else 0.0
    r_q = min(r_q, 1.0)
    r_kq = r_q ** (1.0 / k)
    return ResilienceReport(
        col, k, lam_p, lam_m, r_p, r_m, r_q, r_kq, True, resilient, diagnostics
    )


def resilience_via_reach_times(split: ActuatorSplit) -> ReachTimeVerdict:
    """Independent verdict from four order-1 reach times along +/-C (cross-check)."""
    c = _single_column(split)
    if not np.any(c):
        raise UnsupportedLossError("C = 0: use quantitative_resilience for the zero-column path")
    base1 = split.base.with_order(1)
    split1 = make_split(base1, split.lost_columns)
    t_n_p = reach.nominal_reach_time(base1, c).time
    t_m_p = reach.malfunctioning_reach_time(split1, c).time
    t_n_m = reach.nominal_reach_time(base1, -c).time
    t_m_m = reach.malfunctioning_reach_time(split1, -c).time
    resilient = (
        check_controllability(split.base)
        and math.isfinite(t_m_p)
        and math.isfinite(t_m_m)
    )
    return ReachTimeVerdict(t_n_p, t_m_p, t_n_m, t_m_m, resilient)


def polytope_containment_check(split: ActuatorSplit) -> bool:
    """Diagnostic: -X subset of the interior of Y, X = C W_c, Y = B U_c.

    Tested per vertex x of X with 2n feasibility LPs: -x + eps*(+/-e_j) must be
    reachable in Y for a positive margin eps.  Resilience implies this holds;
    the converse is not asserted.
    """
    b = split.b
    n = split.base.n
    scale = float(
        np.abs(b).max(initial=0.0)
        * max(np.abs(split.u_min).max(initial=0.0), np.abs(split.u_max).max(initial=0.0), 1.0)
    )
    eps = INTERIOR_MARGIN * max(scale, 1.0)
    obj = np.zeros(split.m)
    for w in reach.w_vertices(split):
        x = split.c @ w
        for j in range(n):
            for sign in (1.0, -1.0):
                target = -x
                target[j] += sign * eps
                out = lp.solve(
                    lp.LpProblem(
                        objective=obj,
                        eq_matrix=b,
                        eq_rhs=target,
                        lower=split.u_min,
                        upper=split.u_max,
                    )
                )
                if out.status != lp.OPTIMAL:
                    return False
    return True
