"""Quantitative resilience: lambda+/- LPs, closed forms r(C), r(-C), verdicts.

For a single lost column C with box [w_min, w_max], the closed form is

    lam+ = max{lam : B v = +lam C, v in U_c}
    lam- = max{lam : B v = -lam C, v in U_c}
    r(C)  = (w_min + lam+) / (w_max + lam+)
    r(-C) = (w_max - lam-) / (w_min - lam-)

and the system is resilient to that loss iff it is controllable and both
values lie in (0, 1]; then r_q = min(r(C), r(-C)) and r_{k,q} = r_q^(1/k), k the
system's order (IntegratorSystem.order; a report carries it).
sweep reads controllability off the slab sides of the system's image of B_bar
(IntegratorSystem.image; _controllable) and lam+/- off one pass over its slabs,
and quantitative_resilience is its row.  lambda_pair and check_controllability
(LPs) are kept as independent cross-checks; the reach-time route (four reach
times along +/-C) is the test suite's reference (tests/conftest.py).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import lp, zonotope
from .errors import UnsupportedLossError
from .model import ActuatorSplit, IntegratorSystem, checked_lost, split as make_split, to_machine
from .zonotope import Zonotope

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


#: A report's diagnostics flags, in the order sweep sets them.
_FLAGS = ("zero_column", "unbounded_lambda", "r_plus_boundary", "r_minus_boundary")


def _lp_lambdas(m, lower, upper, directions):
    """lam_hat of max{lam : M x = lam d, x in box} per d, lazily by LP."""
    return (lp.max_scaled_direction(m, lower, upper, d).lam_hat for d in directions)


def _kept(lam_hat, lam):
    """lam where its lam_hat passes lp.UNIT_THRESHOLD, else 0 (nan too: infeasible)."""
    return np.where(lam_hat > lp.UNIT_THRESHOLD, lam, 0.0)


def check_controllability(sys: IntegratorSystem) -> bool:
    """rank(B_bar) = n and 0 interior to {B_bar u : u in box}: the image reaches a positive
    distance along every +/-e_j, by up to 2n LPs (the LP cross-check of the sweep's verdict)."""
    return _controllable(sys, None)


def _controllable(sys: IntegratorSystem, image: Zonotope | None) -> bool:
    """check_controllability; from B_bar's image, when built (rank n), with no gauge batch: ray
    +/-e_i leaves it at lam_hat = min side_k scale_i / |a_ki| over slabs k where it moves (|a_ki|
    > zonotope.PARALLEL_RTOL), side_k the one it faces, and the two signs face both.  So all 2n
    pass lp.UNIT_THRESHOLD iff min(plus_k, minus_k) scale_i > UNIT_THRESHOLD |a_ki| wherever
    a_ki moves (a side <= 0 fails, as the batch's nan or 0 does)."""
    if image is not None:
        rate, side = np.abs(image.normals), np.minimum(image.plus, image.minus)[:, None]
        return bool(((side * image.scale > lp.UNIT_THRESHOLD * rate)
                     | (rate <= zonotope.PARALLEL_RTOL)).all())
    sv = np.linalg.svd(sys.b_bar, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0 or np.sum(sv > zonotope.RANK_RTOL * sv[0]) < sys.n:
        return False
    lam_hat = _lp_lambdas(sys.b_bar, sys.u_min, sys.u_max, np.kron(np.eye(sys.n), [[1.0], [-1.0]]))
    return all(lam > lp.UNIT_THRESHOLD for lam in lam_hat)  # rays +e_0, -e_0, +e_1, ...


def _single_column(split: ActuatorSplit) -> np.ndarray:
    if split.p != 1:
        raise UnsupportedLossError(
            f"this operation covers a single lost column; got p={split.p}"
        )
    return split.c[:, 0]


def lambda_pair(split: ActuatorSplit) -> tuple[float, float]:
    """(lam+, lam-): max speeds of the remaining actuators along +/-C, by 2 LPs."""
    c = _single_column(split)
    if not np.any(c):
        raise UnsupportedLossError("C = 0 has no lambda pair; see quantitative_resilience")
    lam_hat = np.fromiter(_lp_lambdas(split.b, split.u_min, split.u_max, [c, -c]), float)
    return tuple(_kept(lam_hat, lam_hat / np.linalg.norm(c)).tolist())


def _lambda_pairs(sys: IntegratorSystem, columns, norms, image: Zonotope | None) -> np.ndarray:
    """(k, 2) array: lambda_pair of each nonzero column of sys (norms: their |C|) from one
    image.lambdas_without pass, lam _kept where lam_hat = lam |C| passes (so a flat Z_j gives
    0, as C_j leaves the span of the other columns); by 2 LPs each without an image."""
    if image is None:
        return np.reshape([lambda_pair(make_split(sys, col)) for col in columns], (-1, 2))
    lams = image.lambdas_without(columns) * ((sys.u_max - sys.u_min) / 2.0)[columns, None]
    return _kept(lams * norms[:, None], lams)


def r_closed_form(lam_p, lam_m, w_min, w_max):
    """Closed-form (r(C), r(-C)) from the lambda pair and the lost input's box: two floats,
    or from arrays (one entry per lost column) a 2-row array.

    An unbounded lambda (B has a kernel direction aligned with C) sends both
    quotients to their limit 1; a vanishing denominator is reported as r = 0, and so is
    a vanishing numerator over a negative one (+0.0, not -0.0: lam- = w_max).
    """
    num = np.array([w_min + lam_p, w_max - lam_m])
    den = np.array([w_max + lam_p, w_min - lam_m])
    vanishing = np.abs(den) <= 1e-12 * np.maximum(1.0, np.abs(num))  # also inf/inf: lam = inf
    r = np.divide(num, den, out=np.zeros(num.shape), where=~vanishing) + 0.0  # -0.0 + 0.0 = 0.0
    r[np.isinf([lam_p, lam_m])] = 1.0
    return tuple(r.tolist()) if r.ndim == 1 else r


def sweep(sys: IntegratorSystem, columns: Iterable[int]) -> list[ResilienceReport]:
    """Single-loss reports at the system's order, one per (0-based) lost column in `columns`.

    B_bar's image (sys.image, built once per system) decides controllability, and one
    leave-one-out pass of it (Zonotope.lambdas_without) every lam+/-; where it is declined,
    LPs do: 2n, plus 2 per nonzero column.  Every column is checked as split(sys, col)
    checks it, and C and W_c of all of them are one slice of B_bar and its box.
    """
    k = sys.order
    cols = np.array([checked_lost((col,), sys.n_inputs)[0] for col in columns], dtype=int)
    c, image = sys.b_bar[:, cols], sys.image
    if not _controllable(sys, image):
        note = "system not controllable; not resilient to any loss"
        return [ResilienceReport(col, k, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, False,
                                 {"note": note}) for col in cols.tolist()]
    # Losing a zero column costs nothing: the malfunctioning system equals the nominal one.
    zero, lam, norms = ~c.any(axis=0), np.zeros((len(cols), 2)), np.linalg.norm(c, axis=0)
    lam[~zero] = _lambda_pairs(sys, cols[~zero], norms[~zero], image)
    r = r_closed_form(*lam.T, sys.u_min[cols], sys.u_max[cols])
    threshold = lp.lambda_threshold(norms)
    resilient = ((threshold < r) & (r <= 1.0 + threshold)).all(axis=0) | zero
    boundary = (-threshold < r) & (r <= threshold) & ~zero
    r[:, zero] = 1.0
    r_q = np.minimum(np.where(resilient, r.min(axis=0), 0.0), 1.0).tolist()
    flags = np.column_stack([zero, np.isinf(lam).any(axis=1), boundary.T]).tolist()
    rows = zip(cols.tolist(), lam.tolist(), r.T.tolist(), r_q, resilient.tolist(), flags)
    return [ResilienceReport(col, k, *lams, *rs, q, q ** (1.0 / k), True, ok,
                             {name: True for name, on in zip(_FLAGS, row) if on})
            for col, lams, rs, q, ok, row in rows]


def quantitative_resilience(split: ActuatorSplit) -> ResilienceReport:
    """Full single-loss resilience report for a split (Algorithm-1 style): sweep's row."""
    _single_column(split)
    return sweep(split.base, split.lost_columns)[0]
