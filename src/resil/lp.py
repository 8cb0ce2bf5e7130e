"""Dense linear-program kernel: maximize c.x subject to A x = b, l <= x <= u.

This is the oracle behind reach times and lambda+/-, and the fallback of the
batched zonotope gauge (zonotope.py).  It solves every reported optimizer u
(reach.ReachResult.optimizer_u, on its first read), lambda+/- and
controllability where B_bar has no image (resilience.sweep reads both off its
slabs) and in lambda_pair and check_controllability, and every reach time,
single or batched, whose H-representation zonotope.build declines (rank below
n, or more facet candidates than zonotope.MAX_CANDIDATES); where an image is
built, the gauge gives every reported time.  The problems are tiny (at most ~15
variables, ~6 equality rows), so the solver is a hand-rolled two-phase
bounded-variable simplex rather than a call into a general-purpose package: it
is bitwise deterministic (Bland's anti-cycling rule, no randomized or
tie-breaking-by-magnitude pivoting).

solve can start from a given basis (a crash basis, Bixby 1992): reach LPs pass
the n - 1 columns of M spanning the facet where the ray leaves the box image
(zonotope.Zonotope.start, or Zonotope.worst_vertex for T_M*), plus lam.  That
basis is optimal: once _hinted_start has moved tied columns (twins of a basic
one, as octocopter propellers 1-4) inside their boxes, one factorization settles
the LP, and solve returns that point with no pricing pass (every nonbasic column
sits on the bound its reduced cost favours).  A singular basis, or a point still
out of bounds, starts cold.  On the 300 LPs the first 100 seed-1 scan-workload
ops solved while the LP gave their times, 287 settle (median 33.8 us) and 13
start cold (400 us, the refused start included); solved cold, the 300 take 314 us
and 8 pivots at the median.  A whole max_scaled_direction call takes 63-66 us at
the median on those LPs and on the 400 of the first 100 seed-1 multiloss and
lagsim ops (best of 5 per LP, 2-vCPU x86_64 VM, one BLAS thread, in process).

solve's statuses follow the usual trichotomy: OPTIMAL / INFEASIBLE / UNBOUNDED,
with no "numerical failure" status.  max_scaled_direction folds them into one
normalized multiplier lam_hat, as Zonotope.scalings reports it: nan, +inf, or
the optimum.  It can still give lam_hat = 0 where the gauge gives nan, on an
infeasible LP whose residual passes the absolute feasibility test: ROADMAP item
4, the strict xfail in tests/test_zonotope.py.

The module keeps no state: every call solves its problem, from the basis it is
given or cold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LpError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Relative feasibility tolerance for LpOutcome invariants.
FEAS_TOL = 1e-9

# Internal tolerances on dimensionless quantities, not on raw matrix entries:
# reduced costs after row scaling, and rates relative to the step's largest.
_RCOST_TOL = 1e-10
_PIVOT_TOL = 1e-11
_MAX_ITER = 10_000
_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  s.t.  eq_matrix @ x = eq_rhs,  lower <= x <= upper."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        c, a, b = _floats(self.objective, 1), _floats(self.eq_matrix, 2), _floats(self.eq_rhs, 1)
        lo, hi = _floats(self.lower, 1), _floats(self.upper, 1)
        q, v = a.shape
        if c.shape != (v,) or b.shape != (q,) or lo.shape != (v,) or hi.shape != (v,):
            raise LpError(
                f"inconsistent dimensions: A is {q}x{v}, c {c.shape}, "
                f"b {b.shape}, lower {lo.shape}, upper {hi.shape}"
            )
        if (lo > hi).any():
            raise LpError("lower bound exceeds upper bound")
        for arr, what in ((c, "objective"), (a, "eq_matrix"), (b, "eq_rhs")):
            if not np.isfinite(arr).all():
                raise LpError(f"{what} contains non-finite entries")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise LpError("bounds contain NaN")
        fields = ("objective", "eq_matrix", "eq_rhs", "lower", "upper")
        for name, arr in zip(fields, (c, a, b, lo, hi)):
            object.__setattr__(self, name, arr)


def _floats(x, ndim: int) -> np.ndarray:
    """x as a float array of at least ndim (1 or 2) dimensions: x itself, unconverted, when it
    is a float64 ndarray of ndim dimensions."""
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim == ndim:
        return x
    x = np.asarray(x, dtype=float)
    return np.atleast_2d(x) if ndim == 2 else np.atleast_1d(x)


@dataclass(frozen=True)
class LpOutcome:
    """status, optimum and optimizer; pivots counts simplex iterations over both phases."""

    status: str
    value: float | None = None
    argument: np.ndarray | None = None
    pivots: int = 0


def _simplex(
    a: np.ndarray,
    c: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
    basis: np.ndarray,
) -> tuple[str, int]:
    """Bounded-variable revised simplex (maximization), mutating x and basis.

    Assumes x is basic-feasible for the current basis.  binv, the basis matrix's
    inverse, is computed afresh after each basis change.  The ratio test passes
    over a rate w[i] at most _PIVOT_TOL of the step's largest or of
    |binv[i]| @ |a[:, e]|: rounding noise (the entering column parallel to a basic
    one), on which a pivot would leave a singular basis.  Returns "optimal" or
    "unbounded" and the iterations taken.  Entering/leaving choices use Bland's
    rule (smallest variable index), which guarantees termination without cycling.
    """
    q, v = a.shape
    in_basis = np.zeros(v, dtype=bool)
    in_basis[basis] = True
    movable = ~(lo == hi)
    binv = None

    for it in range(_MAX_ITER):
        if binv is None:
            try:
                binv = np.linalg.inv(a[:, basis])
            except np.linalg.LinAlgError as exc:
                raise LpError("singular basis encountered") from exc
        y = c[basis] @ binv
        rcost = c - y @ a

        # Entering variable: smallest index whose reduced cost allows
        # improvement in a direction with room to move (Bland's rule).
        eligible = (~in_basis) & movable & (
            ((rcost > _RCOST_TOL) & (x < hi)) | ((rcost < -_RCOST_TOL) & (x > lo))
        )
        if not eligible.any():
            return OPTIMAL, it
        e = int(np.argmax(eligible))
        s = 1.0 if rcost[e] > 0.0 else -1.0

        # Basic-variable response to a unit move of x[e] in direction s.
        w = binv @ a[:, e]
        delta_b = -s * w
        tol = _PIVOT_TOL * np.maximum(np.abs(binv) @ np.abs(a[:, e]), np.abs(w).max())

        # Ratio test: own-bound limit first, then blocking basic variables.
        step = hi[e] - x[e] if s > 0 else x[e] - lo[e]
        leave_pos = -1
        leave_var = v  # sentinel larger than any index, for Bland tie-breaks
        for i in range(q):
            di = delta_b[i]
            bi = basis[i]
            if di > tol[i]:
                room = (hi[bi] - x[bi]) / di
            elif di < -tol[i]:
                room = (x[bi] - lo[bi]) / (-di)
            else:
                continue
            if room == np.inf:
                continue
            if room < 0.0:
                room = 0.0
            if room < step - 1e-15 or (room <= step + 1e-15 and bi < leave_var):
                step = room
                leave_pos = i
                leave_var = bi

        if not np.isfinite(step):
            return UNBOUNDED, it

        x[e] += s * step
        x[basis] += delta_b * step
        if leave_pos >= 0:
            bl = basis[leave_pos]
            # Snap the leaving variable exactly onto the bound it hit.
            x[bl] = hi[bl] if delta_b[leave_pos] > 0 else lo[bl]
            basis[leave_pos] = e
            in_basis[bl] = False
            in_basis[e] = True
            binv = None
        else:
            # The entering variable hit its own opposite bound; basis unchanged.
            x[e] = hi[e] if s > 0 else lo[e]

    raise LpError("simplex iteration limit exceeded")


def _hinted_start(a, b, c, lo, hi, basis, b_scale):
    """x at the hinted basis, each nonbasic variable on the bound its reduced cost
    favours; None when the basis is singular or x infeasible (FEAS_TOL).  While x is
    infeasible, each tied column (nonbasic, reduced cost 0 to _RCOST_TOL) moves at no
    cost, by a one-variable ratio test: toward the nearest step that puts the basic
    variables it moves back in their boxes, as far as its box and those in allow.  An x
    returned is optimal: primal feasible, and no nonbasic column can enter (_simplex's
    pricing would find none eligible)."""
    try:
        binv = np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError:
        return None
    rcost = c - (c[basis] @ binv) @ a
    x = np.where(rcost > 0.0, hi, lo)
    x[basis] = 0.0
    if not np.isfinite(x).all():
        return None
    x[basis] = binv @ (b - a @ x)
    tied = np.abs(rcost) <= _RCOST_TOL
    tied[basis] = False
    for t in [*tied.nonzero()[0], -1]:
        tol = FEAS_TOL * np.abs(x)
        out = (x < lo - tol) | (x > hi + tol)
        if t < 0 or not out.any():  # t = -1: only the last feasibility test
            break
        rows, rate = np.append(basis, t), np.append(binv @ a[:, t], -1.0)  # x[rows] -= rate * step
        moves = np.abs(rate) > _PIVOT_TOL * np.abs(rate[:-1]).max()
        rows, rate, out = rows[moves], rate[moves], out[rows[moves]]
        low, high = np.sort([(x[rows] - hi[rows]) / rate, (x[rows] - lo[rows]) / rate], axis=0)
        step = min(max(0.0, low[out].max(initial=-np.inf)), high[out].min(initial=np.inf))
        x[rows] -= rate * min(
            max(step, low[~out].max(initial=-np.inf)), high[~out].min(initial=np.inf))
    feasible = not out.any() and np.abs(a @ x - b).max() <= FEAS_TOL * b_scale
    return x if feasible else None


def _outcome(status: str, x: np.ndarray, c, lo, hi, pivots: int) -> LpOutcome:
    if status == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED, pivots=pivots)
    arg = np.minimum(np.maximum(x, lo), hi)  # np.clip(x, lo, hi) for the finite x it gets
    return LpOutcome(status=OPTIMAL, value=float(c @ arg), argument=arg, pivots=pivots)


def solve(problem: LpProblem, basis=None) -> LpOutcome:
    """Solve a bounded-variable equality-constrained LP (maximization): at the q columns
    `basis` of eq_matrix with no pivot when _hinted_start accepts them, else cold."""
    a = problem.eq_matrix
    b = problem.eq_rhs
    c = problem.objective
    lo = problem.lower
    hi = problem.upper
    q, v = a.shape

    # Scale rows so that the artificial-variable columns and feasibility
    # tolerances are commensurate across constraints of very different
    # magnitudes (the spacecraft matrix mixes 1e-6 and 1e-2 entries).
    row_scale = np.maximum(np.abs(a).max(axis=1), np.abs(b))
    row_scale[row_scale == 0.0] = 1.0
    a = a / row_scale[:, None]
    b = b / row_scale
    b_scale = 1.0 + np.abs(b).max(initial=0.0)

    start = None if basis is None else _hinted_start(
        a, b, c, lo, hi, np.array(basis, dtype=int), b_scale
    )
    if start is not None:
        return _outcome(OPTIMAL, start, c, lo, hi, 0)

    x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))  # lower preferred
    resid = b - a @ x0

    # Phase 1: one artificial variable per row, signed so it starts feasible at
    # |residual| with bound [0, inf); maximize minus their sum.
    sign = np.where(resid >= 0.0, 1.0, -1.0)
    a1 = np.hstack([a, np.diag(sign)])
    lo1 = np.concatenate([lo, np.zeros(q)])
    hi1 = np.concatenate([hi, np.full(q, np.inf)])
    x1 = np.concatenate([x0, np.abs(resid)])
    c1 = np.concatenate([np.zeros(v), -np.ones(q)])
    basis = np.arange(v, v + q)

    _, phase1 = _simplex(a1, c1, lo1, hi1, x1, basis)
    if x1[v:].sum() > FEAS_TOL * b_scale * q:
        return LpOutcome(status=INFEASIBLE, pivots=phase1)

    # Phase 2: freeze artificials at zero, optimize the real objective.
    x1[v:] = 0.0
    hi1[v:] = 0.0
    c2 = np.concatenate([c, np.zeros(q)])
    status, phase2 = _simplex(a1, c2, lo1, hi1, x1, basis)
    return _outcome(status, x1[:v], c, lo, hi, phase1 + phase2)


# --------------------------------------------------------------------------
# Directional scaling problem:  max { lam >= 0 : M x = lam d, x in box }.
# Its lam_hat becomes a reach time T = |d|/lam_hat in reach._order1_times.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionScaling:
    """max_scaled_direction's lam_hat, the multiplier of d/|d| (lam = lam_hat/|d|), as
    Zonotope.scalings gives it: nan where no lam_hat >= 0 is feasible, +inf where it is
    unbounded.  argument is the maximizing x, set only where lam_hat is finite."""

    lam_hat: float
    argument: np.ndarray | None = None


def lambda_threshold(norm):
    """Strict positivity threshold for lam decisions along d, from its norm |d| (or norms)."""
    return 1e-9 * (1.0 + norm)


#: lambda_threshold of a unit direction, the one the gauge's normalized lam is held to.
UNIT_THRESHOLD = lambda_threshold(1.0)


def max_scaled_direction(
    m: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    d: np.ndarray,
    rhs_shift: np.ndarray | None = None,
    basis=None,
) -> DirectionScaling:
    """Maximize lam >= 0 subject to M x = lam d + rhs_shift with x in the box.

    rhs_shift defaults to zero; reach-time callers use it to fold the frozen
    adversarial term -C w into the right-hand side.  basis, n - 1 columns of M
    (or None), starts solve from those columns and lam.

    lam_hat = max(optimum, 0) of d/|d|, nan if infeasible, +inf if unbounded.  Callers
    hold lam_hat, not lam, to UNIT_THRESHOLD (reach._order1_times), so the lam > 0
    decision, and the homogeneity of the reach times, do not depend on the units of d.
    """
    m, d = _floats(m, 2), _floats(d, 1)
    n, v = m.shape
    if d.shape != (n,):
        raise LpError(f"direction must have length {n}, got shape {d.shape}")
    if not d.any():
        raise LpError("direction d must be nonzero")
    d_unit = d / np.sqrt(d @ d)  # np.linalg.norm(d)
    shift = np.zeros(n) if rhs_shift is None else _floats(rhs_shift, 1)

    # Variables: (x, lam_hat).  Constraint M x - lam_hat d_unit = shift,
    # lam_hat in [0, inf); lam = lam_hat / ||d||.
    obj = np.zeros(v + 1)
    obj[-1] = 1.0
    # hstack keeps M's memory order (split.b is F-ordered): BLAS sums the products of a
    # C-ordered copy in another order, and reach times would change in the last bit.
    a = np.hstack([m, -d_unit[:, None]])
    lo = np.concatenate([_floats(lower, 1), [0.0]])
    hi = np.concatenate([_floats(upper, 1), [np.inf]])
    problem = LpProblem(objective=obj, eq_matrix=a, eq_rhs=shift, lower=lo, upper=hi)
    out = solve(problem, None if basis is None else [*basis, v])

    if out.status == INFEASIBLE:
        return DirectionScaling(math.nan)
    if out.status == UNBOUNDED:
        return DirectionScaling(math.inf)
    return DirectionScaling(max(out.value, 0.0), out.argument[:v])
