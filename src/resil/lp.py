"""Dense linear-program kernel: maximize c.x subject to A x = b, l <= x <= u.

This is the oracle behind reach times and lambda+/-, and the fallback of the
batched zonotope gauge (zonotope.py).  It solves every reported reach time and
optimizer (T_M* screens its vertices with the gauge, then solves one LP at the
worst one), lambda+/- and controllability outside resilience.sweep, and every
batch or column whose H-representation zonotope.build declines or finds
rank-deficient.  The problems are tiny (at most ~15 variables, ~6 equality
rows), so the solver is a hand-rolled two-phase bounded-variable simplex rather
than a call into a general-purpose package: it is bitwise deterministic
(Bland's anti-cycling rule, no randomized or tie-breaking-by-magnitude
pivoting).

solve can start from a given basis (a crash basis, Bixby 1992): reach LPs pass
the n - 1 columns of M spanning the facet of the box image where the ray
leaves it (zonotope.Zonotope.start), plus lam.  That basis is optimal, so
one factorization and the simplex's own pricing settle the LP with no pivot; a
singular basis, or one whose point leaves the bounds, gets the cold start.  On
the 720 LPs of 100 scan-workload ops a started solve has a median time of 82 us
and a cold one 367 us (best of 5 per LP, 2-vCPU x86_64 VM, in process).

Statuses follow the usual trichotomy: OPTIMAL / INFEASIBLE / UNBOUNDED, with
no "numerical failure" status.  Degenerate lambda LPs (every u_min = 0, two
equal columns) can still get a wrong optimum or LpError("singular basis
encountered"): ROADMAP item 4, the strict xfails in tests/test_zonotope.py.

Inside reuse_scope, opened by the CLI around each op, max_scaled_direction
reuses the outcome of a problem whose bytes it has solved before (T*(alpha d)
normalizes to the LP of T*(d)); the simplex is deterministic, so results
are unchanged.  Outside a scope every call solves.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import LpError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Relative feasibility tolerance for LpOutcome invariants.
FEAS_TOL = 1e-9

# Internal pivot tolerances.  These are on dimensionless quantities (reduced
# costs after scaling, basis-direction entries), not on raw matrix entries.
_RCOST_TOL = 1e-10
_PIVOT_TOL = 1e-11
_MAX_ITER = 10_000

#: Outcomes a reuse_scope stores (1.6 kB each at 6 x 13), then it solves unstored:
#: an oracle grid on a declined build poses up to 10^6 distinct LPs.
REUSE_ENTRIES = 10_000
_reused: dict | None = None  # LpOutcome by problem bytes while a reuse_scope is open


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  s.t.  eq_matrix @ x = eq_rhs,  lower <= x <= upper."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        a = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        b = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        q, v = a.shape
        if c.shape != (v,) or b.shape != (q,) or lo.shape != (v,) or hi.shape != (v,):
            raise LpError(
                f"inconsistent dimensions: A is {q}x{v}, c {c.shape}, "
                f"b {b.shape}, lower {lo.shape}, upper {hi.shape}"
            )
        if np.any(lo > hi):
            raise LpError("lower bound exceeds upper bound")
        for arr, what in ((c, "objective"), (a, "eq_matrix"), (b, "eq_rhs")):
            if not np.all(np.isfinite(arr)):
                raise LpError(f"{what} contains non-finite entries")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise LpError("bounds contain NaN")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


@dataclass(frozen=True)
class LpOutcome:
    """status, optimum and optimizer; pivots counts simplex iterations over both phases."""

    status: str
    value: float | None = None
    argument: np.ndarray | None = None
    pivots: int = 0


def _initial_point(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Start each variable on a finite bound (lower preferred), or 0 if free."""
    x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    return x.astype(float)


def _simplex(
    a: np.ndarray,
    c: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
    basis: np.ndarray,
    binv: np.ndarray,
) -> tuple[str, int]:
    """Bounded-variable revised simplex (maximization), mutating x, basis, binv.

    Assumes x is basic-feasible for the current basis and binv is the inverse
    of the basis matrix.  Returns "optimal" or "unbounded" and the iterations
    taken.  Entering/leaving choices use Bland's rule (smallest variable
    index), which guarantees termination without cycling.
    """
    q, v = a.shape
    in_basis = np.zeros(v, dtype=bool)
    in_basis[basis] = True
    movable = ~(lo == hi)

    for it in range(_MAX_ITER):
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

        # Ratio test: own-bound limit first, then blocking basic variables.
        step = hi[e] - x[e] if s > 0 else x[e] - lo[e]
        leave_pos = -1
        leave_var = v  # sentinel larger than any index, for Bland tie-breaks
        for i in range(q):
            di = delta_b[i]
            bi = basis[i]
            if di > _PIVOT_TOL:
                room = (hi[bi] - x[bi]) / di
            elif di < -_PIVOT_TOL:
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
            # Rank-one update of the basis inverse; refactorize on small pivots.
            piv = w[leave_pos]
            if abs(piv) < 1e-7:
                try:
                    binv[:] = np.linalg.inv(a[:, basis])
                except np.linalg.LinAlgError as exc:  # pragma: no cover
                    raise LpError("singular basis encountered") from exc
            else:
                row = binv[leave_pos] / piv
                binv -= np.outer(w, row)
                binv[leave_pos] = row
        else:
            # The entering variable hit its own opposite bound; basis unchanged.
            x[e] = hi[e] if s > 0 else lo[e]

    raise LpError("simplex iteration limit exceeded")


def _hinted_start(a, b, c, lo, hi, basis, b_scale):
    """(x, basis, binv) at the hinted basis, each nonbasic variable on the bound its
    reduced cost favours; None when the basis is singular or x infeasible (FEAS_TOL)."""
    try:
        binv = np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError:
        return None
    x = np.where(c - (c[basis] @ binv) @ a > 0.0, hi, lo)
    x[basis] = 0.0
    if not np.isfinite(x).all():
        return None
    x[basis] = binv @ (b - a @ x)
    tol = FEAS_TOL * np.abs(x)
    inside = (x >= lo - tol).all() and (x <= hi + tol).all()
    return (x, basis, binv) if inside and np.abs(a @ x - b).max() <= FEAS_TOL * b_scale else None


def _outcome(status: str, x: np.ndarray, c, lo, hi, pivots: int) -> LpOutcome:
    if status == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED, pivots=pivots)
    arg = np.clip(x, lo, hi)
    return LpOutcome(status=OPTIMAL, value=float(c @ arg), argument=arg, pivots=pivots)


def solve(problem: LpProblem, basis=None) -> LpOutcome:
    """Solve a bounded-variable equality-constrained LP (maximization), in phase 2
    from the q columns `basis` of eq_matrix when _hinted_start accepts them."""
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
        status, pivots = _simplex(a, c, lo, hi, *start)
        return _outcome(status, start[0], c, lo, hi, pivots)

    x0 = _initial_point(lo, hi)
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
    binv = np.diag(sign)  # inverse of the initial artificial basis

    _, phase1 = _simplex(a1, c1, lo1, hi1, x1, basis, binv)
    if x1[v:].sum() > FEAS_TOL * b_scale * q:
        return LpOutcome(status=INFEASIBLE, pivots=phase1)

    # Phase 2: freeze artificials at zero, optimize the real objective.
    x1[v:] = 0.0
    hi1[v:] = 0.0
    c2 = np.concatenate([c, np.zeros(q)])
    status, phase2 = _simplex(a1, c2, lo1, hi1, x1, basis, binv)
    return _outcome(status, x1[:v], c, lo, hi, phase1 + phase2)


# --------------------------------------------------------------------------
# Directional scaling problem:  max { lam >= 0 : M x = lam d, x in box }.
# This hosts the lam = 1/T transformation behind every reach-time quantity.
# --------------------------------------------------------------------------

#: Status for "only lam = 0 is feasible" (the direction is on the image boundary).
ZERO = "zero"
#: Status for "no x in the box with M x on the nonnegative ray of d at all".
NEGATIVE_CERTIFICATE = "negative-certificate"


@dataclass(frozen=True)
class DirectionScaling:
    """Outcome of max_scaled_direction.

    status is one of "optimal" (lam > threshold attained), "zero",
    "negative-certificate", or "unbounded" (lam can grow without bound, i.e.
    reach time 0).  value is lam* for "optimal"/"zero", +inf for "unbounded",
    and None for "negative-certificate".  argument is the maximizing x when
    one exists.
    """

    status: str
    value: float | None = None
    argument: np.ndarray | None = None


@contextlib.contextmanager
def reuse_scope():
    """Solve each distinct max_scaled_direction problem once while open; nested scopes share."""
    global _reused
    outer, _reused = _reused, {} if _reused is None else _reused
    try:
        yield
    finally:
        _reused = outer


def lambda_threshold(d: np.ndarray) -> float:
    """Strict positivity threshold for lam decisions, scaled by the direction."""
    return 1e-9 * (1.0 + float(np.linalg.norm(d)))


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
    or a function called only when the LP is solved that returns them (or
    None), starts solve from those columns and lam.

    The direction is normalized to unit length internally and the positivity
    threshold is applied to the normalized multiplier, so the lam > 0 decision
    is invariant under rescaling of d.  (Applying the threshold to the raw
    multiplier would silently change verdicts with the units of d and destroy
    the positive homogeneity of the reach times built on top of this LP.)
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    n, v = m.shape
    if d.shape != (n,):
        raise LpError(f"direction must have length {n}, got shape {d.shape}")
    if not np.any(d):
        raise LpError("direction d must be nonzero")
    norm = float(np.linalg.norm(d))
    d_unit = d / norm
    shift = np.zeros(n) if rhs_shift is None else np.atleast_1d(np.asarray(rhs_shift, dtype=float))

    # Variables: (x, lam_hat).  Constraint M x - lam_hat d_unit = shift,
    # lam_hat in [0, inf); lam = lam_hat / ||d||.
    obj = np.zeros(v + 1)
    obj[-1] = 1.0
    a = np.hstack([m, -d_unit[:, None]])
    lo = np.concatenate([np.atleast_1d(lower).astype(float), [0.0]])
    hi = np.concatenate([np.atleast_1d(upper).astype(float), [np.inf]])
    problem = LpProblem(objective=obj, eq_matrix=a, eq_rhs=shift, lower=lo, upper=hi)
    key = None if _reused is None else (a.shape, *(x.tobytes() for x in (a, shift, lo, hi)))
    out = _reused.get(key) if key else None
    if out is None:
        hint = basis() if callable(basis) else basis
        out = solve(problem, None if hint is None else [*hint, v])
        if key and len(_reused) < REUSE_ENTRIES:
            _reused[key] = out

    if out.status == INFEASIBLE:
        return DirectionScaling(status=NEGATIVE_CERTIFICATE)
    if out.status == UNBOUNDED:
        return DirectionScaling(status=UNBOUNDED, value=np.inf)
    lam_hat = max(out.value, 0.0)
    x = out.argument[:v].copy()
    if lam_hat > lambda_threshold(d_unit):
        return DirectionScaling(status=OPTIMAL, value=lam_hat / norm, argument=x)
    return DirectionScaling(status=ZERO, value=lam_hat / norm, argument=x)
