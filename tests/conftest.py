"""Shared fixtures: three hand-analyzed toy systems and a HiGHS oracle.

TOY1: B = [[1,0,1],[0,1,0]], columns 1-2 in [-2,2], column 3 in [-1,1].
      Losing column 3: lambda+/- = (2,2), r(C) = r(-C) = 1/3.
TOY2: B = [[1,-1]], column 1 in [-1,3], column 2 in [0,1].
      Losing column 2: lambda+/- = (1,3), r(C) = 1/2, r(-C) = 2/3.
TOY3: B = [[1,0,0.5,0],[0,1,0,0.5]], all columns in [-1,1], lost {3,4} (p=2).

`lp_solves` counts the lp.solve calls a test makes, `lp_pivots` sums their
simplex pivots, `zonotope_builds` counts the images zonotope.build makes (not
its calls: a kept image or a decline is no build), `gauge_calls` its
Zonotope.scalings batches and lambdas_without passes, `zonotope_starts` its
Zonotope.start calls, and `sim_integrations` its sampled sim.integrate_with_lag
calls.  `reports_agree` compares a resilience report with its LP-path reference,
`r_pair` gives a single loss's closed-form (r(C), r(-C)) from its LP lambda
pair (resilience.lambda_pair), `axis_batch_controllable` gives the
controllability verdict of one Zonotope.scalings batch over the rays +/-e_j
(the form the slab-side comparison of resilience._controllable replaced), and
`fresh` copies a system or split without the box image it keeps, so that the
copy builds its own (or declines, where a test has lowered
zonotope.MAX_CANDIDATES).  `reach_time_verdict` decides a single loss from
four reach times along +/-C, the cross-check of the closed-form verdict, and
`lp_malfunction_time` gives T_M(w, d) for one w from one cold LP, the LP
reference of reach.malfunction_times.

The `highs` fixture re-derives lambda+/-, r(+/-C), r_q, T_N*, T_M* and t(d)
for single losses with SciPy HiGHS, a test-only dependency; it skips the
test when SciPy is not installed.
"""

import dataclasses
import math

import numpy as np
import pytest

from resil import lp, reach, resilience, sim, zonotope
from resil.model import ActuatorSplit, IntegratorSystem, split


def _count_calls(monkeypatch, module, names) -> list:
    """Patch module.<name> for each name to count its calls into one cell."""
    calls = [0]

    def counting(real):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


@pytest.fixture
def lp_solves(monkeypatch):
    """Count every lp.solve call made while the test runs."""
    return _count_calls(monkeypatch, lp, ["solve"])


@pytest.fixture
def lp_pivots(monkeypatch):
    """Sum the simplex pivots of every lp.solve call made while the test runs."""
    pivots = [0]
    real = lp.solve

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        pivots[0] += out.pivots
        return out

    monkeypatch.setattr(lp, "solve", counting)
    return pivots


@pytest.fixture
def zonotope_builds(monkeypatch):
    """Count the images zonotope.build makes while the test runs."""
    images = [0]
    real = zonotope._image

    def counting(*args):
        image = real(*args)
        images[0] += image is not None
        return image

    monkeypatch.setattr(zonotope, "_image", counting)
    return images


@pytest.fixture
def gauge_calls(monkeypatch):
    """Count Zonotope.scalings batches and Zonotope.lambdas_without passes, in that order."""
    return tuple(_count_calls(monkeypatch, zonotope.Zonotope, [name])
                 for name in ("scalings", "lambdas_without"))


@pytest.fixture
def zonotope_starts(monkeypatch):
    """Count Zonotope.start calls: the start facets named for LPs."""
    return _count_calls(monkeypatch, zonotope.Zonotope, ["start"])


@pytest.fixture
def sim_integrations(monkeypatch):
    """Count every sampled sim.integrate_with_lag call made while the test runs."""
    return _count_calls(monkeypatch, sim, ["integrate_with_lag"])


#: Agreement of a report with its LP-path reference: lam+/- to LAMBDA_RTOL
#: relative, r(+/-C), r_q and r_kq to R_ATOL on resilient columns (off them
#: r_q = r_kq = 0).  loose=True, for the mixed-scale random draws of
#: test_zonotope.py's sweep property, also accepts lam within LOOSE_WIDTH_TOL
#: of the kept image's width along C (lam+ + lam-) and r within LOOSE_R_ATOL.
#: Those draws hold ill-conditioned lam problems on which both engines are off:
#: against exact rational arithmetic at the simplex's final basis, at seed 4333
#: column 3 the simplex errs by 6.3e-12 relative and the gauge by 1.2e-11.
#: Where lam is small next to the rest of the LP's point the simplex errs by
#: more: by 1.1e-9 at seed 15942 column 3 and 7.0e-11 at seed 45636 column 5,
#: 8.4e-10 and 1.5e-10 of the width off the gauge, the two draws of 0..99 999
#: that fail these bounds (ROADMAP item 4).
LAMBDA_RTOL = 1e-12
R_ATOL = 1e-12
LOOSE_WIDTH_TOL = 1e-10
LOOSE_R_ATOL = 1e-10


def _assert_reports_agree(got, ref, loose: bool = False) -> None:
    """Same column, order, verdicts and diagnostics; lam+/- and r values as above."""
    assert (got.lost_column, got.order) == (ref.lost_column, ref.order)
    assert (got.controllable, got.resilient) == (ref.controllable, ref.resilient)
    assert got.diagnostics == ref.diagnostics
    pair, want = (got.lambda_plus, got.lambda_minus), (ref.lambda_plus, ref.lambda_minus)
    width = LOOSE_WIDTH_TOL * sum(want) if loose else 0.0
    for lam, lam_ref in zip(pair, want):
        tol = max(LAMBDA_RTOL * lam_ref, width)
        assert lam == lam_ref or abs(lam - lam_ref) <= tol, (pair, want)
    names = ("r_plus", "r_minus", "r_q", "r_kq") if ref.resilient else ("r_q", "r_kq")
    atol = LOOSE_R_ATOL if loose else R_ATOL
    for name in names:
        assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=0.0, abs=atol)


@pytest.fixture(scope="session")
def reports_agree():
    return _assert_reports_agree


def _lp_r_pair(sp) -> "tuple[float, float]":
    """Closed-form (r(C), r(-C)) of a single nonzero lost column from its LP lam+/-."""
    return resilience.r_closed_form(*resilience.lambda_pair(sp), float(sp.w_min[0]),
                                    float(sp.w_max[0]))


@pytest.fixture(scope="session")
def r_pair():
    return _lp_r_pair


def _axis_batch_controllable(sys, image) -> bool:
    """Every lam_hat of image.scalings over the 2n rays +/-e_j from 0 passes
    lp.UNIT_THRESHOLD: B_bar's image (built, so rank n) reaches along each axis."""
    axes = np.vstack([sign * e for e in np.eye(sys.n) for sign in (1.0, -1.0)])
    lam_hat = image.scalings(axes, np.zeros((1, sys.n)))[:, 0]
    return all(lam > lp.UNIT_THRESHOLD for lam in lam_hat)


@pytest.fixture(scope="session")
def axis_batch_controllable():
    return _axis_batch_controllable


def _fresh(obj):
    """A copy of a system or split, with no image built yet."""
    if isinstance(obj, ActuatorSplit):
        return split(_fresh(obj.base), obj.lost_columns)
    return dataclasses.replace(obj)


@pytest.fixture(scope="session")
def fresh():
    return _fresh


@dataclasses.dataclass(frozen=True)
class ReachTimeVerdict:
    """Resilience decided through the four reach times along +/-C."""

    t_n_plus: float
    t_m_plus: float
    t_n_minus: float
    t_m_minus: float
    resilient: bool


def _reach_time_verdict(sp) -> ReachTimeVerdict:
    """Verdict of a single nonzero lost column from four reach times along +/-C at the split's
    order (the reach-time cross-check of the closed form): resilient iff controllable and
    both T_M* are finite, which does not depend on the order."""
    c = sp.c[:, 0]
    assert sp.p == 1 and np.any(c)
    t_n_p = reach.nominal_reach_time(sp.base, c).time
    t_m_p = reach.malfunctioning_reach_time(sp, c).time
    t_n_m = reach.nominal_reach_time(sp.base, -c).time
    t_m_m = reach.malfunctioning_reach_time(sp, -c).time
    resilient = (
        resilience.check_controllability(sp.base)
        and math.isfinite(t_m_p)
        and math.isfinite(t_m_m)
    )
    return ReachTimeVerdict(t_n_p, t_m_p, t_n_m, t_m_m, resilient)


@pytest.fixture(scope="session")
def reach_time_verdict():
    return _reach_time_verdict


def _lp_malfunction_time(sp, w, d) -> float:
    """T_M(w, d) at the split's order from one cold LP, max{lam >= 0 : B u = lam d - C w,
    u in U_c} (reach's per-vertex LP), with no check of w or d."""
    w, d = np.asarray(w, dtype=float), np.asarray(d, dtype=float)
    t1 = reach._order1_time(reach._vertex_lp(sp, w, d), d)[0]
    return float(reach.order_k_time(t1, sp.base.order))


@pytest.fixture(scope="session")
def lp_malfunction_time():
    return _lp_malfunction_time


@pytest.fixture
def toy1():
    return IntegratorSystem(
        name="TOY1",
        order=1,
        b_bar=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        u_min=np.array([-2.0, -2.0, -1.0]),
        u_max=np.array([2.0, 2.0, 1.0]),
    )


@pytest.fixture
def toy1_split(toy1):
    return split(toy1, 2)


@pytest.fixture
def toy2():
    return IntegratorSystem(
        name="TOY2",
        order=1,
        b_bar=np.array([[1.0, -1.0]]),
        u_min=np.array([-1.0, 0.0]),
        u_max=np.array([3.0, 1.0]),
    )


@pytest.fixture
def toy2_split(toy2):
    return split(toy2, 1)


@pytest.fixture
def toy3():
    return IntegratorSystem(
        name="TOY3",
        order=1,
        b_bar=np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5]]),
        u_min=-np.ones(4),
        u_max=np.ones(4),
    )


@pytest.fixture
def toy3_split(toy3):
    return split(toy3, (2, 3))


# --------------------------------------------------------------------------
# SciPy HiGHS oracle (test-only; never imported by the package)
# --------------------------------------------------------------------------

#: A normalized multiplier at or below this counts as lam = 0 ("not reachable").
HIGHS_LAMBDA_ZERO = 2e-9


class HighsOracle:
    """Reference values for single-loss (p = 1) quantities, solved by HiGHS.

    Everything here is re-derived from the system data with
    scipy.optimize.linprog(method="highs"): no resil solver or formula is
    called, so agreement with the package is an independent check.
    """

    def __init__(self) -> None:
        pytest.importorskip("scipy")
        from scipy.optimize import linprog

        self._linprog = linprog

    def scaling(self, m, lo, hi, d, shift=None):
        """max{lam >= 0 : M x = lam d + shift, x in [lo, hi]}.

        Returns +inf when unbounded and None when infeasible.  Posed in
        centred, row-scaled coordinates, an exact reformulation: x = mid +
        half * v with v in [-1, 1], each state row divided by its largest
        generator entry M_ij half_j, the scaled d normalised, and each row of
        the result divided by its largest entry or shift.  Posed on the raw
        data, HiGHS's absolute feasibility tolerance of 1e-7 moves lam by up
        to 2e-8 relative on 1e-6-scale entries and accepts a shift 1.3e-8
        outside an image 2.9e-4 wide.
        """
        m = np.asarray(m, dtype=float)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        gens = m * ((hi - lo) / 2.0)
        rows = np.abs(gens).max(axis=1)
        rows[rows == 0.0] = 1.0
        d = np.asarray(d, dtype=float) / rows
        norm = float(np.linalg.norm(d))
        b = np.zeros(m.shape[0]) if shift is None else np.asarray(shift, dtype=float)
        b = (b - m @ ((hi + lo) / 2.0)) / rows
        a = np.hstack([gens / rows[:, None], -(d / norm)[:, None]])
        row = np.maximum(np.abs(a).max(axis=1), np.abs(b))
        row[row == 0.0] = 1.0
        a, b = a / row[:, None], b / row
        cost = np.zeros(a.shape[1])
        cost[-1] = -1.0
        bounds = [(-1.0, 1.0)] * m.shape[1] + [(0.0, None)]
        res = self._linprog(cost, A_eq=a, b_eq=b, bounds=bounds, method="highs")
        if res.status == 2:
            return None
        if res.status == 3:
            return math.inf
        assert res.status == 0, f"HiGHS status {res.status}: {res.message}"
        polished = self._polish(a, b, res.x)
        return max(-res.fun if polished is None else polished, 0.0) / norm

    @staticmethod
    def _polish(a, b, x):
        """lam at the vertex HiGHS stops at, solved exactly: the inputs it leaves at
        +/-1 fixed there and A x = b solved for the rest.  None (keep HiGHS's lam)
        unless those columns have full column rank and the point stays in its
        bounds.  HiGHS's own lam can be 1e-9 relative off (ds, ipm and presolve
        off alike), where exact rational arithmetic over the facets and the
        polished vertex agree to 4e-15 (sweep seed 78979)."""
        fixed = np.append(np.abs(np.abs(x[:-1]) - 1.0) <= 1e-9, False)
        free = a[:, ~fixed]
        if np.linalg.matrix_rank(free) < free.shape[1]:
            return None
        rhs = b - a[:, fixed] @ np.sign(x[fixed])
        v = np.linalg.lstsq(free, rhs, rcond=None)[0]
        if np.any(np.abs(v[:-1]) > 1.0 + 1e-9) or v[-1] < 0.0:
            return None
        return float(v[-1])

    def reach_time(self, m, lo, hi, d, shift=None) -> float:
        """1/lam* for the scaling LP; +inf when only lam = 0 (or nothing) is feasible."""
        lam = self.scaling(m, lo, hi, d, shift)
        if lam is None or lam * float(np.linalg.norm(d)) <= HIGHS_LAMBDA_ZERO:
            return math.inf
        return 1.0 / lam

    def lambda_pair(self, sp) -> "tuple[float, float]":
        """(lam+, lam-): max{lam : B v = +/-lam C, v in U_c}; 0 when infeasible."""
        c = sp.c[:, 0]
        lams = [self.scaling(sp.b, sp.u_min, sp.u_max, sign * c) for sign in (1.0, -1.0)]
        return tuple(0.0 if lam is None else lam for lam in lams)

    def r_pair(self, sp) -> "tuple[float, float]":
        """Closed-form (r(C), r(-C)) on the HiGHS lam+/-; an unbounded lam gives 1."""
        lam_p, lam_m = self.lambda_pair(sp)
        w_min, w_max = float(sp.w_min[0]), float(sp.w_max[0])
        r_p = 1.0 if math.isinf(lam_p) else (w_min + lam_p) / (w_max + lam_p)
        r_m = 1.0 if math.isinf(lam_m) else (w_max - lam_m) / (w_min - lam_m)
        return r_p, r_m

    def controllable(self, sys) -> bool:
        """rank n, and the image of the box reaches along every +/-e_j."""
        if np.linalg.matrix_rank(sys.b_bar) < sys.n:
            return False
        return all(
            math.isfinite(self.reach_time(sys.b_bar, sys.u_min, sys.u_max, sign * e))
            for e in np.eye(sys.n)
            for sign in (1.0, -1.0)
        )

    def r_q(self, sp) -> float:
        """min(r(C), r(-C)) when controllable and both lie in (0, 1], else 0."""
        r_p, r_m = self.r_pair(sp)
        resilient = self.controllable(sp.base) and 0.0 < r_p <= 1.0 and 0.0 < r_m <= 1.0
        return min(r_p, r_m) if resilient else 0.0

    def nominal_time(self, sys, d) -> float:
        """Order-1 T_N*(d) of the full system."""
        return self.reach_time(sys.b_bar, sys.u_min, sys.u_max, d)

    def malfunction_time(self, sp, d) -> float:
        """Order-1 T_M*(d): the worst of the two vertices of W_c (p = 1)."""
        return max(
            self.reach_time(sp.b, sp.u_min, sp.u_max, d, shift=-(sp.c @ w))
            for w in (sp.w_min, sp.w_max)
        )

    def time_ratio(self, sp, d) -> float:
        """t(d) = T_M*(d) / T_N*(d), +inf whenever T_M* is."""
        t_m = self.malfunction_time(sp, d)
        return math.inf if math.isinf(t_m) else t_m / self.nominal_time(sp.base, d)


@pytest.fixture(scope="session")
def highs():
    return HighsOracle()
