"""LP kernel: hand cases, oracle comparisons, determinism, scale invariance."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resil import lp, zonotope
from resil.errors import LpError


def test_hand_case_toy2_lambda_plus():
    # maximize lam s.t. v = -lam, v in [-1, 3], lam >= 0  ->  lam = 1.
    out = lp.solve(
        lp.LpProblem(
            objective=np.array([0.0, 1.0]),
            eq_matrix=np.array([[1.0, 1.0]]),
            eq_rhs=np.array([0.0]),
            lower=np.array([-1.0, 0.0]),
            upper=np.array([3.0, np.inf]),
        )
    )
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-12)


def test_unbounded_when_lambda_uncoupled():
    # maximize lam s.t. v = lam * 0: lam unconstrained above.
    out = lp.solve(
        lp.LpProblem(
            objective=np.array([0.0, 1.0]),
            eq_matrix=np.array([[1.0, 0.0]]),
            eq_rhs=np.array([0.0]),
            lower=np.array([-1.0, 0.0]),
            upper=np.array([1.0, np.inf]),
        )
    )
    assert out.status == lp.UNBOUNDED


def test_hand_case_toy1():
    # maximize lam s.t. v1 = lam, v2 = 0, v in [-2,2]^2  ->  lam = 2.
    out = lp.solve(
        lp.LpProblem(
            objective=np.array([0.0, 0.0, 1.0]),
            eq_matrix=np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
            eq_rhs=np.zeros(2),
            lower=np.array([-2.0, -2.0, 0.0]),
            upper=np.array([2.0, 2.0, np.inf]),
        )
    )
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-12)


def test_infeasible():
    out = lp.solve(
        lp.LpProblem(
            objective=np.array([1.0]),
            eq_matrix=np.array([[1.0]]),
            eq_rhs=np.array([5.0]),
            lower=np.array([0.0]),
            upper=np.array([1.0]),
        )
    )
    assert out.status == lp.INFEASIBLE


def test_dimension_mismatch():
    with pytest.raises(LpError, match="dimensions"):
        lp.LpProblem(np.ones(2), np.ones((1, 3)), np.ones(1), np.zeros(3), np.ones(3))


def test_crossed_bounds():
    with pytest.raises(LpError, match="lower bound exceeds"):
        lp.LpProblem(np.ones(1), np.ones((1, 1)), np.ones(1), np.array([2.0]), np.array([1.0]))


def test_outcome_feasibility_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q, v = rng.integers(1, 4), rng.integers(2, 7)
        a = rng.standard_normal((q, v))
        lo, hi = -rng.random(v) - 0.5, rng.random(v) + 0.5
        b = a @ rng.uniform(lo, hi)
        out = lp.solve(lp.LpProblem(rng.standard_normal(v), a, b, lo, hi))
        assert out.status == lp.OPTIMAL
        resid = np.abs(a @ out.argument - b).max()
        assert resid <= lp.FEAS_TOL * (1.0 + np.abs(b).max()) * 10
        assert np.all(out.argument >= lo - lp.FEAS_TOL)
        assert np.all(out.argument <= hi + lp.FEAS_TOL)


def _enumerate_value(c, a, b, lo, hi, tol=1e-9):
    """Brute-force LP oracle: maximum of c.x over basic feasible points.

    Enumerates all choices of q basic columns; nonbasic variables swept over
    both bounds.  Exact for bounded feasible polytopes of tiny size.
    """
    q, v = a.shape
    best = None
    for basic in itertools.combinations(range(v), q):
        nonbasic = [j for j in range(v) if j not in basic]
        sub = a[:, basic]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        for corner in itertools.product(*[(lo[j], hi[j]) for j in nonbasic]):
            x = np.empty(v)
            x[list(nonbasic)] = corner
            rhs = b - a[:, nonbasic] @ np.array(corner)
            x[list(basic)] = np.linalg.solve(sub, rhs)
            if np.all(x >= lo - tol) and np.all(x <= hi + tol):
                val = float(c @ x)
                if best is None or val > best:
                    best = val
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 4))
    v = int(rng.integers(q + 1, 7))
    a = rng.standard_normal((q, v))
    lo = -rng.random(v) - 0.2
    hi = rng.random(v) + 0.2
    b = a @ rng.uniform(lo, hi)
    c = rng.standard_normal(v)
    out = lp.solve(lp.LpProblem(c, a, b, lo, hi))
    ref = _enumerate_value(c, a, b, lo, hi)
    assert out.status == lp.OPTIMAL
    assert ref is not None
    assert out.value == pytest.approx(ref, abs=1e-9 * (1 + abs(ref)))


def test_determinism_bitwise():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 8))
    lo, hi = -np.ones(8), np.ones(8)
    b = a @ np.full(8, 0.25)
    c = rng.standard_normal(8)
    first = lp.solve(lp.LpProblem(c, a, b, lo, hi))
    for _ in range(5):
        again = lp.solve(lp.LpProblem(c, a, b, lo, hi))
        assert again.value == first.value
        assert np.array_equal(again.argument, first.argument)


# ---------------------------------------------------------------------------
# max_scaled_direction
# ---------------------------------------------------------------------------


def test_direction_toy2(toy2):
    out = lp.max_scaled_direction(toy2.b_bar, toy2.u_min, toy2.u_max, np.array([-1.0]))
    assert out.lam_hat == pytest.approx(2.0, abs=1e-12)
    assert out.argument == pytest.approx([-1.0, 1.0])


def test_direction_toy1(toy1):
    out = lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, np.array([1.0, 0.0]))
    assert out.lam_hat == pytest.approx(3.0, abs=1e-12)


def test_direction_identity():
    out = lp.max_scaled_direction(np.eye(2), -np.ones(2), np.ones(2), np.array([1.0, 0.0]))
    assert out.lam_hat == pytest.approx(1.0, abs=1e-12)


def test_direction_zero_rejected():
    with pytest.raises(LpError, match="nonzero"):
        lp.max_scaled_direction(np.eye(2), -np.ones(2), np.ones(2), np.zeros(2))


@pytest.mark.parametrize("started", [False, True])
def test_direction_nan_rejected(started):
    # Started at a basis or cold, and asked again, every problem is checked.
    for _ in range(2):
        with pytest.raises(LpError, match="non-finite"):
            lp.max_scaled_direction(np.eye(2), -np.ones(2), np.ones(2), np.array([np.nan, 1.0]),
                                    basis=[0] if started else None)


@pytest.mark.parametrize("change, message", [
    ({"m": np.array([[1.0, np.nan], [0.0, 1.0]])}, "eq_matrix contains non-finite entries"),
    ({"m": np.array([[1.0, np.inf], [0.0, 1.0]])}, "eq_matrix contains non-finite entries"),
    ({"rhs_shift": np.array([0.0, np.inf])}, "eq_rhs contains non-finite entries"),
    ({"lower": np.array([np.nan, -1.0])}, "bounds contain NaN"),
    ({"lower": np.array([2.0, -1.0])}, "lower bound exceeds upper bound"),
    ({"lower": -np.ones(3)}, "inconsistent dimensions"),
    ({"upper": np.ones(1)}, "inconsistent dimensions"),
], ids=["nan-m", "inf-m", "inf-shift", "nan-bound", "crossed", "long-lower", "short-upper"])
def test_direction_problem_checks(change, message):
    args = {"m": np.eye(2), "lower": -np.ones(2), "upper": np.ones(2), "d": np.array([1.0, 0.0]),
            **change}
    with pytest.raises(LpError, match=message):
        lp.max_scaled_direction(**args)


@pytest.mark.parametrize("objective, lower, message", [
    (np.array([np.inf, 1.0]), np.zeros(2), "objective contains non-finite entries"),
    (np.ones(2), np.array([0.0, np.nan]), "bounds contain NaN"),
], ids=["inf-objective", "nan-bound"])
def test_problem_checks(objective, lower, message):
    with pytest.raises(LpError, match=message):
        lp.LpProblem(objective, np.ones((1, 2)), np.ones(1), lower, np.ones(2))


def test_direction_negative_certificate():
    # Image is [0, 1] * (1,1); direction (1,-1) is not on the nonnegative ray.
    m = np.array([[1.0], [1.0]])
    out = lp.max_scaled_direction(m, np.array([0.5]), np.array([1.0]), np.array([1.0, -1.0]))
    assert math.isnan(out.lam_hat) and out.argument is None


def test_direction_zero_status():
    # Only lam = 0 feasible: box is [0, 1], direction -1.
    m = np.array([[1.0]])
    out = lp.max_scaled_direction(m, np.array([0.0]), np.array([1.0]), np.array([-1.0]))
    assert 0.0 <= out.lam_hat <= lp.UNIT_THRESHOLD


def test_scale_invariance(toy1):
    d = np.array([0.7, -0.3])
    base = lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, d)
    for alpha in (0.5, 2.0, 10.0):
        scaled = lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, alpha * d)
        # lam = lam_hat / |d| scales as 1/alpha.
        assert scaled.lam_hat == pytest.approx(base.lam_hat, rel=1e-12)


# ---------------------------------------------------------------------------
# Hinted starting basis
# ---------------------------------------------------------------------------


def _bits(out: lp.LpOutcome) -> tuple:
    """Every field of an outcome, arrays as bytes: equal tuples mean equal bits."""
    arg = None if out.argument is None else out.argument.tobytes()
    return out.status, out.value, arg, out.pivots


def _scaling_problem(m, lo, hi, d, shift) -> lp.LpProblem:
    """The LP of max_scaled_direction(m, lo, hi, d, rhs_shift=shift) for a unit d."""
    v = m.shape[1]
    return lp.LpProblem(
        np.r_[np.zeros(v), 1.0], np.hstack([m, -np.asarray(d)[:, None]]), shift,
        np.r_[lo, 0.0], np.r_[hi, np.inf],
    )


def test_hint_at_optimal_basis_takes_no_pivots(toy1):
    # Along e1 the ray leaves TOY1's image at x1 = 3, a facet spanned by column 2.
    problem = _scaling_problem(toy1.b_bar, toy1.u_min, toy1.u_max, [1.0, 0.0], np.zeros(2))
    cold, hinted = lp.solve(problem), lp.solve(problem, basis=[1, 3])
    assert cold.pivots > 0 and hinted.pivots == 0
    assert hinted.status == lp.OPTIMAL and hinted.value == cold.value == 3.0


def test_hint_with_tied_twin_settles_without_pivots(highs):
    # Columns 2 and 3 of M are parallel (m_3 = 2 m_2), so the nonbasic twin has
    # reduced cost 0.  On the bound the start puts it (x3 = -0.5), the basic twin
    # needs x2 = 3.2, outside [-1, 0.5]; moving x3 to 0.85 at no cost brings it to 0.5.
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
    lo, hi = np.array([-1.0, -1.0, -0.5]), np.array([2.0, 0.5, 1.0])
    d, shift = np.array([1.0, 0.0]), np.array([0.5, 2.2])
    facet = zonotope.build(m, lo, hi).start(d, shift)
    assert facet.tolist() == [1]
    problem = _scaling_problem(m, lo, hi, d, shift)
    cold, started = lp.solve(problem), lp.solve(problem, basis=[*facet, 3])
    assert cold.pivots > 0 and started.pivots == 0
    assert started.status == lp.OPTIMAL and started.value == cold.value == 1.5
    assert started.value == pytest.approx(highs.scaling(m, lo, hi, d, shift), rel=1e-12)
    assert lo[2] < started.argument[2] < hi[2]


def test_accepted_start_never_reaches_the_simplex(monkeypatch):
    # An accepted start is optimal as it stands: solve returns it without a pricing pass,
    # so a _simplex that raises is never called.  Here x3 moves off its bound first.
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
    lo, hi = np.array([-1.0, -1.0, -0.5]), np.array([2.0, 0.5, 1.0])
    problem = _scaling_problem(m, lo, hi, np.array([1.0, 0.0]), np.array([0.5, 2.2]))
    cold = lp.solve(problem)

    def no_simplex(*args):
        raise AssertionError("an accepted start reached the simplex")

    monkeypatch.setattr(lp, "_simplex", no_simplex)
    started = lp.solve(problem, basis=[1, 3])
    assert (started.status, started.value, started.pivots) == (lp.OPTIMAL, cold.value, 0)
    with pytest.raises(AssertionError, match="reached the simplex"):
        lp.solve(problem, basis=[0, 3])  # refused, singular ({x1, lam} span only e1): cold


@pytest.mark.parametrize(
    "problem, basis",
    [
        # Singular: columns 1 and 3 of M are equal.
        (_scaling_problem(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), -np.ones(3),
                          np.ones(3), [0.6, 0.8], np.zeros(2)), [0, 2]),
        # Infeasible: the shift (5, 0) lies outside the image [-2, 2]^2 (lam = -3).
        (_scaling_problem(np.eye(2), -2 * np.ones(2), 2 * np.ones(2), [1.0, 0.0],
                          np.array([5.0, 0.0])), [1, 2]),
        # Unbounded lam: its reduced cost favours its infinite upper bound.
        (lp.LpProblem(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]), np.array([0.0]),
                      np.array([-1.0, 0.0]), np.array([1.0, np.inf])), [0]),
        # Wrong: {x1, lam} gives x1 = 3, outside [0, 1] ({x2, lam} is optimal).
        (_scaling_problem(np.array([[1.0, 0.0], [1.0, 1.0]]), np.zeros(2), np.ones(2),
                          [0.6, 0.8], np.zeros(2)), [0, 2]),
    ],
    ids=["singular", "infeasible-shift", "unbounded", "wrong-basis"],
)
def test_rejected_hint_returns_the_cold_outcome(problem, basis):
    assert _bits(lp.solve(problem, basis=basis)) == _bits(lp.solve(problem))
