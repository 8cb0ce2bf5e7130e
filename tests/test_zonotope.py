"""The zonotope gauge against the simplex LP and HiGHS, and the LP fallback rule."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resil import catalog, lp, oracle, reach, resilience, zonotope
from resil.model import IntegratorSystem, split
from resil.resilience import quantitative_resilience

#: Relative agreement required between the gauge and either LP.
REL = 1e-9

#: Relative agreement required between an LP started at the gauge's facet and a
#: cold one.  On the mixed-scale draws neither is exact to 1e-12: against exact
#: rational arithmetic at the same basis the cold simplex errs by 3.4e-12 (seed
#: 1618) and the started one by 1.9e-12 (seed 3090), where they differ by 4.0e-12,
#: the largest gap over 12 000 seeds.  A lam near 0 is compared to HINT_REL of
#: the image's extent instead (seed 6090: lam = 6.8e-11, 1.9e-11 apart).
HINT_REL = 1e-11


def _random_system(rng):
    """A mixed-scale system with repeated, anti-parallel and zero columns.

    Entries spread over 1e-6..1e-2, n = 1..6, n + 3..n + 5 columns, boxes
    with u_min < 0 < u_max.
    """
    n = int(rng.integers(1, 7))
    cols = n + 3 + int(rng.integers(0, 3))
    b = rng.standard_normal((n, cols)) * 10.0 ** rng.uniform(-6.0, -2.0, size=(n, cols))
    b[:, -1] = b[:, 0]
    b[:, -2] = -rng.uniform(0.2, 2.0) * b[:, 1]
    b[:, -3] = 0.0
    lo = -rng.uniform(0.2, 1.0, cols)
    hi = rng.uniform(0.2, 1.0, cols)
    return b, lo, hi


def _random_split(seed: int):
    """A split of a _random_system with one or two lost columns.

    In about 30 % of draws every kept column has u_min = 0: 0 is a vertex of
    the kept box, and on the kept image's boundary unless the kept columns
    span R^n positively.
    """
    rng = np.random.default_rng(seed)
    b, lo, hi = _random_system(rng)
    cols = b.shape[1]
    lost = tuple(int(j) for j in rng.choice(cols, size=int(rng.integers(1, 3)), replace=False))
    if rng.random() < 0.3:
        lo[[j for j in range(cols) if j not in lost]] = 0.0
    sys = IntegratorSystem("rand", 1, b, lo, hi)
    return split(sys, lost), rng


def _status(lam_hat: float) -> str:
    """The lp.max_scaled_direction status a gauge value stands for."""
    if math.isnan(lam_hat):
        return lp.NEGATIVE_CERTIFICATE
    if math.isinf(lam_hat):
        return lp.UNBOUNDED
    return lp.OPTIMAL if lam_hat > lp.lambda_threshold(np.ones(1)) else lp.ZERO


def _boundary_point(sp, rng) -> np.ndarray:
    """A support point of the kept image along a random normal: on its boundary."""
    a = rng.standard_normal(sp.base.n)
    return sp.b @ np.where(a @ sp.b >= 0.0, sp.u_max, sp.u_min)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_scalings_match_lp_and_highs(seed, highs):
    sp, rng = _random_split(seed)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max, lps=10**6)
    if zono is None:
        assert np.linalg.matrix_rank(sp.b) < sp.base.n
        return
    directions = rng.standard_normal((4, sp.base.n)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
    # -C w at every W_c vertex, 0, and a point on the image boundary.
    shifts = np.vstack([
        -(reach.w_vertices(sp) @ sp.c.T), np.zeros(sp.base.n), _boundary_point(sp, rng)
    ])
    lam_hat = zono.scalings(directions, shifts)
    for i, d in enumerate(directions):
        norm = float(np.linalg.norm(d))
        for j, s in enumerate(shifts):
            ref = lp.max_scaled_direction(sp.b, sp.u_min, sp.u_max, d, rhs_shift=s)
            got = lam_hat[i, j]
            assert _status(got) == ref.status, (i, j, got, ref)
            ref_highs = highs.scaling(sp.b, sp.u_min, sp.u_max, d / norm, s)
            if ref.status == lp.NEGATIVE_CERTIFICATE:
                assert ref_highs is None
            elif ref.status == lp.OPTIMAL:
                assert got / norm == pytest.approx(ref.value, rel=REL)
                assert got == pytest.approx(ref_highs, rel=REL)
            else:
                assert ref_highs <= 2e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_batched_reach_matches_scalar(seed):
    sp, rng = _random_split(seed)
    directions = rng.standard_normal((5, sp.base.n))
    ratios = reach.time_ratios(sp, directions)
    for d, t in zip(directions, ratios):
        ref = reach.time_ratio(sp, d)
        assert t == pytest.approx(ref, rel=REL) if math.isfinite(ref) else t == ref
    ws = sp.w_min + rng.random((6, sp.p)) * (sp.w_max - sp.w_min)
    times = reach.malfunction_times(sp, ws, directions[0])
    for w, t in zip(ws, times):
        ref = reach.malfunction_time_for_w(sp, w, directions[0])
        assert t == pytest.approx(ref, rel=REL) if math.isfinite(ref) else t == ref


def _assert_hint_matches_cold(m, lo, hi, d, s, basis) -> None:
    """A hinted max_scaled_direction has the cold status; an optimal one also the
    cold value and an optimizer in the box with M x = lam d + s, each row to
    FEAS_TOL of its magnitude: the same LP's optimum."""
    cold = lp.max_scaled_direction(m, lo, hi, d, rhs_shift=s)
    hinted = lp.max_scaled_direction(m, lo, hi, d, rhs_shift=s, basis=basis)
    assert hinted.status == cold.status
    if cold.status != lp.OPTIMAL:
        return
    width = np.maximum(np.abs(lo), np.abs(hi))
    extent = np.abs(m) @ width + np.abs(s)
    norm = float(np.linalg.norm(d))
    assert hinted.value * norm == pytest.approx(
        cold.value * norm, rel=HINT_REL, abs=HINT_REL * extent.max()
    )
    x, lam_d = hinted.argument, hinted.value * d
    assert np.all(x >= lo - lp.FEAS_TOL * width) and np.all(x <= hi + lp.FEAS_TOL * width)
    assert np.all(np.abs(m @ x - lam_d - s) <= lp.FEAS_TOL * (extent + np.abs(lam_d)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=3090)  # the two LPs differ by 4.0e-12 relative
@example(seed=11912)  # a shift outside the image: the start puts lam at -5.8e-10
def test_hinted_lp_matches_cold(seed):
    sp, rng = _random_split(seed)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max, lps=10**6)
    if zono is None:
        assert np.linalg.matrix_rank(sp.b) < sp.base.n
        return
    directions = rng.standard_normal((4, sp.base.n)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
    shifts = -(reach.w_vertices(sp) @ sp.c.T)
    for d in directions:
        # The facets T_M*'s screen names, and the one-ray start of the other LPs.
        screened = zono.scalings(d, shifts, facets=True)[1][0]
        for s, facet in zip(shifts, screened):
            for start in (zono.start(d, s, facet), zono.start(d, s)):
                _assert_hint_matches_cold(sp.b, sp.u_min, sp.u_max, d, s, start)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_exit_facet_is_tight(seed):
    sp, rng = _random_split(seed)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max, lps=10**6)
    if zono is None:
        return
    directions = rng.standard_normal((4, sp.base.n)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
    shifts = np.vstack([-(reach.w_vertices(sp) @ sp.c.T), _boundary_point(sp, rng)])
    lam_hat, facet = zono.scalings(directions, shifts, facets=True)
    assert np.array_equal(facet == -1, np.isinf(lam_hat))
    units = directions / np.linalg.norm(directions, axis=1)[:, None]
    for (i, j), lam in np.ndenumerate(lam_hat):
        if 0.0 < lam < math.inf:
            # The named facet's inequality holds with equality at the exit point.
            f = facet[i, j]
            gap = zono.normals[f] @ ((lam * units[i] + shifts[j]) / zono.scale) - zono.support[f]
            assert abs(gap) <= lp.FEAS_TOL * zono.extent[f], (i, j, gap)


def _lp_only(monkeypatch):
    """Make zonotope.build decline every matrix (no facet budget)."""
    monkeypatch.setattr(zonotope, "FACETS_PER_LP", 0)


def _random_sweep_system(seed: int) -> IntegratorSystem:
    """A _random_system of order 1..3; in about 30 % of draws every u_min = 0.

    With every u_min = 0, 0 is a vertex of the box and lies on the image's
    boundary unless the columns span R^n positively: often not controllable.
    """
    rng = np.random.default_rng(seed)
    b, lo, hi = _random_system(rng)
    if rng.random() < 0.3:
        lo[:] = 0.0
    return IntegratorSystem("rand", int(rng.integers(1, 4)), b, lo, hi)


def _highs_lambdas(highs, sp) -> tuple:
    """HiGHS's (lam+, lam-), 0 where its normalized lam is at most the LP's 2e-9 threshold."""
    norm = float(np.linalg.norm(sp.c))
    return tuple(0.0 if lam * norm <= 2e-9 else lam for lam in highs.lambda_pair(sp))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=2268)  # the simplex errs by 1.7e-11 in lam-, 1.0e-11 in r(-C)
@example(seed=4333)  # the simplex errs by 4.6e-11 and 7.1e-9 in two lam-
@example(seed=16197)  # the gauge and the simplex differ by 1.9e-11 of the width
@example(seed=78979)  # unpolished, HiGHS's lam+/- of column 6 are 1.0e-9 relative off
def test_sweep_matches_lp_path_and_highs(seed, highs, reports_agree):
    sys = _random_sweep_system(seed)
    image = zonotope.build(sys.b_bar, sys.u_min, sys.u_max, lps=2 * (sys.n + sys.n_inputs))
    assert image is not None or np.linalg.matrix_rank(sys.b_bar) < sys.n
    reports = resilience.sweep(sys, range(sys.n_inputs))
    assert reports[0].controllable == highs.controllable(sys)
    with pytest.MonkeyPatch.context() as mp:
        _lp_only(mp)
        for got in reports:
            sp = split(sys, got.lost_column)
            checked = got.controllable and np.any(sp.c)
            if checked:
                ref = _highs_lambdas(highs, sp)
                assert (got.lambda_plus, got.lambda_minus) == pytest.approx(ref, rel=REL)
            try:
                want = quantitative_resilience(sp)
            except lp.LpError:
                continue  # the simplex fault of test_simplex_singular_basis
            if checked and (want.lambda_plus, want.lambda_minus) != pytest.approx(ref, rel=1e-6):
                continue  # the simplex fault of test_simplex_lambda_matches_highs
            reports_agree(got, want, loose=True)


@pytest.mark.xfail(strict=True, reason="simplex fault: a wrong optimum of a degenerate lam LP")
def test_simplex_lambda_matches_highs(highs):
    # Every u_min = 0 and a duplicated column; seed 217 of the sweep draws,
    # where the gauge and HiGHS give lam- = 0.42512 and the simplex 21.5.
    sp = split(_random_sweep_system(217), 8)
    assert resilience.lambda_pair(sp) == pytest.approx(_highs_lambdas(highs, sp), rel=REL)


@pytest.mark.xfail(strict=True, raises=lp.LpError, reason="simplex fault: singular basis")
def test_simplex_singular_basis(highs):
    # Every u_min = 0 and a duplicated column; seed 1588 of the sweep draws.
    sp = split(_random_sweep_system(1588), 6)
    assert resilience.lambda_pair(sp) == pytest.approx(_highs_lambdas(highs, sp), rel=REL)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_lambdas_without_matches_build(seed):
    # The boxes hold 0 inside in most draws, on a vertex (every u_min = 0: 0 on
    # each kept image's boundary) or outside it (every u_min > 0) in the rest.
    rng = np.random.default_rng(seed)
    b, lo, hi = _random_system(rng)
    box = rng.random()
    if box < 0.2:
        lo[:] = 0.0
    elif box < 0.4:
        lo, hi = rng.uniform(0.1, 0.5, len(lo)), rng.uniform(0.6, 1.0, len(lo))
    image = zonotope.build(b, lo, hi, lps=10**6)
    if image is None:
        assert np.linalg.matrix_rank(b) < b.shape[0]
        return
    nonzero = [j for j in range(b.shape[1]) if np.any(b[:, j])]
    lams, solid = image.lambdas_without(nonzero)
    for j, lam, full in zip(nonzero, lams, solid):
        others = [k for k in range(b.shape[1]) if k != j]
        ref = zonotope.build(b[:, others], lo[others], hi[others], lps=10**6)
        assert full == (ref is not None), j
        if ref is not None:
            # Two row scalings of one image: the normals of nearly degenerate
            # generator subsets differ by up to about 1e-11 (8.1e-12 at worst
            # over 3000 draws).  A lam that is 0 up to rounding (0 on the
            # boundary) is compared to the kept generators' width along C
            # instead (5.4e-13 of it at worst).
            unit = b[:, j] / np.linalg.norm(b[:, j])
            width = np.abs(unit @ b[:, others]) @ (hi - lo)[others] / 2.0
            lam_hat = lam * ((hi[j] - lo[j]) / 2.0) * np.linalg.norm(b[:, j])
            want = ref.scalings(np.vstack([unit, -unit]), np.zeros((1, b.shape[0])))[:, 0]
            np.testing.assert_allclose(lam_hat, want, rtol=1e-10, atol=1e-10 * width)
    with pytest.raises(lp.LpError, match="zero column"):
        image.lambdas_without([b.shape[1] - 3])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_screened_tm_matches_vertex_enumeration(seed):
    sp, rng = _random_split(seed)
    d = rng.standard_normal(sp.base.n)
    screened = reach.malfunctioning_reach_time(sp, d)
    with pytest.MonkeyPatch.context() as mp:
        _lp_only(mp)
        enumerated = reach.malfunctioning_reach_time(sp, d)
    if math.isinf(enumerated.time):
        assert math.isinf(screened.time)
    else:
        assert screened.time == pytest.approx(enumerated.time, rel=REL)


def test_screen_disagreeing_with_lp_enumerates(toy1_split, monkeypatch, lp_solves):
    d = np.array([1.0, 0.3])
    with pytest.MonkeyPatch.context() as mp:
        _lp_only(mp)
        enumerated = reach.malfunctioning_reach_time(toy1_split, d)
    lp_solves[0] = 0
    # A screen that finds every vertex infeasible: the LP at vertex 0 is finite.
    def infeasible(self, dirs, shifts, facets=False):
        lam = np.full((1, len(np.atleast_2d(shifts))), np.nan)
        return (lam, np.full(lam.shape, -1)) if facets else lam

    monkeypatch.setattr(zonotope.Zonotope, "scalings", infeasible)
    result = reach.malfunctioning_reach_time(toy1_split, d)
    assert result.time == enumerated.time
    assert np.array_equal(result.optimizer_w, enumerated.optimizer_w)
    assert lp_solves[0] == 1 + 2  # the screened vertex, then both vertices


def test_rank_deficient_takes_lp_path(lp_solves):
    # B has rank 1; C lies in its range, so every vertex time is finite.
    sys = IntegratorSystem("rd", 1, np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]]),
                           -np.ones(3), np.ones(3))
    sp = split(sys, 2)
    assert zonotope.build(sp.b, sp.u_min, sp.u_max, lps=10**6) is None
    assert math.isfinite(reach.malfunctioning_reach_time(sp, np.array([1.0, 2.0])).time)
    assert lp_solves[0] == 2**sp.p
    reach.malfunction_times(sp, np.array([[-1.0], [0.0], [1.0]]), np.array([1.0, 2.0]))
    assert lp_solves[0] == 2**sp.p + 3


def test_over_facet_budget_takes_lp_path(lp_solves):
    sp = split(catalog.spacecraft_printed(), 2)
    nonzero = int(np.count_nonzero(np.any(sp.b != 0.0, axis=0)))
    assert zonotope.candidate_count(sp.base.n, nonzero) == 2 * math.comb(13, 5)
    assert zonotope.candidate_count(sp.base.n, nonzero) > zonotope.FACETS_PER_LP * 2**sp.p
    assert zonotope.build(sp.b, sp.u_min, sp.u_max, lps=2**sp.p) is None
    reach.malfunctioning_reach_time(sp, np.eye(6)[5])
    assert lp_solves[0] == 2**sp.p
    # Within budget the same matrix is built and screened: one LP.
    assert zonotope.build(sp.b, sp.u_min, sp.u_max, lps=30) is not None


def test_over_absolute_cap_declines_before_any_work(monkeypatch):
    # 2 C(40, 5) = 1 316 016 candidates would take about 1 GB: no LP budget,
    # however large, builds them, and build declines before touching M.
    b = np.random.default_rng(0).standard_normal((6, 40))
    assert zonotope.candidate_count(6, 40) > zonotope.MAX_CANDIDATES

    def no_work(*args, **kwargs):
        raise AssertionError("build worked on a matrix over MAX_CANDIDATES")

    monkeypatch.setattr(zonotope, "_full_rank", no_work)
    monkeypatch.setattr(zonotope, "itertools", SimpleNamespace(combinations=no_work))
    assert zonotope.build(b, -np.ones(40), np.ones(40), lps=10**12) is None


def test_scalings_chunked_like_unchunked(monkeypatch):
    sp = split(catalog.octocopter_translational(), 0)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max, lps=10**6)
    rng = np.random.default_rng(4)
    directions = rng.standard_normal((7, 3))
    shifts = -(rng.uniform(sp.w_min, sp.w_max, size=(50, 1)) @ sp.c.T)
    whole, facets = zono.scalings(directions, shifts, facets=True)
    sc = catalog.spacecraft_printed()
    image = zonotope.build(sc.b_bar, sc.u_min, sc.u_max, lps=10**6)
    lams = image.lambdas_without(range(14))[0]
    monkeypatch.setattr(zonotope, "BLOCK_ELEMENTS", 1)
    # One pair, or one facet row, per block: equal up to the rounding of
    # differently shaped products, and the same facets.
    chunked, chunked_facets = zono.scalings(directions, shifts, facets=True)
    np.testing.assert_allclose(chunked, whole, rtol=1e-14)
    assert np.array_equal(chunked_facets, facets)
    np.testing.assert_allclose(image.lambdas_without(range(14))[0], lams, rtol=1e-14)


def test_exit_ties_go_to_the_lowest_row_across_blocks():
    # Propellers 1-4 of the octocopter are one column repeated: their facets
    # repeat, and every ray leaving through one ties with its copies.
    sys = catalog.octocopter_translational()
    zono = zonotope.build(sys.b_bar, sys.u_min, sys.u_max, lps=10**6)
    rng = np.random.default_rng(5)
    toward = (rng.standard_normal((40, 3)) / zono.scale) @ zono.normals.T
    slack, size, extent = zono.support, np.zeros((40, 1)), zono.extent
    with np.errstate(divide="ignore", invalid="ignore"):
        limits = np.where(toward > 0.0, slack / toward, np.inf)
    lowest = np.argmax(limits == limits.min(axis=1)[:, None], axis=1)
    assert np.any((limits == limits.min(axis=1)[:, None]).sum(axis=1) > 1)
    rows = [(f, slack[f : f + 1], toward[:, f : f + 1], size, extent[f : f + 1])
            for f in range(len(slack))]
    whole = zonotope._exit([(0, slack, toward, size, extent)], facets=True)
    for lam, facet in (whole, zonotope._exit(rows, facets=True)):
        assert np.array_equal(lam, whole[0]) and np.array_equal(facet, lowest)


def test_zero_direction_rejected():
    zono = zonotope.build(np.eye(2), -np.ones(2), np.ones(2), lps=1)
    with pytest.raises(lp.LpError, match="nonzero"):
        zono.scalings(np.zeros((1, 2)), np.zeros((1, 2)))


def _scan_cases():
    sys = catalog.octocopter_translational()
    cases = [(split(sys, 0), np.array([0.0, 0.0, -1.0])), (split(sys, 2), np.array([0.3, -1.0, 0.2]))]
    rng = np.random.default_rng(11)
    for _ in range(3):
        b = rng.standard_normal((3, 6)) * 10.0 ** rng.uniform(-6.0, -2.0, size=(3, 6))
        cases.append((split(IntegratorSystem("gen", 1, b, -np.ones(6), np.ones(6)), 5),
                      rng.standard_normal(3)))
    return cases


@pytest.mark.parametrize("case", range(5))
def test_scan_worst_argument_attains_worst_value(case):
    sp, d = _scan_cases()[case]
    grid = oracle.grid_worst_w(sp, d, 21)
    t = reach.malfunction_time_for_w(sp, grid.worst_argument, d)
    assert t == pytest.approx(grid.worst_value, rel=1e-12)
    if not quantitative_resilience(sp).resilient:
        return
    scan = oracle.direction_scan(sp, 200, seed=3)
    assert reach.time_ratio(sp, scan.worst_argument) == pytest.approx(scan.worst_value, rel=1e-12)
