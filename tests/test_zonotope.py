"""The zonotope gauge against the simplex LP and HiGHS, and the LP fallback rule."""

import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from resil import catalog, lp, oracle, reach, resilience, zonotope
from resil.model import IntegratorSystem, split
from resil.resilience import quantitative_resilience

#: Relative agreement required between the gauge and either LP.
REL = 1e-9

#: Relative agreement required between an LP started at the gauge's facet and a
#: cold one.  On the mixed-scale draws neither is exact to 1e-12: against exact
#: rational arithmetic at the same basis, at seed 3090 the cold simplex errs by
#: 2.2e-12 and the started one by 1.9e-12, 4.0e-12 apart, and at seed 627 of
#: test_started_nominal_time_matches_cold_and_highs the two T_N* are 7.2e-12 apart.
#: A lam near 0 is compared to HINT_REL of the image's extent instead (seed 6090:
#: lam = 6.8e-11, the two 2.4e-11 of it apart).
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


def _redundant_split(seed: int):
    """n = 1..4 axis columns a_i e_i (a_i in 1e-3..1) and 2 random kept columns, boxes
    [-1, 1], and p = 1..8 lost columns loading row i by 0.25..1.5 a_i at their far bounds.

    The kept image holds the box with half-widths a_i, so at a load up to 1 every -C w lies
    inside it (each vertex time is finite); above, often not.
    """
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    a = 10.0 ** rng.uniform(-3.0, 0.0, n)
    kept = np.hstack([np.diag(a), rng.standard_normal((n, 2)) * a[:, None] * 0.3])
    w_lo, w_hi = -rng.uniform(0.5, 1.0, p), rng.uniform(0.5, 1.0, p)
    raw = rng.standard_normal((n, p))
    load = rng.uniform(0.25, 1.5) * a / (np.abs(raw) @ np.maximum(-w_lo, w_hi))
    b = np.hstack([kept, raw * load[:, None]])
    lo, hi = np.concatenate([-np.ones(n + 2), w_lo]), np.concatenate([np.ones(n + 2), w_hi])
    sys = IntegratorSystem("redundant", 1, b, lo, hi)
    return split(sys, tuple(range(n + 2, n + 2 + p))), rng


def _same_kind(a: float, b: float) -> bool:
    """a and b both nan (infeasible), both +inf (unbounded), or both finite and on one side
    of lp.UNIT_THRESHOLD: reach._order1_times gives them the same kind of time."""
    kinds = [(math.isnan(lam), math.isinf(lam), lam > lp.UNIT_THRESHOLD) for lam in (a, b)]
    return kinds[0] == kinds[1]


def _boundary_point(sp, rng) -> np.ndarray:
    """A support point of the kept image along a random normal: on its boundary."""
    a = rng.standard_normal(sp.base.n)
    return sp.b @ np.where(a @ sp.b >= 0.0, sp.u_max, sp.u_min)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_scalings_match_lp_and_highs(seed, highs):
    sp, rng = _random_split(seed)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max)
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
            ref = lp.max_scaled_direction(sp.b, sp.u_min, sp.u_max, d, rhs_shift=s).lam_hat
            got = lam_hat[i, j]
            assert _same_kind(got, ref), (i, j, got, ref)
            ref_highs = highs.scaling(sp.b, sp.u_min, sp.u_max, d / norm, s)
            if math.isnan(ref):
                assert ref_highs is None
            elif lp.UNIT_THRESHOLD < ref < math.inf:
                assert got == pytest.approx(ref, rel=REL)
                assert got == pytest.approx(ref_highs, rel=REL)
            else:
                assert ref_highs <= 2e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_batched_reach_matches_scalar(seed, lp_malfunction_time):
    sp, rng = _random_split(seed)
    directions = rng.standard_normal((5, sp.base.n))
    ratios = reach.time_ratios(sp, directions)
    for d, t in zip(directions, ratios):
        ref = reach.time_ratio(sp, d)
        assert t == pytest.approx(ref, rel=REL) if math.isfinite(ref) else t == ref
    ws = sp.w_min + rng.random((6, sp.p)) * (sp.w_max - sp.w_min)
    times = reach.malfunction_times(sp, ws, directions[0])
    for w, t in zip(ws, times):
        ref = lp_malfunction_time(sp, w, directions[0])
        assert t == pytest.approx(ref, rel=REL) if math.isfinite(ref) else t == ref


def _assert_hint_matches_cold(m, lo, hi, d, s, basis) -> None:
    """A hinted max_scaled_direction has the cold lam_hat's kind; one above
    lp.UNIT_THRESHOLD also the cold value and an optimizer in the box with M x = lam d +
    s, each row to FEAS_TOL of its magnitude: the same LP's optimum."""
    cold = lp.max_scaled_direction(m, lo, hi, d, rhs_shift=s)
    hinted = lp.max_scaled_direction(m, lo, hi, d, rhs_shift=s, basis=basis)
    assert _same_kind(hinted.lam_hat, cold.lam_hat)
    if not lp.UNIT_THRESHOLD < cold.lam_hat < math.inf:
        return
    width = np.maximum(np.abs(lo), np.abs(hi))
    extent = np.abs(m) @ width + np.abs(s)
    assert hinted.lam_hat == pytest.approx(
        cold.lam_hat, rel=HINT_REL, abs=HINT_REL * extent.max()
    )
    x, lam_d = hinted.argument, hinted.lam_hat / np.linalg.norm(d) * d
    assert np.all(x >= lo - lp.FEAS_TOL * width) and np.all(x <= hi + lp.FEAS_TOL * width)
    assert np.all(np.abs(m @ x - lam_d - s) <= lp.FEAS_TOL * (extent + np.abs(lam_d)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=3090)  # the two LPs differ by 4.0e-12 relative
@example(seed=11912)  # a shift outside the image: the start puts lam at -5.8e-10
def test_hinted_lp_matches_cold(seed):
    sp, rng = _random_split(seed)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max)
    if zono is None:
        assert np.linalg.matrix_rank(sp.b) < sp.base.n
        return
    directions = rng.standard_normal((4, sp.base.n)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
    shifts = -(reach.w_vertices(sp) @ sp.c.T)
    for d in directions:
        for s in shifts:
            _assert_hint_matches_cold(sp.b, sp.u_min, sp.u_max, d, s, zono.start(d, s)[1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=627)  # n = 6: the started and cold T_N* differ by 7.2e-12 relative
def test_started_nominal_time_matches_cold_and_highs(seed, highs):
    # T_N*'s LP started at B_bar's exit facet (identical, anti-parallel and zero columns
    # among B_bar's) is the cold LP's to HINT_REL, and the reported time, the gauge's, is
    # HiGHS's to REL; optimizer_u, solved at its first read, lies
    # in the box with B_bar u = lam d/|d|, each row to FEAS_TOL of its magnitude.  Seed 627 has the
    # largest gap over 3000 seeds, every start accepted: against exact rational arithmetic
    # at its basis the started LP errs by 5.9e-12, the cold one by 1.3e-12.
    rng = np.random.default_rng(seed)
    b, lo, hi = _random_system(rng)
    sys = IntegratorSystem("rand", 1, b, lo, hi)
    d = rng.standard_normal(sys.n) * 10.0 ** rng.uniform(-3.0, 3.0)
    accepted, real = [], lp._hinted_start

    def recording(*args):
        accepted.append(real(*args))
        return accepted[-1]

    if sys.image is None:
        assert np.linalg.matrix_rank(b) < sys.n
        return
    with pytest.MonkeyPatch.context() as mp:  # the system's image starts T_N*'s LP
        mp.setattr(lp, "_hinted_start", recording)
        started = reach.nominal_reach_time(sys, d)
        assert not accepted  # the time is the gauge's: no LP until optimizer_u is read
        u = started.optimizer_u
    assert len(accepted) == 1 and accepted[0] is not None
    cold = lp.max_scaled_direction(b, lo, hi, d).lam_hat
    facet = sys.image.start(d, np.zeros(sys.n))[1]
    hinted = lp.max_scaled_direction(b, lo, hi, d, basis=facet).lam_hat
    assert lp.UNIT_THRESHOLD < cold < math.inf
    assert hinted == pytest.approx(cold, rel=HINT_REL)
    assert started.time == pytest.approx(highs.reach_time(b, lo, hi, d), rel=REL)
    lam_d = hinted / np.linalg.norm(d) * d
    assert np.all(lo <= u) and np.all(u <= hi)
    extent = np.abs(b) @ np.maximum(np.abs(lo), np.abs(hi))
    assert np.all(np.abs(b @ u - lam_d) <= lp.FEAS_TOL * (extent + np.abs(lam_d)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_exit_facet_is_tight(seed):
    sp, rng = _random_split(seed)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max)
    if zono is None:
        return
    directions = rng.standard_normal((4, sp.base.n)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
    shifts = np.vstack([-(reach.w_vertices(sp) @ sp.c.T), _boundary_point(sp, rng)])
    lam_hat = zono.scalings(directions, shifts)
    units = directions / np.linalg.norm(directions, axis=1)[:, None]
    slabs = {tuple(subset): k for k, subset in enumerate(zono.subsets.tolist())}
    for (i, j), lam in np.ndenumerate(lam_hat):
        one, subset = zono.start(directions[i], shifts[j])
        assert (subset is None) == math.isinf(lam) == math.isinf(one), (i, j)
        if lp.UNIT_THRESHOLD < lam < math.inf:  # a lam of rounding size has no digits
            # to agree on: start's pass and the batch form the products in other orders
            assert one == pytest.approx(lam, rel=1e-12), (i, j)
        if 0.0 < lam < math.inf:
            # start's facet holds with equality at the exit point, on the side of its slab
            # (+a or -a) that the ray moves toward.
            k = slabs[tuple(subset.tolist())]
            along = zono.normals[k] @ ((lam * units[i] + shifts[j]) / zono.scale)
            ahead = zono.normals[k] @ (units[i] / zono.scale) > 0.0
            gap = along - zono.plus[k] if ahead else -along - zono.minus[k]
            assert abs(gap) <= lp.FEAS_TOL * zono.extent[k], (i, j, gap)


def _stacked_exit(blocks, facets: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The reference ray exit over 2K half-spaces [+a; -a] . y <= [h+; h-].

    blocks yields (first, slack, toward, size, extent) over (rays..., rows).  Each row
    the ray moves toward bounds lam by slack/toward; each it moves away from sets the
    floor (slack + tol)/toward; the rest must hold (slack >= -tol, as the bounding ones
    at lam = 0).  facet: the lowest row attaining lam, as one argmin over all rows.
    """
    least, floor, facet = np.inf, -np.inf, -1
    for first, slack, toward, size, extent in blocks:
        level, loose = zonotope.PARALLEL_RTOL * size, slack + lp.FEAS_TOL * extent
        fails = np.where(loose >= 0.0, -np.inf, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            limits = np.where(toward > level, slack / toward, np.inf)
            floors = np.where(toward < -level, loose / toward, fails)
        bound = limits.min(axis=-1)
        if facets:
            facet = np.where(bound < least, limits.argmin(axis=-1) + first, facet)
        least, floor = np.minimum(least, bound), np.maximum(floor, floors.max(axis=-1))
    lam = np.maximum(least, 0.0)
    return np.where(lam >= floor, lam, np.nan), facet


def _pm(x: np.ndarray) -> np.ndarray:
    """[x, -x] along the last axis: a slab product as the rows +a and -a see it."""
    return np.concatenate([x, -x], axis=-1)


def _stacked_scalings(image, directions, shifts) -> np.ndarray:
    """Zonotope.scalings by _stacked_exit, blocked as scalings blocks."""
    d, s = np.atleast_2d(directions), np.atleast_2d(shifts)
    norms = np.sqrt((d * d).sum(axis=1))
    support, extent = np.concatenate([image.plus, image.minus]), np.tile(image.extent, 2)
    lam = np.empty((len(d), len(s)))
    step = max(1, zonotope.BLOCK_ELEMENTS // len(image.plus))
    for i in range(0, len(d), step):
        scaled = d[i : i + step] / norms[i : i + step, None] / image.scale
        toward, size = scaled @ image.normals.T, np.sqrt((scaled * scaled).sum(axis=1))
        pairs = max(1, zonotope.BLOCK_ELEMENTS // toward.size)
        for j in range(0, len(s), pairs):
            shifted = _pm((s[j : j + pairs] / image.scale) @ image.normals.T)
            block = (0, (support - shifted)[None], _pm(toward)[:, None], size[:, None, None],
                     extent + np.abs(shifted))
            lam[i : i + step, j : j + pairs] = _stacked_exit([block])[0]
    return lam


def _stacked_start(image, d, shift) -> tuple[np.ndarray, np.ndarray | None]:
    """Zonotope.start by _stacked_exit's lam and row % K, from the products start forms."""
    scaled = d / np.sqrt(d @ d) / image.scale
    shifted = _pm(image.normals @ (shift / image.scale))
    block = (0, np.concatenate([image.plus, image.minus]) - shifted, _pm(image.normals @ scaled),
             np.sqrt(scaled @ scaled), np.tile(image.extent, 2) + np.abs(shifted))
    lam, row = _stacked_exit([block], facets=True)
    return lam, (None if row < 0 else image.subsets[row % len(image.plus)])


def _stacked_lambdas_without(image, columns) -> np.ndarray:
    """Zonotope.lambdas_without(columns) by _stacked_exit, over the same slab blocks."""
    cols, norms = np.asarray(columns), np.linalg.norm(image.generators, axis=0)
    m = image.generators.shape[1]
    centers, rows = zonotope._others(image.centers.T), max(1, zonotope.BLOCK_ELEMENTS // (2 * m))

    def blocks():
        for f in range(0, len(image.plus), rows):
            normals = image.normals[f : f + rows].T
            toward = image.generators.T @ normals
            offset, width = (centers @ normals)[cols], zonotope._others(np.abs(toward))[cols]
            holds = np.zeros(toward.shape, dtype=bool)
            holds[image.subsets[f : f + rows].T, np.arange(toward.shape[1])] = True
            slack = np.where(np.tile(holds[cols], 2), np.inf, _pm(offset) + np.tile(width, 2))
            toward = _pm(toward[cols])
            yield f, slack, np.stack([toward, -toward]), norms[cols, None], np.tile(
                np.abs(offset) + width, 2)

    return _stacked_exit(blocks())[0].T


def _assert_slabs_match_stacked(image, rng) -> None:
    """scalings' and lambdas_without's lam, and start's lam and facet on each ray, equal
    the stacked reference's bit for bit (nan included): both form the same products, so
    only the exit rule could differ."""
    n = image.normals.shape[1]
    directions = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((4, n))]) * image.scale
    support = [image.generators @ np.where(a @ image.generators >= 0.0, 1.0, -1.0)
               for a in rng.standard_normal((3, n))]  # support points: on the boundary
    centre = image.centers.sum(axis=1)
    shifts = np.vstack([np.zeros(n), centre, centre + support[0], centre + 0.5 * support[1],
                        centre + 1.5 * support[2]]) * image.scale
    assert np.array_equal(image.scalings(directions, shifts),
                          _stacked_scalings(image, directions, shifts), equal_nan=True)
    for d, s in itertools.product(directions, shifts):
        (lam, got), (lam_want, want) = image.start(d, s), _stacked_start(image, d, s)
        assert np.array_equal(lam, lam_want, equal_nan=True), (d, s)
        assert (got is None and want is None) or np.array_equal(got, want), (d, s)
    nonzero = np.flatnonzero(np.any(image.generators != 0.0, axis=0))
    got = image.lambdas_without(nonzero)
    assert np.array_equal(got, _stacked_lambdas_without(image, nonzero), equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), small=st.booleans())
def test_slabs_match_stacked_reference(seed, small):
    rng = np.random.default_rng(seed)
    b, lo, hi = _random_system(rng)
    if rng.random() < 0.3:
        lo[:] = 0.0  # 0 a vertex of the box: on the image's boundary
    image = zonotope.build(b, lo, hi)
    if image is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        if small:  # one pair per scalings block, one slab per lambdas_without block
            mp.setattr(zonotope, "BLOCK_ELEMENTS", 1)
        _assert_slabs_match_stacked(image, rng)


@pytest.mark.parametrize("name", ["spacecraft-printed", "spacecraft-appendix", "octocopter-rot",
                                  "octocopter-trans:0", "octocopter-trans:30"])
def test_slabs_match_stacked_reference_on_catalog(name):
    sys = catalog.resolve(name)
    _assert_slabs_match_stacked(zonotope.build(sys.b_bar, sys.u_min, sys.u_max),
                                np.random.default_rng(7))
    for j in range(sys.n_inputs):  # each single loss's kept image
        sp = split(sys, j)
        image = zonotope.build(sp.b, sp.u_min, sp.u_max)
        if image is not None:
            _assert_slabs_match_stacked(image, np.random.default_rng(j))


def _det_cofactors(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reference normals: per (n-1)-subset of the n x m unit generators, in
    itertools.combinations order, a_i = (-1)^i det(rows other than i) by np.linalg.det
    over the (subsets, n, n-1, n-1) stack of minors."""
    n, m = unit.shape
    subsets = np.array(list(itertools.combinations(range(m), n - 1)), dtype=int)
    stacks = unit[:, subsets].transpose(1, 0, 2)
    minors = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    return subsets, np.linalg.det(stacks[:, minors, :]) * (-1.0) ** np.arange(n)


def _wedge_cofactors(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same from zonotope._wedges' levels, grown as zonotope._image grows them."""
    n, m = unit.shape
    subsets, levels = zonotope._wedges(m, n)
    cofactors = np.ones((1, 1))
    for table, parent, column in levels:
        cofactors = (unit.T @ (cofactors @ table).reshape(len(cofactors), n, -1))[parent, column]
    return subsets, cofactors


def _assert_wedges_match_det(b, lo, hi) -> None:
    """build's subsets and kept facets are the reference's, its normals the wedge
    cofactors normalized, and those within 1e-15 of the reference's (absolute: the
    unit generators' cofactors are at most 1 in size, and both forms round to about
    1e-13 of a small facet's volume)."""
    image = zonotope.build(b, lo, hi)
    if image is None:
        assert np.linalg.matrix_rank(b) < b.shape[0]
        return
    nonzero = np.flatnonzero(np.any(b != 0.0, axis=0))
    unit = image.generators[:, nonzero] / np.linalg.norm(image.generators[:, nonzero], axis=0)
    subsets, want = _det_cofactors(unit)
    got_subsets, got = _wedge_cofactors(unit)
    assert np.array_equal(got_subsets, subsets)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    volume = np.linalg.norm(got, axis=1)
    kept = volume > zonotope.RANK_RTOL
    assert np.array_equal(kept, np.linalg.norm(want, axis=1) > zonotope.RANK_RTOL)
    assert np.array_equal(image.subsets, nonzero[subsets[kept]])
    assert np.array_equal(image.normals, got[kept] / volume[kept, None])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=11)  # n = 1: the one normal [1]
@example(seed=21)  # n = 2: no Laplace step past the first column
def test_wedge_normals_match_det(seed):
    _assert_wedges_match_det(*_random_system(np.random.default_rng(seed)))


@pytest.mark.parametrize("name", ["spacecraft-printed", "spacecraft-appendix", "octocopter-rot",
                                  "octocopter-trans:0", "octocopter-trans:30",
                                  "toy1", "toy2", "toy3"])
def test_wedge_normals_match_det_on_catalog(name, request):
    sys = request.getfixturevalue(name) if name.startswith("toy") else catalog.resolve(name)
    _assert_wedges_match_det(sys.b_bar, sys.u_min, sys.u_max)
    for j in range(sys.n_inputs):  # each single loss's kept image
        sp = split(sys, j)
        _assert_wedges_match_det(sp.b, sp.u_min, sp.u_max)


def _lp_only(monkeypatch):
    """Make zonotope.build decline every matrix (a cap of 0 candidates)."""
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)


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
@example(seed=217)  # column 8: every u_min = 0 and a twin column (lam- was 21.5, not 0.42512)
@example(seed=1588)  # column 6: the same, where the simplex raised "singular basis"
@example(seed=2268)  # column 8: lam- 7.8e-16 off exact (1.7e-11 with rank-one updates)
@example(seed=4333)  # columns 3, 7: lam- 6.3e-12 and 3.0e-13 off (4.6e-11 and 7.1e-9)
@example(seed=16197)  # the gauge and the simplex differ by 8.9e-12 of the width (was 2.1e-11)
@example(seed=78979)  # unpolished, HiGHS's lam+/- of column 6 are 1.0e-9 relative off
@example(seed=5571)  # column 8: a ratio test against the step's largest rate at 1e-10 raised
@example(seed=79004)  # column 1: lam- 6.0e-14 of the width off the gauge (was 2.2e-10 off)
def test_sweep_matches_lp_path_and_highs(seed, highs, reports_agree, fresh):
    _assert_sweep_matches_lp_path_and_highs(seed, highs, reports_agree, fresh)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="simplex fault: a small cold lam carries its LP point's rounding "
                          "(ROADMAP item 4)")
@pytest.mark.parametrize("seed", [15942, 45636])
def test_sweep_small_cold_lambda_draws(seed, highs, reports_agree, fresh):
    # test_sweep_matches_lp_path_and_highs's body at the two draws of 0..99 999 it fails:
    # the LP path's lam+ of seed 15942 column 3 is 1.1e-9 relative off exact under
    # OpenBLAS's SkylakeX, Haswell and Prescott kernels (8.7e-11 under Sandybridge, where
    # that draw passes).
    _assert_sweep_matches_lp_path_and_highs(seed, highs, reports_agree, fresh)


def _assert_sweep_matches_lp_path_and_highs(seed, highs, reports_agree, fresh) -> None:
    """sweep's reports of a random system against HiGHS's lam+/- and the LP path's reports."""
    sys = _random_sweep_system(seed)
    assert sys.image is not None or np.linalg.matrix_rank(sys.b_bar) < sys.n
    reports = resilience.sweep(sys, range(sys.n_inputs))
    assert reports[0].controllable == highs.controllable(sys)
    with pytest.MonkeyPatch.context() as mp:
        _lp_only(mp)
        for got in reports:
            sp = split(fresh(sys), got.lost_column)
            checked = got.controllable and np.any(sp.c)
            if checked:
                ref = _highs_lambdas(highs, sp)
                assert (got.lambda_plus, got.lambda_minus) == pytest.approx(ref, rel=REL)
            reports_agree(got, quantitative_resilience(sp), loose=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
@example(seed=3)  # every u_min = 0 (0 a vertex of the box), n = 5: not controllable
@example(seed=106)  # every u_min = 0, n = 4: the columns span R^4 positively, controllable
def test_controllable_from_image_skips_the_svd(seed, highs, axis_batch_controllable):
    # Where B_bar's image exists, its build has passed a rank test on the row-scaled
    # generators, so _controllable runs no SVD of raw B_bar.  Preceded by that SVD's
    # rank test, the verdict is the same, and so are the axis batch's it replaced (the
    # gauge along +/-e_j), the LP path's (check_controllability) and HiGHS's.
    sys = _random_sweep_system(seed)
    image = zonotope.build(sys.b_bar, sys.u_min, sys.u_max)
    verdict = resilience._controllable(sys, image)
    sv = np.linalg.svd(sys.b_bar, compute_uv=False)
    with_svd = bool(sv[0] > 0.0 and np.sum(sv > zonotope.RANK_RTOL * sv[0]) == sys.n) and verdict
    batch = image is not None and axis_batch_controllable(sys, image)
    assert verdict == with_svd == batch == resilience.check_controllability(sys)
    assert verdict == highs.controllable(sys)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), log_k=st.floats(-2.0, 2.0))
@example(seed=4211, log_k=-1.6340175797478174)  # rank-one inverse updates: a wrong lam
@example(seed=94491, log_k=1.588855203878302)  # rank-one inverse updates: a singular basis
# A ratio test that judges rates only against the step's largest (at 1e-9) pivots on
# cancellation noise here and returns a wrong lam:
@example(seed=79245, log_k=-0.8915354924666938)
@example(seed=41016, log_k=-1.5332190010922813)
def test_lp_path_lambdas_under_input_rescaling(seed, log_k):
    # ROADMAP item 16's input rescaling, on the LP path: column j times k with its box
    # over k leaves every kept image unchanged, so losing column j gives lam+/- over k
    # and losing any other column the same lam+/- as before.
    sys = _random_sweep_system(seed)
    k = 10.0**log_k
    columns = [j for j in range(sys.n_inputs) if np.any(sys.b_bar[:, j])]
    pairs = {i: resilience.lambda_pair(split(sys, i)) for i in columns}
    for j in columns:
        b, lo, hi = sys.b_bar.copy(), sys.u_min.copy(), sys.u_max.copy()
        b[:, j] *= k
        lo[j], hi[j] = lo[j] / k, hi[j] / k
        scaled = IntegratorSystem("scaled", sys.order, b, lo, hi)
        for i in columns:
            got = np.multiply(resilience.lambda_pair(split(scaled, i)), k if i == j else 1.0)
            assert tuple(got) == pytest.approx(pairs[i], rel=1e-9), (j, i)


def _flat_column_system(seed: int) -> tuple[IntegratorSystem, int]:
    """A _random_system and a column j whose other columns lie in a hyperplane C_j leaves.

    The hyperplane's normal is C_j/|C_j| plus half a random unit vector, so C_j makes
    an angle of at most 30 degrees with it.  Each other column's entries are moved
    by 1e-16..1e-6 relative before it is projected, so twins become near-twins.  In
    about 30 % of draws every u_min but C_j's is 0 (with C_j's too, the image would
    lie on one side of the hyperplane, and the system would not be controllable).
    """
    rng = np.random.default_rng(seed)
    b, lo, hi = _random_system(rng)
    n, cols = b.shape
    j = int(rng.choice(np.flatnonzero(np.any(b != 0.0, axis=0))))
    u = rng.standard_normal(n)
    a = b[:, j] / np.linalg.norm(b[:, j]) + 0.5 * u / np.linalg.norm(u)
    a /= np.linalg.norm(a)
    moved = b * (1.0 + 10.0 ** rng.uniform(-16.0, -6.0) * rng.standard_normal(b.shape))
    flat = moved - np.outer(a, a @ moved)
    flat[:, j] = b[:, j]
    if rng.random() < 0.3:
        lo[np.arange(cols) != j] = 0.0
    return IntegratorSystem("flat", int(rng.integers(1, 4)), flat, lo, hi), j


@settings(max_examples=40, deadline=None,  # lp_solves is reset for each draw
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_sweep_flat_column_is_zero_without_lp(seed, highs, lp_solves):
    # B_bar has rank n and the other columns rank n - 1, so C_j lies outside
    # their span and lam+/- = 0: the leave-one-out pass gives it after the cut.
    # HiGHS is the reference: the simplex hits ROADMAP item 4's faults on these
    # twins once every kept u_min is 0.
    sys, j = _flat_column_system(seed)
    lp_solves[0] = 0
    report = resilience.sweep(sys, range(sys.n_inputs))[j]
    assert lp_solves[0] == 0
    if report.controllable:
        pair = (report.lambda_plus, report.lambda_minus)
        assert pair == (0.0, 0.0)
        assert pair == _highs_lambdas(highs, split(sys, j))


def test_simplex_lambda_matches_highs(highs):
    # Every u_min = 0 and a duplicated column; seed 217 of the sweep draws, where the
    # gauge and HiGHS give lam- = 0.42512.  A simplex that updated its basis inverse
    # by rank-one steps gave 21.5.
    sp = split(_random_sweep_system(217), 8)
    assert resilience.lambda_pair(sp) == pytest.approx(_highs_lambdas(highs, sp), rel=REL)


def test_simplex_singular_basis(highs):
    # Every u_min = 0 and a duplicated column; seed 1588 of the sweep draws, where the
    # rank-one updates ended on a singular basis and lp.solve raised.
    sp = split(_random_sweep_system(1588), 6)
    assert resilience.lambda_pair(sp) == pytest.approx(_highs_lambdas(highs, sp), rel=REL)


#: (seed, lost column) of the sweep draws 0..3999 where a simplex that kept its basis
#: inverse by rank-one updates (refactored only after a pivot below 1e-7) got
#: lambda_pair more than 1e-6 off the gauge (15 columns) or raised (24).
DEGENERATE_LAMBDA_COLUMNS = [
    (106, 0), (106, 1), (106, 8), (217, 8), (271, 9), (444, 9), (477, 0), (568, 0),
    (736, 1), (760, 6), (839, 0), (944, 0), (944, 5), (1032, 0), (1032, 6), (1176, 6),
    (1300, 0), (1337, 1), (1479, 10), (1588, 6), (1647, 1), (1664, 6), (2103, 7),
    (2202, 0), (2399, 7), (2435, 0), (2557, 0), (2822, 0), (3157, 1), (3208, 0),
    (3221, 0), (3346, 7), (3665, 0), (3669, 8), (3669, 9), (3778, 1), (3862, 7),
    (3886, 0), (3886, 8),
]


@pytest.mark.parametrize("seed, column", DEGENERATE_LAMBDA_COLUMNS)
def test_simplex_lambda_pair_matches_highs_on_degenerate_columns(seed, column, highs):
    sp = split(_random_sweep_system(seed), column)
    assert resilience.lambda_pair(sp) == pytest.approx(_highs_lambdas(highs, sp), rel=REL)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="simplex fault: lam_hat 0 on an infeasible lam LP")
def test_simplex_zero_status_matches_highs(highs):
    # test_scalings_match_lp_and_highs's seed 30089: direction 1 and the W_c
    # vertex shift -C w_max lie 3.5 % of a slab's extent outside B's image.
    # The simplex returns a point whose residual, 1.3e-4 of |s| = 2.5e-6,
    # passes its absolute feasibility test.
    sp, rng = _random_split(30089)
    d = (rng.standard_normal((4, sp.base.n)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1)))[1]
    s = -(reach.w_vertices(sp) @ sp.c.T)[1]
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max)
    assert math.isnan(zono.scalings(d[None], s[None])[0, 0])
    assert highs.scaling(sp.b, sp.u_min, sp.u_max, d / np.linalg.norm(d), s) is None
    ref = lp.max_scaled_direction(sp.b, sp.u_min, sp.u_max, d, rhs_shift=s)
    assert math.isnan(ref.lam_hat)


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
    image = zonotope.build(b, lo, hi)
    if image is None:
        assert np.linalg.matrix_rank(b) < b.shape[0]
        return
    nonzero = [j for j in range(b.shape[1]) if np.any(b[:, j])]
    for j, lam in zip(nonzero, image.lambdas_without(nonzero)):
        others = [k for k in range(b.shape[1]) if k != j]
        ref = zonotope.build(b[:, others], lo[others], hi[others])
        lam_hat = lam * ((hi[j] - lo[j]) / 2.0) * np.linalg.norm(b[:, j])
        if ref is None:  # the other columns have rank n - 1, and C_j leaves their span
            cut = np.where(lam_hat <= lp.UNIT_THRESHOLD, 0.0, lam_hat)
            assert np.all((cut == 0.0) | np.isnan(cut)), (j, lam_hat)
        else:
            # Two row scalings of one image: the normals of nearly degenerate
            # generator subsets differ by up to about 1e-11 (8.1e-12 at worst
            # over 3000 draws).  A lam that is 0 up to rounding (0 on the
            # boundary) is compared to the kept generators' width along C
            # instead (5.4e-13 of it at worst).
            unit = b[:, j] / np.linalg.norm(b[:, j])
            width = np.abs(unit @ b[:, others]) @ (hi - lo)[others] / 2.0
            want = ref.scalings(np.vstack([unit, -unit]), np.zeros((1, b.shape[0])))[:, 0]
            np.testing.assert_allclose(lam_hat, want, rtol=1e-10, atol=1e-10 * width)
    with pytest.raises(lp.LpError, match="zero column"):
        image.lambdas_without([b.shape[1] - 3])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_screened_tm_matches_vertex_enumeration(seed, fresh):
    sp, rng = _random_split(seed)
    d = rng.standard_normal(sp.base.n)
    screened = reach.malfunctioning_reach_time(sp, d)
    with pytest.MonkeyPatch.context() as mp:
        _lp_only(mp)
        enumerated = reach.malfunctioning_reach_time(fresh(sp), d)
    if math.isinf(enumerated.time):
        assert math.isinf(screened.time)
    else:
        assert screened.time == pytest.approx(enumerated.time, rel=REL)


def _eroded_sides(zono, sp) -> np.ndarray:
    """The +a then -a sides of B's image less -C w, each minimized over the W_c vertices:
    the slabs of the Minkowski difference by enumeration."""
    shifted = (-(reach.w_vertices(sp) @ sp.c.T) / zono.scale) @ zono.normals.T
    return np.concatenate([(zono.plus - shifted).min(axis=0), (zono.minus + shifted).min(axis=0)])


def _assert_row_is_starts(zono, sp, d, w, row) -> None:
    """worst_vertex's row is the facet Zonotope.start names for the ray at -C w, or, on an
    exact tie (twin or anti-parallel columns repeat a facet), one where T_M(w, d)'s LP
    started afresh has start's value to HINT_REL (4.2e-15 at most over 3000 seeds of
    each generator)."""
    shift = -(w @ sp.c.T)
    start = zono.start(d, shift)[1]
    if np.array_equal(row, start):
        return
    at_row, at_start = (lp.max_scaled_direction(sp.b, sp.u_min, sp.u_max, d, rhs_shift=shift,
                                                basis=facet) for facet in (row, start))
    assert at_row.lam_hat == pytest.approx(at_start.lam_hat, rel=HINT_REL)


def _started_vertex_time(zono, sp, w, d) -> float:
    """T_M(w, d) at order 1 from the LP started where its ray leaves B's image, as
    optimizer_u's LP starts on the screen path."""
    shift = -(w @ sp.c.T)
    return reach._order1_time(lp.max_scaled_direction(
        sp.b, sp.u_min, sp.u_max, d, rhs_shift=shift, basis=zono.start(d, shift)[1]), d)[0]


def _screened_vertex(zono, sp, d) -> tuple[int, np.ndarray]:
    """The index the T_M* screen picks among the W_c vertices, and its times."""
    screened = reach._times(sp.b, sp.u_min, sp.u_max, d, -(reach.w_vertices(sp) @ sp.c.T), zono)[0]
    return int(np.argmax(screened >= screened.max() * (1.0 - reach.VERTEX_TIE_RTOL))), screened


@settings(max_examples=40, deadline=None,  # gauge_calls is reset for each draw
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=100_000), redundant=st.booleans())
@example(seed=819, redundant=False)  # twin rounding ties, test_worst_vertex_rounding_ties
@example(seed=1235, redundant=False)
def test_worst_vertex_matches_enumeration(seed, redundant, highs, gauge_calls):
    sp, rng = (_redundant_split if redundant else _random_split)(seed)
    zono = sp.image  # T_M* below gets this image
    if zono is None:
        return
    d = rng.standard_normal(sp.base.n)
    vertices = reach.w_vertices(sp)
    found = zono.worst_vertex(d, sp.c, sp.w_min, sp.w_max)
    if _eroded_sides(zono, sp).min() <= 0.0:  # some -C w outside the image or on it
        assert found is None
        gauge_calls[0][0] = 0
        reach.malfunctioning_reach_time(sp, d)
        assert gauge_calls[0][0] == 1  # the screen ran
    if found is None:
        return
    lam_hat, w, row = found
    _assert_row_is_starts(zono, sp, d, w, row)
    # T_M* is the eroded slabs' lam_hat, and the largest of the vertex LPs started as
    # optimizer_u's is, which HINT_REL would separate from a cold one: equal where the
    # vertex is, tied within 6.5e-14 (seed 819) where not.
    times = [_started_vertex_time(zono, sp, v, d) for v in vertices]
    got = reach.malfunctioning_reach_time(sp, d)
    assert np.array_equal(got.optimizer_w, w)
    assert got.time == float(reach._order1_times(lam_hat, np.sqrt(d @ d)))
    assert got.time == pytest.approx(max(times), rel=1e-12)
    ref = max(highs.reach_time(sp.b, sp.u_min, sp.u_max, d, shift=-(sp.c @ v))
              for v in vertices)
    assert got.time == pytest.approx(ref, rel=REL)
    old, screened = _screened_vertex(zono, sp, d)
    at = int(np.flatnonzero(np.all(vertices == w, axis=1))[0])
    assert at == old or screened[at] >= screened.max() * (1.0 - reach.VERTEX_TIE_RTOL)


@pytest.mark.parametrize("seed", [819, 1235])
def test_worst_vertex_rounding_ties(seed, monkeypatch):
    # A lost column twin to one of the exit facet's own columns: its t_j rounds to 0 or to
    # about 1e-17, as the BLAS kernel goes.  Both bounds give the same screened time; the
    # screen takes w_min, and so does the tie rule.
    sp, rng = _random_split(seed)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max)
    d = rng.standard_normal(sp.base.n)
    old, screened = _screened_vertex(zono, sp, d)
    assert np.unique(screened).size < screened.size
    vertices = reach.w_vertices(sp)
    _, tied, row = zono.worst_vertex(d, sp.c, sp.w_min, sp.w_max)
    assert np.array_equal(tied, vertices[old])
    _assert_row_is_starts(zono, sp, d, tied, row)
    # Whatever the kernel's residue, move each C_j along the exit facet's normal a until
    # t_j = a.C_j is half the tie tolerance, on the side where its bare sign takes w_max:
    # the tie rule still takes w_min, and without it the sign takes w_max.
    k = np.flatnonzero((zono.subsets == row).all(axis=1))[0]
    a, toward = zono.normals[k], zono.normals[k] @ (d / zono.scale)
    near = zono.plus[k] if toward > 0.0 else zono.minus[k]
    want = -np.sign(toward) * 0.5 * zonotope.VERTEX_TIE_RTOL * near / (sp.w_max - sp.w_min)
    c = sp.c + np.outer(zono.scale * a, want - a @ (sp.c / zono.scale[:, None]))
    assert np.array_equal(zono.worst_vertex(d, c, sp.w_min, sp.w_max)[1], tied)
    monkeypatch.setattr(zonotope, "VERTEX_TIE_RTOL", 0.0)
    assert np.array_equal(zono.worst_vertex(d, c, sp.w_min, sp.w_max)[1], sp.w_max)


@pytest.mark.parametrize("name, resilient", [("octocopter-rot", range(8)),
                                             ("octocopter-trans:0", range(4))])
def test_worst_vertex_on_catalog_single_losses(name, resilient):
    # The eroded slabs answer on every resilient loss, with the screen's vertex; the
    # others take the screen.  On octocopter-rot, 8 of the 48 (column, axis ray) pairs
    # leave two eroded facets at once: the first alone would name w_max, where both
    # vertices tie and the screen takes w_min.
    sys = catalog.resolve(name)
    rays = np.random.default_rng(3).standard_normal((10, 3))
    directions = np.vstack([np.eye(3), -np.eye(3), rays])
    for j in range(sys.n_inputs):
        sp = split(sys, j)
        assert quantitative_resilience(sp).resilient == (j in resilient)
        zono = zonotope.build(sp.b, sp.u_min, sp.u_max)
        for d in directions:
            found = zono.worst_vertex(d, sp.c, sp.w_min, sp.w_max)
            if j in resilient:
                _, w, row = found
                assert np.array_equal(w, reach.w_vertices(sp)[_screened_vertex(zono, sp, d)[0]])
                _assert_row_is_starts(zono, sp, d, w, row)
            else:
                assert found is None


def test_screen_verdict_stands(toy1_split, monkeypatch, lp_solves):
    # The eroded slabs cannot tell, so the screen runs; it finds every vertex infeasible,
    # and that is T_M*: +inf at the first vertex, with no LP to second-guess it.
    d = np.array([1.0, 0.3])

    def infeasible(self, dirs, shifts):
        return np.full((1, len(np.atleast_2d(shifts))), np.nan)

    monkeypatch.setattr(zonotope.Zonotope, "worst_vertex", lambda *args: None)
    monkeypatch.setattr(zonotope.Zonotope, "scalings", infeasible)
    result = reach.malfunctioning_reach_time(toy1_split, d)
    assert math.isinf(result.time) and result.optimizer_u is None
    assert np.array_equal(result.optimizer_w, reach.w_vertices(toy1_split)[0])
    assert lp_solves[0] == 0


def test_eroded_slabs_time_stands(toy3_split, monkeypatch, lp_solves, gauge_calls, fresh):
    # The eroded slabs name a vertex and its lam_hat, which give T_M* with no screen and no
    # LP: an LP stubbed to find no lam at that vertex reaches only optimizer_u, read last.
    d = np.array([1.0, 0.3])
    with pytest.MonkeyPatch.context() as mp:
        _lp_only(mp)
        enumerated = reach.malfunctioning_reach_time(fresh(toy3_split), d)
    lp_solves[0] = 0
    lam_hat, w, _ = toy3_split.image.worst_vertex(d, toy3_split.c, toy3_split.w_min,
                                                  toy3_split.w_max)
    monkeypatch.setattr(lp, "max_scaled_direction",
                        lambda *args, **kwargs: lp.DirectionScaling(math.nan))
    result = reach.malfunctioning_reach_time(toy3_split, d)
    assert result.time == float(reach._order1_times(lam_hat, np.sqrt(d @ d)))
    assert result.time == pytest.approx(enumerated.time, rel=1e-15)
    assert np.array_equal(result.optimizer_w, w)
    assert np.array_equal(w, enumerated.optimizer_w)
    assert (lp_solves[0], gauge_calls[0][0]) == (0, 0)
    assert result.optimizer_u is None  # the stubbed LP's answer


def test_rank_deficient_takes_lp_path(lp_solves):
    # B has rank 1; C lies in its range, so every vertex time is finite.
    sys = IntegratorSystem("rd", 1, np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]]),
                           -np.ones(3), np.ones(3))
    sp = split(sys, 2)
    assert zonotope.build(sp.b, sp.u_min, sp.u_max) is None
    assert math.isfinite(reach.malfunctioning_reach_time(sp, np.array([1.0, 2.0])).time)
    assert lp_solves[0] == 2**sp.p
    reach.malfunction_times(sp, np.array([[-1.0], [0.0], [1.0]]), np.array([1.0, 2.0]))
    assert lp_solves[0] == 2**sp.p + 3


def test_over_absolute_cap_declines_before_any_work(monkeypatch):
    # 2 C(40, 5) = 1 316 016 candidates would take about 1 GB: build declines
    # before touching M.
    b = np.random.default_rng(0).standard_normal((6, 40))
    assert zonotope.candidate_count(6, 40) > zonotope.MAX_CANDIDATES

    def no_work(*args, **kwargs):
        raise AssertionError("build worked on a matrix over MAX_CANDIDATES")

    monkeypatch.setattr(zonotope, "_image", no_work)
    monkeypatch.setattr(zonotope, "itertools", SimpleNamespace(combinations=no_work))
    assert zonotope.build(b, -np.ones(40), np.ones(40)) is None


def test_scalings_chunked_like_unchunked(monkeypatch):
    sp = split(catalog.octocopter_translational(), 0)
    zono = zonotope.build(sp.b, sp.u_min, sp.u_max)
    rng = np.random.default_rng(4)
    directions = rng.standard_normal((7, 3))
    shifts = -(rng.uniform(sp.w_min, sp.w_max, size=(50, 1)) @ sp.c.T)
    whole = zono.scalings(directions, shifts)
    sc = catalog.spacecraft_printed()
    image = zonotope.build(sc.b_bar, sc.u_min, sc.u_max)
    lams = image.lambdas_without(range(14))
    monkeypatch.setattr(zonotope, "BLOCK_ELEMENTS", 1)
    # One pair, or one facet row, per block: equal up to the rounding of
    # differently shaped products.
    np.testing.assert_allclose(zono.scalings(directions, shifts), whole, rtol=1e-14)
    np.testing.assert_allclose(image.lambdas_without(range(14)), lams, rtol=1e-14)


def test_block_temporaries_stay_small():
    # NumPy reports its buffers to tracemalloc, so these peaks do not depend on
    # the machine: 3.9 MB and 1.0 MB with the stacked rows and 256 KiB blocks.
    sys = catalog.spacecraft_printed()
    image = zonotope.build(sys.b_bar, sys.u_min, sys.u_max)
    axes = np.vstack([sign * e for e in np.eye(sys.n) for sign in (1.0, -1.0)])
    for work, cap in ((lambda: image.lambdas_without(range(14)), 1 << 20),
                      (lambda: image.scalings(axes, np.zeros((1, sys.n))), 1 << 19)):
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap, (peak, cap)


def _stacked_limits(toward, plus, minus) -> np.ndarray:
    """Per ray, slack/toward over the rows of [+a; -a] it moves toward, +inf over the rest."""
    toward, slack = np.hstack([toward, -toward]), np.concatenate([plus, minus])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(toward > 0.0, slack / toward, np.inf)


def _assert_ties_go_to_the_lowest_row(toward, plus, minus) -> np.ndarray:
    """_exit names, for start's one ray per row of toward, the lowest tied row of [+a; -a]."""
    limits = _stacked_limits(toward, plus, minus)
    tied = limits == limits.min(axis=1)[:, None]
    assert np.any(tied.sum(axis=1) > 1)
    lowest = np.argmax(tied, axis=1)
    extent = np.zeros_like(plus)
    rows = [zonotope._exit([(0, plus, minus, t, 0.0, extent)], facet=True)[1] for t in toward]
    assert rows == lowest.tolist()
    return lowest


def test_start_ties_go_to_the_lowest_row():
    # Propellers 1-4 of the octocopter are one column repeated: their slabs
    # repeat, and every ray leaving through one ties with its copies.
    sys = catalog.octocopter_translational()
    zono = zonotope.build(sys.b_bar, sys.u_min, sys.u_max)
    rays = np.random.default_rng(5).standard_normal((40, 3))
    toward = np.array([zono.normals @ (d / np.sqrt(d @ d) / zono.scale) for d in rays])
    lowest = _assert_ties_go_to_the_lowest_row(toward, zono.plus, zono.minus)
    for d, row in zip(rays, lowest):
        assert np.array_equal(zono.start(d, np.zeros(3))[1], zono.subsets[row % len(zono.plus)])
    # Ray 0 leaves through slab 0's -a side (row 3) and slab 2's +a side (row 2)
    # at once: the +a row is the lower.  Ray 1 ties between two -a sides.
    toward = np.array([[-1.0, 0.5, 2.0], [-1.0, 0.5, -2.0]])
    plus, minus = np.array([1.0, 1.0, 2.0]), np.array([1.0, 3.0, 2.0])
    assert _assert_ties_go_to_the_lowest_row(toward, plus, minus).tolist() == [2, 3]


def test_zero_direction_rejected():
    zono = zonotope.build(np.eye(2), -np.ones(2), np.ones(2))
    with pytest.raises(lp.LpError, match="nonzero"):
        zono.scalings(np.zeros((1, 2)), np.zeros((1, 2)))


#: 1/r_kq, the direction scan's theory value, against the reach times it replaced:
#: max t_k(+/-C/|C|) by reach.time_ratio, four LPs or gauge-started LPs per loss.
THEORY_RTOL = 1e-10


def _assert_theory_is_the_worst_ratio(sys) -> int:
    """1/r_kq == max t_k(+/-C/|C|) on each resilient nonzero single loss of sys at orders 1..3,
    each order a fresh system (so its images are built, or declined under a lowered
    zonotope.MAX_CANDIDATES, afresh); returns the number of (loss, order) cases."""
    cases = 0
    for k in (1, 2, 3):
        sys_k = dataclasses.replace(sys, order=k)
        for j in range(sys_k.n_inputs):
            sp = split(sys_k, j)
            c, rep = sp.c[:, 0], quantitative_resilience(sp)
            if not (np.any(c) and rep.resilient):
                continue
            c = c / np.linalg.norm(c)
            worst = max(reach.time_ratio(sp, c), reach.time_ratio(sp, -c))
            assert 1.0 / rep.r_kq == pytest.approx(worst, rel=THEORY_RTOL), (k, j)
            cases += 1
    return cases


@pytest.mark.parametrize("declined", [False, True], ids=["built", "declined"])
@pytest.mark.parametrize("name", ["spacecraft-printed", "spacecraft-appendix", "octocopter-rot",
                                  "octocopter-trans:0"])
def test_theory_value_is_the_worst_ratio_on_catalog(name, declined, monkeypatch):
    if declined:
        _lp_only(monkeypatch)
    assert _assert_theory_is_the_worst_ratio(catalog.resolve(name)) > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), declined=st.booleans())
def test_theory_value_is_the_worst_ratio(seed, declined):
    with pytest.MonkeyPatch.context() as mp:
        if declined:
            _lp_only(mp)
        _assert_theory_is_the_worst_ratio(_random_sweep_system(seed))


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
def test_scan_worst_argument_attains_worst_value(case, lp_malfunction_time):
    sp, d = _scan_cases()[case]
    grid = oracle.grid_worst_w(sp, d, 21)
    t = lp_malfunction_time(sp, grid.worst_argument, d)
    assert t == pytest.approx(grid.worst_value, rel=1e-12)
    if not quantitative_resilience(sp).resilient:
        return
    scan = oracle.direction_scan(sp, 200, seed=3)
    assert reach.time_ratio(sp, scan.worst_argument) == pytest.approx(scan.worst_value, rel=1e-12)
