"""Reach times, time ratios, order-k relations, structural properties."""

import dataclasses
import decimal
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resil import catalog, lp, oracle, reach, sim, zonotope
from resil.errors import CapacityError, LpError, ModelError
from resil.model import IntegratorSystem, split


def test_nominal_toy2(toy2):
    res = reach.nominal_reach_time(toy2, [-1.0])
    assert res.time == pytest.approx(0.5, abs=1e-12)
    assert res.optimizer_u == pytest.approx([-1.0, 1.0])


def test_nominal_zero_direction(toy2):
    assert reach.nominal_reach_time(toy2, [0.0]).time == 0.0


def test_nominal_order2_toy2(toy2):
    res = reach.nominal_reach_time(dataclasses.replace(toy2, order=2), [-1.0])
    assert res.time == pytest.approx(1.0, abs=1e-12)  # sqrt(2! * 0.5)


def test_nominal_unreachable():
    sys = IntegratorSystem("up", 1, np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
    assert math.isinf(reach.nominal_reach_time(sys, [-1.0]).time)


def test_malfunction_time_for_w_toy2(toy2_split, lp_malfunction_time):
    # T_M(w, d) per w from the batch, and from the LP reference.
    assert reach.malfunction_times(toy2_split, [[0.0], [1.0]], [-1.0]) == pytest.approx([1.0, 0.5])
    assert lp_malfunction_time(toy2_split, [0.0], [-1.0]) == pytest.approx(1.0)
    assert lp_malfunction_time(toy2_split, [1.0], [-1.0]) == pytest.approx(0.5)


def test_malfunction_time_for_w_toy1(toy1_split, lp_malfunction_time):
    assert reach.malfunction_times(toy1_split, [-1.0], [1.0, 0.0]) == pytest.approx([1.0])
    assert lp_malfunction_time(toy1_split, [-1.0], [1.0, 0.0]) == pytest.approx(1.0)


def test_malfunction_w_outside_box(toy2_split):
    with pytest.raises(ModelError, match="outside"):
        reach.malfunction_times(toy2_split, [2.0], [-1.0])


def test_malfunction_d_zero_rejected(toy2_split):
    with pytest.raises(LpError, match="nonzero"):
        reach.malfunction_times(toy2_split, [0.5], [0.0])


def test_malfunctioning_reach_toy2(toy2_split):
    res = reach.malfunctioning_reach_time(toy2_split, [-1.0])
    assert res.time == pytest.approx(1.0, abs=1e-12)
    assert res.optimizer_w == pytest.approx([0.0])  # vertex w_min


def test_malfunctioning_reach_toy3_tie_break(toy3_split):
    res = reach.malfunctioning_reach_time(toy3_split, [1.0, 0.0])
    assert res.time == pytest.approx(2.0, abs=1e-12)
    # Ties with (-1, 1); the lowest lexicographic vertex index wins.
    assert res.optimizer_w == pytest.approx([-1.0, -1.0])


@pytest.fixture
def stubbed_vertex_lps(toy2_split, monkeypatch):
    """Declines B's image and answers each vertex LP of toy2_split (W_c = [0, 1]) with the lam
    the test sets per vertex, optimizer u = [w]; returns (lams by w, the vertices solved)."""
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    lams, solved = {}, []

    def stub(split, w, d, image=None, basis=None):
        assert image is None and basis is None  # the cold per-vertex LPs
        solved.append(float(w[0]))
        return lp.DirectionScaling(lams[float(w[0])], argument=np.array(w, dtype=float))

    monkeypatch.setattr(reach, "_vertex_lp", stub)
    return lams, solved


def test_vertex_lps_break_ties_as_the_screen(toy2_split, stubbed_vertex_lps):
    # w_max's time is 1 ulp above w_min's: tied within VERTEX_TIE_RTOL, so the lower
    # lexicographic vertex w_min wins, with its own time and optimizer, whichever
    # way the rounding falls.
    lams, solved = stubbed_vertex_lps
    lams[0.0], lams[1.0] = 0.5, np.nextafter(0.5, 0.0)
    assert 1.0 / lams[1.0] == np.nextafter(2.0, 3.0)
    res = reach.malfunctioning_reach_time(toy2_split, [-1.0])
    assert (res.time, res.optimizer_w.tolist(), res.optimizer_u.tolist()) == (2.0, [0.0], [0.0])
    lams[0.0], lams[1.0] = lams[1.0], lams[0.0]
    res = reach.malfunctioning_reach_time(toy2_split, [-1.0])
    assert (res.time, res.optimizer_w.tolist()) == (np.nextafter(2.0, 3.0), [0.0])
    # A time larger by more than the tolerance still wins.
    lams[1.0] = 0.5 * (1.0 - 1e-9)
    assert reach.malfunctioning_reach_time(toy2_split, [-1.0]).optimizer_w.tolist() == [1.0]
    assert solved == [0.0, 1.0] * 3


@pytest.mark.parametrize("lams, worst, solved", [
    ({0.0: 0.0, 1.0: 0.5}, 0.0, [0.0]),  # the first vertex is infinite: no further LP
    ({0.0: 0.5, 1.0: 0.0}, 1.0, [0.0, 1.0]),
])
def test_vertex_lps_first_infinite_wins(toy2_split, stubbed_vertex_lps, lams, worst, solved):
    stubbed_vertex_lps[0].update(lams)
    res = reach.malfunctioning_reach_time(toy2_split, [-1.0])
    assert (math.isinf(res.time), res.optimizer_w.tolist()) == (True, [worst])
    assert stubbed_vertex_lps[1] == solved


@pytest.mark.parametrize("lam_hat, time", [
    (math.nan, math.inf),  # infeasible
    (math.inf, 0.0),  # unbounded
    (0.0, math.inf),
    (lp.UNIT_THRESHOLD, math.inf),  # at the threshold: not positive
    (np.nextafter(lp.UNIT_THRESHOLD, math.inf), 5.0 / np.nextafter(lp.UNIT_THRESHOLD, math.inf)),
    (0.5, 10.0),  # 2 |d|
], ids=["nan", "inf", "zero", "threshold", "above-threshold", "half"])
def test_one_rule_at_its_edges(toy1, monkeypatch, lam_hat, time):
    # One lam_hat, from a stubbed LP or a stubbed image, gives one time on every path.
    d = np.array([3.0, 4.0])  # |d| = 5
    scaling = lp.DirectionScaling(lam_hat, np.zeros(2) if math.isfinite(lam_hat) else None)
    monkeypatch.setattr(lp, "max_scaled_direction", lambda *args, **kwargs: scaling)
    image = SimpleNamespace(scalings=lambda d, s: np.full((len(d), len(s)), lam_hat))
    res = reach.nominal_reach_time(toy1, d)
    batch = [reach._times(toy1.b_bar, toy1.u_min, toy1.u_max, d, np.zeros(2), zono)[0, 0]
             for zono in (None, image)]
    assert res.time == batch[0] == batch[1] == pytest.approx(time, rel=1e-15)
    assert (res.optimizer_u is not None) == (0.0 < time < math.inf)


def test_declined_batch_has_the_scalar_bits(monkeypatch, lp_malfunction_time):
    # Where the image is declined, a batch time is the scalar path's LP and rule, bit for
    # bit: |d| taken as a 1-D norm, which differs from a row norm in the last bit for
    # about 1 in 8 of these directions.
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    rng = np.random.default_rng(1)
    for _ in range(40):
        sys = IntegratorSystem("r", 1, rng.standard_normal((4, 7)), -np.ones(7), np.ones(7))
        sp, d, w = split(sys, 6), rng.standard_normal(4), rng.uniform(-1.0, 1.0, 1)
        assert reach.malfunction_times(sp, w[None], d)[0] == lp_malfunction_time(sp, w, d)
        assert reach.nominal_times(sys, d[None])[0] == reach.nominal_reach_time(sys, d).time


def test_malfunctioning_reach_zero_d(toy3_split):
    assert reach.malfunctioning_reach_time(toy3_split, [0.0, 0.0]).time == 0.0


@pytest.mark.parametrize("d", [[0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
def test_direction_length_checked_before_zero(toy3, toy3_split, d):
    # The batches and the oracle scans too: each entry point checks the length before
    # the gauge sees a row.
    w = toy3_split.w_min
    for call in (lambda: reach.nominal_reach_time(toy3, d),
                 lambda: reach.malfunctioning_reach_time(toy3_split, d),
                 lambda: reach.malfunction_times(toy3_split, [w], d),
                 lambda: reach.nominal_times(toy3, [d]),
                 lambda: reach.worst_times(toy3_split, [d]),
                 lambda: reach.time_ratios(toy3_split, [d]),
                 lambda: oracle.grid_worst_w(toy3_split, d, 5),
                 lambda: oracle.homogeneity_probe(toy3_split, d, [2.0])):
        with pytest.raises(LpError, match="direction must have length 2"):
            call()


#: The four batch entry points on octocopter-trans (n = 3, p = 1), each given a direction
#: row of length 1; malfunction_times also a w row of length 2.
WRONG_LENGTH = {
    "nominal_times": (LpError, lambda sp: reach.nominal_times(sp.base, [[1.0]])),
    "worst_times": (LpError, lambda sp: reach.worst_times(sp, [[1.0]])),
    "malfunction_times": (LpError, lambda sp: reach.malfunction_times(sp, [[0.0]], [1.0])),
    "time_ratios": (LpError, lambda sp: reach.time_ratios(sp, [[1.0]])),
    "malfunction_times-w": (
        ModelError, lambda sp: reach.malfunction_times(sp, [[0.0, 0.0]], [0.0, 0.0, 1.0])),
}


@pytest.mark.parametrize("declined", [False, True], ids=["built", "declined"])
@pytest.mark.parametrize("name", WRONG_LENGTH)
def test_batch_rows_of_the_wrong_length(fresh, monkeypatch, name, declined):
    # Both engines raise the same error.  Unchecked, a length-1 direction row broadcasts
    # against the built image's 3 scales and gets the time of (1, 1, 1).
    sp = split(catalog.octocopter_translational(), 0)
    if declined:
        monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
        sp = fresh(sp)
    assert (sp.image is None) == (sp.base.image is None) == declined
    error, call = WRONG_LENGTH[name]
    with pytest.raises(error, match="must have length"):
        call(sp)


#: Every entry point on octocopter-trans (n = 3, p = 1), given x in one entry of its
#: direction (d), of its w or of its command: (error, message, call of sp, d and x).
#: malfunction_time_for_w is T_M(w, d) for one w: malfunction_times given a 1-D w.
D_ERROR = (LpError, "direction has a non-finite entry")
W_ERROR = (ModelError, "outside the undesirable-input box")
NON_FINITE = {
    "nominal_reach_time": (*D_ERROR, lambda sp, d, x: reach.nominal_reach_time(sp.base, d)),
    "malfunctioning_reach_time": (
        *D_ERROR, lambda sp, d, x: reach.malfunctioning_reach_time(sp, d)),
    "time_ratio": (*D_ERROR, lambda sp, d, x: reach.time_ratio(sp, d)),
    "malfunction_time_for_w": (
        *D_ERROR, lambda sp, d, x: reach.malfunction_times(sp, [0.0], d)),
    "malfunction_times": (*D_ERROR, lambda sp, d, x: reach.malfunction_times(sp, [[0.0]], d)),
    "nominal_times": (
        *D_ERROR, lambda sp, d, x: reach.nominal_times(sp.base, [[0.0, 0.0, 1.0], d])),
    "worst_times": (*D_ERROR, lambda sp, d, x: reach.worst_times(sp, [d])),
    "time_ratios": (*D_ERROR, lambda sp, d, x: reach.time_ratios(sp, [d])),
    "malfunction_time_for_w-w": (
        *W_ERROR, lambda sp, d, x: reach.malfunction_times(sp, [x], [0.0, 0.0, 1.0])),
    "malfunction_times-w": (
        *W_ERROR, lambda sp, d, x: reach.malfunction_times(sp, [[0.0], [x]], [0.0, 0.0, 1.0])),
    "integrate_with_lag-command": (
        ModelError, "outside the input box",
        lambda sp, d, x: sim.integrate_with_lag(sp.base, [x] + [0.0] * 7, tau=0.1, horizon=1.0)),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("declined", [False, True], ids=["built", "declined"])
@pytest.mark.parametrize("name", NON_FINITE)
def test_non_finite_inputs_are_rejected(fresh, monkeypatch, name, declined, x):
    # Both engines raise the same error before either runs: no +inf time for a nan entry,
    # no RuntimeWarning for an infinite one, and nan lies in no box.
    sp = split(catalog.octocopter_translational(), 0)
    if declined:
        monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
        sp = fresh(sp)
    assert (sp.image is None) == (sp.base.image is None) == declined
    error, message, call = NON_FINITE[name]
    with pytest.raises(error, match=message):
        call(sp, [x, 0.0, 1.0], x)


@pytest.mark.parametrize("k", [2, 3])
def test_batches_at_the_system_order(toy1, k, lp_malfunction_time):
    # At order k every batch is, bit for bit, the order_k_time lift of the order-1 system's
    # batch, and equals its scalar form row by row.
    sys = dataclasses.replace(toy1, order=k)
    sp1, sp = split(toy1, 2), split(sys, 2)
    rng = np.random.default_rng(k)
    directions = rng.standard_normal((6, 2))
    ws = sp.w_min + rng.random((5, 1)) * (sp.w_max - sp.w_min)
    nominal1, worst1 = reach.nominal_times(toy1, directions), reach.worst_times(sp1, directions)
    for got, order1 in ((reach.nominal_times(sys, directions), nominal1),
                        (reach.worst_times(sp, directions), worst1),
                        (reach.malfunction_times(sp, ws, directions[0]),
                         reach.malfunction_times(sp1, ws, directions[0]))):
        assert np.array_equal(got, reach.order_k_time(order1, k))
    ratios = reach.time_ratios(sp, directions)
    assert np.array_equal(ratios, reach.ratio_of_times(
        reach.order_k_time(worst1, k), reach.order_k_time(nominal1, k)))
    assert ratios == pytest.approx(reach.time_ratios(sp1, directions) ** (1.0 / k), rel=1e-12)
    for d, t in zip(directions, ratios):
        assert t == pytest.approx(reach.time_ratio(sp, d), rel=1e-12)
    for w, t in zip(ws, reach.malfunction_times(sp, ws, directions[0])):
        assert t == pytest.approx(lp_malfunction_time(sp, w, directions[0]), rel=1e-12)


def test_capacity_cap(zonotope_builds, monkeypatch):
    sys = IntegratorSystem("wide", 1, np.ones((1, 25)), np.zeros(25), np.ones(25))
    sp = split(sys, tuple(range(22)))

    def no_vertices(*args):
        raise AssertionError("W_c's 2^22 vertices enumerated past the cap")

    monkeypatch.setattr(reach, "w_vertices", no_vertices)
    with pytest.raises(CapacityError, match="2\\^22"):
        reach.malfunctioning_reach_time(sp, [1.0])
    with pytest.raises(CapacityError, match="2\\^22"):
        reach.worst_times(sp, np.array([[1.0]]))
    # Both raise before any work: B's image (rank 1 = n, so buildable) is not built.
    assert zonotope_builds[0] == 0


def test_time_ratio_toy2(toy2_split):
    assert reach.time_ratio(toy2_split, [-1.0]) == pytest.approx(2.0, abs=1e-12)


def test_time_ratio_zero_d(toy2_split):
    assert reach.time_ratio(toy2_split, [0.0]) == 1.0


def test_vertices_lexicographic(toy3_split):
    v = reach.w_vertices(toy3_split)
    assert v.tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]


def test_order_k_time_identities():
    for k in (1, 2, 3, 5):
        t1 = 0.37
        tk = reach.order_k_time(t1, k)
        assert tk**k == pytest.approx(math.factorial(k) * t1, rel=1e-12)
    assert math.isinf(reach.order_k_time(math.inf, 2))
    assert reach.order_k_time(0.0, 3) == 0.0


@pytest.mark.parametrize("k", [1, 2, 169, 170, 171, 200])
def test_order_k_time_is_finite_past_the_factorial_overflow(k):
    # (k! T_1)^(1/k) against 40-digit decimal arithmetic: k! overflows a float from k = 171,
    # and k! T_1 for T_1 = 1e10 from k = 167 on; the lift stays finite at every k.
    t1 = np.array([1e-6, 0.37, 2.0, 1e10])
    got = reach.order_k_time(t1, k)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        want = [float((math.factorial(k) * decimal.Decimal(t)) ** (decimal.Decimal(1) / k))
                for t in t1.tolist()]
    assert np.isfinite(got).all()
    assert got == pytest.approx(want, rel=1e-14)
    if k == 1:  # the order-1 bits, as array and as float
        assert np.array_equal(got, t1) and reach.order_k_time(0.37, 1) == 0.37


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_homogeneity_random_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    v = int(rng.integers(n + 1, 7))
    sys = IntegratorSystem(
        "rand", 1, rng.standard_normal((n, v)), -rng.random(v) - 0.1, rng.random(v) + 0.1
    )
    sp = split(sys, int(rng.integers(0, v)))
    d = rng.standard_normal(n)
    if not np.any(d):
        return
    tn = reach.nominal_reach_time(sys, d).time
    tm = reach.malfunctioning_reach_time(sp, d).time
    assert tn <= tm + 1e-9 * max(1.0, tn if math.isfinite(tn) else 1.0)
    for alpha in (0.5, 2.0, 10.0):
        if math.isfinite(tn) and tn > 0:
            tna = reach.nominal_reach_time(sys, alpha * d).time
            assert tna == pytest.approx(alpha * tn, rel=1e-8)
        if math.isfinite(tm) and tm > 0:
            tma = reach.malfunctioning_reach_time(sp, alpha * d).time
            assert tma == pytest.approx(alpha * tm, rel=1e-8)


def test_ratio_at_least_one_when_finite(toy1_split):
    rng = np.random.default_rng(2)
    for _ in range(40):
        d = rng.standard_normal(2)
        t = reach.time_ratio(toy1_split, d)
        if math.isfinite(t):
            assert t >= 1.0 - 1e-9


def test_continuity_in_w(toy1_split, lp_malfunction_time):
    # Lemma-A.1-style sanity: T_M(w0 + eps, d) -> T_M(w0, d) along a ray.
    d = np.array([1.0, 0.3])
    w0 = np.array([0.2])
    base = lp_malfunction_time(toy1_split, w0, d)
    deviations = []
    for eps in (1e-2, 1e-4):
        t = lp_malfunction_time(toy1_split, w0 + eps, d)
        deviations.append(abs(t - base))
    assert deviations[1] <= deviations[0]
    assert deviations[1] <= 1e-3


def test_order_k_consistency_toy2(toy2, toy2_split):
    t1 = reach.malfunctioning_reach_time(toy2_split, [-1.0]).time
    for k in (2, 3, 5):
        tk = reach.malfunctioning_reach_time(split(dataclasses.replace(toy2, order=k), 1),
                                             [-1.0]).time
        assert tk**k == pytest.approx(math.factorial(k) * t1, rel=1e-12)
