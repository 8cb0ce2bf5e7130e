"""lambda pairs, closed-form r values, verdicts, diagnostics, and the LP containment reference."""

import dataclasses
import json
import math

import numpy as np
import pytest

from resil import catalog, cli, lp, resilience, zonotope
from resil.errors import ModelError, UnsupportedLossError
from resil.model import ActuatorSplit, IntegratorSystem, split
from resil.reach import time_ratio, w_vertices
from resil.resilience import ResilienceReport


def test_controllability_rank_deficient():
    sys = IntegratorSystem("rd", 1, np.array([[1.0, 0.0], [0.0, 0.0]]),
                           -np.ones(2), np.ones(2))
    assert not resilience.check_controllability(sys)


def test_controllability_image_interior():
    # Columns bounded in [0,1] but the image interval [-1, 1] contains 0 inside.
    sys = IntegratorSystem("img", 1, np.array([[1.0, -1.0]]), np.zeros(2), np.ones(2))
    assert resilience.check_controllability(sys)


def test_controllability_boundary_zero():
    # Image is [0, 2]: zero on the boundary, not interior.
    sys = IntegratorSystem("bnd", 1, np.array([[1.0, 1.0]]), np.zeros(2), np.ones(2))
    assert not resilience.check_controllability(sys)


def _thin_row(eps):
    return np.array([[1.0, 0.0, -1.0, 0.3], [0.0, eps, -eps, 0.0]]), -np.ones(4), np.ones(4)


@pytest.mark.parametrize("b_bar, u_min, u_max, want", [
    (np.eye(2), np.zeros(2), np.ones(2), False),  # the image is [0, 1]^2: 0 is a vertex
    # The image is [0, 2], then [-2, 0]: 0 on the slab's -a side, then on its +a side.
    (np.array([[1.0, 1.0]]), np.zeros(2), np.ones(2), False),
    (np.array([[-1.0, -1.0]]), np.zeros(2), np.ones(2), False),
    (np.array([[1.0, -1.0]]), np.zeros(2), np.ones(2), True),
    # Row 2 reaches 2 eps along +/-e_2 (the slab sides scaled back by eps), against
    # lp.UNIT_THRESHOLD = 2e-9: just above it, and at it (not past it).
    (*_thin_row(1.5e-9), True),
    (*_thin_row(1e-9), False),
], ids=["zero-vertex", "zero-low-end", "zero-high-end", "interior", "thin-row-above",
        "thin-row-at"])
def test_controllability_from_slab_sides(b_bar, u_min, u_max, want, axis_batch_controllable,
                                         highs):
    # The slab-side verdict equals the axis batch it replaced, the LP path and HiGHS.
    sys = IntegratorSystem("c", 1, b_bar, u_min, u_max)
    assert sys.image is not None
    assert resilience._controllable(sys, sys.image) == want
    assert axis_batch_controllable(sys, sys.image) == want
    assert resilience.check_controllability(sys) == highs.controllable(sys) == want


def test_lambda_pair_toy2(toy2_split):
    assert resilience.lambda_pair(toy2_split) == pytest.approx((1.0, 3.0), abs=1e-12)


def test_lambda_pair_toy1(toy1_split):
    assert resilience.lambda_pair(toy1_split) == pytest.approx((2.0, 2.0), abs=1e-12)


def test_r_pair_toy2(toy2_split, r_pair):
    r_p, r_m = r_pair(toy2_split)
    assert r_p == pytest.approx(0.5, abs=1e-12)
    assert r_m == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_r_pair_toy1(toy1_split, r_pair):
    r_p, r_m = r_pair(toy1_split)
    assert r_p == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert r_m == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_quantitative_resilience_toy2(toy2, toy2_split):
    rep = resilience.quantitative_resilience(toy2_split)
    assert rep.resilient
    assert rep.r_q == pytest.approx(0.5, abs=1e-12)
    rep2 = resilience.quantitative_resilience(split(dataclasses.replace(toy2, order=2), 1))
    assert rep2.r_kq == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_order_k_r_values(toy2):
    for k in (1, 2, 3, 5):
        rep = resilience.quantitative_resilience(split(dataclasses.replace(toy2, order=k), 1))
        assert rep.r_kq == 0.5 ** (1.0 / k)
        assert rep.r_kq >= rep.r_q  # monotone in k


def test_p_not_one_refused(toy3_split):
    with pytest.raises(UnsupportedLossError, match="p=2"):
        resilience.quantitative_resilience(toy3_split)
    with pytest.raises(UnsupportedLossError):
        resilience.lambda_pair(toy3_split)


@pytest.mark.parametrize("b_bar, column", [(np.eye(2), 99), (np.ones((1, 1)), 0)],
                         ids=["out-of-range", "one-column-system"])
def test_sweep_checks_columns_as_split(b_bar, column):
    sys = IntegratorSystem("s", 1, b_bar, -np.ones(len(b_bar[0])), np.ones(len(b_bar[0])))
    with pytest.raises(ModelError) as from_split:
        split(sys, column)
    with pytest.raises(ModelError) as from_sweep:
        resilience.sweep(sys, [column])
    assert str(from_sweep.value) == str(from_split.value)


def _per_column_reports(sys, columns):
    """sweep as one split and one scalar report per column, the form its arrays replaced."""
    k = sys.order
    splits = [split(sys, col) for col in columns]
    image = zonotope.build(sys.b_bar, sys.u_min, sys.u_max)
    ctrl = resilience._controllable(sys, image)
    nonzero = [sp.lost_columns[0] for sp in splits if np.any(sp.c)]
    norms = np.array([np.linalg.norm(sys.b_bar[:, col]) for col in nonzero])
    pairs = resilience._lambda_pairs(sys, nonzero, norms, image).tolist() if ctrl else []
    pairs = dict(zip(nonzero, map(tuple, pairs)))

    def quotient(num, den):
        return 0.0 if abs(den) <= 1e-12 * max(1.0, abs(num)) else num / den

    reports = []
    for sp in splits:
        col, pair = sp.lost_columns[0], pairs.get(sp.lost_columns[0])
        if not ctrl:
            note = {"note": "system not controllable; not resilient to any loss"}
            reports.append(ResilienceReport(col, k, *[0.0] * 6, False, False, note))
            continue
        if pair is None:
            reports.append(ResilienceReport(col, k, 0.0, 0.0, *[1.0] * 4, True, True,
                                            {"zero_column": True}))
            continue
        (lam_p, lam_m), w_min, w_max = pair, float(sp.w_min[0]), float(sp.w_max[0])
        r_p = 1.0 if math.isinf(lam_p) else quotient(w_min + lam_p, w_max + lam_p)
        r_m = 1.0 if math.isinf(lam_m) else quotient(w_max - lam_m, w_min - lam_m)
        diagnostics = {"unbounded_lambda": True} if math.isinf(lam_p) or math.isinf(lam_m) else {}
        threshold = lp.lambda_threshold(np.linalg.norm(sp.c[:, 0]))
        resilient = all(threshold < r <= 1.0 + threshold for r in (r_p, r_m))
        for name, r in (("r_plus", r_p), ("r_minus", r_m)):
            if -threshold < r <= threshold:
                diagnostics[f"{name}_boundary"] = True
        r_q = min(min(r_p, r_m) if resilient else 0.0, 1.0)
        reports.append(ResilienceReport(col, k, lam_p, lam_m, r_p, r_m, r_q, r_q ** (1.0 / k),
                                        True, resilient, diagnostics))
    return reports


@pytest.mark.parametrize("path", ["image", "declined", "unbounded"])
def test_sweep_matches_per_column_reports(path, monkeypatch):
    # The array form gives every report field bit for bit as the per-column one: catalog
    # systems, random ones with zero, repeated and boundary columns, orders 1 to 3.
    rng = np.random.default_rng(25)
    systems = [catalog.resolve(name) for name in ("spacecraft-printed", "octocopter-rot",
                                                  "octocopter-trans:0")]
    systems.append(IntegratorSystem("b", 1, np.array([[1.0, 1.0, 0.0]]), -np.ones(3), np.ones(3)))
    for _ in range(12):
        n = int(rng.integers(1, 4))
        b = rng.standard_normal((n, n + int(rng.integers(2, 5))))
        b[:, rng.random(b.shape[1]) < 0.2] = 0.0
        m = b.shape[1]
        lo = np.zeros(m) if rng.random() < 0.3 else -rng.random(m)
        systems.append(IntegratorSystem("r", int(rng.integers(1, 4)), b, lo, lo + rng.random(m) + 0.1))
    if path != "image":
        monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    if path == "unbounded":  # lam+/- = inf: r = 1, and the unbounded_lambda flag
        monkeypatch.setattr(lp, "max_scaled_direction",
                            lambda *args, **kwargs: lp.DirectionScaling(math.inf))
    for sys in systems:
        columns = [*range(sys.n_inputs), 0]
        for at_order in (sys, dataclasses.replace(sys, order=2)):
            assert resilience.sweep(at_order, columns) == _per_column_reports(at_order, columns)


def test_zero_column_path():
    sys = IntegratorSystem("zc", 1, np.array([[1.0, -1.0, 0.0]]),
                           -np.ones(3), np.ones(3))
    rep = resilience.quantitative_resilience(split(sys, 2))
    assert rep.resilient
    assert rep.r_q == 1.0
    assert rep.diagnostics.get("zero_column")


def test_not_controllable_path():
    sys = IntegratorSystem("nc", 1, np.array([[1.0, 2.0], [0.0, 0.0]]),
                           -np.ones(2), np.ones(2))
    rep = resilience.quantitative_resilience(split(sys, 1))
    assert not rep.controllable
    assert not rep.resilient
    assert rep.r_q == 0.0


def test_boundary_r_not_resilient():
    # 1-D: B = [1] in [-1, 1], C = [1] in [-1, 1]: lam+ = 1, r(C) = 0 boundary.
    sys = IntegratorSystem("b", 1, np.array([[1.0, 1.0]]), -np.ones(2), np.ones(2))
    rep = resilience.quantitative_resilience(split(sys, 1))
    assert not rep.resilient
    assert rep.r_q == 0.0
    assert rep.diagnostics.get("r_plus_boundary")


def test_vanishing_r_is_positive_zero(tmp_path):
    # lam- = w_max makes r(-C) = 0 / (w_min - w_max), which IEEE division signs -0.0.
    r_c, r_minus_c = resilience.r_closed_form(0.5, 1.0, -1.0, 1.0)
    assert (r_c, r_minus_c) == (-0.5 / 1.5, 0.0) and math.copysign(1.0, r_minus_c) == 1.0
    rows = resilience.r_closed_form(np.array([0.5, 2.0]), np.array([1.0, 1.0]),
                                    -np.ones(2), np.ones(2))
    assert np.all(np.copysign(1.0, rows[1]) == 1.0)
    # Octocopter-trans propellers 5-8: r(-C) = 0, printed as 0 and written as 0.0.
    out = tmp_path / "check.json"
    assert cli.main(["check", "--model", "catalog:octocopter-trans:0", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert [rep["r_minus"] for rep in reports[4:]] == [0.0] * 4
    assert all(math.copysign(1.0, rep["r_minus"]) == 1.0 for rep in reports)
    assert "-0" not in out.read_text()


def test_report_serialization(toy2_split):
    doc = resilience.quantitative_resilience(toy2_split).to_dict()
    assert doc["resilient"] is True
    assert doc["r_q"] == pytest.approx(0.5)
    assert isinstance(doc["lambda_plus"], float)


def test_reach_time_verdict_toy2(toy2_split, reach_time_verdict):
    verdict = reach_time_verdict(toy2_split)
    assert verdict.t_n_plus == pytest.approx(0.5)
    assert verdict.t_m_plus == pytest.approx(1.0)
    assert verdict.t_n_minus == pytest.approx(1.0 / 3.0)
    assert verdict.t_m_minus == pytest.approx(0.5)
    assert verdict.resilient


def test_verdict_agreement_random(reach_time_verdict):
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        v = int(rng.integers(n + 1, 7))
        sys = IntegratorSystem(
            "rand", 1, rng.standard_normal((n, v)),
            -rng.random(v) - 0.1, rng.random(v) + 0.1,
        )
        col = int(rng.integers(0, v))
        if not np.any(sys.b_bar[:, col]):
            continue
        sp = split(sys, col)
        rep = resilience.quantitative_resilience(sp)
        verdict = reach_time_verdict(sp)
        assert rep.resilient == verdict.resilient
        if rep.resilient:
            c = sp.c[:, 0]
            t_worst = max(time_ratio(sp, c), time_ratio(sp, -c))
            assert 1.0 / rep.r_q == pytest.approx(t_worst, rel=1e-8)


def test_symmetric_box_reduction(r_pair):
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        v = int(rng.integers(n + 1, 7))
        hi = rng.random(v) + 0.1
        sys = IntegratorSystem("sym", 1, rng.standard_normal((n, v)), -hi, hi)
        col = int(rng.integers(0, v))
        if not np.any(sys.b_bar[:, col]):
            continue
        r_p, r_m = r_pair(split(sys, col))
        assert r_p == pytest.approx(r_m, abs=1e-10)


#: Relative margin of the interior-membership LPs of polytope_containment_check.
INTERIOR_MARGIN = 1e-7


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
    for w in w_vertices(split):
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


def test_polytope_containment_toy2(toy2_split):
    assert polytope_containment_check(toy2_split)


def test_polytope_containment_shrunk():
    sys = IntegratorSystem("shrunk", 1, np.array([[1.0, -1.0]]),
                           np.array([-1.0, 0.0]), np.array([0.5, 1.0]))
    assert not polytope_containment_check(split(sys, 1))


def test_resilient_implies_containment():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(1, 3))
        v = int(rng.integers(n + 1, 6))
        sys = IntegratorSystem(
            "rand", 1, rng.standard_normal((n, v)),
            -rng.random(v) - 0.1, rng.random(v) + 0.1,
        )
        col = int(rng.integers(0, v))
        if not np.any(sys.b_bar[:, col]):
            continue
        sp = split(sys, col)
        if resilience.quantitative_resilience(sp).resilient:
            assert polytope_containment_check(sp)
