"""Brute-force oracle scans on the toy fixtures."""

import numpy as np
import pytest

from resil import catalog, oracle, zonotope
from resil.errors import CapacityError, LpError, UnsupportedLossError
from resil.model import IntegratorSystem, split
from resil.resilience import quantitative_resilience


def test_grid_toy2(toy2_split):
    rep = oracle.grid_worst_w(toy2_split, [-1.0], 101)
    assert rep.worst_value == pytest.approx(1.0)
    assert rep.worst_argument == pytest.approx([0.0])
    assert rep.max_violation == 0.0


def test_grid_toy3(toy3_split):
    rep = oracle.grid_worst_w(toy3_split, [1.0, 0.0], 21)
    assert rep.worst_value == pytest.approx(2.0)
    assert rep.worst_argument[0] == pytest.approx(-1.0)  # w1 = -1 edge
    assert rep.max_violation == 0.0


def test_grid_vertices_only(toy3_split):
    # A 2-point grid is exactly the vertex set: violation identically 0.
    rep = oracle.grid_worst_w(toy3_split, [0.3, -0.8], 2)
    assert rep.max_violation == 0.0
    assert rep.worst_value == pytest.approx(rep.theory_value)


def test_grid_capacity():
    sys = IntegratorSystem("wide", 1, np.ones((1, 9)), np.zeros(9), np.ones(9))
    sp = split(sys, tuple(range(1, 9)))
    with pytest.raises(CapacityError, match="exceeds"):
        oracle.grid_worst_w(sp, [1.0], 101)
    with pytest.raises(CapacityError, match=">= 2"):
        oracle.grid_worst_w(sp, [1.0], 1)


def test_grid_zero_direction(toy2_split):
    with pytest.raises(LpError, match="nonzero"):
        oracle.grid_worst_w(toy2_split, [0.0], 11)


def test_direction_scan_toy2(toy2_split):
    rep = oracle.direction_scan(toy2_split, 1000, seed=7)
    assert rep.worst_value == pytest.approx(2.0)
    assert rep.theory_value == pytest.approx(2.0)
    assert rep.max_violation == 0.0


def test_direction_scan_toy1(toy1_split):
    rep = oracle.direction_scan(toy1_split, 500, seed=7)
    assert rep.theory_value == pytest.approx(3.0)
    assert rep.max_violation <= 1e-9


def test_direction_scan_degenerate(toy2_split):
    rep = oracle.direction_scan(toy2_split, 0, seed=1)
    assert rep.max_violation == 0.0
    assert rep.worst_value == pytest.approx(rep.theory_value)


def test_direction_scan_requires_resilient():
    sys = IntegratorSystem("b", 1, np.array([[1.0, 1.0]]), -np.ones(2), np.ones(2))
    with pytest.raises(UnsupportedLossError, match="resilient"):
        oracle.direction_scan(split(sys, 1), 10, seed=1)


def test_direction_scan_requires_p1(toy3_split):
    with pytest.raises(UnsupportedLossError, match="single"):
        oracle.direction_scan(toy3_split, 10, seed=1)


def test_scan_determinism(toy1_split):
    a = oracle.direction_scan(toy1_split, 200, seed=3)
    b = oracle.direction_scan(toy1_split, 200, seed=3)
    assert a.worst_value == b.worst_value
    assert np.array_equal(a.worst_argument, b.worst_argument)


def test_homogeneity_toy2(toy2_split):
    err = oracle.homogeneity_probe(toy2_split, [-1.0], [0.5, 2.0, 10.0])
    assert err <= 1e-10


def test_homogeneity_identity_scale(toy2):
    assert oracle.homogeneity_probe(toy2, [-1.0], [1.0]) == 0.0


def test_unit_directions_shape_and_norm():
    d = oracle._unit_directions(6, 64, seed=5)
    assert d.shape == (64, 6)
    assert np.linalg.norm(d, axis=1) == pytest.approx(np.ones(64))


def test_report_serialization(toy2_split):
    doc = oracle.grid_worst_w(toy2_split, [-1.0], 11).to_dict()
    assert doc["max_violation"] == 0.0
    assert isinstance(doc["worst_argument"], list)


#: Splits for the image-passing tests: the toys and one catalog loss.
IMAGE_SPLITS = ["toy1_split", "toy2_split", "toy3_split", "octocopter-trans:0/1"]
SCALES = [0.5, 2.0, 10.0]


@pytest.fixture(params=IMAGE_SPLITS)
def image_split(request):
    if request.param.startswith("toy"):
        return request.getfixturevalue(request.param)
    name, lost = request.param.split("/")
    return split(catalog.resolve(name), int(lost) - 1)


def _op_direction(sp):
    return np.linspace(1.0, -0.5, sp.base.n)


def _op_scans(sp, image=oracle.reach._BUILD, full=oracle.reach._BUILD):
    """What one oracle op reports: grid, homogeneity, and the direction scan when p = 1."""
    d = _op_direction(sp)
    out = {
        "grid": oracle.grid_worst_w(sp, d, 11, image=image).to_dict(),
        "homogeneity": oracle.homogeneity_probe(sp, d, SCALES, image=image),
    }
    if sp.p == 1:
        out["scan"] = oracle.direction_scan(sp, 40, seed=3, image=image, full=full).to_dict()
    return out


def test_scans_same_with_given_images(image_split):
    samples = 40 if image_split.p == 1 else 0
    image, full = oracle.op_images(image_split, _op_direction(image_split), 11, samples, len(SCALES))
    assert image is not None and (full is not None) == (samples > 0)
    assert _op_scans(image_split, image, full) == _op_scans(image_split)


def test_op_images_checks_op_before_building(toy2_split, zonotope_builds):
    with pytest.raises(LpError):
        oracle.op_images(toy2_split, [0.0], 11, 40, len(SCALES))
    with pytest.raises(CapacityError):
        oracle.op_images(toy2_split, [-1.0], 1, 40, len(SCALES))
    assert zonotope_builds[0] == 0


def test_scans_declined_images_take_lp_path(image_split, monkeypatch):
    # Images passed as declined (None) give what declined builds give.
    given = _op_scans(image_split, None, None)
    monkeypatch.setattr(zonotope, "FACETS_PER_LP", 0)
    assert given == _op_scans(image_split)


@pytest.mark.parametrize(
    "model", ["toy1", "toy2", "octocopter-trans:0", "octocopter-rot", "spacecraft-printed"]
)
def test_gate_from_full_image_matches_lp_verdict(request, model):
    sys = request.getfixturevalue(model) if model.startswith("toy") else catalog.resolve(model)
    full = zonotope.build(sys.b_bar, sys.u_min, sys.u_max, lps=10**4)
    assert full is not None
    for col in range(sys.n_inputs):
        sp = split(sys, col)
        assert quantitative_resilience(sp, image=full).resilient == (
            quantitative_resilience(sp).resilient
        )
