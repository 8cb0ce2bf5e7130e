"""Brute-force oracle scans on the toy fixtures."""

import dataclasses
import json
import math

import numpy as np
import pytest

from resil import catalog, cli, lp, oracle, zonotope
from resil.errors import CapacityError, LpError, ResilError, UnsupportedLossError
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
    # Too few points per axis is a bad input, not a capacity fault.
    with pytest.raises(ResilError, match=">= 2") as info:
        oracle.grid_worst_w(sp, [1.0], 1)
    assert not isinstance(info.value, CapacityError)


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


def test_homogeneity_identity_scale(toy2_split):
    assert oracle.homogeneity_probe(toy2_split, [-1.0], [1.0]) == 0.0


@pytest.fixture
def inhomogeneous_lp(monkeypatch):
    """max_scaled_direction with lam scaled by 1 + 1e-6 |d|: a homogeneity fault."""
    real = lp.max_scaled_direction

    def faulty(m, lower, upper, d, rhs_shift=None, **kwargs):
        out = real(m, lower, upper, d, rhs_shift=rhs_shift, **kwargs)
        if not math.isfinite(out.lam_hat):
            return out
        return dataclasses.replace(out, lam_hat=out.lam_hat * (1.0 + 1e-6 * np.linalg.norm(d)))

    monkeypatch.setattr(lp, "max_scaled_direction", faulty)


def test_homogeneity_fault_caught_in_op_scope(inhomogeneous_lp, tmp_path, capsys):
    out = tmp_path / "oracle.json"
    argv = ["oracle", "--model", "catalog:octocopter-trans:0", "--lost", "1",
            "-d", "0,0,-1", "--grid", "5", "--samples", "20", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    capsys.readouterr()
    assert json.loads(out.read_text())["homogeneity_error"] > 1e-6


def test_homogeneity_fault_caught_without_scope(inhomogeneous_lp, toy2_split):
    # A library call, outside any CLI op, sees it too.
    assert oracle.homogeneity_probe(toy2_split, [-1.0], SCALES) > 1e-6


@pytest.mark.parametrize("k", [2, 3])
def test_homogeneity_at_the_system_order(toy2, k, inhomogeneous_lp):
    # The probe checks the times it reports, T_k(alpha d) = alpha^(1/k) T_k(d), so it sees
    # the LP's fault at T_k(10 d) as the order-k times show it: (1 + 1e-5)^(1/k) - 1.
    sp = split(dataclasses.replace(toy2, order=k), 1)
    err = oracle.homogeneity_probe(sp, [-1.0], SCALES)
    assert err == pytest.approx(1e-5 / k, rel=1e-3)


@pytest.fixture
def inhomogeneous_gauge(monkeypatch):
    """Zonotope.scalings with lam[i] scaled by 1 + 1e-6 |d_i|: a homogeneity fault."""
    real = zonotope.Zonotope.scalings

    def faulty(self, directions, shifts):
        lam = real(self, directions, shifts)
        return lam * (1.0 + 1e-6 * np.linalg.norm(np.atleast_2d(directions), axis=1))[:, None]

    monkeypatch.setattr(zonotope.Zonotope, "scalings", faulty)


def test_homogeneity_fault_in_gauge_caught(inhomogeneous_gauge, tmp_path, capsys):
    # The scans' rays are unit, so only the probe's 10d sees the fault: its gauge
    # time there is 1e-5 relative short of the LP's.
    out = tmp_path / "oracle.json"
    argv = ["oracle", "--model", "catalog:octocopter-trans:0", "--lost", "1",
            "-d", "0,0,-1", "--grid", "21", "--samples", "60", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    capsys.readouterr()
    assert json.loads(out.read_text())["homogeneity_error"] > 1e-6


def test_unit_directions_shape_and_norm():
    d = oracle._unit_directions(6, 64, seed=5)
    assert d.shape == (64, 6)
    assert np.linalg.norm(d, axis=1) == pytest.approx(np.ones(64))


def test_report_serialization(toy2_split):
    doc = oracle.grid_worst_w(toy2_split, [-1.0], 11).to_dict()
    assert doc["max_violation"] == 0.0
    assert isinstance(doc["worst_argument"], list)


#: Splits for the kept-image tests: the toys and one catalog loss.
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


def _op_scans(sp):
    """What one oracle op reports: grid, homogeneity, and the direction scan when p = 1."""
    d, samples = _op_direction(sp), 40 if sp.p == 1 else 0
    out = {
        "grid": oracle.grid_worst_w(sp, d, 11).to_dict(),
        "homogeneity": oracle.homogeneity_probe(sp, d, SCALES),
    }
    if samples:
        out["scan"] = oracle.direction_scan(sp, samples, seed=3).to_dict()
    return out


def test_scans_same_with_given_images(image_split, zonotope_builds, fresh):
    # The scans build each image once (B's, and B_bar's for the homogeneity probe and
    # the direction scan), and give what they give again with those images, and with a
    # copy's own.
    first = _op_scans(image_split)
    assert zonotope_builds[0] == 2
    assert first == _op_scans(image_split) and zonotope_builds[0] == 2
    assert first == _op_scans(fresh(image_split)) and zonotope_builds[0] == 4


def test_oracle_op_checks_before_building(zonotope_builds, capsys):
    # A zero direction and a grid without both vertices are input errors (exit 1, not
    # the capacity exit 2), raised before any image is built.
    op = ["oracle", "--model", "catalog:octocopter-trans:0", "--lost", "1"]
    assert cli.main([*op, "-d", "0,0,0"]) == cli.EXIT_INPUT
    assert "nonzero" in capsys.readouterr().err
    assert cli.main([*op, "-d", "0,0,-1", "--grid", "1"]) == cli.EXIT_INPUT
    assert ">= 2" in capsys.readouterr().err
    assert zonotope_builds[0] == 0


def test_scans_declined_images_take_lp_path(image_split, zonotope_builds, fresh, monkeypatch):
    # Declined over MAX_CANDIDATES, both images are kept as None: the scans take the LP
    # path, and give what they give again, and on a copy.
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    first = _op_scans(image_split)
    assert first == _op_scans(image_split) == _op_scans(fresh(image_split))
    assert (image_split.image, image_split.base.image, zonotope_builds[0]) == (None, None, 0)


@pytest.mark.parametrize(
    "model", ["toy1", "toy2", "octocopter-trans:0", "octocopter-rot", "spacecraft-printed"]
)
def test_gate_from_full_image_matches_lp_verdict(request, model, fresh, monkeypatch):
    sys = request.getfixturevalue(model) if model.startswith("toy") else catalog.resolve(model)
    columns = range(sys.n_inputs)
    assert sys.image is not None  # the gate's reports from B_bar's image
    gauge = [quantitative_resilience(split(sys, col)).resilient for col in columns]
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    lp_sys = fresh(sys)  # its reports take LPs
    assert gauge == [quantitative_resilience(split(lp_sys, col)).resilient for col in columns]
    assert lp_sys.image is None
