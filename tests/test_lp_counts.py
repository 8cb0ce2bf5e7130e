"""Each op solves each LP once: machine-independent LP counts, and the sweep API
agreeing with the per-column reports it replaces."""

import json
import math

import numpy as np
import pytest

from resil import catalog, cli, lp, reach, resilience
from resil.model import IntegratorSystem, split, to_machine

CATALOG = ["spacecraft-printed", "spacecraft-appendix", "octocopter-rot", "octocopter-trans:0"]


@pytest.fixture
def unbounded_lp(monkeypatch):
    """Every scaling LP reports an unbounded lam.

    Finite input boxes never make the scaling LP unbounded, so this degenerate
    case (lam+/- = inf, reach times 0) is reached by stubbing the LP.
    """
    monkeypatch.setattr(
        lp, "max_scaled_direction",
        lambda *args, **kwargs: lp.DirectionScaling(status=lp.UNBOUNDED, value=math.inf),
    )


def test_check_all_spacecraft_lp_count(lp_solves, capsys):
    sys = catalog.spacecraft_printed()
    nonzero = int(np.count_nonzero(np.any(sys.b_bar != 0.0, axis=0)))
    code = cli.main(["check", "--model", "catalog:spacecraft-printed", "--lost", "all"])
    capsys.readouterr()
    assert code == 0
    # One controllability decision (2n LPs) plus the lambda+/- pair per column.
    assert lp_solves[0] == 2 * sys.n + 2 * nonzero == 40


def _ratio_case(model, lost, d, p, lps):
    # The id keeps the (model, lost, d, p) form the case was first listed under.
    return pytest.param(model, lost, d, p, lps, id=f"{model}-{lost}-{d}-{p}")


@pytest.mark.parametrize(
    "model, lost, d, p, lps",
    [
        # One LP at the worst of the 2^p gauge-screened vertices, one for T_N*.
        _ratio_case("catalog:octocopter-trans:0", "1", "0,0,-1", 1, 2),
        _ratio_case("catalog:octocopter-rot", "5,6,7,8", "1,0,0", 4, 2),
        # 2 C(13, 5) = 2574 facet candidates exceed FACETS_PER_LP * 2^p: the
        # LP path solves every vertex, then T_N*.
        _ratio_case("catalog:spacecraft-printed", "3", "0,0,0,0,0,1", 1, 2**1 + 1),
    ],
)
def test_ratio_lp_count(lp_solves, capsys, tmp_path, model, lost, d, p, lps):
    out = tmp_path / "ratio.json"
    code = cli.main(["ratio", "--model", model, "--lost", lost, "-d", d, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["T_M"] != "inf"  # no early exit at an infinite vertex
    assert len(doc["lost_columns"]) == p
    assert lp_solves[0] == lps


def test_simulate_out_dir_lp_count(lp_solves, capsys, tmp_path):
    argv = ["simulate", "octo-vertical-lag", "--tau", "0.05"]
    assert cli.main(argv) == 0
    without = lp_solves[0]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # T_N* and the screened T_M* once each; the trajectories reuse them.
    assert lp_solves[0] - without == without == 2


def _assert_sweep_matches(sys, order):
    reports = resilience.sweep(sys, range(sys.n_inputs), order)
    assert [r.lost_column for r in reports] == list(range(sys.n_inputs))
    for rep in reports:
        single = resilience.quantitative_resilience(split(sys, rep.lost_column), order)
        assert rep.to_dict() == single.to_dict()
    return reports


@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("order", [None, 2])
def test_sweep_matches_single_reports_catalog(name, order):
    _assert_sweep_matches(catalog.resolve(name), order)


def test_sweep_matches_single_reports_not_controllable():
    sys = IntegratorSystem("nc", 1, np.array([[1.0, 2.0], [0.0, 0.0]]),
                           -np.ones(2), np.ones(2))
    reports = _assert_sweep_matches(sys, None)
    assert not any(r.controllable for r in reports)


def test_sweep_matches_single_reports_zero_column():
    sys = IntegratorSystem("zc", 1, np.array([[1.0, -1.0, 0.0]]), -np.ones(3), np.ones(3))
    reports = _assert_sweep_matches(sys, None)
    assert reports[2].diagnostics.get("zero_column")


def test_sweep_matches_single_reports_unbounded_lambda(toy1, unbounded_lp):
    reports = _assert_sweep_matches(toy1, 3)
    assert all(r.diagnostics.get("unbounded_lambda") for r in reports)


def _cli_ratio(tmp_path, model, lost, d):
    out = tmp_path / "ratio.json"
    assert cli.main(["ratio", "--model", model, "--lost", lost, "-d", d,
                     "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_ratio_t_matches_time_ratio_zero_d(tmp_path, capsys):
    doc = _cli_ratio(tmp_path, "catalog:octocopter-trans:0", "1", "0,0,0")
    sp = split(catalog.octocopter_translational(), 0)
    assert doc["t"] == reach.time_ratio(sp, np.zeros(3)) == 1.0


def test_ratio_t_matches_time_ratio_infinite_t_m(tmp_path, capsys):
    doc = _cli_ratio(tmp_path, "catalog:octocopter-trans:0", "5", "1,0,0")
    sp = split(catalog.octocopter_translational(), 4)
    assert doc["T_M"] == "inf"
    assert doc["t"] == to_machine(reach.time_ratio(sp, np.array([1.0, 0.0, 0.0]))) == "inf"


def test_ratio_t_matches_time_ratio_both_times_zero(tmp_path, capsys, unbounded_lp):
    doc = _cli_ratio(tmp_path, "catalog:octocopter-trans:0", "1", "0,0,-1")
    sp = split(catalog.octocopter_translational(), 0)
    assert doc["T_N"] == doc["T_M"] == 0.0
    assert doc["t"] == reach.time_ratio(sp, np.array([0.0, 0.0, -1.0])) == 1.0
