"""Each op solves each LP once: machine-independent LP counts, and the sweep API
agreeing with the per-column reports it replaces."""

import json
import math

import numpy as np
import pytest

from resil import catalog, cli, lp, reach, resilience, zonotope
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


@pytest.mark.parametrize("name", ["spacecraft-printed", "octocopter-trans:0"])
def test_check_all_work(name, lp_solves, zonotope_builds, gauge_calls, capsys):
    code = cli.main(["check", "--model", "catalog:" + name, "--lost", "all"])
    capsys.readouterr()
    assert code == 0
    # One build of B_bar's image, one gauge batch for controllability and one
    # leave-one-out pass for every column's lambda+/-, for 14 columns as for 8.
    scalings, passes = gauge_calls
    assert (zonotope_builds[0], scalings[0], passes[0], lp_solves[0]) == (1, 1, 1, 0)


def test_check_declined_build_lp_count(lp_solves, capsys):
    sys = catalog.spacecraft_printed()
    code = cli.main(["check", "--model", "catalog:spacecraft-printed", "--lost", "1"])
    capsys.readouterr()
    assert code == 0
    # 2 C(14, 5) = 4004 candidates exceed FACETS_PER_LP times the 2n + 2 LPs of
    # one column: one controllability decision (2n LPs) plus its lambda+/- pair.
    assert zonotope.candidate_count(sys.n, 14) > zonotope.FACETS_PER_LP * (2 * sys.n + 2)
    assert lp_solves[0] == 2 * sys.n + 2 == 14


def test_sweep_rank_fallback_lp_count(toy1, lp_solves, reports_agree, monkeypatch):
    # Column 2 is TOY1's only one along e2: without it the kept generators
    # have rank 1, so that column alone takes its two lambda+/- LPs.
    image = zonotope.build(toy1.b_bar, toy1.u_min, toy1.u_max, lps=1)
    assert image is not None
    assert image.lambdas_without([0, 1, 2])[1].tolist() == [True, False, True]
    reports = resilience.sweep(toy1, range(3))
    assert lp_solves[0] == 2
    monkeypatch.setattr(zonotope, "FACETS_PER_LP", 0)
    for got, ref in zip(reports, resilience.sweep(toy1, range(3))):
        reports_agree(got, ref)


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


SCAN_OP = ["oracle", "--model", "catalog:octocopter-trans:0", "--lost", "1", "-d", "0,0,-1",
           "--grid", "21", "--samples", "60"]


def test_oracle_scan_op_counts(lp_solves, lp_pivots, zonotope_builds, capsys):
    assert cli.main(SCAN_OP) == 0
    capsys.readouterr()
    # One image of B serves the grid, direction scan and homogeneity probe; one of
    # B_bar the scan's directions and its resilience gate.  The op poses 13 LPs and
    # solves its 6 distinct problems once each: T_M*(d) (grid theory, then the
    # probe's T_M* at d, 0.5d, 2d and 10d, which normalize to the same LP), T_N*(d)
    # (the probe's four points), and the T_M* and T_N* of t(+C) and of t(-C).
    # Each starts at the facet where its ray leaves its image, an optimal basis:
    # no pivots.
    assert zonotope_builds[0] == 2
    assert lp_solves[0] == 6
    assert lp_pivots[0] == 0


def test_oracle_scan_op_cold_pivots(lp_solves, lp_pivots, monkeypatch, capsys):
    # The same 6 solves from the cold two-phase start.
    monkeypatch.setattr(zonotope.Zonotope, "start", lambda *args: None)
    assert cli.main(SCAN_OP) == 0
    capsys.readouterr()
    assert lp_solves[0] == 6
    assert lp_pivots[0] == 45


@pytest.mark.parametrize(
    "argv, solves, pivots",
    [
        # T_M* starts at its screen's facet of B's image (0 pivots), T_N* has no
        # image (8 cold).
        (["simulate", "octo-vertical-lag"], 2, 8),
        # The build of B is declined: every LP takes the cold start.
        (["ratio", "--model", "catalog:spacecraft-printed", "--lost", "3",
          "-d", "1,0,0,0,0,0"], 3, 41),
    ],
    ids=["simulate-lag", "ratio-declined"],
)
def test_op_pivots(lp_solves, lp_pivots, capsys, argv, solves, pivots):
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert (lp_solves[0], lp_pivots[0]) == (solves, pivots)


def test_ratio_op_starts_at_its_screen(zonotope_builds, gauge_calls, monkeypatch, capsys):
    solves = []  # (started, pivots) per lp.solve
    real = lp.solve

    def recording(problem, basis=None):
        out = real(problem, basis)
        solves.append((basis is not None, out.pivots))
        return out

    monkeypatch.setattr(lp, "solve", recording)
    argv = ["ratio", "--model", "catalog:octocopter-trans", "--lost", "1", "-d", "0,0,-1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # T_N* has no image and starts cold.  One build of B and one gauge pass, the
    # T_M* screen: the facet it names at the worst vertex starts the T_M* LP,
    # which takes no pivot.
    assert (zonotope_builds[0], *(calls[0] for calls in gauge_calls)) == (1, 1, 0)
    assert solves == [(False, 8), (True, 0)]


def test_oracle_declined_build_counts(lp_solves, zonotope_builds, monkeypatch, capsys):
    monkeypatch.setattr(zonotope, "FACETS_PER_LP", 0)
    assert cli.main(SCAN_OP) == 0
    capsys.readouterr()
    # The declined images reach every scan as declined: no call builds again.
    # Distinct LPs: grid theory 2 (both vertices), the other 19 grid points (the
    # grid's two end points are those vertices), the gate's 2n + 2 = 8 (its
    # T_N* along +/-e3 are t(+/-C)'s, the lost column lying along e3), t(+/-C)'s
    # 2 x 2 vertex LPs, 60 directions x 3, and T_N*(d) of the homogeneity probe,
    # whose other 3 T_N* and 4 x 2 vertex LPs repeat T_N*(d) and the grid theory.
    assert zonotope_builds[0] == 2
    assert lp_solves[0] == 2 + 19 + 8 + 4 + 180 + 1 == 214


def test_oracle_scan_ops_reuse_nothing_across_ops(lp_solves, capsys):
    # The reuse scope closes with each op: the second op solves its 6 again.
    assert cli.main(SCAN_OP) == 0
    assert lp_solves[0] == 6
    assert cli.main(SCAN_OP) == 0
    capsys.readouterr()
    assert lp_solves[0] == 12
    assert lp._reused is None


def test_reuse_scope_hits_hand_out_fresh_arrays(toy1, lp_solves):
    d = np.array([1.0, 0.5])
    with lp.reuse_scope():
        first = lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, d)
        # 3d normalizes to the bytes of d: the same problem, not solved again.
        second = lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, 3.0 * d)
        third = lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, d)
    assert lp_solves[0] == 1
    assert second.value == pytest.approx(first.value / 3.0, rel=1e-15)
    assert np.array_equal(first.argument, third.argument)
    assert not np.shares_memory(second.argument, third.argument)
    assert not np.shares_memory(first.argument, third.argument)


def test_reuse_scope_nested_joins_outer(toy1, lp_solves):
    d = np.array([1.0, 0.5])
    with lp.reuse_scope():
        lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, d)
        with lp.reuse_scope():
            lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, d)
        # Closing the inner scope keeps the outer one's outcomes.
        lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, d)
        assert lp_solves[0] == 1
    assert lp._reused is None


def test_reuse_scope_stores_at_most_reuse_entries(toy1, lp_solves, monkeypatch):
    monkeypatch.setattr(lp, "REUSE_ENTRIES", 1)
    first, second = np.array([1.0, 0.5]), np.array([0.5, 1.0])
    with lp.reuse_scope():
        for d in (first, second, first, second):
            lp.max_scaled_direction(toy1.b_bar, toy1.u_min, toy1.u_max, d)
        # Only the first problem was stored: the second is solved each time.
        assert len(lp._reused) == 1
    assert lp_solves[0] == 3


def test_library_calls_outside_a_scope_solve_every_lp(lp_solves):
    sp = split(catalog.octocopter_translational(), 0)
    d = np.array([0.0, 0.0, -1.0])
    reach.time_ratio(sp, d)
    once = lp_solves[0]
    reach.time_ratio(sp, d)
    # T_N* plus the T_M* at the gauge's worst vertex, both times.
    assert once == 2
    assert lp_solves[0] == 2 * once


def test_simulate_out_dir_lp_count(lp_solves, capsys, tmp_path):
    argv = ["simulate", "octo-vertical-lag", "--tau", "0.05"]
    assert cli.main(argv) == 0
    without = lp_solves[0]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # T_N* and the screened T_M* once each; the trajectories reuse them.
    assert lp_solves[0] - without == without == 2


def _assert_sweep_matches(sys, order, reports_agree):
    """sweep equals per-column reports on the image it builds, and the LP path to 1e-12."""
    reports = resilience.sweep(sys, range(sys.n_inputs), order)
    assert [r.lost_column for r in reports] == list(range(sys.n_inputs))
    # The budget of a sweep over every column: 2n + 2 per column.
    image = zonotope.build(sys.b_bar, sys.u_min, sys.u_max, lps=2 * (sys.n + sys.n_inputs))
    for rep in reports:
        sp = split(sys, rep.lost_column)
        single = resilience.quantitative_resilience(sp, order, image=image)
        assert rep.to_dict() == single.to_dict()
        reports_agree(rep, resilience.quantitative_resilience(sp, order))
    return reports


@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("order", [None, 2])
def test_sweep_matches_single_reports_catalog(name, order, reports_agree):
    _assert_sweep_matches(catalog.resolve(name), order, reports_agree)


def test_sweep_matches_single_reports_not_controllable(reports_agree):
    sys = IntegratorSystem("nc", 1, np.array([[1.0, 2.0], [0.0, 0.0]]),
                           -np.ones(2), np.ones(2))
    reports = _assert_sweep_matches(sys, None, reports_agree)
    assert not any(r.controllable for r in reports)


def test_sweep_matches_single_reports_zero_column(reports_agree):
    sys = IntegratorSystem("zc", 1, np.array([[1.0, -1.0, 0.0]]), -np.ones(3), np.ones(3))
    reports = _assert_sweep_matches(sys, None, reports_agree)
    assert reports[2].diagnostics.get("zero_column")


def test_sweep_matches_single_reports_unbounded_lambda(
    toy1, unbounded_lp, monkeypatch, reports_agree
):
    # The stub acts on the LP path only: keep the sweep off the gauge.
    monkeypatch.setattr(zonotope, "FACETS_PER_LP", 0)
    reports = _assert_sweep_matches(toy1, 3, reports_agree)
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
