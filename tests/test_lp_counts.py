"""Each op solves each LP once: machine-independent LP counts, and the sweep API
agreeing with the per-column reports it replaces."""

import dataclasses
import json
import math

import numpy as np
import pytest

from resil import catalog, cli, lp, reach, resilience, zonotope
from resil.model import IntegratorSystem, save_system, split, to_machine

CATALOG = ["spacecraft-printed", "spacecraft-appendix", "octocopter-rot", "octocopter-trans:0"]


@pytest.fixture
def unbounded_lp(monkeypatch):
    """Every scaling LP reports an unbounded lam.

    Finite input boxes never make the scaling LP unbounded, so this degenerate
    case (lam+/- = inf, reach times 0) is reached by stubbing the LP.
    """
    monkeypatch.setattr(
        lp, "max_scaled_direction",
        lambda *args, **kwargs: lp.DirectionScaling(math.inf),
    )


@pytest.mark.parametrize("name", ["spacecraft-printed", "octocopter-trans:0"])
def test_check_all_work(name, lp_solves, zonotope_builds, gauge_calls, capsys):
    code = cli.main(["check", "--model", "catalog:" + name, "--lost", "all"])
    capsys.readouterr()
    assert code == 0
    # One build of B_bar's image and one leave-one-out pass for every column's
    # lambda+/-, for 14 columns as for 8.  Controllability is read off the image's
    # slab sides: no gauge batch over the axes (1 -> 0 scalings).
    scalings, passes = gauge_calls
    assert (zonotope_builds[0], scalings[0], passes[0], lp_solves[0]) == (1, 0, 1, 0)


def test_check_declined_build_lp_count(lp_solves, zonotope_builds, monkeypatch, capsys):
    sys = catalog.spacecraft_printed()
    argv = ["check", "--model", "catalog:spacecraft-printed", "--lost", "1"]
    # 2 C(14, 5) = 4004 candidates, within MAX_CANDIDATES: one build of B_bar
    # decides controllability and column 1's lambda+/-, with no LP.
    assert zonotope.candidate_count(sys.n, 14) == 4004 <= zonotope.MAX_CANDIDATES
    assert cli.main(argv) == 0
    assert (zonotope_builds[0], lp_solves[0]) == (1, 0)
    # Declined, LPs decide: controllability (2n) plus the lambda+/- pair.
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert (zonotope_builds[0], lp_solves[0]) == (1, 2 * sys.n + 2) == (1, 14)


def test_sweep_rank_fallback_lp_count(toy1, lp_solves, reports_agree, fresh, monkeypatch):
    # Column 2 is TOY1's only one along e2: without it the kept generators
    # have rank 1 and C lies outside their span, so the pass gives its
    # lambda+/- as 0 after the cut, with no LP.
    image = zonotope.build(toy1.b_bar, toy1.u_min, toy1.u_max)
    assert image is not None
    assert resilience._lambda_pairs(toy1, [1], np.ones(1), image).tolist() == [[0.0, 0.0]]
    reports = resilience.sweep(toy1, range(3))
    assert lp_solves[0] == 0
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)  # a copy builds nothing: LPs decide
    for got, ref in zip(reports, resilience.sweep(fresh(toy1), range(3))):
        reports_agree(got, ref)


def _ratio_case(model, lost, d, p, lps):
    # The id keeps the (model, lost, d, p) form the case was first listed under.
    return pytest.param(model, lost, d, p, lps, id=f"{model}-{lost}-{d}-{p}")


@pytest.mark.parametrize(
    "model, lost, d, p, lps",
    [
        # T_M* and its worst vertex from B's eroded slabs, T_N* from B_bar's one-ray pass,
        # and ratio prints no optimizer: no LP (2 -> 0: the LP at the worst vertex and
        # T_N*'s restated those times).
        _ratio_case("catalog:octocopter-trans:0", "1", "0,0,-1", 1, 0),
        _ratio_case("catalog:octocopter-rot", "5,6,7,8", "1,0,0", 4, 0),
        # The same at n = 6: B's 2 C(13, 5) = 2574 candidates and B_bar's 4004.
        _ratio_case("catalog:spacecraft-printed", "3", "0,0,0,0,0,1", 1, 0),
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
    # B_bar the probe, the scan's directions and its resilience gate.  The op
    # solves no LP: the grid theory's T_M*(d) and the probe's T_M*(10d) are B's eroded
    # slabs' times, its T_N*(10d) B_bar's one-ray pass's, and the op prints no
    # optimizer (3 -> 0; 7 -> 3 before, when the scan's theory value, now 1/r_kq of
    # its gate's report, took t(+/-C)'s T_M* and T_N*).
    assert zonotope_builds[0] == 2
    assert lp_solves[0] == 3 - 3 == 0
    assert lp_pivots[0] == 0


def test_oracle_scan_op_screens_and_starts(gauge_calls, zonotope_starts, capsys):
    assert cli.main(SCAN_OP) == 0
    capsys.readouterr()
    # No T_M* screens its vertices: the grid theory and the probe's T_M*(10d) take
    # theirs from B's eroded slabs.  The resilience gate reads controllability off
    # B_bar's slab sides, with no batch over its axes.  The grid scan, time_ratios' two
    # batches and the probe's two remain: 5 scalings.  One start pass, the probe's
    # T_N*(10d), whose time it gives (3 -> 1 when the scan dropped t(+/-C)); it names
    # a facet no LP starts at, since the op reads no optimizer_u.
    assert (gauge_calls[0][0], zonotope_starts[0]) == (5, 1)


def test_oracle_scan_op_cold_pivots(lp_solves, lp_pivots, monkeypatch, capsys):
    # Every start refused at the LP: the op still solves nothing, so no cold pivot runs.
    # The 20 pivots of T_M*(d) (6), T_N*(10d) (8) and T_M*(10d) (6) went with those 3
    # LPs (51 -> 20 when t(+/-C)'s four went, 8 + 9 + 6 + 8, and now 20 -> 0).
    monkeypatch.setattr(lp, "_hinted_start", lambda *args: None)
    assert cli.main(SCAN_OP) == 0
    capsys.readouterr()
    assert lp_solves[0] == 0
    assert lp_pivots[0] == 51 - 31 - (6 + 8 + 6) == 0


@pytest.mark.parametrize(
    "argv, solves, pivots",
    [
        # simulate integrates both optimizers: T_M*'s LP starts at the eroded slab of B's
        # image where its ray leaves, T_N*'s at B_bar's facet: 0 pivots.
        (["simulate", "octo-vertical-lag"], 2, 0),
        # Both images are built, but along e1 neither start would hold (the basic point
        # leaves its box).  ratio reads no optimizer, so neither LP runs (2 -> 0, 15 + 13
        # cold pivots -> 0); reach prints T_N*'s u, whose LP runs cold with 15 pivots.
        (["ratio", "--model", "catalog:spacecraft-printed", "--lost", "3",
          "-d", "1,0,0,0,0,0"], 0, 0),
        (["reach", "--model", "catalog:spacecraft-printed", "--lost", "3",
          "-d", "1,0,0,0,0,0"], 1, 15),
        # B has rank 1 (the four identical vertical propellers 1-4 are its only
        # columns): its build is declined, and T_M*'s screen solves all 2^4 vertex LPs
        # cold (_times, as a gauge batch answers every vertex; before, the loop stopped
        # at the second, infinite, vertex): 5 pivots at the first vertex, 2 at each of
        # 10 more and 1 at the other 5.  T_M* is infinite and reach prints no T_M*
        # optimizer; T_N*'s printed u starts at B_bar's facet with no pivot (3 -> 17).
        # Three vertices whose shift -C w falls on B's vertical line only up to rounding
        # (the tilted propellers' horizontal parts cancel) end infeasible under the
        # SkylakeX and Haswell kernels, optimal after 5 pivots each under Prescott and
        # Sandybridge: 30 or 40 pivots.  Vertex 1 is infeasible under all four, so T_M*
        # is +inf at it either way.
        (["reach", "--model", "catalog:octocopter-trans:0", "-d", "0,0,1",
          "--lost", "5,6,7,8"], 1 + 2**4, (5 + 2 * 10 + 1 * 5, 5 + 3 * 5 + 2 * 8 + 1 * 4)),
    ],
    ids=["simulate-lag", "ratio-refused-starts", "reach-refused-start",
         "reach-rank-deficient"],
)
def test_op_pivots(lp_solves, lp_pivots, capsys, argv, solves, pivots):
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert lp_solves[0] == solves and lp_pivots[0] in np.atleast_1d(pivots)


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
    # B_bar's one-ray pass gives T_N*.  No gauge batch: the worst vertex and its time
    # come from B's eroded slabs, not a screen.  ratio reads no optimizer: no LP
    # (the two started LPs, each with no pivot, restated those times).
    assert (zonotope_builds[0], *(calls[0] for calls in gauge_calls)) == (2, 0, 0)
    assert solves == []


@pytest.mark.parametrize("argv", [["simulate", "octo-vertical-lag"], ["ratio", "--model",
                                  "catalog:octocopter-rot", "--lost", "5,6,7,8", "-d", "1,0,0"]])
def test_started_ops_never_reach_the_simplex(monkeypatch, capsys, argv):
    # Every LP of these ops starts at an accepted facet, an optimum returned as it stands.
    def no_simplex(*args):
        raise AssertionError("an accepted start reached the simplex")

    monkeypatch.setattr(lp, "_simplex", no_simplex)
    assert cli.main(argv) == 0
    capsys.readouterr()


def test_ratio_op_over_156_candidates_starts_t_n(tmp_path, zonotope_builds, monkeypatch,
                                                capsys):
    # n = 3 and 13 columns: B_bar's 2 C(13, 2) = 156 candidates (as multiloss's p >= 8
    # ops) and B's 132 are built.  ratio takes both times from them with no LP; reach
    # prints T_N*'s u, whose LP starts at B_bar's facet with no pivot.
    b = np.random.default_rng(2).standard_normal((3, 13))
    path = tmp_path / "thirteen.json"
    save_system(IntegratorSystem("thirteen", 1, b, -np.ones(13), np.ones(13)), str(path))
    assert zonotope.candidate_count(3, 13) == 156
    solves = []  # (started, pivots) per lp.solve
    real = lp.solve

    def recording(problem, basis=None):
        out = real(problem, basis)
        solves.append((basis is not None, out.pivots))
        return out

    monkeypatch.setattr(lp, "solve", recording)
    assert cli.main(["ratio", "--model", str(path), "--lost", "1", "-d", "1,0,0"]) == 0
    assert zonotope_builds[0] == 2 and solves == []
    assert cli.main(["reach", "--model", str(path), "--lost", "1", "-d", "1,0,0"]) == 0
    capsys.readouterr()
    assert zonotope_builds[0] == 4
    assert solves == [(True, 0)]


#: (octocopter-trans yaw, lost column, d, seed) of scan-workload oracle ops (plan seed 1)
#: whose started LPs fell back to the cold start, 4, 4, 2 and 1 of them, before tied
#: columns could move: each poses a facet with identical propeller columns.
TIED_SCAN_OPS = [
    ("161.4294515996179", "4", "0.49709871326222227,-0.1505085557139634,0.8545408380703287",
     "43088"),
    ("213.0624223918022", "1", "0.8771063637542513,0.45491796338586604,-0.15405866821003836",
     "15094"),
    ("89.73605492794793", "2", "-0.39328716740296693,-0.8301406211138712,0.39521102354669574",
     "56226"),
    ("258.7604700318183", "3", "-0.3288273501628524,0.321941091883503,0.887821213500632",
     "34010"),
]


@pytest.mark.parametrize(
    "yaw, lost, d, seed", TIED_SCAN_OPS, ids=[f"yaw{op[0][:3]}-lost{op[1]}" for op in TIED_SCAN_OPS]
)
def test_oracle_tied_facets_take_no_cold_start(monkeypatch, capsys, yaw, lost, d, seed):
    solves = []  # (started, pivots) per lp.solve
    real = lp.solve

    def recording(problem, basis=None):
        out = real(problem, basis)
        solves.append((basis is not None, out.pivots))
        return out

    monkeypatch.setattr(lp, "solve", recording)
    argv = ["oracle", "--model", f"catalog:octocopter-trans:{yaw}", "--lost", lost,
            f"--direction={d}", "--grid", "21", "--samples", "60", "--seed", seed]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert solves == []  # the op's times are the gauge's
    # The LPs the op solved before, T_M*(d), T_M*(10 d) and T_N*(10 d), now run only for
    # an optimizer: each starts at its facet, and a start that settles takes no pivot.
    sys = catalog.resolve(f"octocopter-trans:{yaw}")
    sp, ray = split(sys, int(lost) - 1), np.array(d.split(","), dtype=float)
    for result in (reach.malfunctioning_reach_time(sp, ray),
                   reach.malfunctioning_reach_time(sp, 10.0 * ray),
                   reach.nominal_reach_time(sys, 10.0 * ray)):
        assert result.optimizer_u is not None
    assert solves == [(True, 0)] * 3


def test_oracle_declined_build_counts(lp_solves, zonotope_builds, monkeypatch, capsys):
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    assert cli.main(SCAN_OP) == 0
    capsys.readouterr()
    # Every build is declined: no image is built, and every LP is solved, repeats
    # included.  Grid theory 2
    # (both vertices), the 21 grid points (its two end points repeat those vertices:
    # 19 -> 21), the gate's 2n + 2 = 8, which also gives the scan's theory value (no
    # t(+/-C): 232 -> 226), 60 directions x 3, and the homogeneity probe's T_N*(10d)
    # and T_M*(10d)'s 2 vertex LPs plus 4 T_N* and 4 x 2 vertex LPs for its rays d,
    # 0.5d, 2d and 10d (1 -> 15).
    assert zonotope_builds[0] == 0
    assert lp_solves[0] == 2 + 21 + 8 + 180 + 15 == 226


def test_oracle_scan_ops_reuse_nothing_across_ops(lp_solves, zonotope_builds, capsys):
    # Each op loads its own system: the second op builds its 2 images again.  Neither
    # solves an LP (7 -> 3 per op when the scan's theory value took none, 3 -> 0 since
    # the times are the gauge's).
    assert cli.main(SCAN_OP) == 0
    assert (zonotope_builds[0], lp_solves[0]) == (2, 0)
    assert cli.main(SCAN_OP) == 0
    capsys.readouterr()
    assert (zonotope_builds[0], lp_solves[0]) == (4, 0)


def test_system_builds_its_image_once(zonotope_builds, fresh):
    sc = catalog.spacecraft_printed()
    d = catalog.SPACECRAFT_TARGET_DISTANCE
    # T_N*, the sweep and a gauge batch of T_N* all take the system's one 4004-candidate
    # image, built at the first of them.
    reach.nominal_reach_time(sc, d)
    image = sc.image
    assert image is not None and zonotope_builds[0] == 1
    resilience.sweep(sc, range(sc.n_inputs))
    reach.nominal_times(sc, np.vstack([d, -d]))
    assert sc.image is image and zonotope_builds[0] == 1
    # A copy of the system builds its own.
    assert fresh(sc).image is not image and zonotope_builds[0] == 2


def test_split_builds_its_image_once(zonotope_builds):
    sp = split(catalog.octocopter_translational(), 0)
    d = np.array([0.0, 0.0, -1.0])
    times = [reach.malfunctioning_reach_time(sp, d).time for _ in range(3)]
    reach.worst_times(sp, np.vstack([d, -d]))
    # B's image, built at the first T_M*, serves the next two and the gauge batch.
    assert times == [times[0]] * 3 and zonotope_builds[0] == 1
    assert sp.image is not None and split(sp.base, 0).image is not sp.image


def test_split_keeps_rank_decline(monkeypatch):
    # B has rank 1: its build is declined once, and the split keeps the decline.
    sys = IntegratorSystem("rd", 1, np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]]),
                           -np.ones(3), np.ones(3))
    sp, d = split(sys, 2), np.array([1.0, 2.0])
    tried = []  # builds past the MAX_CANDIDATES check
    real = zonotope._image
    monkeypatch.setattr(zonotope, "_image", lambda *args: tried.append(1) or real(*args))
    for _ in range(2):
        reach.malfunctioning_reach_time(sp, d)
        reach.malfunction_times(sp, np.array([[-1.0], [1.0]]), d)
    assert sp.image is None and len(tried) == 1


def test_over_cap_objects_build_nothing(lp_solves, monkeypatch):
    # Over MAX_CANDIDATES, build declines before any work, and each object keeps its None:
    # every answer comes from the LP path, and raising the cap later changes nothing.
    tried, real, cap = [], zonotope._image, zonotope.MAX_CANDIDATES
    monkeypatch.setattr(zonotope, "_image", lambda *args: tried.append(1) or real(*args))
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    sp = split(catalog.octocopter_translational(), 0)
    d = np.array([0.0, 0.0, -1.0])
    assert math.isfinite(reach.time_ratio(sp, d))
    resilience.sweep(sp.base, range(sp.base.n_inputs))
    assert (sp.image, sp.base.image, tried) == (None, None, [])
    assert lp_solves[0] > 0
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", cap)
    assert (sp.image, sp.base.image, tried) == (None, None, [])


def test_builds_outside_a_scope_keep_nothing(toy1, zonotope_builds):
    first = zonotope.build(toy1.b_bar, toy1.u_min, toy1.u_max)
    second = zonotope.build(toy1.b_bar, toy1.u_min, toy1.u_max)
    assert first is not second
    assert zonotope_builds[0] == 2


def test_library_calls_outside_a_scope_solve_every_lp(lp_solves):
    sp = split(catalog.octocopter_translational(), 0)
    d = np.array([0.0, 0.0, -1.0])
    reach.time_ratio(sp, d)
    assert lp_solves[0] == 0  # both times from the kept images (2 -> 0)
    # The split keeps its images, not LP outcomes: T_N*'s and T_M*'s optimizers are
    # solved on each result's first read, and only then.
    for _ in range(2):
        results = [reach.nominal_reach_time(sp.base, d), reach.malfunctioning_reach_time(sp, d)]
        for result in results:
            assert result.optimizer_u is result.optimizer_u is not None
    assert lp_solves[0] == 2 * 2


def test_simulate_out_dir_lp_count(lp_solves, gauge_calls, capsys, tmp_path):
    argv = ["simulate", "octo-vertical-lag", "--tau", "0.05"]
    assert cli.main(argv) == 0
    without, screens = lp_solves[0], gauge_calls[0][0]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # T_N*'s and T_M*'s optimizers once each; the trajectories reuse the scenario.
    # T_M*'s worst vertex comes from B's eroded slabs: no screen (1 -> 0 scalings).
    assert lp_solves[0] - without == without == 2
    assert gauge_calls[0][0] - screens == screens == 0


def _assert_sweep_matches(sys, reports_agree, fresh):
    """sweep equals the per-column reports of splits of sys, which take the image of B_bar
    it built; it and per-column reports from copies of sys, each building its own, agree
    with the LP path (copies over a cap of 0 candidates) to 1e-12."""
    reports = resilience.sweep(sys, range(sys.n_inputs))
    assert [r.lost_column for r in reports] == list(range(sys.n_inputs))
    columns = [rep.lost_column for rep in reports]
    kept = [resilience.quantitative_resilience(split(sys, col)) for col in columns]
    own = [resilience.quantitative_resilience(split(fresh(sys), col)) for col in columns]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zonotope, "MAX_CANDIDATES", 0)
        for rep, single, free, col in zip(reports, kept, own, columns):
            assert rep.to_dict() == single.to_dict()
            ref = resilience.quantitative_resilience(split(fresh(sys), col))
            reports_agree(rep, ref)
            reports_agree(free, ref)
    return reports


@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("order", [None, 2])
def test_sweep_matches_single_reports_catalog(name, order, reports_agree, fresh):
    sys = catalog.resolve(name)  # None: at the catalog's order
    _assert_sweep_matches(sys if order is None else dataclasses.replace(sys, order=order),
                          reports_agree, fresh)


def test_sweep_matches_single_reports_not_controllable(reports_agree, fresh):
    sys = IntegratorSystem("nc", 1, np.array([[1.0, 2.0], [0.0, 0.0]]),
                           -np.ones(2), np.ones(2))
    reports = _assert_sweep_matches(sys, reports_agree, fresh)
    assert not any(r.controllable for r in reports)


def test_sweep_matches_single_reports_zero_column(reports_agree, fresh):
    sys = IntegratorSystem("zc", 1, np.array([[1.0, -1.0, 0.0]]), -np.ones(3), np.ones(3))
    reports = _assert_sweep_matches(sys, reports_agree, fresh)
    assert reports[2].diagnostics.get("zero_column")


def test_sweep_matches_single_reports_unbounded_lambda(
    toy1, unbounded_lp, monkeypatch, reports_agree, fresh
):
    # The stub acts on the LP path only: keep the sweep off the gauge.
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    reports = _assert_sweep_matches(dataclasses.replace(toy1, order=3), reports_agree, fresh)
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


def test_ratio_t_matches_time_ratio_both_times_zero(tmp_path, capsys, unbounded_lp, monkeypatch):
    # The stub acts on the LP path only: decline both images.
    monkeypatch.setattr(zonotope, "MAX_CANDIDATES", 0)
    doc = _cli_ratio(tmp_path, "catalog:octocopter-trans:0", "1", "0,0,-1")
    sp = split(catalog.octocopter_translational(), 0)
    assert doc["T_N"] == doc["T_M"] == 0.0
    assert doc["t"] == reach.time_ratio(sp, np.array([0.0, 0.0, -1.0])) == 1.0


@pytest.mark.parametrize("model, lost, d", [
    ("catalog:octocopter-trans:0", "1", "0,0,-1"),  # T_M* from B's eroded slabs
    ("catalog:octocopter-trans:0", "5", "0,0,1"),  # not resilient: the vertex screen
    ("catalog:octocopter-trans:0", "5,6,7,8", "0,0,1"),  # B has rank 1: declined, cold LPs
    ("catalog:spacecraft-printed", "3", "0,0,0,0,0,1"),
], ids=["eroded", "screen", "declined", "spacecraft"])
def test_ratio_and_reach_report_one_time(tmp_path, capsys, model, lost, d):
    # reach solves T_N*'s LP for its printed u, ratio none: both print and write the same
    # T_N* and T_M*, which come from the engine the image allows, not from that LP.
    lines, docs = [], []
    for command in ("ratio", "reach"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, "--model", model, "--lost", lost, "-d", d,
                         "--out", str(out)]) == 0
        lines.append([x for x in capsys.readouterr().out.splitlines() if x.startswith("T_")])
        docs.append(json.loads(out.read_text()))
    assert lines[0] == lines[1] and len(lines[0]) == 2
    assert [doc["T_N"] for doc in docs] == [docs[0]["T_N"]] * 2
    assert [doc["T_M"] for doc in docs] == [docs[0]["T_M"]] * 2
