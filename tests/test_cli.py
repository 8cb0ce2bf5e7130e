"""CLI subcommands, exit codes, machine-readable output."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

import resil.oracle as oracle_module
from resil import catalog, cli, zonotope
from resil.errors import CapacityError
from resil.model import IntegratorSystem, save_system
from resil.reach import ReachResult


@pytest.fixture
def toy2_file(tmp_path, toy2):
    path = tmp_path / "toy2.json"
    save_system(toy2, str(path))
    return str(path)


def test_check_catalog(capsys):
    code = cli.main(["check", "--model", "catalog:octocopter-trans:0", "--lost", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "r(C)=0.765681" in out
    assert "resilient" in out


def test_check_all_order(capsys):
    code = cli.main(["check", "--model", "catalog:octocopter-rot", "--lost", "all",
                     "--order", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("column") == 8


def test_check_rank_deficient(tmp_path, capsys):
    sys = IntegratorSystem("rd", 1, np.array([[1.0, 1.0], [0.0, 0.0]]),
                           -np.ones(2), np.ones(2))
    path = tmp_path / "rd.json"
    save_system(sys, str(path))
    code = cli.main(["check", "--model", str(path), "--lost", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "not resilient to any loss" in out


def test_check_json_output(toy2_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["check", "--model", toy2_file, "--lost", "2", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["reports"][0]["r_q"] == pytest.approx(0.5)


def test_ratio_infinite(capsys):
    code = cli.main(["ratio", "--model", "catalog:octocopter-trans:0",
                     "--lost", "5", "-d", "1,0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t(d)    = ∞" in out


def test_ratio_machine_inf(tmp_path):
    out_path = tmp_path / "r.json"
    cli.main(["ratio", "--model", "catalog:octocopter-trans:0",
              "--lost", "5", "-d", "1,0,0", "--out", str(out_path)])
    doc = json.loads(out_path.read_text())
    assert doc["t"] == "inf"
    assert doc["T_M"] == "inf"


def test_ratio_multi_loss(toy2_file, capsys):
    code = cli.main(["ratio", "--model", toy2_file, "--lost", "2", "-d", "-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t(d)    = 2" in out


def test_reach_with_optimizers(toy2_file, capsys):
    code = cli.main(["reach", "--model", toy2_file, "--lost", "2", "-d", "-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "T_N*(d) = 0.5" in out
    assert "T_M*(d) = 1" in out
    assert "worst w" in out


@pytest.mark.parametrize("model, d, order", [
    # k! T_1 overflows a float from order 168 on, and k! alone from 171.
    ("catalog:spacecraft-printed", "667,0.067,2,2,2,2", 168),
    ("catalog:spacecraft-printed", "667,0.067,2,2,2,2", 170),
    ("catalog:octocopter-trans:0", "0,0,1", 200),
])
def test_reach_at_high_order_is_finite(model, d, order, tmp_path, capsys):
    out_path = tmp_path / "reach.json"
    code = cli.main(["reach", "--model", model, "-d", d, "--order", str(order),
                     "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "∞" not in out and "optimal u" in out
    assert np.isfinite(json.loads(out_path.read_text())["T_N"])


def test_input_error_exit_code(capsys):
    assert cli.main(["check", "--model", "catalog:nope", "--lost", "1"]) == cli.EXIT_INPUT
    assert cli.main(["check", "--model", "/no/such/file.json", "--lost", "1"]) == cli.EXIT_INPUT
    assert cli.main(["check", "--model", "catalog:octocopter-rot", "--lost", "9"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("cmd", [["oracle", "-d", "1,0,0", "--grid", "2", "--samples", "5"],
                                 ["ratio", "-d", "1,0,0"]])
def test_every_column_lost_is_an_input_error(cmd, capsys):
    argv = [cmd[0], "--model", "catalog:octocopter-rot", "--lost", "1,2,3,4,5,6,7,8", *cmd[1:]]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "error: at least one kept column is required" in capsys.readouterr().err


def test_check_failing_model_prints_no_report(tmp_path, capsys):
    path = tmp_path / "one.json"
    save_system(IntegratorSystem("one", 1, np.ones((1, 1)), -np.ones(1), np.ones(1)), str(path))
    assert cli.main(["check", "--model", str(path), "--lost", "all"]) == cli.EXIT_INPUT == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: at least one kept column is required" in err


def test_check_every_column_is_single_losses(capsys):
    lost = ["--lost", "1,2,3,4,5,6,7,8"]
    code = cli.main(["check", "--model", "catalog:octocopter-rot", *lost])
    out = capsys.readouterr().out
    assert code == 0
    assert cli.main(["check", "--model", "catalog:octocopter-rot", "--lost", "all"]) == 0
    assert out == capsys.readouterr().out and out.count("resilient") == 8


def test_ratio_zero_direction(capsys):
    argv = ["ratio", "--model", "catalog:octocopter-trans:0", "--lost", "1", "-d", "0,0,0"]
    assert cli.main(argv) == 0
    assert "T_N*(d) = 0\nT_M*(d) = 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("d", ["0,0", "0,0,0,0", "1,0"])
def test_ratio_direction_of_wrong_length(d, capsys):
    argv = ["ratio", "--model", "catalog:octocopter-trans:0", "--lost", "1", "-d", d]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "direction must have length 3" in capsys.readouterr().err


def test_reach_lost_out_of_range_prints_nothing(capsys):
    argv = ["reach", "--model", "catalog:octocopter-trans:0", "-d", "0,0,1", "--lost", "9"]
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "--lost index 9 out of range 1..8" in err


@pytest.mark.parametrize("cmd", [["reach"], ["ratio", "--lost", "1"],
                                 ["oracle", "--lost", "1", "--grid", "2", "--samples", "5"]])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_direction_is_an_input_error(cmd, bad, capsys):
    argv = [cmd[0], "--model", "catalog:octocopter-trans:0", *cmd[1:], f"--direction={bad},0,1"]
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "non-finite component" in err


@pytest.mark.parametrize("cmd", [["check"], ["reach", "-d", "0,0,1"]])
def test_repeated_lost_column_is_an_input_error(cmd, capsys):
    argv = [cmd[0], "--model", "catalog:octocopter-trans:0", *cmd[1:], "--lost", "1,1"]
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "--lost index 1 repeated" in err


#: Each subcommand that takes --order, on octocopter-trans:0 with propeller 1 lost.
ORDER_OPS = {
    "check": ["check", "--lost", "all"],
    "ratio": ["ratio", "--lost", "1", "-d", "0,0,1"],
    "reach": ["reach", "--lost", "1", "-d", "0,0,1"],
    "oracle": ["oracle", "--lost", "1", "-d", "0,0,1", "--grid", "5", "--samples", "20"],
}


def test_check_order_zero(capsys):
    # The system checks the order --order gives it, before any output of any subcommand.
    for name, (cmd, *args) in ORDER_OPS.items():
        argv = [cmd, "--model", "catalog:octocopter-trans:0", *args, "--order", "0"]
        assert cli.main(argv) == cli.EXIT_INPUT, name
        out, err = capsys.readouterr()
        assert out == "" and err == "error: order must be a positive integer, got 0\n", name


@pytest.mark.parametrize("name", ORDER_OPS)
def test_order_past_2_to_the_53_is_an_input_error(name, tmp_path, capsys):
    # Every order-k formula takes 1.0 / k, which holds k exactly up to 2**53 and overflows
    # from 2**1024 on.  The bound runs; past it, --order and a model file's order are input
    # errors: exit 1, one error line, nothing on stdout, no OverflowError traceback.
    cmd, *args = ORDER_OPS[name]
    path = tmp_path / "model.json"
    save_system(catalog.octocopter_translational(), str(path))
    doc = json.loads(path.read_text())
    catalog_op = [cmd, "--model", "catalog:octocopter-trans:0", *args]
    code, out, _, _ = _op(catalog_op + ["--order", str(2**53)], tmp_path / "op.json", capsys)
    assert code == 0 and out
    for order in (2**53 + 1, 2**1024):
        path.write_text(json.dumps({**doc, "order": order}))
        for argv in (catalog_op + ["--order", str(order)], [cmd, "--model", str(path), *args]):
            code, out, err, _ = _op(argv, tmp_path / "op.json", capsys)
            error = f"error: order must be at most 2**53, got {order}\n"
            assert (code, out, err) == (1, "", error)


@pytest.mark.parametrize("name", ORDER_OPS)
def test_order_flag_equals_a_model_saved_at_that_order(name, tmp_path, capsys):
    # --order k replaces the order of the loaded system, once: every value of the op is
    # the model's at order k, the oracle's homogeneity probe too.
    path = tmp_path / "order2.json"
    save_system(dataclasses.replace(catalog.octocopter_translational(), order=2), str(path))
    cmd, *args = ORDER_OPS[name]
    flag, saved, order1 = (
        _op([cmd, "--model", model, *args, *extra], tmp_path / "op.json", capsys)
        for model, extra in (("catalog:octocopter-trans:0", ["--order", "2"]), (str(path), []),
                             ("catalog:octocopter-trans:0", [])))
    assert flag == saved and flag[0] == 0
    assert flag[1] != order1[1] and flag[3] != order1[3]


def test_capacity_exit_code(tmp_path, capsys):
    sys = IntegratorSystem("wide", 1, np.ones((1, 25)), np.zeros(25), np.ones(25))
    path = tmp_path / "wide.json"
    save_system(sys, str(path))
    lost = ",".join(str(i) for i in range(1, 24))
    code = cli.main(["ratio", "--model", str(path), "--lost", lost, "-d", "1"])
    assert code == cli.EXIT_CAPACITY


def test_reach_capacity_error_prints_nothing(tmp_path, capsys):
    # 21 lost columns of 24: T_M* needs 2^21 vertices, past P_MAX_DEFAULT = 20.  T_N*
    # alone would succeed, but nothing is printed before T_M* is known.
    b = np.random.default_rng(0).standard_normal((3, 24))
    path = tmp_path / "wide3.json"
    save_system(IntegratorSystem("wide3", 1, b, -np.ones(24), np.ones(24)), str(path))
    lost = ",".join(str(i) for i in range(1, 22))
    code = cli.main(["reach", "--model", str(path), "-d", "1,0,0", "--lost", lost])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY
    assert out == "" and "capacity error" in err


def test_oracle_clean(toy2_file, tmp_path, capsys):
    out_path = tmp_path / "oracle.json"
    code = cli.main(["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1",
                     "--grid", "101", "--samples", "200", "--seed", "7",
                     "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["grid_worst_w"]["max_violation"] == 0.0
    assert doc["direction_scan"]["max_violation"] == 0.0


def test_oracle_corrupted_theory_exits_nonzero(toy2_file, monkeypatch, capsys):
    # Harness self-test: corrupt T_M* and the oracle must catch it (exit 3).
    real = oracle_module.reach.malfunctioning_reach_time

    def corrupted(split, d):
        res = real(split, d)
        return ReachResult(time=res.time * 0.5,
                           optimizer_u=res.optimizer_u, optimizer_w=res.optimizer_w)

    monkeypatch.setattr(oracle_module.reach, "malfunctioning_reach_time", corrupted)
    code = cli.main(["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1",
                     "--grid", "11", "--samples", "0"])
    assert code == cli.EXIT_VIOLATION


def test_oracle_corrupted_resilience_report_exits_nonzero(toy2_file, tmp_path, monkeypatch,
                                                          capsys):
    # Harness self-test of the direction scan: its theory value is 1/r_kq of the report its
    # resilience gate returns.  Double that r_kq, so the theory value halves (2 -> 1), and the
    # sampled directions must find a ratio above it (exit 3).
    real = oracle_module.quantitative_resilience

    def corrupted(split):
        rep = real(split)
        return dataclasses.replace(rep, r_kq=2.0 * rep.r_kq)

    monkeypatch.setattr(oracle_module, "quantitative_resilience", corrupted)
    out_path = tmp_path / "oracle.json"
    code = cli.main(["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1",
                     "--grid", "11", "--samples", "60", "--out", str(out_path)])
    capsys.readouterr()
    assert code == cli.EXIT_VIOLATION
    doc = json.loads(out_path.read_text())
    assert doc["grid_worst_w"]["max_violation"] == 0.0
    assert doc["direction_scan"]["theory_value"] == pytest.approx(1.0, rel=1e-12)
    assert doc["direction_scan"]["max_violation"] > 0.0


def test_oracle_samples_over_the_cap_is_a_capacity_error(toy2_file, monkeypatch, capsys):
    # The scan holds several samples x n arrays: past oracle.GRID_CAP it is refused before
    # any image is built, as the grid is.
    def no_build(*args):
        raise AssertionError("an image was built")

    monkeypatch.setattr(zonotope, "_image", no_build)
    argv = ["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1", "--grid", "11"]
    assert cli.main(argv + ["--samples", str(oracle_module.GRID_CAP + 1)]) == cli.EXIT_CAPACITY
    out, err = capsys.readouterr()
    assert out == ""
    assert f"capacity error: --samples {oracle_module.GRID_CAP + 1} exceeds the cap" in err


def test_oracle_skips_only_an_unsupported_scan(tmp_path, monkeypatch, capsys):
    # A split that is not resilient skips the direction scan (exit 0) ...
    path = tmp_path / "twin.json"
    save_system(IntegratorSystem("twin", 1, np.array([[1.0, 1.0]]), -np.ones(2), np.ones(2)),
                str(path))
    argv = ["oracle", "--model", str(path), "--lost", "1", "-d", "1", "--grid", "5",
            "--samples", "20"]
    assert cli.main(argv) == 0
    assert "direction_scan skipped: direction_scan requires a resilient split" in (
        capsys.readouterr().out)

    # ... but any other error of the scan is the op's error, not a skip.
    def failing(*args):
        raise CapacityError("scan over its cap")

    monkeypatch.setattr(oracle_module, "direction_scan", failing)
    assert cli.main(argv) == cli.EXIT_CAPACITY
    out, err = capsys.readouterr()
    assert "skipped" not in out and "capacity error: scan over its cap" in err


def test_oracle_negative_samples_is_an_input_error(toy2_file, capsys):
    argv = ["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1", "--grid", "11"]
    assert cli.main(argv + ["--samples", "-4"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "error: --samples must be >= 0, got -4" in err
    # 0 still skips the direction scan.
    assert cli.main(argv + ["--samples", "0"]) == 0
    assert "direction_scan" not in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["-1e-9", "nan"])
def test_oracle_negative_or_nan_tol_is_an_input_error(toy2_file, tol, capsys):
    argv = ["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1", "--grid", "11",
            "--samples", "0", f"--tol={tol}"]
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and f"error: --tol must be >= 0, got {float(tol)}" in err


def test_simulate_bang(capsys):
    code = cli.main(["simulate", "octo-vertical-bang"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ratio_bangbang = 1.77" in out


def test_simulate_lag_with_trajectories(tmp_path, capsys):
    code = cli.main(["simulate", "octo-vertical-lag", "--tau", "0.1",
                     "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ordering: ratio_smooth < ratio_bangbang is True" in out
    assert (tmp_path / "octo-vertical-lag-nominal.csv").exists()
    assert (tmp_path / "octo-vertical-lag-malfunctioning.csv").exists()


@pytest.mark.parametrize(
    "dt, message",
    [("-1", "dt must be positive"), ("0", "dt must be positive"),
     ("nan", "dt must be positive"), ("0.05", "too coarse")],
    ids=["negative", "zero", "nan", "coarser-than-tau-over-10"],
)
def test_simulate_bad_dt_is_an_input_error_before_output(tmp_path, capsys, dt, message):
    argv = ["simulate", "octo-vertical-lag", "--tau", "0.1", f"--dt={dt}",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["octo-vertical-lag", "--tau", "nan"], "tau must be positive and finite, got nan"),
    (["octo-vertical-lag", "--tau", "inf"], "tau must be positive and finite, got inf"),
    (["octo-vertical-lag", "--target-speed", "nan"], "target_speed must be positive"),
    (["octo-vertical-lag", "--target-speed", "inf"], "target_speed must be positive"),
    (["octo-vertical-bang", "--target-speed", "nan"], "target_speed must be positive"),
    (["octo-vertical-bang", "--target-speed", "inf"], "target_speed must be positive"),
], ids=["lag-tau-nan", "lag-tau-inf", "lag-speed-nan", "lag-speed-inf", "bang-speed-nan",
        "bang-speed-inf"])
def test_simulate_non_finite_flag_is_an_input_error(capsys, argv, message):
    assert cli.main(["simulate", *argv]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("text, message", [
    (json.dumps({"a": 7000}), "missing required field 'e'"),
    (json.dumps([1, 2]), "must contain a JSON object"),
    ("{", "element file '{path}' is not valid JSON"),
    (None, "cannot read element file '{path}'"),
], ids=["missing-field", "not-an-object", "not-json", "no-file"])
def test_bad_element_file_is_one_error_line(tmp_path, capsys, text, message):
    # The model files' reader reads element files too: each error names the file.
    path = tmp_path / "elements.json"
    if text is not None:
        path.write_text(text)
    message = message.format(path=path)
    argv = ["check", "--model", f"catalog:spacecraft-appendix:{path}", "--lost", "1"]
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("field, value", [
    ("order", 2.7), ("order", True), ("order", "2"), ("labels", "ab"), ("labels", [1, 2]),
], ids=["order-float", "order-bool", "order-string", "labels-string", "labels-numbers"])
def test_model_file_order_and_labels_are_checked(tmp_path, capsys, field, value):
    # Not read as order int(2.7) = 2, order true = 1, or labels "ab" = ("a", "b").
    doc = {"name": "m", "order": 1, "B": [[1.0, -1.0]], "u_min": [-1.0, 0.0], "u_max": [3.0, 1.0]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**doc, field: value}))
    assert cli.main(["check", "--model", str(path), "--lost", "all"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {field} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("name", [["x"], 5, None], ids=["list", "number", "null"])
def test_model_file_name_must_be_a_string(tmp_path, capsys, name):
    # Not printed as "system: ['x']" or "system: 5" by a check that exits 0.
    doc = {"name": name, "order": 1, "B": [[1.0, -1.0]], "u_min": [-1.0, 0.0], "u_max": [3.0, 1.0]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--model", str(path), "--lost", "all"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: name must be a string, got {name!r}\n"


def test_oracle_grid_below_two_is_an_input_error(toy2_file, capsys):
    argv = ["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1", "--grid", "1",
            "--samples", "0"]
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "error: points_per_axis must be >= 2" in err


def test_simulate_vanishing_tau(capsys):
    code = cli.main(["simulate", "octo-vertical-lag", "--tau", "1e-4"])
    out = capsys.readouterr().out
    assert code == 0
    smooth = float(out.split("ratio_smooth   = ")[1].split()[0])
    bang = float(out.split("ratio_bangbang = ")[1].split()[0])
    assert smooth == pytest.approx(bang, abs=1e-3)


def test_catalog_list(capsys):
    code = cli.main(["catalog-list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "spacecraft-printed" in out
    assert "octocopter-rot" in out


def test_machine_output_deterministic(toy2_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["check", "--model", toy2_file, "--lost", "all", "--out", str(a)])
    cli.main(["check", "--model", toy2_file, "--lost", "all", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_main_builds_one_parser_per_process(toy2_file, monkeypatch, capsys):
    inits = [0]
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        inits[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser()
    one_build = inits[0]
    cli._parser.cache_clear()
    for argv in (["catalog-list"],
                 ["check", "--model", "catalog:octocopter-trans:0", "--lost", "1"],
                 ["ratio", "--model", "catalog:octocopter-trans:0", "--lost", "1", "-d", "0,0,1"],
                 ["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1", "--grid", "11"],
                 ["simulate", "octo-vertical-bang"]):
        assert cli.main(argv) == 0
    assert inits[0] - one_build == one_build


def _op(argv, out_path, capsys):
    """(exit code, stdout, stderr, --out JSON or None) of one cli.main call."""
    out_path.unlink(missing_ok=True)
    try:
        code = cli.main(argv + ["--out", str(out_path)])
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, out_path.read_text() if out_path.exists() else None


def test_kept_parser_matches_a_fresh_one(toy2_file, tmp_path, monkeypatch, capsys):
    check = ["check", "--model", "catalog:octocopter-trans:0", "--lost", "1"]
    oracle = ["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1", "--grid", "11"]
    ops = [check + ["--order", "2"], check,
           oracle + ["--samples", "0"], oracle,
           check + ["--bogus"], check,
           ["--help"], check,
           ["check", "--help"], oracle]
    out_path = tmp_path / "op.json"
    cli._parser.cache_clear()
    kept = [_op(argv, out_path, capsys) for argv in ops]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per op
    fresh = [_op(argv, out_path, capsys) for argv in ops]
    assert kept == fresh
    assert [k[0] for k in kept] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert kept[0][1] != kept[1][1] and kept[2][1] != kept[3][1]
    assert kept[4][1] == "" and kept[4][2].startswith("usage: resil")
    assert kept[4][3] is None and kept[6][1].startswith("usage: resil")
