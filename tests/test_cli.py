"""CLI subcommands, exit codes, machine-readable output."""

import json

import numpy as np
import pytest

import resil.oracle as oracle_module
from resil import cli
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


def test_input_error_exit_code(capsys):
    assert cli.main(["check", "--model", "catalog:nope", "--lost", "1"]) == cli.EXIT_INPUT
    assert cli.main(["check", "--model", "/no/such/file.json", "--lost", "1"]) == cli.EXIT_INPUT
    assert cli.main(["check", "--model", "catalog:octocopter-rot", "--lost", "9"]) == cli.EXIT_INPUT


def test_check_order_zero(capsys):
    code = cli.main(["check", "--model", "catalog:octocopter-rot", "--lost", "1", "--order", "0"])
    assert code == cli.EXIT_INPUT
    assert "order must be >= 1" in capsys.readouterr().err


def test_capacity_exit_code(tmp_path, capsys):
    sys = IntegratorSystem("wide", 1, np.ones((1, 25)), np.zeros(25), np.ones(25))
    path = tmp_path / "wide.json"
    save_system(sys, str(path))
    lost = ",".join(str(i) for i in range(1, 24))
    code = cli.main(["ratio", "--model", str(path), "--lost", lost, "-d", "1"])
    assert code == cli.EXIT_CAPACITY


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

    def corrupted(split, d, order=None, p_max=20, **kwargs):
        res = real(split, d, order=order, p_max=p_max, **kwargs)
        return ReachResult(time=res.time * 0.5, order=res.order,
                           optimizer_u=res.optimizer_u, optimizer_w=res.optimizer_w)

    monkeypatch.setattr(oracle_module.reach, "malfunctioning_reach_time", corrupted)
    code = cli.main(["oracle", "--model", toy2_file, "--lost", "2", "-d", "-1",
                     "--grid", "11", "--samples", "0"])
    assert code == cli.EXIT_VIOLATION


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
