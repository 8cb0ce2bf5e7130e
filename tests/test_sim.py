"""Simulator: exact constant/lag propagation, crossings, scenario ratios."""

import math

import numpy as np
import pytest

from resil import catalog, reach, sim
from resil.errors import ModelError, NonReachError
from resil.model import IntegratorSystem, split


def test_constant_toy2(toy2):
    traj = sim.integrate_constant(toy2, [-1.0, 1.0], horizon=0.5)
    assert traj.position()[-1, 0] == pytest.approx(-1.0, abs=1e-12)


def test_constant_double_integrator_closed_form():
    sys = IntegratorSystem("di", 2, np.array([[1.0]]), np.array([-1.0]), np.array([1.0]))
    traj = sim.integrate_constant(sys, [0.8], horizon=3.0, dt=0.1)
    t = traj.times
    assert traj.position()[:, 0] == pytest.approx(0.8 * t**2 / 2.0, abs=1e-14)
    assert traj.derivative(1)[:, 0] == pytest.approx(0.8 * t, abs=1e-14)


def test_constant_exactness_random_orders():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 4):
        n, v = 2, 3
        sys = IntegratorSystem("r", k, rng.standard_normal((n, v)), -np.ones(v), np.ones(v))
        u = rng.uniform(-1, 1, v)
        traj = sim.integrate_constant(sys, u, horizon=1.7, dt=0.3)
        acc = sys.b_bar @ u
        for j in range(k):
            expected = np.outer(traj.times ** (k - j) / math.factorial(k - j), acc)
            assert traj.derivative(j) == pytest.approx(expected, abs=1e-12)


def test_constant_input_outside_box(toy2):
    with pytest.raises(ModelError, match="outside"):
        sim.integrate_constant(toy2, [5.0, 0.5], horizon=1.0)


def test_lag_exponential_convergence():
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-1.0]), np.array([2.0]))
    traj = sim.integrate_with_lag(sys, np.array([1.0]), tau=0.1, horizon=0.4)
    assert traj.inputs[-1, 0] == pytest.approx(1.0 - math.exp(-4.0), abs=1e-12)


def test_lag_dt_too_coarse():
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-1.0]), np.array([2.0]))
    with pytest.raises(ModelError, match="too coarse"):
        sim.integrate_with_lag(sys, np.array([1.0]), tau=0.1, horizon=1.0, dt=0.05)


def test_lag_command_outside_box():
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-1.0]), np.array([2.0]))
    with pytest.raises(ModelError, match="outside"):
        sim.integrate_with_lag(sys, np.array([5.0]), tau=0.1, horizon=1.0)


def test_lag_vanishing_tau_approaches_constant(toy2):
    u = np.array([-1.0, 1.0])
    const = sim.integrate_constant(toy2, u, horizon=0.5, dt=1e-3)
    lag = sim.integrate_with_lag(toy2, u, tau=1e-4, horizon=0.5, dt=1e-5)
    # Compare on the common grid via interpolation of the lag run; the sup-norm
    # gap is of order tau * |B u|.
    x_lag = np.interp(const.times, lag.times, lag.position()[:, 0])
    assert np.abs(x_lag - const.position()[:, 0]).max() < 1e-3


def test_lag_piecewise_schedule():
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-2.0]), np.array([2.0]))
    schedule = [(0.0, np.array([1.0])), (0.5, np.array([-1.0]))]
    traj = sim.integrate_with_lag(sys, schedule, tau=0.05, horizon=1.5)
    # Input converges to 1 then to -1 after the switch.
    i_mid = np.searchsorted(traj.times, 0.5) - 1
    assert traj.inputs[i_mid, 0] == pytest.approx(1.0, abs=1e-3)
    assert traj.inputs[-1, 0] == pytest.approx(-1.0, abs=1e-3)


def test_lag_state_matches_quadrature():
    # k = 1 analytic check: x(t) = a*t + b*tau*(1 - exp(-t/tau)) from rest.
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-2.0]), np.array([2.0]))
    tau, u_c = 0.2, 1.4
    traj = sim.integrate_with_lag(sys, np.array([u_c]), tau=tau, horizon=1.0)
    t = traj.times
    expected = u_c * t - u_c * tau * (1.0 - np.exp(-t / tau))
    assert traj.position()[:, 0] == pytest.approx(expected, abs=1e-10)


def test_first_crossing_and_nonreach(toy2):
    traj = sim.integrate_constant(toy2, [-1.0, 1.0], horizon=1.0)
    t = sim.first_crossing(traj, [-1.0], 1.0)  # -x crosses 1 at t = 0.5
    assert t == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(NonReachError):
        sim.first_crossing(traj, [1.0], 1.0)


def test_csv_export(tmp_path, toy2):
    traj = sim.integrate_constant(toy2, [-1.0, 1.0], horizon=0.2, dt=0.1)
    path = tmp_path / "traj.csv"
    traj.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,u1,u2"
    assert len(lines) == 1 + traj.times.size


def test_cross_validation_reach_vs_sim():
    # Simulating the reported optimizers reaches the target at the reported time.
    sys = catalog.octocopter_translational()
    d = np.array([0.0, 0.0, -1.0])
    dt = 1e-3
    nominal = reach.nominal_reach_time(sys, d)
    traj = sim.integrate_constant(sys, nominal.optimizer_u, horizon=2 * nominal.time, dt=dt)
    crossing = sim.first_crossing(traj, d, 1.0)
    assert abs(crossing - nominal.time) <= 2 * dt

    sp = split(sys, 0)
    malf = reach.malfunctioning_reach_time(sp, d)
    u_full = sp.assemble_input(malf.optimizer_u, malf.optimizer_w)
    traj_m = sim.integrate_constant(sys, u_full, horizon=2 * malf.time, dt=dt)
    crossing_m = sim.first_crossing(traj_m, d, 1.0)
    assert abs(crossing_m - malf.time) <= 2 * dt


def test_smooth_reach_ratio_ordering():
    params = catalog.OctocopterParams()
    smooth, bang = sim.smooth_reach_ratio(params, [0, 0, -1], target_speed=1.0)
    assert bang == pytest.approx(1.7738, abs=1e-3)
    assert 1.0 <= smooth < bang


def test_smooth_reach_ratio_monotone_in_tau():
    params = catalog.OctocopterParams()
    gaps = []
    for tau in (0.2, 0.1, 0.05, 0.01):
        smooth, bang = sim.smooth_reach_ratio(params, [0, 0, -1], 1.0, tau=tau)
        gaps.append(bang - smooth)
    assert all(g > 0 for g in gaps)
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_smooth_reach_ratio_validation():
    params = catalog.OctocopterParams()
    with pytest.raises(ModelError, match="vertical"):
        sim.smooth_reach_ratio(params, [1, 0, 0], 1.0)
    with pytest.raises(ModelError, match="positive"):
        sim.smooth_reach_ratio(params, [0, 0, 1], -1.0)
