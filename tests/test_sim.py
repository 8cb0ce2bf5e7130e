"""Simulator: exact lag propagation, crossings, scenario ratios.

The constant-input propagator and the sampled crossing search below are test
references: the program computes crossings in closed form.
"""

import math

import numpy as np
import pytest

from resil import catalog, cli, reach, sim
from resil.errors import ModelError, NonReachError
from resil.model import IntegratorSystem, split

#: Sample spacing of the constant-input reference (s).
DT = 1e-3


def derivative(traj: sim.Trajectory, j: int) -> np.ndarray:
    """The j-th derivative block of the state (j in 0..order-1)."""
    assert 0 <= j < traj.order
    return traj.states[:, j * traj.n : (j + 1) * traj.n]


def integrate_constant(sys, u_bar, horizon, dt=DT) -> sim.Trajectory:
    """Propagate x^(k) = B_bar u_bar for a constant input (exact polynomials)."""
    u_bar = np.atleast_1d(np.asarray(u_bar, dtype=float))
    assert u_bar.shape == (sys.n_inputs,)
    sim._check_in_box(u_bar, sys, "constant input")
    k, n = sys.order, sys.n
    accel = sys.b_bar @ u_bar
    times = sim._sample_grid(horizon, dt)
    states = np.zeros((times.size, n * k))
    for j in range(k):
        # x^(j)(t) = accel * t^(k-j) / (k-j)!, from rest at 0.
        power = k - j
        states[:, j * n : (j + 1) * n] = np.outer(times**power / math.factorial(power), accel)
    inputs = np.tile(u_bar, (times.size, 1))
    return sim.Trajectory(times=times, states=states, inputs=inputs, n=n, order=k)


def first_crossing(traj, component, target, order=0) -> float:
    """First time the projection of a state block onto `component` reaches target.

    Linear interpolation between samples (exact for order-1 constant runs).
    Raises NonReachError when the target is never crossed.
    """
    values = derivative(traj, order) @ np.atleast_1d(np.asarray(component, dtype=float))
    hits = np.flatnonzero(values >= target)
    if hits.size == 0:
        raise NonReachError(f"target {target} never crossed within horizon {traj.times[-1]:.6g} s")
    i = int(hits[0])
    if i == 0:
        return float(traj.times[0])
    v0, v1 = values[i - 1], values[i]
    t0, t1 = traj.times[i - 1], traj.times[i]
    if v1 == v0:
        return float(t1)
    return float(t0 + (target - v0) / (v1 - v0) * (t1 - t0))


def test_constant_toy2(toy2):
    traj = integrate_constant(toy2, [-1.0, 1.0], horizon=0.5)
    assert traj.position()[-1, 0] == pytest.approx(-1.0, abs=1e-12)


def test_constant_double_integrator_closed_form():
    sys = IntegratorSystem("di", 2, np.array([[1.0]]), np.array([-1.0]), np.array([1.0]))
    traj = integrate_constant(sys, [0.8], horizon=3.0, dt=0.1)
    t = traj.times
    assert traj.position()[:, 0] == pytest.approx(0.8 * t**2 / 2.0, abs=1e-14)
    assert derivative(traj, 1)[:, 0] == pytest.approx(0.8 * t, abs=1e-14)


def test_constant_exactness_random_orders():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 4):
        n, v = 2, 3
        sys = IntegratorSystem("r", k, rng.standard_normal((n, v)), -np.ones(v), np.ones(v))
        u = rng.uniform(-1, 1, v)
        traj = integrate_constant(sys, u, horizon=1.7, dt=0.3)
        acc = sys.b_bar @ u
        for j in range(k):
            expected = np.outer(traj.times ** (k - j) / math.factorial(k - j), acc)
            assert derivative(traj, j) == pytest.approx(expected, abs=1e-12)


def test_constant_input_outside_box(toy2):
    with pytest.raises(ModelError, match="outside"):
        integrate_constant(toy2, [5.0, 0.5], horizon=1.0)


def test_lag_exponential_convergence():
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-1.0]), np.array([2.0]))
    traj = sim.integrate_with_lag(sys, np.array([1.0]), tau=0.1, horizon=0.4)
    assert traj.inputs[-1, 0] == pytest.approx(1.0 - math.exp(-4.0), abs=1e-12)


@pytest.mark.parametrize(
    "tau, horizon, samples",
    [
        (0.1, 0.9, 901),  # tau/100 keeps fewer than LAG_SAMPLES samples
        (0.05, 1.5, sim.LAG_SAMPLES + 1),  # horizon/LAG_SAMPLES between tau/100 and tau/10
        (1e-3, 0.9, 9001),  # capped at tau/10
    ],
)
def test_lag_default_spacing_bounds_samples(tau, horizon, samples):
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-1.0]), np.array([2.0]))
    traj = sim.integrate_with_lag(sys, np.array([1.0]), tau=tau, horizon=horizon)
    assert traj.times.size == samples


def test_simulate_out_dir_rows(tmp_path, capsys):
    # 907 rows (header included) at the default tau = 0.1, as with dt = tau/100;
    # tau = 1e-3 writes dt = tau/10 rows over the same horizon, not tau/100.
    for tau, rows in (("0.1", 907), ("1e-3", 9043)):
        argv = ["simulate", "octo-vertical-lag", "--tau", tau, "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        for tag in ("nominal", "malfunctioning"):
            text = (tmp_path / f"octo-vertical-lag-{tag}.csv").read_text()
            assert text.count("\n") == rows
    capsys.readouterr()


def test_lag_dt_too_coarse():
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-1.0]), np.array([2.0]))
    with pytest.raises(ModelError, match="too coarse"):
        sim.integrate_with_lag(sys, np.array([1.0]), tau=0.1, horizon=1.0, dt=0.05)


def test_lag_command_outside_box():
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-1.0]), np.array([2.0]))
    with pytest.raises(ModelError, match="outside"):
        sim.integrate_with_lag(sys, np.array([5.0]), tau=0.1, horizon=1.0)


def test_lag_rest_outside_box():
    # The lag starts from u = 0, which this box leaves out.
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([0.5]), np.array([2.0]))
    with pytest.raises(ModelError, match="initial input outside"):
        sim.integrate_with_lag(sys, np.array([1.0]), tau=0.1, horizon=1.0)


def test_lag_vanishing_tau_approaches_constant(toy2):
    u = np.array([-1.0, 1.0])
    const = integrate_constant(toy2, u, horizon=0.5, dt=1e-3)
    lag = sim.integrate_with_lag(toy2, u, tau=1e-4, horizon=0.5, dt=1e-5)
    # Compare on the common grid via interpolation of the lag run; the sup-norm
    # gap is of order tau * |B u|.
    x_lag = np.interp(const.times, lag.times, lag.position()[:, 0])
    assert np.abs(x_lag - const.position()[:, 0]).max() < 1e-3


@pytest.mark.parametrize("k", [2, 3])
def test_lag_from_rest_matches_closed_form(k):
    # x^(k) = b u with u' = (c - u)/tau from rest: u = c (1 - e), e = exp(-t/tau), and
    # x^(k-m) = b c F_m(t), F_m the m-fold integral of 1 - e from 0:
    #   F_1 = t - tau (1 - e)
    #   F_2 = t^2/2 - tau t + tau^2 (1 - e)
    #   F_3 = t^3/6 - tau t^2/2 + tau^2 t - tau^3 (1 - e).
    b, c, tau = 0.7, 1.5, 0.08
    sys = IntegratorSystem("lag", k, np.array([[b]]), np.array([-2.0]), np.array([2.0]))
    traj = sim.integrate_with_lag(sys, np.array([c]), tau=tau, horizon=1.0, dt=5e-3)
    t = traj.times
    rise = -np.expm1(-t / tau)
    f = {1: t - tau * rise,
         2: t**2 / 2.0 - tau * t + tau**2 * rise,
         3: t**3 / 6.0 - tau * t**2 / 2.0 + tau**2 * t - tau**3 * rise}
    assert np.abs(traj.position()[:, 0] - b * c * f[k]).max() <= 1e-12
    assert np.abs(derivative(traj, 1)[:, 0] - b * c * f[k - 1]).max() <= 1e-12
    assert np.abs(traj.inputs[:, 0] - c * rise).max() <= 1e-12


def test_lag_state_matches_quadrature():
    # k = 1 analytic check: x(t) = a*t + b*tau*(1 - exp(-t/tau)) from rest.
    sys = IntegratorSystem("one", 1, np.array([[1.0]]), np.array([-2.0]), np.array([2.0]))
    tau, u_c = 0.2, 1.4
    traj = sim.integrate_with_lag(sys, np.array([u_c]), tau=tau, horizon=1.0)
    t = traj.times
    expected = u_c * t - u_c * tau * (1.0 - np.exp(-t / tau))
    assert traj.position()[:, 0] == pytest.approx(expected, abs=1e-10)


def test_first_crossing_and_nonreach(toy2):
    traj = integrate_constant(toy2, [-1.0, 1.0], horizon=1.0)
    t = first_crossing(traj, [-1.0], 1.0)  # -x crosses 1 at t = 0.5
    assert t == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(NonReachError):
        first_crossing(traj, [1.0], 1.0)


def test_first_crossing_matches_sample_scan():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.01, 0.1, 200))
    values = np.cumsum(rng.standard_normal(200))
    traj = sim.Trajectory(times, values[:, None], np.zeros((200, 1)), n=1, order=1)
    for target in np.linspace(values.min(), values.max(), 25):
        i = next(i for i, v in enumerate(values) if v >= target)
        if i == 0:
            expected = times[0]
        else:
            t0, t1, v0, v1 = times[i - 1], times[i], values[i - 1], values[i]
            expected = t0 + (target - v0) / (v1 - v0) * (t1 - t0)
        assert first_crossing(traj, [1.0], target) == expected


def test_csv_export(tmp_path, toy2):
    traj = integrate_constant(toy2, [-1.0, 1.0], horizon=0.2, dt=0.1)
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
    traj = integrate_constant(sys, nominal.optimizer_u, horizon=2 * nominal.time, dt=dt)
    crossing = first_crossing(traj, d, 1.0)
    assert abs(crossing - nominal.time) <= 2 * dt

    sp = split(sys, 0)
    malf = reach.malfunctioning_reach_time(sp, d)
    u_full = sp.assemble_input(malf.optimizer_u, malf.optimizer_w)
    traj_m = integrate_constant(sys, u_full, horizon=2 * malf.time, dt=dt)
    crossing_m = first_crossing(traj_m, d, 1.0)
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


def test_lag_crossing_matches_lambert_w():
    special = pytest.importorskip("scipy.special")
    for tau in np.linspace(0.01, 0.3, 7):
        for rate in np.linspace(0.2, 3.0, 5):
            for s0 in np.geomspace(1e-3, 1e3, 19):
                t0 = s0 * tau
                t = sim.lag_crossing(rate, rate * t0, tau)
                ref = t0 + tau * (1.0 + special.lambertw(-math.exp(-1.0 - t0 / tau)).real)
                assert t == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_lag_crossing_validation():
    with pytest.raises(NonReachError):
        sim.lag_crossing(0.0, 1.0, 0.1)
    with pytest.raises(ModelError, match="tau must be positive"):
        sim.lag_crossing(1.0, 1.0, 0.0)
    with pytest.raises(ModelError, match="target must be positive"):
        sim.lag_crossing(1.0, 0.0, 0.1)


def test_ratio_bangbang_is_time_ratio():
    sys = catalog.octocopter_translational()
    d = np.array([0.0, 0.0, -1.0])
    t_n = reach.nominal_reach_time(sys, d).time
    t_m = reach.malfunctioning_reach_time(split(sys, 0), d).time
    expected = reach.ratio_of_times(t_m, t_n)
    for speed in (0.2, 1.0, 2.7):
        _, bang = sim.smooth_reach_ratio(catalog.OctocopterParams(), d, speed)
        assert bang == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_lag_ratio_tends_to_bangbang():
    params = catalog.OctocopterParams()
    smooth, bang = sim.smooth_reach_ratio(params, [0, 0, -1], 1.0, tau=1e-6)
    assert 0.0 < bang - smooth <= 1e-5


def _simulate(tmp_path, argv):
    out = tmp_path / "sim.json"
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_text() if code == 0 else None


@pytest.mark.parametrize("scenario", ["octo-vertical-bang", "octo-vertical-lag"])
def test_simulate_ratios_do_not_depend_on_dt(tmp_path, capsys, scenario):
    argv = ["simulate", scenario, "--tau", "0.1", "--target-speed", "1.3"]
    docs = {_simulate(tmp_path, argv + dt) for dt in ([], ["--dt", "1e-4"], ["--dt", "0.5"])}
    capsys.readouterr()
    assert len(docs) == 1 and docs.pop()[0] == 0


def test_simulate_coarse_dt_fails_only_with_out_dir(tmp_path, capsys):
    argv = ["simulate", "octo-vertical-lag", "--tau", "0.1", "--dt", "0.05"]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == cli.EXIT_INPUT
    assert "too coarse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, integrations",
    [
        (["simulate", "octo-vertical-bang"], 0),
        (["simulate", "octo-vertical-lag", "--tau", "0.05"], 0),
        (["simulate", "octo-vertical-lag", "--tau", "0.05", "--out-dir", "{dir}"], 2),
    ],
)
def test_simulate_integration_count(sim_integrations, tmp_path, capsys, argv, integrations):
    argv = [a.format(dir=tmp_path) for a in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert sim_integrations[0] == integrations
