"""Trajectory integration: constant inputs and first-order propeller lag.

Both models admit exact segment-wise closed forms, so no generic ODE stepping
(and no solver tolerance) enters the results:

- constant forcing: x^(k) = const gives polynomial states;
- first-order lag u' = (u_c - u)/tau gives exponential-plus-constant forcing,
  whose repeated integrals follow the recurrence
      E_0(h) = exp(-h/tau),   E_r(h) = tau * (h^(r-1)/(r-1)! - E_(r-1)(h)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog, reach
from .errors import ModelError, NonReachError
from .model import IntegratorSystem, split as make_split

#: Default sample spacing for non-lag runs (s).
DT_DEFAULT = 1e-3

#: Box-membership tolerance for inputs, relative to the box magnitude.
BOX_TOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory: states hold (x, x', ..., x^(k-1)) per sample row."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    n: int
    order: int

    def position(self) -> np.ndarray:
        """The x block of the state (first n columns)."""
        return self.states[:, : self.n]

    def derivative(self, j: int) -> np.ndarray:
        """The j-th derivative block of the state (j in 0..order-1)."""
        if not 0 <= j < self.order:
            raise ModelError(f"derivative order {j} outside 0..{self.order - 1}")
        return self.states[:, j * self.n : (j + 1) * self.n]

    def to_csv(self, path: str) -> None:
        header = ["t"]
        for j in range(self.order):
            prefix = "x" if j == 0 else f"d{j}x"
            header += [f"{prefix}{i + 1}" for i in range(self.n)]
        header += [f"u{i + 1}" for i in range(self.inputs.shape[1])]
        table = np.hstack([self.times[:, None], self.states, self.inputs])
        np.savetxt(path, table, delimiter=",", header=",".join(header), comments="")


def _sample_grid(horizon: float, dt: float) -> np.ndarray:
    if dt <= 0.0:
        raise ModelError(f"dt must be positive, got {dt}")
    if horizon < 0.0:
        raise ModelError(f"horizon must be nonnegative, got {horizon}")
    steps = int(math.floor(horizon / dt + 1e-12))
    times = dt * np.arange(steps + 1)
    if times[-1] < horizon - 1e-12 * max(1.0, horizon):
        times = np.append(times, horizon)
    return times


def _check_in_box(u: np.ndarray, sys: IntegratorSystem, what: str) -> None:
    scale = 1.0 + max(np.abs(sys.u_min).max(), np.abs(sys.u_max).max())
    if np.any(u < sys.u_min - BOX_TOL * scale) or np.any(u > sys.u_max + BOX_TOL * scale):
        raise ModelError(f"{what} outside the input box")


def integrate_constant(
    sys: IntegratorSystem,
    u_bar: np.ndarray,
    horizon: float,
    dt: float = DT_DEFAULT,
    x0: np.ndarray | None = None,
) -> Trajectory:
    """Propagate x^(k) = B_bar u_bar for a constant input (exact polynomials)."""
    u_bar = np.atleast_1d(np.asarray(u_bar, dtype=float))
    if u_bar.shape != (sys.n_inputs,):
        raise ModelError(f"input must have length {sys.n_inputs}")
    _check_in_box(u_bar, sys, "constant input")
    k = sys.order
    n = sys.n
    x_init = np.zeros(n) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    accel = sys.b_bar @ u_bar

    times = _sample_grid(horizon, dt)
    states = np.zeros((times.size, n * k))
    for j in range(k):
        # x^(j)(t) = accel * t^(k-j) / (k-j)!  (+ x_init for j = 0).
        power = k - j
        states[:, j * n : (j + 1) * n] = np.outer(
            times**power / math.factorial(power), accel
        )
    states[:, :n] += x_init
    inputs = np.tile(u_bar, (times.size, 1))
    return Trajectory(times=times, states=states, inputs=inputs, n=n, order=k)


def _repeated_exp_integrals(h: float, tau: float, k: int) -> list[float]:
    """[E_0(h), ..., E_k(h)] for the decaying exponential exp(-s/tau)."""
    out = [math.exp(-h / tau)]
    for r in range(1, k + 1):
        out.append(tau * (h ** (r - 1) / math.factorial(r - 1) - out[r - 1]))
    return out


def integrate_with_lag(
    sys: IntegratorSystem,
    commands: "list[tuple[float, np.ndarray]] | np.ndarray",
    tau: float,
    horizon: float,
    dt: float | None = None,
    u0: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> Trajectory:
    """Propagate with first-order input lag u' = (u_c - u)/tau (exact per step).

    commands is either a single command vector or a piecewise-constant schedule
    [(t_start, vector), ...] with t_start increasing from 0.
    """
    if tau <= 0.0:
        raise ModelError(f"tau must be positive, got {tau}")
    if dt is None:
        dt = tau / 100.0
    if dt > tau / 10.0 + 1e-15:
        raise ModelError(f"dt={dt} too coarse for tau={tau}; need dt <= tau/10")

    if isinstance(commands, np.ndarray) or (
        len(commands) > 0 and np.isscalar(commands[0])
    ):
        schedule = [(0.0, np.atleast_1d(np.asarray(commands, dtype=float)))]
    else:
        schedule = [(float(t), np.atleast_1d(np.asarray(u, dtype=float))) for t, u in commands]
    if not schedule or schedule[0][0] != 0.0:
        raise ModelError("command schedule must start at t = 0")
    for _, u_c in schedule:
        if u_c.shape != (sys.n_inputs,):
            raise ModelError(f"command must have length {sys.n_inputs}")
        _check_in_box(u_c, sys, "command")

    k = sys.order
    n = sys.n
    u = np.zeros(sys.n_inputs) if u0 is None else np.asarray(u0, dtype=float).copy()
    _check_in_box(u, sys, "initial input")
    state = np.zeros(n * k)
    if x0 is not None:
        state[:n] = np.atleast_1d(np.asarray(x0, dtype=float))

    times = _sample_grid(horizon, dt)
    # Insert command switch times into the grid so each step lies in one segment.
    switch = [t for t, _ in schedule[1:] if 0.0 < t < horizon]
    if switch:
        times = np.unique(np.concatenate([times, np.asarray(switch)]))

    if len(schedule) == 1:
        # Single command segment: evaluate the global closed form on the whole
        # grid at once (initial derivatives are zero, so no stepwise carrying).
        u_c = schedule[0][1]
        const_acc = sys.b_bar @ u_c
        decay_acc = sys.b_bar @ (u - u_c)
        decay = np.exp(-times / tau)
        integrals = [decay]
        for r in range(1, k + 1):
            integrals.append(
                tau * (times ** (r - 1) / math.factorial(r - 1) - integrals[r - 1])
            )
        states = np.zeros((times.size, n * k))
        for j in range(k):
            power = k - j
            states[:, j * n : (j + 1) * n] = (
                np.outer(times**power / math.factorial(power), const_acc)
                + np.outer(integrals[power], decay_acc)
            )
        states[:, :n] += state[:n]
        inputs = u_c[None, :] + np.outer(decay, u - u_c)
        return Trajectory(times=times, states=states, inputs=inputs, n=n, order=k)

    states = np.zeros((times.size, n * k))
    inputs = np.zeros((times.size, sys.n_inputs))
    states[0] = state
    inputs[0] = u

    seg = 0
    for i in range(1, times.size):
        t_prev, t_now = times[i - 1], times[i]
        while seg + 1 < len(schedule) and schedule[seg + 1][0] <= t_prev + 1e-15:
            seg += 1
        u_c = schedule[seg][1]
        h = t_now - t_prev
        const_acc = sys.b_bar @ u_c
        decay_acc = sys.b_bar @ (u - u_c)
        e = _repeated_exp_integrals(h, tau, k)
        new_state = np.zeros_like(state)
        for j in range(k):
            # Taylor shift of the higher derivatives plus exact forcing quadrature.
            acc = np.zeros(n)
            for i2 in range(j, k):
                acc += state[i2 * n : (i2 + 1) * n] * h ** (i2 - j) / math.factorial(i2 - j)
            power = k - j
            acc += const_acc * h**power / math.factorial(power)
            acc += decay_acc * e[power]
            new_state[j * n : (j + 1) * n] = acc
        state = new_state
        u = u_c + (u - u_c) * e[0]
        states[i] = state
        inputs[i] = u

    return Trajectory(times=times, states=states, inputs=inputs, n=n, order=k)


def first_crossing(
    traj: Trajectory, component: np.ndarray, target: float, derivative: int = 0
) -> float:
    """First time the projection of a state block onto `component` reaches target.

    Linear interpolation between samples (exact for order-1 constant runs).
    Raises NonReachError when the target is never crossed.
    """
    values = traj.derivative(derivative) @ np.atleast_1d(np.asarray(component, dtype=float))
    for i in range(values.size):
        if values[i] >= target:
            if i == 0:
                return float(traj.times[0])
            v0, v1 = values[i - 1], values[i]
            t0, t1 = traj.times[i - 1], traj.times[i]
            if v1 == v0:
                return float(t1)
            return float(t0 + (target - v0) / (v1 - v0) * (t1 - t0))
    raise NonReachError(
        f"target {target} never crossed within horizon {traj.times[-1]:.6g} s"
    )


def smooth_reach_ratio(
    params: catalog.OctocopterParams,
    d: np.ndarray,
    target_speed: float,
    dt: float | None = None,
    tau: float | None = None,
    lost_column: int = 0,
    *,
    optima: "tuple[reach.ReachResult, reach.ReachResult] | None" = None,
) -> tuple[float, float]:
    """(ratio_smooth, ratio_bangbang) for the vertical octocopter scenario.

    Simulates the velocity-level translational system from hover under the
    optimal constant nominal and worst-case malfunctioning commands (lost
    propeller given by lost_column), with and without first-order propeller
    lag, and returns the ratios of the first-crossing times of target_speed.
    optima passes in the (T_N*(d), T_M*(d)) reach results of that split when
    the caller has solved them already.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not (d.shape == (3,) and d[0] == 0.0 and d[1] == 0.0 and d[2] in (-1.0, 1.0)):
        raise ModelError("the analyzed scenario is vertical: d must be (0, 0, +/-1)")
    if target_speed <= 0.0:
        raise ModelError("target_speed must be positive")
    if tau is None:
        tau = params.tau

    sys = catalog.octocopter_translational(params)
    sp = make_split(sys, lost_column)

    if optima is None:
        optima = (reach.nominal_reach_time(sys, d), reach.malfunctioning_reach_time(sp, d))
    nominal, malf = optima
    if not (math.isfinite(nominal.time) and math.isfinite(malf.time)):
        raise NonReachError("scenario direction not reachable under the worst input")

    u_bar_malf = sp.assemble_input(malf.optimizer_u, malf.optimizer_w)

    expected = max(nominal.time, malf.time) * target_speed
    dt_bang = dt if dt is not None else DT_DEFAULT

    def crossing(u_bar: np.ndarray, lag: bool) -> float:
        # Grow the horizon geometrically up to the 100x cap instead of paying
        # for the full worst-case integration up front.
        last_error: NonReachError | None = None
        for factor in (1.5, 10.0, 100.0):
            horizon = factor * max(expected, tau)
            if lag:
                traj = integrate_with_lag(sys, u_bar, tau=tau, horizon=horizon, dt=dt)
            else:
                traj = integrate_constant(sys, u_bar, horizon=horizon, dt=dt_bang)
            try:
                return first_crossing(traj, d, target_speed)
            except NonReachError as exc:
                last_error = exc
        raise last_error

    t_n_bang = crossing(nominal.optimizer_u, lag=False)
    t_m_bang = crossing(u_bar_malf, lag=False)
    t_n_smooth = crossing(nominal.optimizer_u, lag=True)
    t_m_smooth = crossing(u_bar_malf, lag=True)
    return t_m_smooth / t_n_smooth, t_m_bang / t_n_bang
