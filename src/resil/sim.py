"""Trajectories and crossing times: constant inputs and first-order propeller lag.

Both models admit exact closed forms, so no generic ODE stepping (and no
solver tolerance) enters the results:

- constant forcing: x^(k) = const gives polynomial states;
- first-order lag u' = (u_c - u)/tau toward a constant command u_c, from
  rest, gives exponential-plus-constant forcing, whose repeated integrals
  follow the recurrence
      E_0(h) = exp(-h/tau),   E_r(h) = tau * (h^(r-1)/(r-1)! - E_(r-1)(h)),
  evaluated for all samples at once.

The scenario ratios of `smooth_reach_ratio` come from the closed-form
crossing times (target/rate without lag, `lag_crossing` with it); sampled
trajectories of `vertical_scenario`'s commands serve CSV export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog, reach
from .errors import ModelError, NonReachError
from .model import IntegratorSystem, outside_box, split as make_split

#: Default lag spacing: tau/100, coarsened up to tau/10 for about this many samples.
LAG_SAMPLES = 1000


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

    def to_csv(self, path: str) -> None:
        header = ["t"]
        for j in range(self.order):
            prefix = "x" if j == 0 else f"d{j}x"
            header += [f"{prefix}{i + 1}" for i in range(self.n)]
        header += [f"u{i + 1}" for i in range(self.inputs.shape[1])]
        table = np.hstack([self.times[:, None], self.states, self.inputs])
        np.savetxt(path, table, delimiter=",", header=",".join(header), comments="")


def _sample_grid(horizon: float, dt: float) -> np.ndarray:
    if not dt > 0.0:  # nan fails it too
        raise ModelError(f"dt must be positive, got {dt}")
    if horizon < 0.0:
        raise ModelError(f"horizon must be nonnegative, got {horizon}")
    steps = int(math.floor(horizon / dt + 1e-12))
    times = dt * np.arange(steps + 1)
    if times[-1] < horizon - 1e-12 * max(1.0, horizon):
        times = np.append(times, horizon)
    return times


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:  # nan fails it too
        raise ModelError(f"{name} must be positive and finite, got {value}")


def _check_in_box(u: np.ndarray, sys: IntegratorSystem, what: str) -> None:
    if outside_box(u, sys.u_min, sys.u_max):
        raise ModelError(f"{what} outside the input box")


def integrate_with_lag(
    sys: IntegratorSystem,
    u_c: np.ndarray,
    tau: float,
    horizon: float,
    dt: float | None = None,
) -> Trajectory:
    """Propagate from rest (x = 0, u = 0) toward the constant command u_c with first-order
    input lag u' = (u_c - u)/tau, exactly at each sample."""
    _check_positive("tau", tau)
    if dt is None:
        dt = min(tau / 10.0, max(tau / 100.0, horizon / LAG_SAMPLES))
    if dt > tau / 10.0 + 1e-15:
        raise ModelError(f"dt={dt} too coarse for tau={tau}; need dt <= tau/10")
    u_c = np.atleast_1d(np.asarray(u_c, dtype=float))
    if u_c.shape != (sys.n_inputs,):
        raise ModelError(f"command must have length {sys.n_inputs}")
    _check_in_box(u_c, sys, "command")
    _check_in_box(np.zeros(sys.n_inputs), sys, "initial input")

    k = sys.order
    h = _sample_grid(horizon, dt)
    # From rest x^(k) = B u_c - B u_c exp(-h/tau): polynomial plus the integrals E_r(h).
    const_acc = sys.b_bar @ u_c
    decay_acc = sys.b_bar @ -u_c
    integrals = [np.exp(-h / tau)]
    for r in range(1, k + 1):
        integrals.append(tau * (h ** (r - 1) / math.factorial(r - 1) - integrals[r - 1]))
    states = np.hstack([
        np.outer(h**power / math.factorial(power), const_acc)
        + np.outer(integrals[power], decay_acc)
        for power in range(k, 0, -1)
    ])
    inputs = u_c[None, :] + np.outer(integrals[0], -u_c)
    return Trajectory(times=h, states=states, inputs=inputs, n=sys.n, order=k)


def lag_crossing(rate: float, target: float, tau: float) -> float:
    """First t with rate * (t - tau * (1 - exp(-t/tau))) = target (order 1, from rest).

    That is when a first-order-lagged command of constant rate reaches target.
    With s = t/tau and s0 = target/(rate tau) the root of s - 1 + exp(-s) = s0
    lies in [s0, s0 + 1]; the left side is increasing and convex, so Newton
    from the right end decreases monotonically onto it.  (Closed form:
    t = t0 + tau (1 + W_0(-exp(-1 - t0/tau))), t0 = target/rate.)  Rounding
    in s - 1 + exp(-s) bounds the relative accuracy by about 5e-17/sqrt(s0)
    when s0 < 1 (2e-15 at s0 = 1e-3).
    """
    _check_positive("tau", tau)
    _check_positive("target", target)
    if rate <= 0.0:
        raise NonReachError(f"target {target} never reached at rate {rate}")
    s0 = target / (rate * tau)
    lo, s = s0, s0 + 1.0
    # Far from the root Newton at worst halves s, so the double range needs ~1100 steps.
    for _ in range(1100):
        excess = s + math.expm1(-s) - s0
        step = excess / -math.expm1(-s)
        if not step > 0.0:
            break
        nxt = s - step
        if nxt < lo:
            # Safeguard: rounding overshot the bracket, so bisect it.
            nxt = 0.5 * (lo + s)
        if nxt >= s:
            break
        s = nxt
    return float(s * tau)


def vertical_scenario(params: catalog.OctocopterParams, d: np.ndarray):
    """(system, T_N* result, T_M* result, full malfunctioning command u_bar) along d of
    the velocity-level translational octocopter with propeller 1 lost: the optimal
    constant nominal input and the worst-case malfunctioning one (u and worst w)."""
    sys = catalog.octocopter_translational(params)
    sp = make_split(sys, 0)
    nominal, malf = reach.nominal_reach_time(sys, d), reach.malfunctioning_reach_time(sp, d)
    if not (math.isfinite(nominal.time) and math.isfinite(malf.time)):
        raise NonReachError("scenario direction not reachable under the worst input")
    return sys, nominal, malf, sp.assemble_input(malf.optimizer_u, malf.optimizer_w)


def smooth_reach_ratio(
    params: catalog.OctocopterParams,
    d: np.ndarray,
    target_speed: float,
    tau: float | None = None,
    scenario: tuple | None = None,
) -> tuple[float, float]:
    """(ratio_smooth, ratio_bangbang) for the vertical octocopter scenario.

    Drives vertical_scenario's system from hover with its two commands, with and
    without first-order propeller lag, and returns the ratios of the times the
    speed along d first reaches target_speed.  Both crossings are closed forms in
    the rate a = d . B u: target/a without lag, `lag_crossing(a, target, tau)` with it.
    A caller that also needs the scenario passes `vertical_scenario(params, d)`.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if not (d.shape == (3,) and d[0] == 0.0 and d[1] == 0.0 and d[2] in (-1.0, 1.0)):
        raise ModelError("the analyzed scenario is vertical: d must be (0, 0, +/-1)")
    _check_positive("target_speed", target_speed)  # lag_crossing checks tau
    tau = params.tau if tau is None else tau

    sys, nominal, _malf, u_bar_malf = scenario or vertical_scenario(params, d)
    rate_n = float(d @ (sys.b_bar @ nominal.optimizer_u))
    rate_m = float(d @ (sys.b_bar @ u_bar_malf))
    smooth = lag_crossing(rate_m, target_speed, tau) / lag_crossing(rate_n, target_speed, tau)
    return smooth, (target_speed / rate_m) / (target_speed / rate_n)
