"""Quantitative resilience of driftless generalized integrators.

Library + CLI for analyzing systems x^(k) = B_bar u_bar with box-bounded
inputs after loss of control authority over some actuator columns: reach
times, time ratios, the closed-form quantitative resilience r_q, brute-force
oracles, and a trajectory simulator.
"""

from .errors import (
    CapacityError,
    LpError,
    ModelError,
    NonReachError,
    ResilError,
    UnsupportedLossError,
)
from .model import ActuatorSplit, IntegratorSystem, load_system, save_system, split
from .reach import (
    ReachResult,
    malfunctioning_reach_time,
    nominal_reach_time,
    order_k_time,
    time_ratio,
)
from .resilience import (
    ResilienceReport,
    check_controllability,
    lambda_pair,
    quantitative_resilience,
)

__version__ = "0.1.0"

__all__ = [
    "ActuatorSplit",
    "CapacityError",
    "IntegratorSystem",
    "LpError",
    "ModelError",
    "NonReachError",
    "ReachResult",
    "ResilError",
    "ResilienceReport",
    "UnsupportedLossError",
    "check_controllability",
    "lambda_pair",
    "load_system",
    "malfunctioning_reach_time",
    "nominal_reach_time",
    "order_k_time",
    "quantitative_resilience",
    "save_system",
    "split",
    "time_ratio",
]
