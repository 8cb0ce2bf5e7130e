"""Domain records: integrator systems, actuator splits, (de)serialization.

A system is the driftless generalized integrator

    x^(k) = B_bar @ u_bar,    u_bar(t) in [u_min, u_max]  (componentwise box),

with all derivatives of order 1..k-1 zero at t = 0.  Losing control authority
over a set of columns splits B_bar into a controlled part B (box U_c) and an
uncontrolled part C (box W_c) whose inputs are chosen adversarially.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IntegratorSystem:
    """A driftless k-th order integrator x^(k) = B_bar u_bar with box-bounded inputs."""

    name: str
    order: int
    b_bar: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        b = np.atleast_2d(np.asarray(self.b_bar, dtype=float))
        lo = np.atleast_1d(np.asarray(self.u_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.u_max, dtype=float))
        if not isinstance(self.order, (int, np.integer)) or self.order < 1:
            raise ModelError(f"order must be a positive integer, got {self.order!r}")
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ModelError(f"b_bar must be a nonempty 2-D matrix, got shape {b.shape}")
        if lo.shape != (b.shape[1],) or hi.shape != (b.shape[1],):
            raise ModelError(
                f"bounds must have length {b.shape[1]} (one per column), "
                f"got u_min {lo.shape}, u_max {hi.shape}"
            )
        for arr, what in ((b, "b_bar"), (lo, "u_min"), (hi, "u_max")):
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"{what} contains non-finite entries")
        bad = np.nonzero(lo >= hi)[0]
        if bad.size:
            raise ModelError(
                f"u_min must be strictly below u_max; violated at column(s) {bad.tolist()}"
            )
        if self.labels is not None and len(self.labels) != b.shape[1]:
            raise ModelError("labels length must match the number of columns")
        object.__setattr__(self, "b_bar", _as_readonly(b))
        object.__setattr__(self, "u_min", _as_readonly(lo))
        object.__setattr__(self, "u_max", _as_readonly(hi))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def n(self) -> int:
        """State dimension."""
        return self.b_bar.shape[0]

    @property
    def n_inputs(self) -> int:
        """Total number of input columns (m + p)."""
        return self.b_bar.shape[1]

    def with_order(self, order: int) -> "IntegratorSystem":
        """Same matrix and bounds, different integrator order."""
        return IntegratorSystem(self.name, order, self.b_bar, self.u_min, self.u_max, self.labels)


@dataclass(frozen=True)
class ActuatorSplit:
    """Partition of an IntegratorSystem into controlled (B) and lost (C) columns."""

    base: IntegratorSystem
    lost_columns: tuple[int, ...]
    kept_columns: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        total = self.base.n_inputs
        lost = tuple(int(i) for i in self.lost_columns)
        if len(lost) < 1:
            raise ModelError("at least one lost column is required")
        if len(set(lost)) != len(lost):
            raise ModelError(f"duplicate lost column in {lost}")
        for i in lost:
            if not 0 <= i < total:
                raise ModelError(f"lost column {i} out of range [0, {total})")
        object.__setattr__(self, "lost_columns", lost)
        object.__setattr__(
            self, "kept_columns", tuple(j for j in range(total) if j not in set(lost))
        )

    @property
    def p(self) -> int:
        """Number of lost columns."""
        return len(self.lost_columns)

    @property
    def m(self) -> int:
        """Number of controlled columns."""
        return len(self.kept_columns)

    @property
    def b(self) -> np.ndarray:
        """Controlled submatrix B (n x m)."""
        return self.base.b_bar[:, self.kept_columns]

    @property
    def c(self) -> np.ndarray:
        """Lost submatrix C (n x p)."""
        return self.base.b_bar[:, self.lost_columns]

    @property
    def u_min(self) -> np.ndarray:
        return self.base.u_min[list(self.kept_columns)]

    @property
    def u_max(self) -> np.ndarray:
        return self.base.u_max[list(self.kept_columns)]

    @property
    def w_min(self) -> np.ndarray:
        return self.base.u_min[list(self.lost_columns)]

    @property
    def w_max(self) -> np.ndarray:
        return self.base.u_max[list(self.lost_columns)]

    def assemble_input(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Full input vector u_bar: kept columns from u, lost columns from w."""
        out = np.empty(self.base.n_inputs)
        out[list(self.kept_columns)] = u
        out[list(self.lost_columns)] = w
        return out


def split(sys: IntegratorSystem, lost: "int | tuple[int, ...] | list[int]") -> ActuatorSplit:
    """Split a system by the (0-based) indices of the lost columns."""
    if isinstance(lost, (int, np.integer)):
        lost = (int(lost),)
    return ActuatorSplit(sys, tuple(lost))


def to_machine(x: float) -> "float | str":
    """An extended real for JSON output: the string "inf" when infinite."""
    return "inf" if math.isinf(x) else float(x)


def system_to_dict(sys: IntegratorSystem) -> dict:
    doc = {
        "name": sys.name,
        "order": int(sys.order),
        "B": [[float(x) for x in row] for row in sys.b_bar],
        "u_min": [float(x) for x in sys.u_min],
        "u_max": [float(x) for x in sys.u_max],
    }
    if sys.labels is not None:
        doc["labels"] = list(sys.labels)
    return doc


def system_from_dict(doc: dict) -> IntegratorSystem:
    try:
        name = doc["name"]
        order = doc["order"]
        b = doc["B"]
        u_min = doc["u_min"]
        u_max = doc["u_max"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"model document missing required field: {exc}") from exc
    labels = doc.get("labels")
    return IntegratorSystem(
        name=str(name),
        order=int(order),
        b_bar=np.array(b, dtype=float),
        u_min=np.array(u_min, dtype=float),
        u_max=np.array(u_max, dtype=float),
        labels=tuple(labels) if labels is not None else None,
    )


def load_system(path: str) -> IntegratorSystem:
    """Load and validate a system from a JSON model file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"model file {path!r} must contain a JSON object")
    return system_from_dict(doc)


def save_system(sys: IntegratorSystem, path: str) -> None:
    """Write a system as a JSON model file (round-trips bit-exactly via repr floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(sys), fh, indent=2)
        fh.write("\n")
