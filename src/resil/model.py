"""Domain records: integrator systems, actuator splits, (de)serialization.

A system is the driftless generalized integrator

    x^(k) = B_bar @ u_bar,    u_bar(t) in [u_min, u_max]  (componentwise box),

with all derivatives of order 1..k-1 zero at t = 0.  Losing control authority
over a set of columns splits B_bar into a controlled part B (box U_c) and an
uncontrolled part C (box W_c) whose inputs are chosen adversarially.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import zonotope
from .errors import ModelError


#: Box-membership tolerance for inputs, relative to the box magnitude.
BOX_TOL = 1e-9


def outside_box(x, lo, hi) -> np.ndarray:
    """Per row of x (or for a 1-D x): whether it leaves [lo, hi] by more than BOX_TOL of
    1 + the box's largest magnitude, or has a nan entry (which no box holds)."""
    tol = BOX_TOL * (1.0 + max(np.abs(lo).max(), np.abs(hi).max()))
    return ~((x >= lo - tol) & (x <= hi + tol)).all(axis=-1)


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

    @functools.cached_property
    def image(self) -> "zonotope.Zonotope | None":
        """B_bar's box image {B_bar u : u in [u_min, u_max]} (zonotope.build), built at first
        use and kept; None, also kept, where build declines it."""
        return zonotope.build(self.b_bar, self.u_min, self.u_max)


def _block():
    """An ActuatorSplit block: sliced once, at construction; no part of == or repr."""
    return field(init=False, compare=False, repr=False)


def checked_lost(lost, total: int) -> tuple[int, ...]:
    """lost as a tuple of ints, once it names a column, none twice, each in range(total),
    and keeps one of the total: the lost columns an ActuatorSplit accepts."""
    lost = tuple(int(i) for i in lost)
    if len(lost) < 1:
        raise ModelError("at least one lost column is required")
    if len(set(lost)) != len(lost):
        raise ModelError(f"duplicate lost column in {lost}")
    for i in lost:
        if not 0 <= i < total:
            raise ModelError(f"lost column {i} out of range [0, {total})")
    if len(lost) == total:
        raise ModelError("at least one kept column is required")
    return lost


@dataclass(frozen=True)
class ActuatorSplit:
    """Partition of an IntegratorSystem into controlled (B) and lost (C) columns.

    b (B, n x m), c (C, n x p) and the boxes U_c = [u_min, u_max], W_c = [w_min, w_max] are
    read-only blocks of base, sliced once by fancy indexing (so B and C are F-ordered).
    """

    base: IntegratorSystem
    lost_columns: tuple[int, ...]
    kept_columns: tuple[int, ...] = field(init=False)
    b: np.ndarray = _block()
    c: np.ndarray = _block()
    u_min: np.ndarray = _block()
    u_max: np.ndarray = _block()
    w_min: np.ndarray = _block()
    w_max: np.ndarray = _block()

    def __post_init__(self) -> None:
        lost = checked_lost(self.lost_columns, self.base.n_inputs)
        kept = tuple(j for j in range(self.base.n_inputs) if j not in lost)
        object.__setattr__(self, "lost_columns", lost)
        object.__setattr__(self, "kept_columns", kept)
        b_bar, lo, hi = self.base.b_bar, self.base.u_min, self.base.u_max
        blocks = {"b": b_bar[:, kept], "c": b_bar[:, lost], "u_min": lo[list(kept)],
                  "u_max": hi[list(kept)], "w_min": lo[list(lost)], "w_max": hi[list(lost)]}
        for name, block in blocks.items():
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    @functools.cached_property
    def image(self) -> "zonotope.Zonotope | None":
        """B's box image {B u : u in U_c} (zonotope.build), built at first use and kept;
        None, also kept, where build declines it."""
        return zonotope.build(self.b, self.u_min, self.u_max)

    @property
    def p(self) -> int:
        """Number of lost columns."""
        return len(self.lost_columns)

    @property
    def m(self) -> int:
        """Number of controlled columns."""
        return len(self.kept_columns)

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
    if not isinstance(name, str):
        raise ModelError(f"name must be a string, got {name!r}")
    if type(order) is not int:  # not 2.7 (order 2), true (order 1) or "2"
        raise ModelError(f"order must be a positive integer, got {order!r}")
    if labels is not None and not (
            isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise ModelError(f"labels must be a list of strings, got {labels!r}")
    return IntegratorSystem(
        name=name,
        order=order,
        b_bar=np.array(b, dtype=float),
        u_min=np.array(u_min, dtype=float),
        u_max=np.array(u_max, dtype=float),
        labels=tuple(labels) if labels is not None else None,
    )


def read_json_object(path: str, what: str = "model file") -> dict:
    """The JSON object in the file at path; a ModelError naming the file (as `what`) when it
    cannot be read, is not JSON, or holds no object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"{what} {path!r} must contain a JSON object")
    return doc


def load_system(path: str) -> IntegratorSystem:
    """Load and validate a system from a JSON model file."""
    return system_from_dict(read_json_object(path))


def save_system(sys: IntegratorSystem, path: str) -> None:
    """Write a system as a JSON model file (round-trips bit-exactly via repr floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(sys), fh, indent=2)
        fh.write("\n")
