"""Span tracer that wraps the layers' public functions from outside the program.

Every public function defined in a layer module is replaced by a timing
wrapper at every place the function object is bound inside the `resil`
package (for example `resil.oracle.quantitative_resilience` as well as
`resil.resilience.quantitative_resilience`).  Spans are kept in memory as
tuples and written out when the run ends.

A span is (op id, name, start ns, end ns, parent index, self ns, lp solves
below it, detail).  Self time is the duration minus the time its child spans
cover; `detail` carries one layer-specific fact (LP status, sample count,
whether a crossing was found, scan size).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

#: Layer name -> module whose public functions form the layer.
LAYERS = {
    "lp": "resil.lp",
    "reach": "resil.reach",
    "resilience": "resil.resilience",
    "oracle": "resil.oracle",
    "sim": "resil.sim",
}

#: Span name of one CLI op (opened by the worker around `resil.cli.main`).
OP = "cli.main"

OP_ID, NAME, START, END, PARENT, SELF, LPS, DETAIL = range(8)

#: Detail of a span whose call raised.
RAISED = "raised"


def _detail(name: str, args: tuple, kwargs: dict, result):
    """The one fact per span that the per-layer metrics need beyond timing.

    None when the call's shape no longer matches, so a refactored program
    loses one per-layer figure instead of failing its ops.
    """
    try:
        return _fact(name, args, kwargs, result)
    except (AttributeError, TypeError, KeyError, IndexError):
        return None


def _fact(name: str, args: tuple, kwargs: dict, result):
    if name == "lp.solve":
        return result.status
    if name in ("sim.integrate_with_lag", "sim.integrate_constant"):
        return int(result.times.size)
    if name == "oracle.direction_scan":
        return int(args[1] if len(args) > 1 else kwargs["samples"])
    if name == "oracle.grid_worst_w":
        split = args[0] if args else kwargs["split"]
        points = args[2] if len(args) > 2 else kwargs["points_per_axis"]
        return int(points) ** int(split.p)
    return None


class Tracer:
    """Collects spans; `install` patches the program, `uninstall` restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self.op_id, name, time.perf_counter_ns(), 0, parent, 0, 0, None])
        self._stack.append(index)
        return index

    def close(self, index: int, detail=None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span = self.spans[index]
        span[END] = end
        span[SELF] += end - span[START]
        span[DETAIL] = detail
        if span[NAME] == "lp.solve":
            span[LPS] += 1
        if span[PARENT] >= 0:
            parent = self.spans[span[PARENT]]
            parent[SELF] -= end - span[START]
            parent[LPS] += span[LPS]

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.close(index, RAISED)
                raise
            tracer.close(index, _detail(name, args, kwargs, result))
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's public functions wherever `resil` binds them."""
        wrappers = {}
        for layer, module_name in LAYERS.items():
            module = sys.modules[module_name]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module_name
                        and not attr.startswith("_")):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "resil" or module_name.startswith("resil.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _total(spans: list[list]) -> int:
    """Sum of the numeric details (samples, directions, grid points)."""
    return sum(s[DETAIL] for s in spans if isinstance(s[DETAIL], int))


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def counts(spans: list[list]) -> dict:
    """Machine-independent counts of a traced pass: calls per span name, LP
    status mix, total samples.  Two passes over the same ops must agree."""
    out: dict = {}
    for span in spans:
        key = span[NAME]
        if span[NAME] in ("lp.solve", "sim.integrate_with_lag", "sim.integrate_constant"):
            key = f"{span[NAME]}:{span[DETAIL]}"
        out[key] = out.get(key, 0) + 1
    return out


def layer_metrics(spans: list[list], ops: int) -> dict:
    """Per-layer metrics of one traced pass over `ops` ops (values only)."""
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def named(name: str) -> list[list]:
        return by_name.get(name, [])

    def ms(span) -> float:
        return (span[END] - span[START]) / 1e6

    total_ns = sum(s[END] - s[START] for s in named(OP)) or 1
    self_ns: dict[str, int] = {}
    for span in spans:
        layer = span[NAME].split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + span[SELF]

    def share(layer: str) -> float:
        return self_ns.get(layer, 0) / total_ns

    solves = named("lp.solve")
    statuses = [s[DETAIL] for s in solves]
    tms = named("reach.malfunctioning_reach_time")
    reports = named("resilience.quantitative_resilience")
    integrations = named("sim.integrate_with_lag") + named("sim.integrate_constant")
    crossings = [s for s in named("sim.first_crossing") if s[DETAIL] != RAISED]
    scans = named("oracle.direction_scan")
    grids = named("oracle.grid_worst_w")
    scan_s = sum(ms(s) for s in scans) / 1e3
    grid_s = sum(ms(s) for s in grids) / 1e3
    return {
        "lp.solves_per_op": len(solves) / ops,
        "lp.solve_p50_us": _p50([ms(s) * 1e3 for s in solves]),
        "lp.self_share": share("lp"),
        "lp.infeasible_frac": statuses.count("infeasible") / len(solves) if solves else 0.0,
        "lp.unbounded_frac": statuses.count("unbounded") / len(solves) if solves else 0.0,
        "reach.tm_calls_per_op": len(tms) / ops,
        "reach.lps_per_tm": sum(s[LPS] for s in tms) / len(tms) if tms else 0.0,
        "reach.tm_p50_ms": _p50([ms(s) for s in tms]),
        "reach.self_share": share("reach"),
        "resilience.controllability_calls_per_op":
            len(named("resilience.check_controllability")) / ops,
        "resilience.lambda_pair_calls_per_report":
            len(named("resilience.lambda_pair")) / len(reports) if reports else 0.0,
        "resilience.lps_per_report":
            sum(s[LPS] for s in reports) / len(reports) if reports else 0.0,
        "resilience.report_p50_ms": _p50([ms(s) for s in reports]),
        "oracle.directions_per_s": _total(scans) / scan_s if scans else 0.0,
        "oracle.grid_points_per_s": _total(grids) / grid_s if grids else 0.0,
        "oracle.self_share": share("oracle"),
        "sim.integrations_per_op": len(integrations) / ops,
        "sim.samples_per_op": _total(integrations) / ops,
        "sim.crossings_per_integration":
            len(crossings) / len(integrations) if integrations else 0.0,
        "sim.integrate_p50_ms": _p50([ms(s) for s in integrations]),
        "sim.self_share": share("sim"),
        "cli.self_share": share("cli"),
    }


def per_kind_counts(spans: list[list], kinds: list[str]) -> dict:
    """Median per-op counts for each op kind: LP solves, controllability calls,
    T_M* calls, integrations.  kinds[i] labels op id i."""
    per_op: dict[int, dict[str, int]] = {}
    for span in spans:
        row = per_op.setdefault(span[OP_ID], {"lp": 0, "ctrl": 0, "tm": 0, "integrate": 0})
        name = span[NAME]
        if name == "lp.solve":
            row["lp"] += 1
        elif name == "resilience.check_controllability":
            row["ctrl"] += 1
        elif name == "reach.malfunctioning_reach_time":
            row["tm"] += 1
        elif name.startswith("sim.integrate"):
            row["integrate"] += 1
    table: dict[str, dict[str, list[int]]] = {}
    for op_id, row in per_op.items():
        entry = table.setdefault(kinds[op_id], {k: [] for k in row})
        for key, value in row.items():
            entry[key].append(value)
    return {
        kind: {key: statistics.median(values) for key, values in entry.items()}
        | {"ops": len(entry["lp"])}
        for kind, entry in sorted(table.items())
    }
