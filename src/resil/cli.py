"""Command-line front end.

Subcommands: check | ratio | reach | oracle | simulate | catalog-list.

Column indices on the command line are 1-based, matching the usual tabular
presentation of these systems; the Python API is 0-based.  Extended reals are
printed as the symbol "∞" in human output and serialized as the string "inf"
in machine (JSON) output.

Exit codes: 0 success, 1 input error, 2 capacity error, 3 oracle violation.

`main` parses with one parser per process, built at its first call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys as _sys

import numpy as np

from . import catalog, oracle, reach, resilience, sim
from .errors import CapacityError, ResilError, UnsupportedLossError
from .model import IntegratorSystem, load_system, split, to_machine

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPACITY = 2
EXIT_VIOLATION = 3


def _human(x: float) -> str:
    if math.isinf(x):
        return "∞"
    return f"{x:.6g}"


def _load_model(args: argparse.Namespace) -> IntegratorSystem:
    """The system --model names, at the order --order gives (IntegratorSystem checks it)
    where given: the one place the flag is read."""
    name = args.model.removeprefix("catalog:")
    system = load_system(name) if name == args.model else catalog.resolve(name)
    return system if args.order is None else dataclasses.replace(system, order=args.order)


def _parse_lost(text: str, total: int) -> list[int]:
    """Parse the 1-based --lost flag into 0-based column indices."""
    if text == "all":
        return list(range(total))
    out = []
    for part in text.split(","):
        i = int(part)
        if not 1 <= i <= total:
            raise ResilError(f"--lost index {i} out of range 1..{total}")
        if i - 1 in out:
            raise ResilError(f"--lost index {i} repeated")
        out.append(i - 1)
    return out


def _parse_direction(text: str) -> np.ndarray:
    d = np.array([float(v) for v in text.split(",")])
    if not np.isfinite(d).all():
        raise ResilError(f"--direction {text} has a non-finite component")
    return d


def _write_out(path: str | None, doc: object) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")  # one write, not one per token


def cmd_check(args: argparse.Namespace) -> int:
    sys_model = _load_model(args)
    columns = _parse_lost(args.lost, sys_model.n_inputs)
    reports = resilience.sweep(sys_model, columns)  # raises before any output
    print(f"system: {sys_model.name}  (n={sys_model.n}, inputs={sys_model.n_inputs})")
    # --lost names at least one column; every report holds the system's decision.
    print(f"controllable: {reports[0].controllable}")
    if not reports[0].controllable:
        print("not resilient to any loss")
    for rep in reports:
        print(
            f"column {rep.lost_column + 1}: r(C)={_human(rep.r_plus)} r(-C)={_human(rep.r_minus)} "
            f"r_q={_human(rep.r_q)} r_{{{sys_model.order},q}}={_human(rep.r_kq)} "
            f"{'resilient' if rep.resilient else 'NOT resilient'}"
        )
    _write_out(args.out, {"system": sys_model.name, "reports": [r.to_dict() for r in reports]})
    return EXIT_OK


def cmd_ratio(args: argparse.Namespace) -> int:
    sys_model = _load_model(args)
    columns = _parse_lost(args.lost, sys_model.n_inputs)
    d = _parse_direction(args.direction)
    sp = split(sys_model, tuple(columns))
    t_n = reach.nominal_reach_time(sys_model, d).time
    t_m = reach.malfunctioning_reach_time(sp, d).time
    t = reach.ratio_of_times(t_m, t_n)
    print(f"T_N*(d) = {_human(t_n)}")
    print(f"T_M*(d) = {_human(t_m)}")
    print(f"t(d)    = {_human(t)}")
    _write_out(
        args.out,
        {
            "system": sys_model.name,
            "lost_columns": [c + 1 for c in columns],
            "d": [float(v) for v in d],
            "T_N": to_machine(t_n),
            "T_M": to_machine(t_m),
            "t": to_machine(t),
        },
    )
    return EXIT_OK


def cmd_reach(args: argparse.Namespace) -> int:
    sys_model = _load_model(args)
    d = _parse_direction(args.direction)
    columns = _parse_lost(args.lost, sys_model.n_inputs) if args.lost else []
    sp = split(sys_model, tuple(columns)) if columns else None
    result = reach.nominal_reach_time(sys_model, d)
    u = result.optimizer_u  # its LP, solved now, raises before any output too
    # T_M* raises (a capacity error past P_MAX_DEFAULT) before any output.
    m = None if sp is None else reach.malfunctioning_reach_time(sp, d)
    print(f"T_N*(d) = {_human(result.time)}")
    doc: dict = {"system": sys_model.name, "d": [float(v) for v in d]}
    doc["T_N"] = to_machine(result.time)
    if u is not None:
        print(f"optimal u = {np.round(u, 9).tolist()}")
        doc["optimizer_u"] = [float(v) for v in u]
    if m is not None:
        print(f"T_M*(d) = {_human(m.time)}")
        doc["lost_columns"] = [c + 1 for c in columns]
        doc["T_M"] = to_machine(m.time)
        if m.optimizer_w is not None:
            print(f"worst w = {np.round(m.optimizer_w, 9).tolist()}")
            doc["optimizer_w"] = [float(v) for v in m.optimizer_w]
    _write_out(args.out, doc)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise ResilError(f"--samples must be >= 0, got {args.samples}")
    if args.samples > oracle.GRID_CAP:  # the scan holds several samples x n arrays
        raise CapacityError(f"--samples {args.samples} exceeds the cap of {oracle.GRID_CAP}")
    if not args.tol >= 0.0:  # nan fails it too
        raise ResilError(f"--tol must be >= 0, got {args.tol}")
    sys_model = _load_model(args)
    columns = _parse_lost(args.lost, sys_model.n_inputs)
    d = _parse_direction(args.direction)
    sp = split(sys_model, tuple(columns))
    reports, scales = {}, [0.5, 2.0, 10.0]
    samples = args.samples if sp.p == 1 else 0
    grid = oracle.grid_worst_w(sp, d, args.grid)
    reports["grid_worst_w"] = grid.to_dict()
    print(f"grid_worst_w: worst={_human(grid.worst_value)} theory={_human(grid.theory_value)} "
          f"violation={grid.max_violation:.3g}")
    if samples > 0:
        try:
            scan = oracle.direction_scan(sp, samples, args.seed)
            reports["direction_scan"] = scan.to_dict()
            print(f"direction_scan: worst={_human(scan.worst_value)} "
                  f"theory={_human(scan.theory_value)} violation={scan.max_violation:.3g}")
        except UnsupportedLossError as exc:
            print(f"direction_scan skipped: {exc}")
    homog = oracle.homogeneity_probe(sp, d, scales)
    reports["homogeneity_error"] = homog
    print(f"homogeneity error: {homog:.3g}")
    _write_out(args.out, reports)
    worst = max(
        [r["max_violation"] for r in reports.values() if isinstance(r, dict)] + [homog]
    )
    return EXIT_OK if worst <= args.tol else EXIT_VIOLATION


def cmd_simulate(args: argparse.Namespace) -> int:
    params = catalog.OctocopterParams()
    d = np.array([0.0, 0.0, -1.0])
    if args.scenario == "octo-vertical-bang":
        _smooth, bang = sim.smooth_reach_ratio(params, d, target_speed=args.target_speed)
        print(f"ratio_bangbang = {bang:.4f}")
        _write_out(args.out, {"scenario": args.scenario, "ratio_bangbang": bang})
        return EXIT_OK
    if args.scenario == "octo-vertical-lag":
        scenario = sim.vertical_scenario(params, d)
        smooth, bang = sim.smooth_reach_ratio(params, d, args.target_speed, args.tau, scenario)
        if args.out_dir:  # before any output, so that a bad --dt prints nothing
            sys_model, nominal, malf, u_malf = scenario
            horizon = 5.0 * max(nominal.time, malf.time) * args.target_speed
            for tag, u in (("nominal", nominal.optimizer_u), ("malfunctioning", u_malf)):
                traj = sim.integrate_with_lag(
                    sys_model, u, tau=args.tau, horizon=horizon, dt=args.dt
                )
                traj.to_csv(f"{args.out_dir}/{args.scenario}-{tag}.csv")
        print(f"ratio_smooth   = {smooth:.4f}")
        print(f"ratio_bangbang = {bang:.4f}")
        print(f"ordering: ratio_smooth < ratio_bangbang is {smooth < bang}")
        if args.out_dir:
            print(f"trajectories written to {args.out_dir}/")
        _write_out(
            args.out,
            {"scenario": args.scenario, "ratio_smooth": smooth, "ratio_bangbang": bang},
        )
        return EXIT_OK
    raise ResilError(f"unknown scenario {args.scenario!r}")


def cmd_catalog_list(_args: argparse.Namespace) -> int:
    for name in catalog.catalog_names():
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resil",
        description="Quantitative resilience of driftless generalized integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--model", required=True, help="model file path or catalog:<name> (see catalog-list)"
        )
        p.add_argument("--order", type=int, default=None, help="integrator order k override")
        p.add_argument("--out", default=None, help="write machine-readable JSON report here")

    p_check = sub.add_parser("check", help="resilience verdict and r_q per lost column")
    common(p_check)
    p_check.add_argument("--lost", default="all", help="1-based column, list i,j,.. or 'all'")
    p_check.set_defaults(func=cmd_check)

    p_ratio = sub.add_parser("ratio", help="reach times and ratio t_k(d) for one split")
    common(p_ratio)
    p_ratio.add_argument("--lost", required=True, help="1-based column or list i,j,..")
    p_ratio.add_argument("--direction", "-d", required=True, help="comma-separated d")
    p_ratio.set_defaults(func=cmd_ratio)

    p_reach = sub.add_parser("reach", help="nominal (and optional malfunctioning) reach time")
    common(p_reach)
    p_reach.add_argument("--lost", default=None, help="optional 1-based lost columns")
    p_reach.add_argument("--direction", "-d", required=True, help="comma-separated d")
    p_reach.set_defaults(func=cmd_reach)

    p_oracle = sub.add_parser("oracle", help="brute-force verification scans")
    common(p_oracle)
    p_oracle.add_argument("--lost", required=True, help="1-based lost columns")
    p_oracle.add_argument("--direction", "-d", required=True, help="comma-separated d")
    p_oracle.add_argument("--grid", type=int, default=51, help="grid points per axis")
    p_oracle.add_argument("--samples", type=int, default=2000, help="direction samples")
    p_oracle.add_argument("--seed", type=int, default=7, help="scan seed")
    p_oracle.add_argument("--tol", type=float, default=1e-9, help="violation tolerance")
    p_oracle.set_defaults(func=cmd_oracle)

    p_sim = sub.add_parser("simulate", help="case-study trajectory scenarios")
    p_sim.add_argument("scenario", choices=["octo-vertical-bang", "octo-vertical-lag"])
    p_sim.add_argument("--tau", type=float, default=0.1, help="propeller time constant (s)")
    p_sim.add_argument("--dt", type=float, default=None, help="--out-dir CSV sample spacing (s)")
    p_sim.add_argument("--target-speed", type=float, default=1.0, help="target speed (m/s)")
    p_sim.add_argument("--out", default=None, help="write JSON summary here")
    p_sim.add_argument("--out-dir", default=None, help="write trajectory CSVs here")
    p_sim.set_defaults(func=cmd_simulate)

    p_list = sub.add_parser("catalog-list", help="list built-in catalog systems")
    p_list.set_defaults(func=cmd_catalog_list)

    return parser


#: The parser main keeps; parse_args writes only to a fresh Namespace.  Its
#: set_defaults(func=cmd_*) binds the command functions of its first build.
_parser = functools.cache(build_parser)


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=_sys.stderr)
        return EXIT_CAPACITY
    except ResilError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
