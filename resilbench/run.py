"""resil benchmark: closed-loop CLI workloads with a separate traced run.

Usage (from the root of a checkout):

    python3 resilbench/run.py --workload scan --seed 1 --seconds 24 --trace 0

Workloads (BENCHMARK.json says why each exists):
  sweep      resil check --model M --lost all, orders 1 and 2, catalog and
             generated mixed-scale systems
  scan       resil oracle on resilient single-loss splits
  multiloss  resil ratio with p = 4..10 lost columns
  lagsim     resil simulate octo-vertical-lag / octo-vertical-bang

The launcher writes the seeded inputs, measures set-up (the import of
resil.cli in fresh processes), runs the workload in one fresh worker process
with BLAS/OpenMP threads pinned to 1, checks every output against SciPy HiGHS
and invariants, and prints one line per metric followed by a JSON result as
the last line.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from the traced run.  Spans of the traced run
are written to .bench_work/spans-<workload>-seed<seed>.jsonl.

End-to-end times are given at nominal machine speed.  The shared host's speed
drifts by up to 1.7x over minutes, for any program, so each op and each
set-up process also times a fixed reference computation (reference.py), and
every time is scaled by the reference's nominal time over its time measured
around it.  Wall-clock figures and the measured slowdown are printed as
comments above the metrics.

Exits non-zero, printing no result, when the program under test is missing
or the worker fails.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import json  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

#: Every run completes at least this many ops (p90 then has >= 10 beyond it).
MIN_OPS = 100
#: Fresh processes timed for setup_s (after one untimed warm-up import), half
#: before and half after the worker, so one slow spell of a shared machine
#: does not set the median.
SETUP_SAMPLES = 10
#: Subprocess runs timed for cli.process_check_ms.
PROCESS_SAMPLES = 3
#: Everything must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Times the import of resil.cli, then gauges the process's speed with the
#: reference computation (one warm-up unit, then the median of REF_UNITS).
IMPORT_PROBE = ("import statistics, sys, time; t = time.perf_counter_ns(); import resil.cli; "
                "t = time.perf_counter_ns() - t; sys.path.insert(0, {here!r}); "
                "import reference; reference.unit_ns(); "
                "print(t, statistics.median(reference.unit_ns() for _ in range({units})))")
REF_UNITS = 15
PROCESS_CHECK = ["-m", "resil.cli", "check", "--model", "catalog:spacecraft-printed",
                 "--lost", "all"]

E2E_UNITS = {"throughput_ops_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "lp.solves_per_op": "count", "lp.solve_p50_us": "us", "lp.self_share": "fraction",
    "lp.infeasible_frac": "fraction", "lp.unbounded_frac": "fraction",
    "reach.tm_calls_per_op": "count", "reach.lps_per_tm": "count",
    "reach.tm_p50_ms": "ms", "reach.self_share": "fraction",
    "resilience.controllability_calls_per_op": "count",
    "resilience.lambda_pair_calls_per_report": "count",
    "resilience.lps_per_report": "count", "resilience.report_p50_ms": "ms",
    "oracle.directions_per_s": "1/s", "oracle.grid_points_per_s": "1/s",
    "oracle.self_share": "fraction",
    "sim.integrations_per_op": "count", "sim.samples_per_op": "count",
    "sim.crossings_per_integration": "fraction", "sim.integrate_p50_ms": "ms",
    "sim.self_share": "fraction",
    "cli.self_share": "fraction", "cli.import_ms": "ms", "cli.process_check_ms": "ms",
    "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child to completion (killed at the deadline); return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before " + " ".join(argv[:3]))
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(argv[:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(argv[:3])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_samples(deadline: float, count: int) -> list[tuple[float, float]]:
    """(import time of resil.cli in s, machine slowdown) in `count` fresh processes."""
    probe = IMPORT_PROBE.format(here=HERE, units=REF_UNITS)
    samples = []
    for _ in range(count):
        import_ns, ref_ns = run_child(["-c", probe], deadline).split()[-2:]
        samples.append((int(import_ns) / 1e9, float(ref_ns) / reference.NOMINAL_NS))
    return samples


def process_check_ms(deadline: float) -> list[float]:
    samples = []
    for _ in range(PROCESS_SAMPLES):
        start = time.perf_counter()
        run_child(PROCESS_CHECK, deadline)
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def machine_facts() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def report_failures(plan, records, failures, keep) -> None:
    os.makedirs(keep, exist_ok=True)
    for pos, reason in sorted(failures.items())[:20]:
        op = plan[records[pos]["i"] % len(plan)]
        model = op.get("model", "")
        if model and not model.startswith("catalog:"):
            shutil.copy(model, keep)
            model = os.path.join(keep, os.path.basename(model))
        argv = [model if a == op.get("model") else a for a in op["argv"]]
        print(f"# FAILED op {records[pos]['i']} ({op['kind']}): {reason}")
        print(f"#   resil {' '.join(argv)}")
    if len(failures) > 20:
        print(f"# ... and {len(failures) - 20} more failed ops")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "resil", "cli.py")):
        print(f"resilbench: no program at {os.path.join(ROOT, 'src', 'resil')}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    try:
        return _run(args, deadline, base, work)
    except BenchError as exc:
        print(f"resilbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, deadline: float, base: str, work: str) -> int:
    name = args.workload
    facts = machine_facts()
    print(f"# resilbench workload={name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    plan = workloads.make_plan(name, args.seed, args.seconds, os.path.join(work, "inputs"))
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    # The untimed first import writes the bytecode cache, which users pay once,
    # not on every call.
    setup_samples(deadline, 1)
    setup = setup_samples(deadline, SETUP_SAMPLES // 2)
    spec = {"root": ROOT, "plan": plan_path, "seconds": args.seconds, "trace": args.trace,
            "min_ops": MIN_OPS, "trace_ops": workloads.TRACE_OPS[name],
            "out": os.path.join(work, "out.json"),
            "spans": os.path.join(base, f"spans-{name}-seed{args.seed}.jsonl")}
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    result_path = os.path.join(work, "result.json")
    run_child([os.path.join(HERE, "worker.py"), spec_path, result_path], deadline)
    setup += setup_samples(deadline, SETUP_SAMPLES - len(setup))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    process_ms = process_check_ms(deadline) if args.trace else []

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from resil import catalog  # catalog matrices are inputs of the check

    checker = check.Checker(name, catalog.resolve)
    records = result["records"]
    failures = check.check_records(checker, plan, records)
    problems = []
    if args.trace:
        if result["counts"][0] != result["counts"][1]:
            problems.append("traced counts differ between two passes over the same ops")
        count = workloads.TRACE_OPS[name]
        passes = [records[k * count:(k + 1) * count] for k in range(3)]
        for untraced, traced in zip(passes[0], passes[1]):
            if untraced["out"] != traced["out"] or untraced["stdout"] != traced["stdout"]:
                problems.append(f"op {untraced['i']}: traced output differs from untraced")
    if failures:
        report_failures(plan, records, failures, os.path.join(base, "failed"))
    for problem in problems:
        print(f"# FAILED: {problem}")

    print(f"# checks: {len(records)} ops by invariants, {checker.highs_ops} distinct inputs "
          f"re-derived with HiGHS ({checker.highs.solves} HiGHS LPs); "
          f"failed_frac = {len(failures) / len(records):.4g} ({len(failures)}/{len(records)})")
    if args.trace:
        metrics = dict(result["layers"])
        metrics["cli.import_ms"] = statistics.median(t for t, _ in setup) * 1e3
        metrics["cli.process_check_ms"] = statistics.median(process_ms)
        metrics["trace.overhead_frac"] = result["traced_s"] / result["untraced_s"] - 1.0
        units = LAYER_UNITS
        for kind, row in result["per_kind"].items():
            print(f"# counts per op, {kind}: " + " ".join(f"{k}={v:g}" for k, v in row.items()))
        samples = f"{workloads.TRACE_OPS[name]} ops per traced pass"
    else:
        wall_ms = [r["ns"] / 1e6 for r in records]
        times_ms = reference.normalize(wall_ms, [r["ref_ns"] for r in records])
        metrics = {
            "throughput_ops_s": len(records) / (sum(times_ms) / 1e3),
            "op_p50_ms": statistics.median(times_ms),
            "op_p90_ms": percentile(times_ms, 90),
            "setup_s": statistics.median(t / slowdown for t, slowdown in setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = E2E_UNITS
        slowdown = reference.local_slowdown([r["ref_ns"] for r in records])
        print(f"# wall clock: {len(records) / (sum(wall_ms) / 1e3):.6g} ops/s, "
              f"op p50 {statistics.median(wall_ms):.6g} ms, p90 {percentile(wall_ms, 90):.6g} ms, "
              f"set-up {statistics.median(t for t, _ in setup):.6g} s; slowdown against "
              f"nominal speed: ops {statistics.median(slowdown):.4g} "
              f"(range {min(slowdown):.4g}..{max(slowdown):.4g}), "
              f"set-up {statistics.median(s for _, s in setup):.4g}")
        beyond = len(records) - math.ceil(0.9 * len(records))
        samples = (f"{len(records)} ops in {result['window_s']:.3f} s ({beyond} beyond p90), "
                   f"{SETUP_SAMPLES} set-up processes")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"# samples: {samples}")
    line = {
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
