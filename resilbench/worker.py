"""One workload run in a fresh process: a closed loop of in-process CLI calls.

Usage: python3 resilbench/worker.py SPEC_JSON RESULT_JSON

One client issues the next op when the previous one returns.  Each op is one
`resil.cli.main(argv + ["--out", FILE])` call with stdout and stderr
captured; the --out JSON is read back between ops, outside the op's timing.

trace 0: after one untimed warm-up op, ops run untraced until `seconds`
have passed and at least `min_ops` ops are done.  After each op, outside its
timing, one unit of the reference computation (reference.py) gauges the
machine's speed at that moment.  trace 1: a fixed prefix of the plan runs once
untraced and twice traced; the traced passes must give identical counts and
every pass byte-identical --out JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _run_op(cli, argv, out_path, tracer=None):
    """One timed CLI call; returns (ns, exit code, error, out text, stdout digest)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    span = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter_ns()
        if tracer is not None:
            span = tracer.open("cli.main")
        try:
            code = cli.main(argv + ["--out", out_path])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op, not a crash
            code = None
            error = f"{type(exc).__name__}: {exc}"
        if span is not None:
            tracer.close(span)
        elapsed = time.perf_counter_ns() - start
    if code not in (0, None) and error is None:
        error = f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
    out = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            out = fh.read()
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return elapsed, code, error, out, digest


def _record(index, result):
    elapsed, code, error, out, digest = result
    return {"i": index, "ns": elapsed, "code": code, "error": error, "out": out, "stdout": digest}


def _pass(cli, plan, count, out_path, tracer=None):
    records = []
    for i in range(count):
        if tracer is not None:
            tracer.op_id = i
        records.append(_record(i, _run_op(cli, plan[i % len(plan)]["argv"], out_path, tracer)))
    return records


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import resil.cli as cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import reference

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"resil imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(spec["plan"], encoding="utf-8") as fh:
        plan = json.load(fh)
    out_path = spec["out"]
    result = {}

    if not spec["trace"]:
        # Warm-up: lazy imports and first-call caches are paid once per process.
        _run_op(cli, plan[0]["argv"], out_path)
        reference.unit_ns()
        records = []
        window_start = time.perf_counter_ns()
        deadline = window_start + int(spec["seconds"] * 1e9)
        i = 0
        while i < spec["min_ops"] or time.perf_counter_ns() < deadline:
            record = _record(i, _run_op(cli, plan[i % len(plan)]["argv"], out_path))
            record["ref_ns"] = reference.unit_ns()
            records.append(record)
            i += 1
        result["window_s"] = (time.perf_counter_ns() - window_start) / 1e9
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["records"] = records
    else:
        import tracer as tracing

        count = spec["trace_ops"]
        _run_op(cli, plan[0]["argv"], out_path)  # warm-up, so pass order does not bias overhead
        untraced = _pass(cli, plan, count, out_path)
        passes = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records = _pass(cli, plan, count, out_path, tracer)
            finally:
                tracer.uninstall()
            passes.append((tracer, records))
        (first, traced), (second, _) = passes
        first.write(spec["spans"])
        kinds = [plan[i % len(plan)]["kind"] for i in range(count)]
        result["records"] = untraced + traced + passes[1][1]
        result["counts"] = [tracing.counts(first.spans), tracing.counts(second.spans)]
        result["layers"] = tracing.layer_metrics(first.spans, count)
        result["per_kind"] = tracing.per_kind_counts(first.spans, kinds)
        result["untraced_s"] = sum(r["ns"] for r in untraced) / 1e9
        result["traced_s"] = sum(r["ns"] for r in traced) / 1e9
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
