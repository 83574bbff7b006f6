"""simomac benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
The loop is closed with one client: operations run one after another,
each in a fresh process (perfbench/child.py) that imports numpy, scipy
and ``simomac`` from ``src/`` and then drives the CLI entry point or the
public library functions once.  Operations start until ``--seconds`` have
passed (at least three, four when traced).  BLAS and cKDTree threads are
capped at the CPUs the process may use.  Before the timed operations, a
few processes only do the imports, so set-up is sampled more often.

--trace 0 prints the end-to-end metrics, medians over the operations:
  run_s          time from finished imports to the operation's result
  setup_s        process start plus the numpy/scipy/simomac imports, over
                 the operations and the import-only processes
  peak_rss_mb    peak resident set of the operation's process
  pass_ratio     1 - failed/attempted operations, i.e. 1 - fail_ratio (the
                 benchmark's metrics must not read 0 on a healthy run)
  bound_se_bits  largest Monte-Carlo standard error reported (see
                 workloads.largest_se for the two workloads where it differs)
--trace 1 alternates untraced and traced operations and prints the
per-layer metrics listed in BENCHMARK.json, medians over the traced ones:
``<module>.<function>.<self_s|calls|entries|points|peak_mb|first_call_s>``,
plus ``trace.run_s`` and ``trace.overhead_s`` (traced minus untraced run_s).

Every operation is checked (workloads.check_operation): an operation
fails if any of its items fails -- a missing, non-finite or off-reference
value, a NaN in the JSON, a non-zero exit, a failed verify check, a failed
validity comparison, or a report that differs from the run's first.
``attempted`` and ``failed`` count operations.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the failed items
are printed as ``# FAILED`` lines and, with per-operation details, written
to perfbench/out/.

All workloads, end to end:
    for w in bounds_long_block bounds_short_block validity_oracles region_optimizer; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 28 --trace 0; done
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracer import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
PREDICTIONS = os.path.join(HERE, "predictions.json")
SIZE = "full"  # key into workloads.SIZES; the smoke test sets "tiny"
SETUP_ONLY_PROCESSES = 4
OP_TIMEOUT_S = 120.0
# No operation starts after this many seconds, so a run ends within 180 s.
LAST_START_S = 45.0

LAYER_FIELDS = {  # metric suffix -> key in tracer.summarize
    "self_s": "self_s",
    "calls": "calls",
    "entries": "count",
    "points": "count",
    "peak_mb": "peak_mb",
    "first_call_s": "first_call_s",
}


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def spawn(spec, root, timeout=OP_TIMEOUT_S):
    """Run one operation; returns the child's record with setup_s and wall_s
    added, or {"error": ...}."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "wall_s": time.monotonic() - t_spawn}
    wall = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "wall_s": wall}
    try:
        op = json.loads(lines[-1])
    except ValueError:
        return {"error": f"unreadable result: {lines[-1][:200]}", "wall_s": wall}
    op["setup_s"] = op["t_ready"] - t_spawn
    op["wall_s"] = wall
    return op


def run_operations(workload, seed, size, seconds, trace, root):
    """Returns (operations, set-up times of the import-only processes)."""
    spec = {"workload": workload, "seed": seed, "size": size, "src": os.path.join(root, "src")}
    setups = []
    for i in range(1 + SETUP_ONLY_PROCESSES):  # the first fills bytecode and file caches
        op = spawn({**spec, "warmup": True, "trace": False}, root)
        if "error" in op:
            return [{**op, "traced": False}], []
        if i:
            setups.append(op["setup_s"])
    min_ops = 4 if trace else 3
    ops = []
    start = time.monotonic()
    last_wall = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(ops) >= min_ops and elapsed + last_wall > seconds:
            break
        if ops and elapsed + last_wall > LAST_START_S:
            break
        traced = bool(trace) and len(ops) % 2 == 1
        op = spawn({**spec, "trace": traced}, root)
        op["traced"] = traced
        last_wall = op["wall_s"]
        ops.append(op)
    return ops, setups


def check(workload, ops, ref):
    """Per-operation {item: passed}, including the repeat check."""
    results = []
    first = None
    for i, op in enumerate(ops):
        items = workloads.check_operation(workload, op, ref)
        fp = workloads.fingerprint(workload, op)
        if i == 0:
            first = fp
        else:
            items["same_as_first_op"] = fp is not None and fp == first
        results.append(items)
    return results


def end_to_end(workload, ops, setups, attempted, failed):
    good = [op for op in ops if "error" not in op and not op["traced"]]
    ses = []
    for op in good:
        try:
            ses.append(workloads.largest_se(workload, op))
        except (ValueError, KeyError, TypeError):
            pass
    if not good or not ses:
        return None
    return {
        "run_s": statistics.median(op["run_s"] for op in good),
        "setup_s": statistics.median([op["setup_s"] for op in good] + setups),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in good),
        "pass_ratio": 1.0 - failed / attempted,
        "bound_se_bits": statistics.median(ses),
    }


def per_layer(names, ops):
    """Medians over the traced operations; also returns the per-function
    table for the detail file."""
    traced = [op for op in ops if op["traced"] and "spans" in op]
    untraced = [op for op in ops if not op["traced"] and "error" not in op]
    if not traced or not untraced:
        return None, None
    tables = [summarize(op["spans"]) for op in traced]
    values = {}
    for name in names:
        if name == "trace.run_s":
            values[name] = statistics.median(op["run_s"] for op in traced)
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(op["run_s"] for op in traced)
                            - statistics.median(op["run_s"] for op in untraced))
        else:
            func, field = name.rsplit(".", 1)
            key = LAYER_FIELDS[field]
            values[name] = statistics.median(t.get(func, {}).get(key, 0) for t in tables)
    functions = sorted({f for t in tables for f in t})
    table = {f: {k: statistics.median(t.get(f, {}).get(k, 0) for t in tables)
                 for k in ("self_s", "total_s", "calls", "count", "peak_mb", "first_call_s")}
             for f in functions}
    return values, table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "simomac", "__init__.py")):
        print("error: run from the root of a simomac checkout (no src/simomac here)",
              file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        ref = json.load(fh)[SIZE][args.workload]
    with open(PREDICTIONS) as fh:
        zero_reasons = json.load(fh)["zero_by_construction"]
    size = workloads.SIZES[SIZE][args.workload]

    ops, setups = run_operations(args.workload, args.seed, size, args.seconds, args.trace, root)
    checks = check(args.workload, ops, ref)
    attempted = len(checks)
    failed = sum(not all(c.values()) for c in checks)

    spec_metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    table = None
    if args.trace:
        values, table = per_layer([m["name"] for m in spec_metrics], ops)
    else:
        values = end_to_end(args.workload, ops, setups, attempted, failed)
    failures = [f"op{i}: {item}" for i, c in enumerate(checks) for item, ok in c.items() if not ok]
    errors = [op["error"] for op in ops if "error" in op]
    meta = next((op["meta"] for op in ops if "meta" in op), {})
    meta = {**meta, "workload": args.workload, "seed": args.seed, "size": SIZE,
            "trial_counts": size, "operations": len(ops), "setup_only_processes": len(setups),
            "traced_operations": sum(op.get("traced", False) for op in ops)}

    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w") as fh:
        per_op = ("traced", "setup_s", "run_s", "cpu_s", "wall_s", "rss_mb")
        json.dump({"meta": meta, "metrics": values, "failures": failures, "errors": errors,
                   "setup_only_s": setups,
                   "operations": [{k: op.get(k) for k in per_op} for op in ops],
                   "functions": table}, fh, indent=1, sort_keys=True)

    for err in errors:
        print(f"operation error: {err}", file=sys.stderr)
    if values is None:
        print("error: no operation produced a measurable result", file=sys.stderr)
        return 1
    print("# meta " + json.dumps(meta, sort_keys=True))
    for m in spec_metrics:
        v = values[m["name"]]
        note = ""
        if v == 0:
            reason = zero_reasons.get(m["name"])
            note = (f"  (zero by construction: {reason})" if reason
                    else "  (zero: not called on this workload)")
        print(f"# {m['name']} = {v:.6g} {m['unit']}{note}")
    for f in failures[:20]:
        print(f"# FAILED {f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
