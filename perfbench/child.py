"""One benchmark operation in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'  (run.py builds the spec).
Prints one JSON line: the monotonic time at which the imports finished,
the operation's run time, peak RSS, its output, version metadata and,
when traced, the spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

NPROC = len(os.sched_getaffinity(0))


def blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_operation(spec, simomac):
    import workloads

    argv = workloads.cli_argv(spec["workload"], spec["seed"], spec["size"])
    if argv is None:
        return {"result": workloads.run_validity_oracles(spec["seed"], spec["size"])}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = simomac.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return {"rc": rc, "stdout": buf.getvalue()}


def main():
    spec = json.loads(sys.argv[1])
    # cKDTree(workers=-1) sizes its pool from os.cpu_count() at call time;
    # keep it within the CPUs this process may run on (BLAS is capped by
    # the *_NUM_THREADS variables run.py sets).
    if (os.cpu_count() or NPROC) > NPROC:
        os.cpu_count = lambda: NPROC
    import numpy
    import scipy
    import simomac.cli

    t_ready = time.monotonic()
    out = {"t_ready": t_ready}
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(simomac.__file__).startswith(src + os.sep):
        out["error"] = f"imported simomac from {simomac.__file__}, not from {src}"
    elif not spec.get("warmup"):
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(simomac)
        t0, c0 = time.monotonic(), time.process_time()
        try:
            out.update(run_operation(spec, simomac))
        except Exception:
            out["error"] = traceback.format_exc()
        out["run_s"] = time.monotonic() - t0
        out["cpu_s"] = time.process_time() - c0
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["spans"] = tracer.spans
        out["meta"] = {
            "nproc": NPROC,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads(numpy),
        }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
