"""One benchmark process: set up a workload, run its timed loop, report JSON.

``run.py`` starts this script and reads the single JSON line it prints. The
set-up time is measured from the moment ``run.py`` started the process
(``--spawned-ns``, on the system-wide monotonic clock) to the moment the first
timed request could be sent, so it covers interpreter start, ``import gme``
and building and validating the inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import warnings


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS_FILE", help="trace, and write the spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads  # imports gme: part of the set-up time

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    setup_ns = time.monotonic_ns() - args.spawned_ns
    if args.setup_only:
        print(json.dumps({"setup_ns": setup_ns}))
        return 0

    if workload.WARNINGS_FAIL:
        warnings.simplefilter("error")

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.NOTES)

    latencies: list[float] = []
    classes: list[str] = []
    failures: list[str] = []
    failed = 0
    started = time.perf_counter()
    index = 0
    round_index = 0
    while True:
        for request in workload.round(round_index):
            if tracer is not None:
                tracer.request = index
            t0 = time.perf_counter_ns()
            try:
                output = workload.call(request)
            except Exception as exc:  # a raising solver is a failed request
                output, error = None, f"{request.cls}: {type(exc).__name__}: {exc}"
            else:
                error = None
            latencies.append((time.perf_counter_ns() - t0) / 1e6)
            classes.append(request.cls)
            if error is None:
                try:
                    workload.check(request, output)
                except Exception as exc:  # a check that cannot read the output fails it
                    error = f"{request.cls}: {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(error)
            index += 1
        round_index += 1
        if time.perf_counter() - started >= args.seconds:
            break
    elapsed = time.perf_counter() - started

    result = {
        "setup_ns": setup_ns,
        "elapsed_s": elapsed,
        "attempted": index,
        "failed": failed,
        "failures": failures,
        "latencies_ms": latencies,
        "classes": classes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
