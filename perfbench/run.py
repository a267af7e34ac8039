"""Benchmark for gme: seeded workloads driven from outside the package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Every request runs in a closed loop with
one client, and its output is checked. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("crosscheck", "oracle-dense", "wmax-scan")
SETUP_PROBES = 10  # extra set-ups per run; setup_s is the median with the timed one
PROBES = 5  # cold processes per kind in a traced run: bare, importtime, gm dicke
CLI_PROBE = ("dicke", "--amps=0,1,0,0")  # the W state, G^2 = 4/9
TAIL_BEYOND = 10  # the tail latency has this many samples above it
PURE_QUBITS = (2, 3, 4, 8, 12, 16)  # qubit counts the pure oracle sees
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROADMAP_IMPORT_MS = {"gme": 240.0, "scipy": 190.0}  # claims checked by the traced run


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    """This process's environment with ``src`` first on the import path."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, env, seconds, *flags) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds), *flags,
    ]
    spawned = time.monotonic_ns()
    done = subprocess.run(
        [*command, "--spawned-ns", str(spawned)],
        capture_output=True, text=True, env=env, timeout=seconds + 90, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"worker for {args.workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def end_to_end(args, env) -> tuple[dict, int, int]:
    def probes(count):
        return [run_worker(args, env, 0, "--setup-only")["setup_ns"]
                for _ in range(count)]

    # half the set-up probes before the timed loop and half after it, so a
    # burst of load on the machine does not fall on all of them
    setups = probes(SETUP_PROBES // 2)
    res = run_worker(args, env, args.seconds)
    setups += [res["setup_ns"], *probes(SETUP_PROBES - SETUP_PROBES // 2)]
    ok = res["attempted"] - res["failed"]
    tail_ms, tail_pct = tail(res["latencies_ms"])
    report(args, res, {"tail_percentile": tail_pct, "tail_samples": len(res["latencies_ms"])})
    metrics = {
        "throughput_rps": metric(ok / res["elapsed_s"], "1/s"),
        "latency_p50_ms": metric(statistics.median(res["latencies_ms"]), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "setup_s": metric(statistics.median(setups) / 1e9, "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "ok_frac": metric(ok / res["attempted"], "ratio"),
    }
    return metrics, res["attempted"], res["failed"]


def report(args, res: dict, extra: dict) -> None:
    """Input mix, environment and failures on stderr (not part of the result)."""
    classes = res["classes"]
    latencies = res["latencies_ms"]
    shares = {c: round(classes.count(c) / len(classes), 4) for c in sorted(set(classes))}
    by_class = {
        c: round(statistics.median(l for k, l in zip(classes, latencies) if k == c), 2)
        for c in shares
    }
    ranked = sorted(zip(latencies, classes))
    tail_index = max(0, len(ranked) - TAIL_BEYOND - 1)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(classes),
        "class_share": shares,
        "class_p50_ms": by_class,
        # the class of the request at each reported percentile, and of its
        # neighbours one tenth of the samples away on either side
        "p50_classes": [ranked[min(len(ranked) - 1, max(0, len(ranked) // 2 + d))][1]
                        for d in (-len(ranked) // 10, 0, len(ranked) // 10)],
        "tail_classes": [ranked[min(len(ranked) - 1, max(0, tail_index + d))][1]
                         for d in (-TAIL_BEYOND, 0, TAIL_BEYOND)],
        "environment": res["environment"],
        "failures": res["failures"],
        **extra,
    }
    print(json.dumps(record), file=sys.stderr)


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------


def importtime_ms(env) -> dict[str, float]:
    """Cumulative import time of each top-level package under ``import gme``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gme"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    totals: dict[str, float] = {}
    depth: dict[str, int] = {}
    for line in done.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)", line)
        if not match:
            continue
        cumulative, indent, module = int(match[2]), len(match[3]), match[4]
        top = module.split(".")[0]
        # count only the outermost entries of each package: nested ones are
        # already inside their parent's cumulative time
        if top not in depth or indent < depth[top]:
            depth[top], totals[top] = indent, 0.0
        if indent == depth[top]:
            totals[top] += cumulative / 1e3
    return totals


def import_metrics(env) -> dict[str, float]:
    python_ms = []
    for _ in range(PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, timeout=60, check=True)
        python_ms.append((time.perf_counter() - started) * 1e3)
    probes = [importtime_ms(env) for _ in range(PROBES)]
    out = {"python": statistics.median(python_ms)}
    for package in ("numpy", "scipy", "gme"):
        out[package] = statistics.median(p.get(package, 0.0) for p in probes)
    return out


def cli_metrics(env) -> tuple[float, float, int]:
    """Median process and handler time of cold ``gm dicke`` runs, and failures.

    The handler time is the ``wall_time_ms`` that ``--json`` prints.
    """
    process_ms, handler_ms, failed = [], [], 0
    for _ in range(PROBES):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "gme.cli", *CLI_PROBE, "--json"],
            capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        process_ms.append((time.perf_counter() - started) * 1e3)
        try:
            record = json.loads(done.stdout)
            ok = done.returncode == 0 and abs(record["result"]["G_squared"] - 4.0 / 9.0) <= 1e-8
        except (ValueError, KeyError, TypeError):
            ok = False
        if ok:
            handler_ms.append(float(record["wall_time_ms"]))
        else:
            failed += 1
    if not handler_ms:
        return 0.0, 0.0, failed
    return statistics.median(process_ms), statistics.median(handler_ms), failed


def per_layer(args, env, spans_path) -> tuple[dict, int, int]:
    half = args.seconds / 2.0
    plain = run_worker(args, env, half)
    traced = run_worker(args, env, half, "--trace", spans_path)
    imports = import_metrics(env)
    process, handler, cli_failed = cli_metrics(env)
    trace = traced["trace"]
    agg = trace["agg"]
    requests = traced["attempted"]
    m: dict[str, dict] = {}

    def put(name, unit, spans, value):
        """Record ``value()`` unless a span it is computed from is absent."""
        if all(span in agg for span in spans):
            m[name] = metric(value(), unit)

    def per_request(name, key):
        return agg[name][key] / requests

    def per_call(name, count):
        calls = agg[name]["calls"]
        return agg[name]["counts"].get(count, 0) / calls if calls else 0.0

    def p50(name):
        durations = agg[name]["durations"]
        return statistics.median(durations) / 1e6 if durations else 0.0

    def calls_self(name):
        put(f"{name}.calls", "calls/req", [name], lambda: per_request(name, "calls"))
        put(f"{name}.self_ms", "ms/req", [name], lambda: per_request(name, "self_ns") / 1e6)

    m["import.python_ms"] = metric(imports["python"], "ms")
    m["import.numpy_ms"] = metric(imports["numpy"], "ms")
    m["import.scipy_ms"] = metric(imports["scipy"], "ms")
    m["import.gme_ms"] = metric(imports["gme"], "ms")
    m["cli.handler_ms"] = metric(handler, "ms")
    m["cli.startup_ms"] = metric(process - handler, "ms")

    calls_self("states.convert")
    for name in ("dicke.gm_dicke_nonneg", "sym3q.gm_sym3q", "rank2.g_numeric"):
        calls_self(name)
        put(f"{name}.p50_ms", "ms", [name], lambda name=name: p50(name))
    sym3q = "sym3q.gm_sym3q"
    put("sym3q.find_case2_roots.self_ms", "ms/req", ["sym3q.find_case2_roots"],
        lambda: per_request("sym3q.find_case2_roots", "self_ns") / 1e6)
    put("sym3q.candidates_per_solve", "count", [sym3q], lambda: per_call(sym3q, "candidates"))
    put("sym3q.fallback_rate", "ratio", [sym3q, "oracle.gm_symmetric_oracle"],
        lambda: per_call(sym3q, "fallbacks"))

    def fallback_won():
        fallbacks = agg[sym3q]["counts"].get("fallbacks", 0)
        return agg[sym3q]["counts"].get("oracle_won", 0) / fallbacks if fallbacks else 0.0

    put("sym3q.fallback_won_rate", "ratio", [sym3q, "oracle.gm_symmetric_oracle"], fallback_won)

    calls_self("rank2.g_closed_form")
    put("rank2.g_from_pure_3qubit.self_ms", "ms/req", ["rank2.g_from_pure_3qubit"],
        lambda: per_request("rank2.g_from_pure_3qubit", "self_ns") / 1e6)

    scan = "wmax.scan_global_min"
    put(f"{scan}.self_ms", "ms/req", [scan], lambda: per_request(scan, "self_ns") / 1e6)
    put(f"{scan}.p50_ms", "ms", [scan], lambda: p50(scan))

    def cells_per_s():
        cells = agg[scan]["counts"].get("cells", 0)
        return cells / (agg[scan]["total_ns"] / 1e9) if cells else 0.0

    put("wmax.scan.cells_per_s", "1/s", [scan], cells_per_s)
    put("wmax.verify_w_uniqueness.self_ms", "ms/req", ["wmax.verify_w_uniqueness"],
        lambda: per_request("wmax.verify_w_uniqueness", "self_ns") / 1e6)

    pure = "oracle.gm_pure_oracle"
    calls_self(pure)
    put("oracle.pure.restarts", "count", [pure, "rng.restart_stream"],
        lambda: per_call(pure, "restarts"))

    def ms_per_restart(n):
        restarts = agg[pure]["counts"].get(f"restarts.n{n}", 0)
        ns = agg[pure]["counts"].get(f"ns.n{n}", 0)
        return ns / restarts / 1e6 if restarts else 0.0

    for n in PURE_QUBITS:
        put(f"oracle.pure.ms_per_restart.n{n}", "ms", [pure, "rng.restart_stream"],
            lambda n=n: ms_per_restart(n))
    put("oracle.pure.unconverged", "ratio", [pure], lambda: per_call(pure, "unconverged"))
    calls_self("oracle.gm_symmetric_oracle")
    calls_self("oracle.g_mixed_oracle")

    calls_self("optim.bisect_roots_vector")
    put("optim.bisect_roots_vector.brackets", "count", ["optim.bisect_roots_vector"],
        lambda: per_call("optim.bisect_roots_vector", "brackets"))
    calls_self("optim.golden_section")
    calls_self("optim.max_on_sphere")
    calls_self("optim.nelder_mead")
    put("optim.nelder_mead.nfev", "count", ["optim.nelder_mead"],
        lambda: per_call("optim.nelder_mead", "nfev"))

    plain_rps = (plain["attempted"] - plain["failed"]) / plain["elapsed_s"]
    traced_rps = (traced["attempted"] - traced["failed"]) / traced["elapsed_s"]
    m["trace.overhead_frac"] = metric(plain_rps / traced_rps - 1.0, "ratio")
    m["trace.coverage_frac"] = metric(trace["covered_ns"] / (sum(traced["latencies_ms"]) * 1e6), "ratio")

    claims = {
        package: {"measured_ms": round(imports[package], 1), "claimed_ms": claimed,
                  "holds": abs(imports[package] - claimed) <= 0.25 * claimed}
        for package, claimed in ROADMAP_IMPORT_MS.items()
    }
    report(args, traced, {"absent": trace["absent"], "spans_not_kept": trace["dropped"],
                          "roadmap_import_claims": claims})
    attempted = plain["attempted"] + traced["attempted"] + PROBES
    return m, attempted, plain["failed"] + traced["failed"] + cli_failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "gme", "__init__.py")):
        fail("run from the root of a gme checkout: src/gme is missing")

    os.environ.update({var: "1" for var in BLAS_VARS})  # inherited by every child
    env = child_env()
    # compile bytecode and warm the file cache before anything is timed
    subprocess.run([sys.executable, "-c", "import gme"], env=env, timeout=120, check=True)
    if args.trace:
        work = os.path.join(HERE, "_work")
        os.makedirs(work, exist_ok=True)
        spans = os.path.join(work, f"spans-{args.workload}.jsonl")
        metrics, attempted, failed = per_layer(args, env, spans)
    else:
        metrics, attempted, failed = end_to_end(args, env)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
