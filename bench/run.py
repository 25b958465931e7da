"""Run one oope benchmark workload and print its metrics.

    python3 bench/run.py --workload fast-det-ascending --seed 1 \
        --seconds 10 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory, and the plaintext oracles from `tests/`.  Without them the
import fails and the script exits non-zero before printing a result.

The load is one analyst in a closed loop on the calling thread, one op
in flight; server and owner run on the cluster's two serve threads.
Dataset, queries, keys and every cluster RNG derive from `--seed`.
Every answer is checked against a plaintext oracle.

With `--trace 0` nothing is wrapped and the end-to-end metrics are
printed.  With `--trace 1` the tracer wraps the modules from outside,
traces every other op (the ops in between give the untraced latency
for `trace.overhead`), writes its spans to `.bench_out/` and prints the
per-layer metrics.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

import argparse
import importlib.util
import inspect
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import tracing  # noqa: E402  (needs src/ on the path)
from oope.engine import CspEngine, DoEngine  # noqa: E402
from oope.rng import make_rng  # noqa: E402
from oope.transport import RANDOMIZED_NODE, UID_COMPARE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> unit; failed_frac is printed but not in the JSON result, where
# attempted and failed carry it
E2E_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "failed_frac": "ratio",
    "wire_kb_per_op": "KB",
    "frames_per_op": "count",
    "rounds_per_session": "count",
    "peak_rss_mb": "MB",
}
JSON_E2E = [name for name in E2E_UNITS if name != "failed_frac"]


def machine():
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "gmpy2": "present" if importlib.util.find_spec("gmpy2")
            else "absent"}


def percentile(values, pct):
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(pct / 100 * len(ranked)) - 1)]


def wait_until_serving(timeout=120):
    """Block until a thread runs each of the engines' serve loops, which
    is when the first op can be sent: handshakes and base OT are done."""
    serve_codes = {inspect.unwrap(engine.serve).__code__
                   for engine in (CspEngine, DoEngine)}
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        running = set()
        for frame in sys._current_frames().values():
            while frame is not None:
                if frame.f_code in serve_codes:
                    running.add(frame.f_code)
                frame = frame.f_back
        if running == serve_codes:
            return
        time.sleep(0.002)
    raise TimeoutError("serve loops did not start")


def drain(cluster):
    """Frames, bytes and comparison rounds sent since the last drain,
    read from the cluster's recorded transcripts."""
    frames = nbytes = rounds = 0
    for ch in cluster.channels:
        blobs = ch.transcript[:]
        del ch.transcript[:len(blobs)]
        frames += len(blobs)
        nbytes += sum(len(b) for b in blobs)
        rounds += sum(b[4] in (RANDOMIZED_NODE, UID_COMPARE) for b in blobs)
    return frames, nbytes, rounds


def thread_cpu_ns(threads):
    return {role: time.clock_gettime_ns(time.pthread_getcpuclockid(ident))
            for role, ident in threads.items()}


def run(workload, seed, seconds, tracer=None):
    """One run: set up, measure for `seconds`, check, tear down."""
    if tracer is not None:
        tracer.install()
    rng = make_rng(seed)
    dataset = workload.dataset(rng)
    queries = workload.queries(rng, dataset)

    setups = []
    reps = 1 if tracer else workload.setup_reps
    for rep in range(reps):
        t0 = time.perf_counter()
        cluster, ctx = workload.setup(dataset, seed)
        wait_until_serving()
        setups.append(time.perf_counter() - t0)
        if rep < reps - 1:
            cluster.close()
    oracle = workload.oracle(dataset)
    drain(cluster)  # set-up traffic: handshakes and base OT

    if tracer is not None:
        tracer.register("da")
        threads = tracer.role_threads()
        traced_ops, cpu = {}, dict.fromkeys(threads, 0)
        traced_lat, plain_lat = [], []
    latencies, failures = [], []
    frames = nbytes = rounds = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or len(latencies) < 2:
        i = len(latencies)
        query = next(queries)
        if tracer is not None:
            tracer.op, tracer.enabled = i, i % 2 == 0
            cpu0 = thread_cpu_ns(threads)
        error = None
        t0 = time.perf_counter_ns()
        try:
            result = workload.op(cluster, query)
        except Exception as e:  # a failed op, counted and reported
            error = e
        t1 = time.perf_counter_ns()
        latencies.append((t1 - t0) / 1e6)
        if tracer is not None:
            if tracer.enabled:
                traced_ops[i] = (t0, t1)
                traced_lat.append(latencies[-1])
                for role, ns in thread_cpu_ns(threads).items():
                    cpu[role] += ns - cpu0[role]
            else:
                plain_lat.append(latencies[-1])
        if error is None and not workload.check(oracle, query, result):
            error = f"wrong answer for {query!r}: {result!r}"
        if error is not None:
            failures.append(f"op {i}: {error!r}")
        f, b, r = drain(cluster)
        frames, nbytes, rounds = frames + f, nbytes + b, rounds + r
        if cluster.errors or any(ch.poisoned for ch in cluster.channels):
            break  # a serve thread died: no later op can succeed
    wall = time.perf_counter() - begin
    if tracer is not None:
        tracer.enabled = False
    errors = [repr(e) for e in cluster.errors]
    tree_height = ctx["tree"].height
    cluster.close()
    if tracer is not None:
        tracer.uninstall()

    n = len(latencies)
    result = {
        "attempted": n,
        "failed": len(failures),
        "correct": not failures and not errors,
        "failures": failures + [f"serve thread: {e}" for e in errors],
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "op_ms.p50": statistics.median(latencies),
            "op_ms.tail": percentile(latencies, workload.tail_pct),
            "ops_per_s": n / wall,
            "failed_frac": len(failures) / n,
            "wire_kb_per_op": nbytes / tracing.KB / n,
            "frames_per_op": frames / n,
            "rounds_per_session": rounds / (n * workload.sessions_per_op),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        overhead = statistics.median(traced_lat) / statistics.median(plain_lat)
        result["metrics"] = tracing.per_layer(tracer, traced_ops, cpu,
                                              tree_height, overhead)
    return result


def report(workload, args, result, units):
    print(f"# oope benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print("# profile: " + json.dumps(workload.profile(), sort_keys=True))
    print(f"# why: {workload.why}")
    print("# meant to move: " + ", ".join(workload.moves))
    if not args.trace:
        print(f"# op_ms.tail is p{workload.tail_pct:g} over "
              f"{result['attempted']} ops")
    for name, value in result["metrics"].items():
        print(f"{name:48s} {value:14.4f} {units[name]}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for line in result["failures"][:10]:
        print(f"# failure: {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    result = run(workload, args.seed, args.seconds, tracer)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{workload.name}-seed{args.seed}.spans.jsonl"
        count = tracer.dump(path)
        print(f"# spans: {count} written to {path.relative_to(ROOT)}")
        units = tracing.metric_units()
    else:
        units = E2E_UNITS
    report(workload, args, result, units)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result["metrics"].items()
               if args.trace or name in JSON_E2E}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
