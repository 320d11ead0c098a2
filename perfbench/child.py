"""One workload in one fresh process; started by run.py, one at a time.

    python3 perfbench/child.py --workload W --seed N --seconds S \\
        --mode setup|run|trace --workdir DIR --cpus 0,1

Every message is one JSON line on stdout:

- ``{"ev": "setup", "t": T, "probe": MS}``: time.monotonic() once
  import, input generation and the warm-up op are done, just before the
  first timed op (the warm-up op's check runs after this stamp), and the
  time of a speed probe (cpus.py) run right after the stamp. ``setup``
  mode stops there.
- ``{"ev": "op", "i": I, "p": P, "kind": K, "ms": MS, "probe": MS, "ok": B,
  ...}`` per execution of op I in pass P, with the probe run just before
  it; a failing op also carries its error and inputs, a worked example its
  name.
- ``{"ev": "done", "probe": MS, ...}`` at the end of a ``run``, with the
  peak RSS and a probe run after the last op.
- ``{"ev": "trace", "metrics": {...}}`` at the end of a ``trace``.

``run`` cycles through the pool in whole passes until ``--seconds`` have
passed. ``trace`` runs the pool once, each op first untraced and then
under the tracer, so its counts depend only on the seed. Both modes start
every op from an empty balanced_load cache, so both time a cold call and
no op reuses what an earlier one cached.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy
import qpk

import cpus
import workloads
from tracer import Tracer

PROBE_REPEATS = 5
REPIN_S = 0.25  # the vCPUs switch speed over seconds (cpus.py)


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def execute(call):
    """(result, ms, error) for one call; errors are caught, not raised."""
    start = time.perf_counter()
    try:
        result = call()
        error = None
    except Exception as exc:  # a failing op is reported, and the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, (time.perf_counter() - start) * 1e3, error


def verdict(op, result, error):
    """Error message for a result that fails its check, else None."""
    if error is not None:
        return error
    try:
        op.check(result)
    except Exception as exc:  # a check that raises counts as a failed op
        return f"{type(exc).__name__}: {exc}"
    return None


def op_event(i, op, ms, error, reported, pass_no=0):
    event = {"ev": "op", "i": i, "p": pass_no, "kind": op.kind, "ms": ms,
             "ok": error is None}
    if isinstance(op.inputs.get("config"), str):
        event["example"] = op.inputs["config"]
    if error is not None and i not in reported:
        reported.add(i)
        event.update(error=error, inputs=op.inputs)
    return event


def timed_run(pool, seconds, allowed):
    """Closed loop, one client: whole passes over the pool until the time
    is up, moving to the CPU that is fastest at that moment whenever
    REPIN_S have passed. Each op starts from an empty balanced_load cache,
    is checked on its first execution and must repeat that output exactly
    afterwards. A speed probe runs before every op (on each CPU when
    choosing one), so each op has a probe just before and just after it."""
    lru = qpk.wardrop.balanced_load
    first, errors, reported = {}, {}, set()
    deadline = time.perf_counter() + seconds
    passes = 0
    pinned = -REPIN_S
    while passes == 0 or time.perf_counter() < deadline:
        for i, op in enumerate(pool):
            if time.perf_counter() - pinned >= REPIN_S:
                probe = cpus.pin_fastest(allowed)
                pinned = time.perf_counter()
            else:
                probe = cpus.probe_ms()
            lru.cache_clear()
            result, ms, error = execute(op.run)
            if i not in first:
                first[i] = result
                errors[i] = verdict(op, result, error)
                error = errors[i]
            elif error is None:
                error = errors[i] or (None if result == first[i] else
                                      "output differs from the op's first execution")
            event = op_event(i, op, ms, error, reported, passes)
            event["probe"] = probe
            emit(event)
        passes += 1
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    emit({"ev": "done", "probe": cpus.probe_ms(), "passes": passes,
          "rss_kb": max(usage), "numpy": numpy.__version__})


def wall_ms(argv) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, timeout=workloads.CLI_TIMEOUT_S)
    return (time.perf_counter() - start) * 1e3


def cli_probe(cli_pool, main_ms=None) -> dict:
    """Start-up split of a qpk process: a bare interpreter, ``import qpk``
    on top of it, and the median in-process ``qpk.cli.main(argv)``."""
    interp, imported = [], []
    for _ in range(PROBE_REPEATS):
        interp.append(wall_ms([sys.executable, "-c", "pass"]))
        imported.append(wall_ms([sys.executable, "-c", "import qpk"]))
    if main_ms is None:
        main_ms = [execute(op.in_process)[1] for op in cli_pool]
    interp_ms = statistics.median(interp)
    return {"cli.interp_ms": (interp_ms, "ms"),
            "cli.import_ms": (statistics.median(imported) - interp_ms, "ms"),
            "cli.main_ms": (statistics.median(main_ms), "ms")}


def traced_run(workload, pool, seed, workdir, allowed):
    lru = qpk.wardrop.balanced_load
    tracer = Tracer()
    reported = set()
    untraced_s = traced_s = 0.0
    hits = misses = 0
    untraced_ms = []
    for i, op in enumerate(pool):
        call = op.in_process or op.run
        cpus.pin_fastest(allowed)
        lru.cache_clear()
        result, ms, error = execute(call)
        untraced_s += ms / 1e3
        untraced_ms.append(ms)
        error = verdict(op, result, error)
        lru.cache_clear()
        with tracer:
            traced, traced_ms, traced_error = execute(call)
        traced_s += traced_ms / 1e3
        info = lru.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
        if error is None and (traced_error is not None or traced != result):
            error = f"traced output differs from untraced ({traced_error})"
        emit(op_event(i, op, ms, error, reported))
    metrics = tracer.metrics(hits, misses)
    metrics["trace_overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    if workload == "cli":
        metrics.update(cli_probe(pool, untraced_ms))
    else:
        metrics.update(cli_probe(workloads.build("cli", seed, workdir)[0]))
    emit({"ev": "trace", "numpy": numpy.__version__,
          "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--cpus", required=True, help="comma-separated CPUs to choose from")
    args = parser.parse_args()
    allowed = [int(c) for c in args.cpus.split(",")]
    os.makedirs(args.workdir, exist_ok=True)

    pool, warmup = workloads.build(args.workload, args.seed, args.workdir)
    result, _, error = execute(warmup.run)
    stamp = time.monotonic()
    emit({"ev": "setup", "t": stamp, "probe": cpus.probe_ms()})
    error = verdict(warmup, result, error)
    if error is not None:
        print(f"warm-up op failed: {error}; inputs {warmup.inputs}", file=sys.stderr)
        return 1
    if args.mode == "run":
        timed_run(pool, args.seconds, allowed)
    elif args.mode == "trace":
        traced_run(args.workload, pool, args.seed, args.workdir, allowed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
