"""Benchmark for qpk: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload pricing-closed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, one table

Run from the repository root; the package is imported from ./src. Each
workload runs in fresh child processes (perfbench/child.py), one at a
time. With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a separate traced run. The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/NOTES.md for what
each metric means and why the workloads are what they are.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import cpus

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pricing-closed", "pricing-gamma", "estimate", "cli")
SETUP_SAMPLES = 10  # fresh processes timed for setup_s, half before the run child
RUN_LIMIT_S = 170.0    # the whole run, children included
CHILD_GRACE_S = 90.0   # time a run child may take beyond --seconds
HELD_OUT_SEED = 20260417  # kept for checking later claims, never for tuning
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(args, limit, allowed):
    """Run one child, started on the fastest of the allowed CPUs, with a
    wall-clock limit; (start, probe before the start, stdout, stderr, exit
    status, timed out). On timeout the child's whole process group is
    killed and reaped."""
    probe = cpus.pin_fastest(allowed)
    try:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=child_env(), start_new_session=True)
    finally:
        os.sched_setaffinity(0, allowed)
    try:
        out, err = proc.communicate(timeout=max(1.0, limit))
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        timed_out = True
    return start, probe, out, err, proc.returncode, timed_out


def events(out: str) -> list:
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def tail(samples):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    k = max(1, len(xs) - TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / len(xs)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


def source_digest() -> str:
    """sha256 over src/qpk/*.py: names the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "qpk", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    return digest.hexdigest()


class Run:
    """One workload run: set-up samples, then one run or trace child."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.cpus = sorted(os.sched_getaffinity(0))
        self.workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
        self.notes = []     # human-readable lines printed before the result
        self.failures = []  # any entry makes the run incorrect
        self.numpy = None

    def child(self, mode, limit):
        args = ["--workload", self.workload, "--seed", str(self.seed),
                "--seconds", str(self.seconds), "--mode", mode, "--workdir", self.workdir,
                "--cpus", ",".join(map(str, self.cpus))]
        limit = min(limit, self.deadline - time.monotonic())
        start, probe, out, err, code, timed_out = spawn(args, limit, self.cpus)
        evs = events(out)
        # (raw s, scaled s): scaled by the probes just before the start and
        # just after the stamp
        setup = [(e["t"] - start, cpus.scaled(e["t"] - start, (probe, e["probe"])))
                 for e in evs if e["ev"] == "setup"]
        if code != 0 and not timed_out:
            self.failures.append(f"{mode} child exited with status {code}: {err.strip()}")
        if timed_out:
            self.failures.append(f"{mode} child killed at its {limit:.0f} s limit; "
                                 "the op in flight counts as failed")
        return evs, setup, timed_out

    def execute(self):
        os.makedirs(self.workdir, exist_ok=True)
        try:
            if self.trace:
                return self._trace()
            return self._run()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.workdir))
            except OSError:
                pass  # another run is still using it

    def _ops(self, evs, timed_out):
        ops = [e for e in evs if e["ev"] == "op"]
        for e in ops:
            if "error" in e:
                self.failures.append(f"op {e['i']} ({e['kind']}) failed: {e['error']}; "
                                     f"inputs {json.dumps(e['inputs'])}")
        attempted = len(ops) + int(timed_out)
        failed = sum(not e["ok"] for e in ops) + int(timed_out)
        return ops, attempted, failed

    def _run(self):
        # set-up samples before and after the run child, so that they span
        # the run's seconds and not one stretch of the machine's speed
        before = SETUP_SAMPLES // 2
        setups = []
        for _ in range(before):
            setups += self.child("setup", 60.0)[1]
        evs, setup, timed_out = self.child("run", self.seconds + CHILD_GRACE_S)
        setups += setup
        for _ in range(SETUP_SAMPLES - 1 - before):
            setups += self.child("setup", 60.0)[1]
        ops, attempted, failed = self._ops(evs, timed_out)
        done = [e for e in evs if e["ev"] == "done"]
        if not ops or not setups or not done:
            self.failures.append("the run child reported no complete run")
            return False, max(attempted, 1), max(failed, 1), {}

        # the machine's speed drifts by up to 2x (NOTES.md), the code's does
        # not: every time is scaled by the four probes nearest it (two before,
        # two after), an op's latency is its best over the passes, and the
        # tail is taken over every execution of the complete passes
        probes = [e["probe"] for e in ops] + [done[0]["probe"]]
        for k, e in enumerate(ops):
            e["scaled"] = cpus.scaled(e["ms"], probes[max(0, k - 1):k + 3])
        best, raw_best, passes = {}, {}, {}
        for e in ops:
            best[e["i"]] = min(best.get(e["i"], float("inf")), e["scaled"])
            raw_best[e["i"]] = min(raw_best.get(e["i"], float("inf")), e["ms"])
            passes.setdefault(e["p"], []).append(e["scaled"])
        best_ms, raw_ms = list(best.values()), list(raw_best.values())
        complete = [p for p in passes.values() if len(p) == len(best)] or list(passes.values())
        tail_ms, tail_pct = tail([ms for p in complete for ms in p])
        timed_s = sum(e["ms"] for e in ops) / 1e3
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "ops_per_s": (len(best_ms) / (sum(best_ms) / 1e3), "1/s"),
            "op_ms.p50": (statistics.median(best_ms), "ms"),
            "op_ms.tail": (tail_ms, "ms"),
            "peak_rss_mb": (done[0]["rss_kb"] / 1024.0, "MB"),
        }
        self.notes += [
            f"times are scaled to a probe time of {cpus.PROBE_REF_MS} ms; the probe "
            f"took {min(probes):.4f} to {max(probes):.4f} ms, median "
            f"{statistics.median(probes):.4f}",
            f"setup_s: median of {len(setups)} fresh processes, {before} before the run "
            "child; scaled: " + " ".join(f"{s:.4f}" for _, s in setups),
            "setup_s raw: " + " ".join(f"{r:.4f}" for r, _ in setups),
            f"ops_per_s, op_ms.p50: {len(best_ms)} distinct ops, each at its best of "
            f"{done[0]['passes']} passes",
            f"op_ms.tail: p{tail_pct:.2f} of {sum(map(len, complete))} executions in "
            f"{len(complete)} complete passes",
            f"raw (unscaled): ops_per_s {len(raw_ms) / (sum(raw_ms) / 1e3):.6g} 1/s, "
            f"op_ms.p50 {statistics.median(raw_ms):.6g} ms, setup_s "
            f"{statistics.median(r for r, _ in setups):.6g} s",
            f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted})",
            f"wall throughput: {len(ops) / timed_s:.6g} 1/s over {timed_s:.3f} s of ops",
        ]
        kinds = {}
        for e in ops:
            name = e["kind"] + (f" {e['example']}" if "example" in e else "")
            kinds.setdefault(name, set()).add(e["i"])
        for name, idx in sorted(kinds.items()):
            self.notes.append(
                f"{name}: median best {statistics.median(best[i] for i in idx):.4g} ms scaled, "
                f"{statistics.median(raw_best[i] for i in idx):.4g} ms raw, over {len(idx)} ops")
        self.numpy = done[0]["numpy"]
        return not self.failures, attempted, failed, metrics

    def _trace(self):
        evs, _, timed_out = self.child("trace", self.seconds + CHILD_GRACE_S)
        ops, attempted, failed = self._ops(evs, timed_out)
        trace = [e for e in evs if e["ev"] == "trace"]
        if not trace:
            self.failures.append("the trace child reported no metrics")
            return False, max(attempted, 1), max(failed, 1), {}
        self.notes.append(f"traced run: {len(ops)} ops, each once untraced and once traced")
        metrics = {k: (v["value"], v["unit"]) for k, v in trace[0]["metrics"].items()}
        self.numpy = trace[0]["numpy"]
        return not self.failures, attempted, failed, metrics


def run_one(workload, seed, seconds, trace):
    load_before = os.getloadavg()
    run = Run(workload, seed, seconds, trace)
    correct, attempted, failed, metrics = run.execute()
    env = {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": run.numpy,
        "cpu_model": cpu_model(), "cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }
    return correct, attempted, failed, metrics, run.notes, run.failures, env


def print_block(workload, metrics, notes, failures, env):
    print(f"== {workload} (seed {env['seed']}, {env['seconds']} s, trace {env['trace']})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for line in notes:
        print(f"  - {line}")
    for line in failures:
        print(f"  FAILED: {line}")
    print("  env " + json.dumps(env))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "qpk", "__init__.py")):
        print("error: src/qpk not found; run from the repository root", file=sys.stderr)
        return 2

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        correct, attempted, failed, metrics, notes, failures, env = run_one(
            workload, args.seed, args.seconds, bool(args.trace))
        print_block(workload, metrics, notes, failures, env)
        prefix = f"{workload}." if args.workload == "all" else ""
        total["correct"] = total["correct"] and correct
        total["attempted"] += attempted
        total["failed"] += failed
        total["metrics"].update({prefix + k: {"value": v, "unit": u}
                                 for k, (v, u) in metrics.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
