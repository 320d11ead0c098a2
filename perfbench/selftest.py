"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

1. The tracer sees every call: ex1-gamma ``optimize_monopoly`` makes
   exactly 4,128 ``models.quantile`` calls, 4,128
   ``_special.gamma_p_inverse`` calls and 34,687 ``_special.gamma_p``
   calls in the seed code (the ROADMAP profile's numbers). A change to the
   kernel that changes these counts updates EXPECTED here.
2. Uninstalling puts every original function back.
3. Two traced runs with seed SEED give identical counts on each workload.

Run from the repository root. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))

EXPECTED = {"models.quantile.calls": 4128,
            "special.gamma_p_inverse.calls": 4128,
            "special.gamma_p.calls": 34687}
WORKLOADS = ("pricing-closed", "pricing-gamma", "estimate", "cli")
SEED = 1  # run.py's default seed


def check_counts() -> list:
    import qpk
    from tracer import SPANS, Tracer
    cfg = qpk.SystemConfig(3.0, qpk.DelayModel.linear(3.3), qpk.DelayModel.linear(4.0),
                           qpk.Gamma(2.0, 2.0))
    before = {(m, a): getattr(getattr(qpk, m), a) for targets in SPANS.values()
              for m, a in targets if "." not in a}
    qpk.wardrop.balanced_load.cache_clear()
    tracer = Tracer()
    with tracer:
        qpk.optimize_monopoly(cfg, 1.0)
    info = qpk.wardrop.balanced_load.cache_info()
    got = {k: v for k, (v, _) in tracer.metrics(info.hits, info.misses).items()}
    problems = [f"{k}: traced {got[k]}, expected {v}" for k, v in EXPECTED.items()
                if got[k] != v]
    problems += [f"{m}.{a} was not restored" for (m, a), f in before.items()
                 if getattr(getattr(qpk, m), a) is not f]
    if qpk.wardrop.quantile is not qpk.models.quantile:
        problems.append("qpk.wardrop.quantile was not restored")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                          workload, "--seed", str(seed), "--trace", "1"],
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"traced {workload} run was not correct:\n{out}")
    # counts and ratios of counts; trace_overhead is a ratio of times
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count" or (v["unit"] == "ratio" and k != "trace_overhead")}


def main() -> int:
    failed = False

    problems = check_counts()
    for p in problems:
        print(f"FAIL ex1-gamma trace: {p}")
    if not problems:
        print("PASS ex1-gamma trace: 4128 quantile, 4128 gamma_p_inverse, "
              "34687 gamma_p calls; originals restored")
    failed |= bool(problems)

    for workload in WORKLOADS:
        first, second = (traced_counts(workload, SEED) for _ in range(2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        if diff:
            print(f"FAIL {workload}: counts differ between two traced runs: {diff}")
            failed = True
        else:
            print(f"PASS {workload}: {len(first)} counts identical across two traced runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
