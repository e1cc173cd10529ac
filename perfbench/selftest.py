"""Self-test of the benchmark at a small scale factor (about three minutes).

    python3 perfbench/selftest.py

Checks, in one Spark session at SF=0.01, that

* every workload prints all four end-to-end metrics with their units, and
  reports the three bounded ones in its result object;
* a deliberately wrong expected count makes the run fail;
* the traced run reports every per-layer metric, and its result counts
  agree with the untraced ones.

Exits 0 when every check passes.
"""
from __future__ import annotations

import os
import re
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = 0.01


def main() -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import session
    from perfbench.workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    spark = session.start(workdir)
    problems: list[str] = []
    try:
        from perfbench import harness

        def run(wl, trace=False, expected=None):
            lines: list[str] = []
            out, samples = harness.run_workload(
                spark, wl, root=ROOT, workdir=workdir, seed=42, seconds=0,
                trace=trace, t0=time.perf_counter(), sf=SF, expected=expected,
                log=lines.append,
            )
            return out, samples, "\n".join(lines)

        for wl in WORKLOADS.values():
            out, samples, text = run(wl)
            for name, unit in (("queries_per_s", "1/s"), ("latency_p50_s", "s"),
                               ("setup_s", "s"), ("failed_frac", "ratio")):
                if not re.search(rf"\] {name} = \S+ {re.escape(unit)} \(", text):
                    problems.append(f"{wl.name}: {name} [{unit}] not printed")
            if {k: v["unit"] for k, v in out["metrics"].items()} != dict(harness.END_TO_END):
                problems.append(f"{wl.name}: end-to-end metrics {sorted(out['metrics'])}")
            if not out["correct"] or out["failed"]:
                problems.append(f"{wl.name}: run failed: {out}")

            counts = {s.query: s.count for s in samples}
            wrong = dict(counts)
            wrong[samples[0].query] += 1
            bad, _, _ = run(wl, expected=wrong)
            if bad["correct"] or not bad["failed"]:
                problems.append(f"{wl.name}: a wrong expected count passed: {bad}")

            traced, tsamples, _ = run(wl, trace=True, expected=counts)
            if {k: v["unit"] for k, v in traced["metrics"].items()} != dict(harness.PER_LAYER):
                problems.append(f"{wl.name}: per-layer metrics {sorted(traced['metrics'])}")
            if not traced["correct"]:
                problems.append(f"{wl.name}: traced run failed: {traced}")
            if any(s.count != counts[s.query] for s in tsamples):
                problems.append(f"{wl.name}: traced and untraced counts differ")
    finally:
        session.stop(spark)
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
