"""Table-1 benchmark: one run of one workload, from a source checkout.

    python3 perfbench/run.py --workload wf-sf0.1 --seed 42 \
        --seconds 10 --trace 0

Generates the YAGO2s-lite store from ``--seed``, builds the catalog, runs
the workload's closed loop for at least ``--seconds`` of evaluation time
and checks every result count against DuckDB. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``). The run record, samples and spans are also written under
``.perfbench_work/results/``. Exits 1 when a result is wrong or an
evaluation fails, 2 when the checkout has no ``src/repro``.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # process start, the origin of setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2

    from perfbench import session

    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    spark = session.start(workdir)
    try:
        from perfbench.harness import run_workload

        out, _ = run_workload(
            spark, WORKLOADS[args.workload], root=ROOT, workdir=workdir,
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace), t0=T0,
            log=lambda m: print(m, flush=True),
        )
    finally:
        session.stop(spark)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
