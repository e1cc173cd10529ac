"""Table-1 benchmark: WIREFRAME and direct-join throughput, with per-layer tracing.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/run.py`` for the protocol and ``perfbench/workloads.py`` for the
workloads.
"""
