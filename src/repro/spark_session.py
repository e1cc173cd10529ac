"""The one SparkSession factory, for the test session and every job.

Three environment variables configure it, each read only here:
``SPARK_MASTER`` (default ``local[*]``), ``SPARK_DRIVER_MEM`` (default:
see :func:`driver_mem`) and ``SPARK_SHUFFLE_PARTITIONS`` (default 64).

Broadcast joins are never chosen automatically, neither by the static
planner nor by AQE at runtime, so the baselines' large data-data joins
exercise the shuffle path at SF≈0.1. WIREFRAME broadcasts its node sets
explicitly (:func:`repro.core.answer_graph._semi`); that is the operator
design, not a session setting.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

_CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",  # v2
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",  # v1
)


def driver_mem() -> tuple[str, str]:
    """(driver heap size, where it came from): ~75 % of the container's
    memory limit; the 1g local-mode default OOMs on the larger baseline
    intermediates.

    Precedence: ``SPARK_DRIVER_MEM`` (source ``env``) > cgroup v2/v1 limit
    (source ``cgroup:<file>=<bytes>``) > 48g (source ``fallback``). The
    cgroup read is best-effort, since an emulated sysfs may not pass the
    host limit through. An unbounded value (v1's ~9.2e18 "unlimited"
    sentinel, or a missing limit) counts as absent, so the JVM is never
    handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m, "env"
    for p in _CGROUP_LIMITS:
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if 1 <= gib <= 1024:  # v1 "unlimited" → ~8.6e9 GiB
                return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
        except (OSError, ValueError):
            continue
    return "48g", "fallback"


def get_spark(app: str) -> SparkSession:
    """The session every test and job runs on (or the one already running).

    Master, driver memory and driver host take effect only when this call
    launches the JVM: the builder hands its settings to ``spark-submit``.
    """
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.memory", driver_mem()[0])
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.adaptive.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
