"""Spark session for the benchmark, with every file it writes kept in one place.

The session settings are those of the repository's root ``conftest.py``
(``local[*]``, 64 shuffle partitions, Arrow on, automatic broadcast joins
off, UI off). Temporary files of Python, the JVM and Spark go under the
work directory given to :func:`start`. Importing this module starts
nothing.
"""
from __future__ import annotations

import os
import subprocess
import tempfile

DRIVER_MEMORY = "4g"
SHUFFLE_PARTITIONS = "64"


def start(workdir: str):
    """Launch the JVM and return a SparkSession; pyspark is imported here,
    after the environment it reads at launch has been set."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(workdir, "spark-local")
    # Every JVM started (the spark-submit launcher and Spark itself) keeps its
    # temporary files in the work directory and writes no perf-data file.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    mem = os.environ.get("SPARK_DRIVER_MEM", DRIVER_MEMORY)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[*] --driver-memory {mem} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_pid() -> int | None:
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    return proc.pid if proc is not None else None


def stop(spark) -> None:
    """Stop Spark and wait until the JVM process has exited."""
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    spark.stop()
    if proc is None:
        return
    # The gateway JVM exits when its stdin reaches end of file.
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
