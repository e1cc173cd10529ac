import sys

import pytest
from pyspark.sql import SparkSession

from repro.spark_session import driver_mem, get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One SparkSession for the whole test session, configured like every
    job's (:mod:`repro.spark_session`)."""
    s = get_spark("repro")
    mem, src = driver_mem()
    # One line in the test output that tells whether the cgroup derivation
    # saw the real limit.
    print(
        f"[conftest] SPARK_DRIVER_MEM={mem} (src={src}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
