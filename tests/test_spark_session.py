"""The one session factory: the settings every test and job runs under."""
from __future__ import annotations

from repro.spark_session import driver_mem


def test_session_config(spark):
    conf = spark.sparkContext.getConf()
    partitions = conf.get("spark.sql.shuffle.partitions")
    assert partitions is not None and int(partitions) > 0
    assert spark.conf.get("spark.sql.shuffle.partitions") == partitions
    assert spark.conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
    for key in (
        "spark.sql.autoBroadcastJoinThreshold",
        "spark.sql.adaptive.autoBroadcastJoinThreshold",
    ):
        assert conf.get(key) == "-1", key
        assert spark.conf.get(key) == "-1", key
    assert conf.get("spark.ui.enabled") == "false"
    assert spark.sparkContext.uiWebUrl is None
    assert conf.get("spark.driver.host") == "127.0.0.1"


def test_driver_heap_follows_configured_memory(spark):
    mem, _ = driver_mem()
    assert spark.sparkContext.getConf().get("spark.driver.memory") == mem
    jvm = spark.sparkContext._jvm
    size = jvm.org.apache.spark.network.util.JavaUtils.byteStringAsBytes(mem)
    assert 0.85 * size <= jvm.java.lang.Runtime.getRuntime().maxMemory() <= size
