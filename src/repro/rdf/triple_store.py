"""Parquet-backed RDF triple store.

Triples (s BIGINT, p STRING, o BIGINT) are written partitioned by
predicate so that the per-query-edge scans of the answer-graph engine
(``p = <label>``) reduce to partition pruning — the Spark analogue of the
predicate-indexed triple tables the paper builds in PostgreSQL/MonetDB.
"""
from __future__ import annotations

import os

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.query import QueryEdge

SCHEMA = "s BIGINT, p STRING, o BIGINT"


def write(triples: DataFrame, path: str) -> None:
    """Write a triple DataFrame as predicate-partitioned Parquet."""
    (
        triples.select("s", "p", "o")
        .repartition("p")
        .write.mode("overwrite")
        .partitionBy("p")
        .parquet(path)
    )


def read(spark: SparkSession, path: str) -> DataFrame:
    """Open a triple store written by :func:`write`."""
    df = spark.read.schema(SCHEMA).parquet(path)
    return df.select("s", "p", F.col("o").cast("bigint").alias("o"))


def scan(triples: DataFrame, edge: QueryEdge) -> DataFrame:
    """A query edge's relation: every (s, o) pair of its predicate (a
    pruned partition scan), with the columns named ``(edge.src, edge.dst)``."""
    return triples.where(F.col("p") == F.lit(edge.label)).select(
        F.col("s").alias(edge.src), F.col("o").alias(edge.dst)
    )


def materialize(spark: SparkSession, triples: DataFrame, path: str) -> DataFrame:
    """Write-then-read helper: returns the Parquet-backed view of ``triples``.

    Idempotent on ``path``; :func:`repro.experiments.table1.prepare` uses it
    so that every engine scans identical on-disk data.
    """
    if not os.path.exists(os.path.join(path, "_SUCCESS")):
        write(triples, path)
    return read(spark, path)
