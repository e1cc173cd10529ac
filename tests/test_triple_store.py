"""Parquet triple store: roundtrip, predicate scans, idempotent materialize."""
from __future__ import annotations

import os

import pytest

from repro.core.query import QueryEdge
from repro.rdf import triple_store
from tests.conftest import micro_triples

ROWS = [(1, "A", 10), (2, "A", 11), (10, "B", 20), (1, "C", 30)]


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "triples.parquet")


def test_write_read_roundtrip(spark, store_path):
    df = micro_triples(spark, ROWS)
    triple_store.write(df, store_path)
    back = triple_store.read(spark, store_path)
    assert sorted(tuple(r) for r in back.select("s", "p", "o").collect()) == sorted(ROWS)


def test_partitioned_by_predicate(spark, store_path):
    triple_store.write(micro_triples(spark, ROWS), store_path)
    parts = {d for d in os.listdir(store_path) if d.startswith("p=")}
    assert parts == {"p=A", "p=B", "p=C"}


def test_scan_filters_one_predicate(spark, store_path):
    triple_store.write(micro_triples(spark, ROWS), store_path)
    back = triple_store.read(spark, store_path)
    scan = triple_store.scan(back, QueryEdge("x", "A", "y"))
    assert scan.columns == ["x", "y"]
    assert sorted(tuple(r) for r in scan.collect()) == [(1, 10), (2, 11)]
    assert triple_store.scan(back, QueryEdge("x", "missing", "y")).count() == 0


def test_scan_plan_prunes_partitions(spark, store_path):
    triple_store.write(micro_triples(spark, ROWS), store_path)
    back = triple_store.read(spark, store_path)
    scan = triple_store.scan(back, QueryEdge("x", "A", "y"))
    plan = scan._jdf.queryExecution().executedPlan().toString()
    assert "PartitionFilters" in plan or "p=A" in plan


def test_materialize_idempotent(spark, store_path):
    df = micro_triples(spark, ROWS)
    a = triple_store.materialize(spark, df, store_path)
    mtime = os.path.getmtime(os.path.join(store_path, "_SUCCESS"))
    b = triple_store.materialize(spark, df, store_path)
    assert os.path.getmtime(os.path.join(store_path, "_SUCCESS")) == mtime
    assert a.count() == b.count() == len(ROWS)


def test_schema_types(spark, store_path):
    triple_store.write(micro_triples(spark, ROWS), store_path)
    back = triple_store.read(spark, store_path)
    assert dict(back.dtypes) == {"s": "bigint", "p": "string", "o": "bigint"}
