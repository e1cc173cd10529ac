"""Compute the offline 1-/2-gram statistics catalog for a triple store.

    spark-submit jobs/build_catalog.py --data data/yago_sf01 --out data/catalog.json
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.core.catalog import Catalog, build_catalog
from repro.rdf import triple_store
from repro.spark_session import get_spark


def run(spark: SparkSession, *, data: str, out: str) -> Catalog:
    triples = triple_store.read(spark, data)
    catalog = build_catalog(triples)
    catalog.to_json(out)
    return catalog


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    spark = get_spark("build_catalog")
    catalog = run(spark, data=args.data, out=args.out)
    print(f"catalog over {len(catalog.predicates)} predicates -> {args.out}")
    spark.stop()


if __name__ == "__main__":
    main()
