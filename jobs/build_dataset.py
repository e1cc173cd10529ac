"""Generate the YAGO2s-lite dataset and write it as a Parquet triple store.

    spark-submit jobs/build_dataset.py --sf 0.1 --seed 42 --out data/yago_sf01
"""
from __future__ import annotations

import argparse

from pyspark.sql import DataFrame, SparkSession

from repro.rdf import triple_store
from repro.rdf.yago_lite import yago_lite
from repro.spark_session import get_spark


def run(spark: SparkSession, *, sf: float, seed: int, out: str) -> DataFrame:
    """Generate at ``sf`` and persist to ``out``; returns the stored view."""
    triples = yago_lite(spark, sf=sf, seed=seed)
    triple_store.write(triples, out)
    return triple_store.read(spark, out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    spark = get_spark("build_dataset")
    df = run(spark, sf=args.sf, seed=args.seed, out=args.out)
    print(f"wrote {df.count()} triples to {args.out}")
    spark.stop()


if __name__ == "__main__":
    main()
