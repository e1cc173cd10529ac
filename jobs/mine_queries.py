"""Mine valid, non-empty template queries over a triple store (paper §5).

    spark-submit jobs/mine_queries.py --data data/yago_sf01 \
        --catalog data/catalog.json --shape diamond --limit 5
"""
from __future__ import annotations

import argparse

from repro.core.catalog import Catalog
from repro.rdf import triple_store
from repro.rdf.query_miner import DIAMOND_TEMPLATE, SNOWFLAKE_TEMPLATE, mine
from repro.spark_session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True)
    ap.add_argument("--catalog", required=True)
    ap.add_argument("--shape", choices=("snowflake", "diamond"), default="diamond")
    ap.add_argument("--limit", type=int, default=5)
    args = ap.parse_args()

    spark = get_spark("mine_queries")
    triples = triple_store.read(spark, args.data)
    catalog = Catalog.from_json(args.catalog)
    template = DIAMOND_TEMPLATE if args.shape == "diamond" else SNOWFLAKE_TEMPLATE
    for q in mine(triples, catalog, template, limit=args.limit, name_prefix=args.shape):
        print(q)
    spark.stop()


if __name__ == "__main__":
    main()
