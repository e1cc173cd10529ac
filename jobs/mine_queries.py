"""Mine valid, non-empty template queries over a triple store (paper §5).

Generates (or reuses) the YAGO2s-lite triple store and catalog at
``--sf``/``--seed`` in ``--workdir``, as ``jobs/run_table1.py`` does.

    spark-submit jobs/mine_queries.py --sf 0.1 --shape diamond --limit 5 \
        --workdir data/table1
"""
from __future__ import annotations

import argparse

from repro.experiments import table1
from repro.rdf.query_miner import DIAMOND_TEMPLATE, SNOWFLAKE_TEMPLATE, mine
from repro.spark_session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workdir", default="data/table1")
    ap.add_argument("--shape", choices=("snowflake", "diamond"), default="diamond")
    ap.add_argument("--limit", type=int, default=5)
    args = ap.parse_args()

    spark = get_spark("mine_queries")
    triples, catalog = table1.prepare(
        spark, sf=args.sf, seed=args.seed, workdir=args.workdir
    )
    template = DIAMOND_TEMPLATE if args.shape == "diamond" else SNOWFLAKE_TEMPLATE
    for q in mine(triples, catalog, template, limit=args.limit, name_prefix=args.shape):
        print(q)
    spark.stop()


if __name__ == "__main__":
    main()
