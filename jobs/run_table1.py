"""Reproduce the paper's Table 1 end to end and print paper-vs-measured rows.

Generates (or reuses) the YAGO2s-lite triple store at ``--sf``/``--seed``,
builds the catalog, runs the 10-query workload on WIREFRAME and the four
baseline simulators with the paper's protocol (warm-up + averaged rounds,
timeout as ``*``), and prints the markdown table recorded in EXPERIMENTS.md.

    spark-submit jobs/run_table1.py --sf 0.1 --timeout 120 --rounds 2 \
        --workdir data/table1
"""
from __future__ import annotations

import argparse

from repro.experiments import table1
from repro.rdf.yago_lite import yago_lite_pdf
from repro.spark_session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--timeout", type=float, default=120.0)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--workdir", default="data/table1")
    ap.add_argument("--out", default=None, help="also write the markdown here")
    args = ap.parse_args()

    spark = get_spark("table1")
    triples, catalog = table1.prepare(
        spark, sf=args.sf, seed=args.seed, workdir=args.workdir
    )
    print(f"[table1] sf={args.sf} triples={triples.count()} "
          f"timeout={args.timeout}s rounds={args.rounds}", flush=True)
    rows = table1.run_table1(
        spark,
        triples,
        catalog,
        timeout_s=args.timeout,
        rounds=args.rounds,
        triples_pdf=yago_lite_pdf(sf=args.sf, seed=args.seed),
    )
    md = (
        table1.format_markdown(rows, timeout_s=args.timeout)
        + "\n\n"
        + table1.format_work_markdown(rows)
    )
    print(md)
    if args.out:
        with open(args.out, "w") as f:
            f.write(md + "\n")
    spark.stop()


if __name__ == "__main__":
    main()
