"""Work metric: intermediate tuples materialized per evaluation strategy.

Wall-clock on a single shared in-memory executor hides most of the gap
the paper measures across four heterogeneous disk/row/graph engines, so
EXPERIMENTS.md additionally reports the *work* each strategy performs —
the paper's own unit, scheduler-independent:

* a direct-join baseline materializes every intermediate join result:
  its work = the sum (and max) of all intermediate result cardinalities
  along its join order/tree (computed exactly with DuckDB);
* WIREFRAME materializes the answer-graph edge relations and then only
  the final embeddings: its work = the edges retrieved by plan-order
  edge extension (the paper's edge walks) plus the reduced AG edges.

Both exclude the final result (identical for every strategy).
"""
from __future__ import annotations

from dataclasses import dataclass

import duckdb
import pandas as pd

from repro.baselines.direct_join import JoinTree, md_tree, nj_order, pg_order, vt_order
from repro.core.catalog import Catalog
from repro.core.query import QueryGraph


@dataclass(frozen=True)
class Work:
    """Intermediate-materialization profile of one strategy on one query."""

    total: int  # sum of intermediate cardinalities (excl. final result)
    peak: int  # largest single intermediate


def _count_subquery(
    con: duckdb.DuckDBPyConnection, query: QueryGraph, edge_idxs: list[int]
) -> int:
    sub = QueryGraph(tuple(query.edges[i] for i in edge_idxs), name="sub")
    return con.execute(f"SELECT COUNT(*) FROM ({sub.to_sql()})").fetchone()[0]


def leftdeep_work(
    triples_pdf: pd.DataFrame, query: QueryGraph, order: list[int]
) -> Work:
    """Intermediate sizes of a left-deep join: prefixes 1..k-1 of the order."""
    con = duckdb.connect()
    try:
        con.register("triples", triples_pdf)
        sizes = [
            _count_subquery(con, query, list(order[:k]))
            for k in range(1, len(order))
        ]
    finally:
        con.close()
    return Work(total=sum(sizes), peak=max(sizes))


def bushy_work(triples_pdf: pd.DataFrame, query: QueryGraph, tree: JoinTree) -> Work:
    """Intermediate sizes of a bushy join tree: every internal node but the root."""
    con = duckdb.connect()
    sizes: list[int] = []

    def leaves(t: JoinTree) -> list[int]:
        return [t] if isinstance(t, int) else leaves(t[0]) + leaves(t[1])

    def walk(t: JoinTree, is_root: bool) -> None:
        if isinstance(t, int):
            sizes.append(_count_subquery(con, query, [t]))
            return
        walk(t[0], False)
        walk(t[1], False)
        if not is_root:
            sizes.append(_count_subquery(con, query, leaves(t)))

    try:
        con.register("triples", triples_pdf)
        walk(tree, True)
    finally:
        con.close()
    return Work(total=sum(sizes), peak=max(sizes))


def baseline_work(
    triples_pdf: pd.DataFrame, query: QueryGraph, catalog: Catalog, system: str
) -> Work:
    """Work profile of one baseline simulator (PG/VT/MD/NJ)."""
    if system == "PG":
        return leftdeep_work(triples_pdf, query, pg_order(query, catalog))
    if system == "VT":
        return leftdeep_work(triples_pdf, query, vt_order(query, catalog))
    if system == "NJ":
        return leftdeep_work(triples_pdf, query, nj_order(query, catalog))
    if system == "MD":
        return bushy_work(triples_pdf, query, md_tree(query, catalog))
    raise ValueError(f"unknown baseline {system!r}")


def wireframe_work(ag_edge_counts: dict[int, int], extension_walks: dict[int, int]) -> Work:
    """WF's phase-1 work from an instrumented run: edges retrieved during
    extension (the paper's edge walks) plus the reduced relations that
    node burnback leaves (each bounded by its extension size)."""
    total = sum(extension_walks.values()) + sum(ag_edge_counts.values())
    peak = max(extension_walks.values()) if extension_walks else 0
    return Work(total=total, peak=peak)
