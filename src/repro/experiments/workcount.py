"""Work metric: intermediate tuples materialized per evaluation strategy.

Wall-clock on a single shared in-memory executor hides most of the gap
the paper measures across four heterogeneous disk/row/graph engines, so
EXPERIMENTS.md additionally reports the *work* each strategy performs —
the paper's own unit, scheduler-independent:

* a direct-join baseline reads every predicate scan of its join tree in
  full and materializes every intermediate join result: its work = the
  sum (and max) over every node of the tree but the root (computed
  exactly with DuckDB), with the same tree the executor runs
  (:data:`repro.baselines.direct_join.JOIN_TREES`);
* WIREFRAME materializes the answer-graph edge relations and then only
  the final embeddings: its work = the edges retrieved by plan-order
  edge extension (the paper's edge walks) plus the reduced AG edges.

Both exclude the final result (identical for every strategy).
"""
from __future__ import annotations

from dataclasses import dataclass

import duckdb
import pandas as pd

from repro.baselines.direct_join import JOIN_TREES, JoinTree
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


def tree_work(triples_pdf: pd.DataFrame, query: QueryGraph, tree: JoinTree) -> Work:
    """Sizes of every node of a join tree but the root: each leaf is a
    predicate scan read in full, each internal node an intermediate result."""

    def node_edges(t: JoinTree) -> list[list[int]]:  # post-order, root last
        if isinstance(t, int):
            return [[t]]
        a, b = node_edges(t[0]), node_edges(t[1])
        return a + b + [a[-1] + b[-1]]

    con = duckdb.connect()
    try:
        con.register("triples", triples_pdf)
        sizes = [_count_subquery(con, query, e) for e in node_edges(tree)[:-1]]
    finally:
        con.close()
    return Work(total=sum(sizes), peak=max(sizes, default=0))


def baseline_work(
    triples_pdf: pd.DataFrame, query: QueryGraph, catalog: Catalog, system: str
) -> Work:
    """Work profile of one baseline's join tree (PG/VT/MD/NJ)."""
    if system not in JOIN_TREES:
        raise ValueError(f"unknown baseline {system!r}")
    return tree_work(triples_pdf, query, JOIN_TREES[system](query, catalog))


def wireframe_work(ag_edge_counts: dict[int, int], extension_walks: dict[int, int]) -> Work:
    """WF's phase-1 work from an instrumented run: edges retrieved during
    extension (the paper's edge walks) plus the reduced relations that
    node burnback leaves (each bounded by its extension size)."""
    total = sum(extension_walks.values()) + sum(ag_edge_counts.values())
    peak = max(extension_walks.values()) if extension_walks else 0
    return Work(total=total, peak=peak)
