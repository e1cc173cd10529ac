"""Work metric: intermediate tuples materialized per evaluation strategy.

Wall-clock on a single shared in-memory executor hides most of the gap
the paper measures across four heterogeneous disk/row/graph engines, so
EXPERIMENTS.md additionally reports the *work* each strategy performs —
the paper's own unit, scheduler-independent:

* a direct-join baseline reads every predicate scan of its join tree in
  full and materializes every intermediate join result: its work = the
  sum (and max) over every node of the tree but the root (computed
  exactly by the DuckDB oracle), with the same tree the executor runs
  (:data:`repro.baselines.direct_join.JOIN_TREES`);
* WIREFRAME materializes the answer-graph edge relations and then only
  the final embeddings: its work = the edges retrieved by plan-order
  edge extension (the paper's edge walks) plus the reduced AG edges.

Both exclude the final result (identical for every strategy).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from repro import oracle
from repro.baselines.direct_join import JOIN_TREES, JoinTree
from repro.core.catalog import Catalog
from repro.core.query import QueryGraph


@dataclass(frozen=True)
class Work:
    """Intermediate-materialization profile of one strategy on one query."""

    total: int  # sum of intermediate cardinalities (excl. final result)
    peak: int  # largest single intermediate


def tree_work(triples_pdf: pd.DataFrame, query: QueryGraph, tree: JoinTree) -> Work:
    """Sizes of every node of a join tree but the root: each leaf is a
    predicate scan read in full, each internal node an intermediate result."""

    def node_edges(t: JoinTree) -> list[list[int]]:  # post-order, root last
        if isinstance(t, int):
            return [[t]]
        a, b = node_edges(t[0]), node_edges(t[1])
        return a + b + [a[-1] + b[-1]]

    subs = [QueryGraph(tuple(query.edges[i] for i in e)) for e in node_edges(tree)[:-1]]
    with oracle.connect(triples_pdf, query) as con:
        sizes = [con.execute(f"SELECT COUNT(*) FROM ({s.to_sql()})").fetchone()[0] for s in subs]
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
