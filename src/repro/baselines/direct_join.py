"""Direct (non-factorized) CQ evaluation strategies.

Every baseline turns each query edge into a predicate scan and joins the
scans into the full embedding relation — no semijoin reduction, no
burnback — differing only in join order/shape:

* ``pg_sim``  (PostgreSQL): cost-based greedy **left-deep** order from
  1-gram statistics under independence assumptions (PG has a real
  cost-based optimizer but keeps no cross-predicate correlation stats —
  WIREFRAME's 2-gram catalog is exactly the extra information the paper's
  planner exploits).
* ``vt_sim``  (Virtuoso): left-deep in **textual** pattern order
  (Virtuoso's default SPARQL evaluation follows the written order far
  more than PG does).
* ``md_sim``  (MonetDB): **bushy** bulk plan — repeatedly join the two
  smallest connected partial results, column-store style.
* ``nj_sim``  (Neo4J): graph-exploration order — start at the edge with
  the smallest predicate scan and expand one *connected* edge at a time
  choosing the smallest next scan (1-gram only, like a traversal engine
  without join statistics).
"""
from __future__ import annotations

import functools
from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cardinality import Estimator
from repro.core.catalog import Catalog
from repro.core.query import QueryGraph
from repro.rdf import triple_store


# A join tree is an edge index or a pair of subtrees: the baselines differ
# only in the tree they build, and one executor runs them all.
JoinTree = int | tuple["JoinTree", "JoinTree"]


def _build(scans: list[DataFrame], t: JoinTree) -> DataFrame:
    if isinstance(t, int):
        return scans[t]
    dfa, dfb = _build(scans, t[0]), _build(scans, t[1])
    shared = [c for c in dfb.columns if c in dfa.columns]
    return dfa.join(dfb, on=shared, how="inner") if shared else dfa.crossJoin(dfb)


def _execute(triples: DataFrame, query: QueryGraph, tree: JoinTree) -> DataFrame:
    """Join the query edges' predicate scans along ``tree`` (a cross
    product where two sides share no variable)."""
    scans = [
        triple_store.scan(triples, e.label).select(
            F.col("s").alias(e.src), F.col("o").alias(e.dst)
        )
        for e in query.edges
    ]
    return _build(scans, tree).select(*query.variables)


def _left_deep(order: list[int]) -> JoinTree:
    """The left-deep tree ``(((e1, e2), e3), ...)`` of a join order."""
    return functools.reduce(lambda t, i: (t, i), order[1:], order[0])


def pg_order(query: QueryGraph, catalog: Catalog) -> list[int]:
    """Greedy left-deep order from 1-gram stats under independence."""
    return query.greedy_order(Estimator(catalog, query, twogram=False).extension_walks)


def pg_sim(triples: DataFrame, query: QueryGraph, catalog: Catalog) -> DataFrame:
    """Cost-based greedy left-deep direct join (PostgreSQL stand-in).

    Plans with 1-gram statistics under independence assumptions —
    PostgreSQL keeps per-relation stats but no cross-predicate join
    correlations, so (unlike WIREFRAME) it cannot see that e.g. the
    actors of hub movies rarely survive the created/hasDuration branch.
    """
    return _execute(triples, query, _left_deep(pg_order(query, catalog)))


def vt_order(query: QueryGraph, catalog: Catalog) -> list[int]:
    """Textual pattern order (Virtuoso's written-order evaluation)."""
    return list(range(len(query.edges)))


def vt_sim(triples: DataFrame, query: QueryGraph, catalog: Catalog) -> DataFrame:
    """Textual-order left-deep direct join (Virtuoso stand-in)."""
    return _execute(triples, query, _left_deep(vt_order(query, catalog)))


def md_tree(query: QueryGraph, catalog: Catalog) -> JoinTree:
    """Bushy merge tree: repeatedly pair the two smallest *connected*
    partials (by 1-gram scan count, merged estimate = the larger of the
    two — bulk column-at-a-time processing has no per-tuple pipeline)."""
    parts: list[tuple[set[str], JoinTree, float]] = [
        (set(e.vars()), i, float(catalog.count(e.label)))
        for i, e in enumerate(query.edges)
    ]
    while len(parts) > 1:
        best: tuple[int, int] | None = None
        best_size = float("inf")
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                if parts[a][0] & parts[b][0]:
                    size = max(parts[a][2], parts[b][2])
                    if size < best_size:
                        best_size, best = size, (a, b)
        if best is None:  # disconnected query: a cross product
            best = (0, 1)
        a, b = best
        va, ta, _ = parts[a]
        vb, tb, _ = parts[b]
        parts = [p for i, p in enumerate(parts) if i not in (a, b)]
        parts.append((va | vb, (ta, tb), best_size))
    return parts[0][1]


def md_sim(triples: DataFrame, query: QueryGraph, catalog: Catalog) -> DataFrame:
    """Bushy bulk direct join (MonetDB stand-in)."""
    return _execute(triples, query, md_tree(query, catalog))


def nj_order(query: QueryGraph, catalog: Catalog) -> list[int]:
    """Exploration order: smallest scan first, then the smallest connected
    next scan (1-gram only, a traversal engine without join statistics)."""
    return query.greedy_order(lambda prefix, j: catalog.count(query.edges[j].label))


def nj_sim(triples: DataFrame, query: QueryGraph, catalog: Catalog) -> DataFrame:
    """Exploration-order direct join (Neo4J stand-in)."""
    return _execute(triples, query, _left_deep(nj_order(query, catalog)))


BASELINES: dict[str, Callable[[DataFrame, QueryGraph, Catalog], DataFrame]] = {
    "PG": pg_sim,
    "VT": vt_sim,
    "MD": md_sim,
    "NJ": nj_sim,
}
