"""Direct (non-factorized) CQ evaluation strategies.

Every baseline turns each query edge into a predicate scan and joins the
scans into the full embedding relation — no semijoin reduction, no
burnback — differing only in the join tree that :data:`JOIN_TREES` builds
for each system:

* ``PG`` (PostgreSQL): cost-based greedy **left-deep** order from
  1-gram statistics under independence assumptions (PG has a real
  cost-based optimizer but keeps no cross-predicate correlation stats —
  WIREFRAME's 2-gram catalog is exactly the extra information the paper's
  planner exploits).
* ``VT`` (Virtuoso): left-deep in **textual** pattern order
  (Virtuoso's default SPARQL evaluation follows the written order far
  more than PG does).
* ``MD`` (MonetDB): **bushy** bulk plan — repeatedly join the two
  smallest connected partial results, column-store style.
* ``NJ`` (Neo4J): graph-exploration order — start at the edge with
  the smallest predicate scan and expand one *connected* edge at a time
  choosing the smallest next scan (1-gram only, like a traversal engine
  without join statistics).

:data:`BASELINES` runs each system's tree on Spark, and
:func:`repro.experiments.workcount.baseline_work` counts the tuples the
same tree materializes.
"""
from __future__ import annotations

import functools
from typing import Callable

from pyspark.sql import DataFrame

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
    scans = [triple_store.scan(triples, e) for e in query.edges]
    return _build(scans, tree).select(*query.variables)


def _left_deep(order: list[int]) -> JoinTree:
    """The left-deep tree ``(((e1, e2), e3), ...)`` of a join order."""
    return functools.reduce(lambda t, i: (t, i), order[1:], order[0])


def pg_order(query: QueryGraph, catalog: Catalog) -> list[int]:
    """Greedy left-deep order from 1-gram stats under independence.

    PostgreSQL keeps per-relation stats but no cross-predicate join
    correlations, so (unlike WIREFRAME) it cannot see that e.g. the
    actors of hub movies rarely survive the created/hasDuration branch.
    """
    return query.greedy_order(Estimator(catalog, query, twogram=False).extension_walks)


def vt_order(query: QueryGraph, catalog: Catalog) -> list[int]:
    """Textual pattern order (Virtuoso's written-order evaluation)."""
    return list(range(len(query.edges)))


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


def nj_order(query: QueryGraph, catalog: Catalog) -> list[int]:
    """Exploration order: smallest scan first, then the smallest connected
    next scan (1-gram only, a traversal engine without join statistics)."""
    return query.greedy_order(lambda prefix, j: catalog.count(query.edges[j].label))


JOIN_TREES: dict[str, Callable[[QueryGraph, Catalog], JoinTree]] = {
    "PG": lambda q, c: _left_deep(pg_order(q, c)),
    "VT": lambda q, c: _left_deep(vt_order(q, c)),
    "MD": md_tree,
    "NJ": lambda q, c: _left_deep(nj_order(q, c)),
}
"""Each baseline system's join tree: the one place a system picks its plan."""

BASELINES: dict[str, Callable[[DataFrame, QueryGraph, Catalog], DataFrame]] = {
    s: lambda triples, q, c, tree=tree: _execute(triples, q, tree(q, c))
    for s, tree in JOIN_TREES.items()
}
"""Direct-join evaluators: each system's join tree run on the triple store."""
