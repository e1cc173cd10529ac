"""Query miner: instantiate query templates into valid, non-empty CQs.

The paper mines queries from shape templates with edge-label
placeholders (218,014 snowflakes and 18,743 diamonds over YAGO2s) and
keeps valid, non-empty ones. Here a template is the variable wiring of
the shape; mining backtracks over label assignments, pruning with the
catalog's 2-gram statistics (two adjacent labels must share at least one
join value), and validates each candidate with phase 1 alone: a CQ has an
embedding exactly when its ideal answer graph is non-empty. A tree CQ's
AG is ideal; a diamond's becomes ideal under edge burnback.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from pyspark.sql import DataFrame

from repro.core.answer_graph import build_answer_graph, edge_burnback
from repro.core.catalog import Catalog
from repro.core.query import QueryEdge, QueryGraph
from repro.core.triangulate import triangulate_query

# Variable wirings of the two Table-1 shapes (labels are the slots).
SNOWFLAKE_TEMPLATE: tuple[tuple[str, str], ...] = (
    ("x", "k"),
    ("w", "x"),
    ("x", "m1"),
    ("y", "m1"),
    ("y", "c"),
    ("y", "m2"),
    ("z", "m2"),
    ("m2", "dur"),
    ("m2", "d"),
)
DIAMOND_TEMPLATE: tuple[tuple[str, str], ...] = (
    ("a", "b"),
    ("a", "c"),
    ("b", "d"),
    ("c", "d"),
)


def _compatible(
    catalog: Catalog,
    template: Sequence[tuple[str, str]],
    labels: list[str],
    i: int,
) -> bool:
    """2-gram screen: slot i's label must share join values with every
    already-assigned slot it touches."""
    si, oi = template[i]
    for j in range(i):
        sj, oj = template[j]
        for v in {si, oi} & {sj, oj}:
            pi = "s" if v == si else "o"
            pj = "s" if v == sj else "o"
            if catalog.match_count(labels[i], pi, labels[j], pj) == 0:
                return False
    return True


def candidate_queries(
    catalog: Catalog,
    template: Sequence[tuple[str, str]],
    *,
    limit: int = 1000,
    name_prefix: str = "mined",
) -> Iterator[QueryGraph]:
    """All catalog-compatible label assignments (up to ``limit``)."""
    preds = catalog.predicates
    labels: list[str] = [""] * len(template)
    emitted = 0

    def rec(i: int) -> Iterator[QueryGraph]:
        nonlocal emitted
        if emitted >= limit:
            return
        if i == len(template):
            emitted += 1
            yield QueryGraph(
                tuple(QueryEdge(s, l, o) for (s, o), l in zip(template, labels)),
                name=f"{name_prefix}-{emitted}",
            )
            return
        for p in preds:
            labels[i] = p
            if _compatible(catalog, template, labels, i):
                yield from rec(i + 1)
            if emitted >= limit:
                return

    yield from rec(0)


def mine(
    triples: DataFrame,
    catalog: Catalog,
    template: Sequence[tuple[str, str]],
    *,
    limit: int = 5,
    candidate_limit: int = 2000,
    name_prefix: str = "mined",
) -> list[QueryGraph]:
    """Mine up to ``limit`` *non-empty* queries: those whose ideal answer
    graph, built in the template's (connected) textual order, has no
    empty edge relation."""
    out: list[QueryGraph] = []
    for q in candidate_queries(
        catalog, template, limit=candidate_limit, name_prefix=name_prefix
    ):
        ag = build_answer_graph(triples, q)
        try:
            if not q.is_tree():
                edge_burnback(ag, triangulate_query(q, catalog))
            if all(ag.edge_counts().values()):
                out.append(q)
        finally:
            ag.unpersist()
        if len(out) >= limit:
            break
    return out
