"""Defactorization: embedding generation from an answer graph (phase 2).

The embedding tuples are produced by joining the AG's reduced edge
relations. From the *ideal* AG of an acyclic CQ no intermediate tuple is
ever lost, so the join order is immaterial for correctness; for cyclic
CQs or non-ideal AGs the order matters for cost, and — like the paper's
prototype — we use a greedy order driven by the statistics available
from phase 1 (the materialized AG edge counts): start from the smallest
edge relation and repeatedly join the connected relation with the
smallest size.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.answer_graph import AnswerGraph


def greedy_order(ag: AnswerGraph, sizes: dict[int, int] | None = None) -> list[int]:
    """Greedy connected join order over AG edges, smallest-relation first."""
    sizes = sizes if sizes is not None else ag.edge_counts()
    return ag.query.greedy_order(lambda prefix, i: sizes[i])


def embeddings(ag: AnswerGraph, order: list[int] | None = None) -> DataFrame:
    """Join the AG edge relations into the embedding DataFrame.

    Output columns are the query's variables in first-appearance order;
    rows are exactly the CQ's embeddings (set semantics).
    """
    order = order if order is not None else greedy_order(ag)
    out: DataFrame | None = None
    for i in order:
        rel = ag.edges[i]
        if out is None:
            out = rel
            continue
        shared = [c for c in rel.columns if c in out.columns]
        # The joined-in relation is an AG edge set — bounded by the AG
        # size, which factorization made tiny — so broadcast it: the
        # growing embedding relation streams map-side and never shuffles.
        out = (
            out.join(F.broadcast(rel), on=shared, how="inner")
            if shared
            else out.crossJoin(rel)
        )
    assert out is not None
    # distinct() is unnecessary: triples are a set and every variable is
    # projected, so the join result already has set semantics.
    return out.select(*ag.query.variables)
